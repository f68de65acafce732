//! A tape of `f32` tensor operations whose gradient is more tape.
//!
//! The gradient-inversion attacks reproduced in this crate (DLG, iDLG,
//! IG) minimize objectives of the form `D(∇_θ L(x', y'), g*)` over a dummy
//! input `x'`: they differentiate *through* a gradient, which takes
//! second derivatives. [`Tape::grad`] therefore writes each operation's
//! vector-Jacobian product as **new nodes** of the same tape, in the same
//! operations, so a gradient can be differentiated again.
//!
//! Every node is a 2-D `f32` tensor. Products run on `deta-tensor`'s GEMM
//! (either operand viewed transposed), convolutions on `im2col` /
//! `col2im`. Nodes live in an arena in construction order, which is a
//! topological order: an [`Evaluator`] holds one buffer per node and
//! recomputes them in one sweep, so a tape built once per attack is
//! re-evaluated every iteration without allocating.
//!
//! # Examples
//!
//! ```
//! use deta_attacks::tape::Tape;
//!
//! let mut t = Tape::new();
//! let x = t.input(1, 1);
//! let y = t.mul(x, x); // y = x^2
//! let dy = t.grad(y, &[x])[0]; // dy/dx = 2x, as tape nodes
//! let d2y = t.grad(dy, &[x])[0]; // d2y/dx2 = 2
//! let mut ev = t.evaluator();
//! ev.eval(&t, &[&[3.0]]);
//! assert_eq!(ev.value(y), &[9.0]);
//! assert_eq!(ev.value(dy), &[6.0]);
//! assert_eq!(ev.value(d2y), &[2.0]);
//! ```

use deta_tensor::gemm::{gemm, Mat, Store};
use deta_tensor::{col2im_into, im2col_into, ConvGeom};
use std::sync::Arc;

/// A node of a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(u32);

impl Var {
    fn idx(self) -> usize {
        self.0 as usize
    }
}

#[derive(Clone, Copy, Debug)]
enum Unary {
    Scale(f32),
    Tanh,
    Exp,
    Ln,
    Recip,
    Sqrt,
}

#[derive(Clone, Copy, Debug)]
enum Binary {
    Add,
    Sub,
    Mul,
}

#[derive(Clone, Debug)]
enum Op {
    /// External input; the payload is its slot.
    Input(usize),
    /// Every element holds the value.
    Const(f32),
    Unary(Unary, Var),
    /// Elementwise, on operands of one shape.
    Binary(Binary, Var, Var),
    /// `op(a) · op(b)`, `op` transposing where its flag is set.
    MatMul(Var, Var, bool, bool),
    /// `[m, n] -> [m, 1]`; a constant to [`Tape::grad`].
    RowMax(Var),
    /// `out[i] = a[idx[i]]` over flat elements.
    Gather(Var, Arc<[u32]>),
    /// `out[idx[i]] += a[i]` over flat elements, from zero: the adjoint of
    /// [`Op::Gather`].
    Scatter(Var, Arc<[u32]>),
    /// One image `[1, C·H·W]` to its patch matrix `[C·k·k, out_h·out_w]`.
    Im2col(Var, ConvGeom),
    /// The adjoint of [`Op::Im2col`].
    Col2im(Var, ConvGeom),
}

impl Op {
    /// The operands a gradient flows into.
    fn operands(&self) -> [Option<Var>; 2] {
        match *self {
            Op::Input(_) | Op::Const(_) | Op::RowMax(_) => [None, None],
            Op::Binary(_, a, b) | Op::MatMul(a, b, ..) => [Some(a), Some(b)],
            Op::Unary(_, a)
            | Op::Gather(a, _)
            | Op::Scatter(a, _)
            | Op::Im2col(a, _)
            | Op::Col2im(a, _) => [Some(a), None],
        }
    }
}

struct Node {
    op: Op,
    shape: [usize; 2],
}

/// An append-only graph of tensor operations.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    inputs: usize,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Tape {
        Tape::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// A node's `[rows, cols]`.
    pub fn shape(&self, v: Var) -> [usize; 2] {
        self.nodes[v.idx()].shape
    }

    fn push(&mut self, op: Op, shape: [usize; 2]) -> Var {
        let id = Var(self.nodes.len() as u32);
        self.nodes.push(Node { op, shape });
        id
    }

    /// Declares the next input slot, a `[rows, cols]` tensor.
    pub fn input(&mut self, rows: usize, cols: usize) -> Var {
        self.inputs += 1;
        self.push(Op::Input(self.inputs - 1), [rows, cols])
    }

    /// A `[rows, cols]` tensor holding `value` everywhere.
    pub fn constant(&mut self, rows: usize, cols: usize, value: f32) -> Var {
        self.push(Op::Const(value), [rows, cols])
    }

    fn unary(&mut self, u: Unary, a: Var) -> Var {
        self.push(Op::Unary(u, a), self.shape(a))
    }

    fn binary(&mut self, b: Binary, x: Var, y: Var) -> Var {
        assert_eq!(self.shape(x), self.shape(y), "elementwise shape mismatch");
        self.push(Op::Binary(b, x, y), self.shape(x))
    }

    /// `a + b`.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.binary(Binary::Add, a, b)
    }

    /// `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.binary(Binary::Sub, a, b)
    }

    /// `a ⊙ b`.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.binary(Binary::Mul, a, b)
    }

    /// `-a`.
    pub fn neg(&mut self, a: Var) -> Var {
        self.scale(a, -1.0)
    }

    /// `c · a`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        self.unary(Unary::Scale(c), a)
    }

    /// `tanh(a)`.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.unary(Unary::Tanh, a)
    }

    /// `exp(a)`.
    pub fn exp(&mut self, a: Var) -> Var {
        self.unary(Unary::Exp, a)
    }

    /// `ln(a)`.
    pub fn ln(&mut self, a: Var) -> Var {
        self.unary(Unary::Ln, a)
    }

    /// `1 / a`.
    pub fn recip(&mut self, a: Var) -> Var {
        self.unary(Unary::Recip, a)
    }

    /// `sqrt(a)`.
    pub fn sqrt(&mut self, a: Var) -> Var {
        self.unary(Unary::Sqrt, a)
    }

    /// `op(a) · op(b)`, where `op` transposes its operand when `ta` / `tb`
    /// is set; panics if the inner dimensions differ.
    pub fn matmul(&mut self, a: Var, b: Var, ta: bool, tb: bool) -> Var {
        let t = |[r, c]: [usize; 2], t: bool| if t { [c, r] } else { [r, c] };
        let ([m, k], [k2, n]) = (t(self.shape(a), ta), t(self.shape(b), tb));
        assert_eq!(k, k2, "matmul inner dimensions differ");
        self.push(Op::MatMul(a, b, ta, tb), [m, n])
    }

    // Broadcasts and sums are products with a vector of ones, so their
    // vector-Jacobian products are each other's.

    /// A `[1, n]` row repeated `rows` times.
    pub fn row_broadcast(&mut self, a: Var, rows: usize) -> Var {
        let ones = self.constant(rows, 1, 1.0);
        self.matmul(ones, a, false, false)
    }

    /// A `[m, 1]` column repeated `cols` times.
    pub fn col_broadcast(&mut self, a: Var, cols: usize) -> Var {
        let ones = self.constant(1, cols, 1.0);
        self.matmul(a, ones, false, false)
    }

    /// The sum of each column: `[m, n] -> [1, n]`.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let ones = self.constant(1, self.shape(a)[0], 1.0);
        self.matmul(ones, a, false, false)
    }

    /// The sum of each row: `[m, n] -> [m, 1]`.
    pub fn sum_cols(&mut self, a: Var) -> Var {
        let ones = self.constant(self.shape(a)[1], 1, 1.0);
        self.matmul(a, ones, false, false)
    }

    /// The sum of every element, `[1, 1]`.
    pub fn sum(&mut self, a: Var) -> Var {
        let rows = self.sum_rows(a);
        self.sum_cols(rows)
    }

    /// `Σ a ⊙ b`, `[1, 1]`.
    pub fn dot(&mut self, a: Var, b: Var) -> Var {
        let p = self.mul(a, b);
        self.sum(p)
    }

    /// `Σ (a - b)²`, `[1, 1]`.
    pub fn sq_dist(&mut self, a: Var, b: Var) -> Var {
        let d = self.sub(a, b);
        self.dot(d, d)
    }

    /// Elements of `a` at flat positions `idx`, shaped `shape`; panics if
    /// `idx` does not fill `shape` or reaches past `a`.
    pub fn gather(&mut self, a: Var, idx: impl Into<Arc<[u32]>>, shape: [usize; 2]) -> Var {
        let idx = idx.into();
        let [r, c] = self.shape(a);
        assert_eq!(idx.len(), shape[0] * shape[1], "gather size mismatch");
        assert!(
            idx.iter().all(|&i| (i as usize) < r * c),
            "gather out of range"
        );
        self.push(Op::Gather(a, idx), shape)
    }

    /// A zero `shape` tensor with `a`'s elements added at flat positions
    /// `idx`; panics if `idx` does not match `a` or reaches past `shape`.
    pub fn scatter(&mut self, a: Var, idx: impl Into<Arc<[u32]>>, shape: [usize; 2]) -> Var {
        let idx = idx.into();
        let [r, c] = self.shape(a);
        assert_eq!(idx.len(), r * c, "scatter size mismatch");
        assert!(
            idx.iter().all(|&i| (i as usize) < shape[0] * shape[1]),
            "scatter out of range"
        );
        self.push(Op::Scatter(a, idx), shape)
    }

    /// The patch matrix `[C·k·k, out_h·out_w]` of one image `[1, C·H·W]`.
    pub fn im2col(&mut self, a: Var, g: ConvGeom) -> Var {
        assert_eq!(
            self.shape(a),
            [1, g.in_c * g.in_h * g.in_w],
            "not one image"
        );
        self.push(Op::Im2col(a, g), [g.rows(), g.cols()])
    }

    /// The adjoint of [`Tape::im2col`]: sums patches back into an image.
    pub fn col2im(&mut self, a: Var, g: ConvGeom) -> Var {
        assert_eq!(self.shape(a), [g.rows(), g.cols()], "not a patch matrix");
        self.push(Op::Col2im(a, g), [1, g.in_c * g.in_h * g.in_w])
    }

    /// The row maximum, `[m, 1]`, which [`Tape::grad`] treats as a
    /// constant.
    fn row_max(&mut self, a: Var) -> Var {
        self.push(Op::RowMax(a), [self.shape(a)[0], 1])
    }

    /// Row-wise log-softmax. The row maximum is subtracted first, as a
    /// constant: softmax is shift-invariant, so values and derivatives
    /// are those of the plain formula, and no exponent overflows.
    pub fn log_softmax(&mut self, z: Var) -> Var {
        let n = self.shape(z)[1];
        let max = self.row_max(z);
        let max = self.col_broadcast(max, n);
        let shifted = self.sub(z, max);
        let e = self.exp(shifted);
        let total = self.sum_cols(e);
        let lse = self.ln(total);
        let lse = self.col_broadcast(lse, n);
        self.sub(shifted, lse)
    }

    /// Row-wise softmax.
    pub fn softmax(&mut self, z: Var) -> Var {
        let ls = self.log_softmax(z);
        self.exp(ls)
    }

    /// Builds `d output / d wrt[i]` by reverse-mode differentiation, as new
    /// nodes that can be differentiated again.
    ///
    /// Adjoints flow only into nodes that depend on some `wrt`; a `wrt`
    /// that `output` does not reach gets a zero constant.
    ///
    /// # Panics
    ///
    /// Panics if `output` is not `[1, 1]`.
    pub fn grad(&mut self, output: Var, wrt: &[Var]) -> Vec<Var> {
        assert_eq!(self.shape(output), [1, 1], "gradient of a non-scalar");
        let n = output.idx() + 1;
        let mut live = vec![false; n];
        for w in wrt.iter().filter(|w| w.idx() < n) {
            live[w.idx()] = true;
        }
        for (i, node) in self.nodes[..n].iter().enumerate() {
            live[i] |= node.op.operands().iter().flatten().any(|o| live[o.idx()]);
        }
        let mut adj: Vec<Option<Var>> = vec![None; n];
        if live[output.idx()] {
            adj[output.idx()] = Some(self.constant(1, 1, 1.0));
        }
        for i in (0..n).rev() {
            let Some(g) = adj[i] else { continue };
            let node = Var(i as u32);
            let operands = self.nodes[i].op.operands();
            let [la, lb] = operands.map(|o| o.is_some_and(|o| live[o.idx()]));
            // The adjoint terms of the first and second operand.
            let (mut ga, mut gb) = (None, None);
            match self.nodes[i].op.clone() {
                Op::Input(_) | Op::Const(_) | Op::RowMax(_) => {}
                Op::Binary(op, x, y) => {
                    ga = la.then(|| match op {
                        Binary::Mul => self.mul(g, y),
                        Binary::Add | Binary::Sub => g,
                    });
                    gb = lb.then(|| match op {
                        Binary::Add => g,
                        Binary::Sub => self.neg(g),
                        Binary::Mul => self.mul(g, x),
                    });
                }
                Op::Unary(op, x) => {
                    ga = la.then(|| match op {
                        Unary::Scale(c) => self.scale(g, c),
                        // tanh' = 1 - tanh²: g - (g·t)·t.
                        Unary::Tanh => {
                            let gt = self.mul(g, node);
                            let gtt = self.mul(gt, node);
                            self.sub(g, gtt)
                        }
                        Unary::Exp => self.mul(g, node),
                        Unary::Ln => {
                            let r = self.recip(x);
                            self.mul(g, r)
                        }
                        // (1/x)' = -(1/x)².
                        Unary::Recip => {
                            let sq = self.mul(node, node);
                            let gsq = self.mul(g, sq);
                            self.neg(gsq)
                        }
                        // sqrt' = 1 / (2 sqrt).
                        Unary::Sqrt => {
                            let r = self.recip(node);
                            let gr = self.mul(g, r);
                            self.scale(gr, 0.5)
                        }
                    });
                }
                Op::MatMul(x, y, tx, ty) => {
                    ga = la.then(|| match tx {
                        false => self.matmul(g, y, false, !ty),
                        true => self.matmul(y, g, ty, true),
                    });
                    gb = lb.then(|| match ty {
                        false => self.matmul(x, g, !tx, false),
                        true => self.matmul(g, x, true, tx),
                    });
                }
                Op::Gather(x, idx) => ga = la.then(|| self.scatter(g, idx, self.shape(x))),
                Op::Scatter(x, idx) => ga = la.then(|| self.gather(g, idx, self.shape(x))),
                Op::Im2col(_, geom) => ga = la.then(|| self.col2im(g, geom)),
                Op::Col2im(_, geom) => ga = la.then(|| self.im2col(g, geom)),
            }
            for (target, term) in operands.into_iter().zip([ga, gb]) {
                if let (Some(target), Some(term)) = (target, term) {
                    adj[target.idx()] = Some(match adj[target.idx()] {
                        None => term,
                        Some(prev) => self.add(prev, term),
                    });
                }
            }
        }
        wrt.iter()
            .map(|&w| match adj.get(w.idx()).copied().flatten() {
                Some(g) => g,
                None => {
                    let [r, c] = self.shape(w);
                    self.constant(r, c, 0.0)
                }
            })
            .collect()
    }

    /// Creates an evaluator for the tape.
    pub fn evaluator(&self) -> Evaluator {
        Evaluator::default()
    }
}

/// One buffer per node of a [`Tape`], recomputed by [`Evaluator::eval`].
#[derive(Default)]
pub struct Evaluator {
    values: Vec<Vec<f32>>,
}

impl Evaluator {
    /// Evaluates every node, given one row-major buffer per input slot;
    /// panics if the inputs' count or lengths differ from the tape's.
    pub fn eval(&mut self, tape: &Tape, inputs: &[&[f32]]) {
        assert_eq!(inputs.len(), tape.inputs, "input count mismatch");
        // Buffers for the nodes the tape gained since the last call.
        for node in &tape.nodes[self.values.len()..] {
            let fill = if let Op::Const(c) = node.op { c } else { 0.0 };
            self.values.push(vec![fill; node.shape[0] * node.shape[1]]);
        }
        for (i, node) in tape.nodes.iter().enumerate() {
            let (done, rest) = self.values.split_at_mut(i);
            let out = &mut rest[0][..];
            let v = |x: Var| &done[x.idx()][..];
            match node.op {
                Op::Input(slot) => {
                    assert_eq!(
                        inputs[slot].len(),
                        out.len(),
                        "input {slot} length mismatch"
                    );
                    out.copy_from_slice(inputs[slot]);
                }
                Op::Const(_) => {}
                Op::Unary(op, a) => {
                    for (o, &x) in out.iter_mut().zip(v(a)) {
                        *o = match op {
                            Unary::Scale(c) => c * x,
                            Unary::Tanh => x.tanh(),
                            Unary::Exp => x.exp(),
                            Unary::Ln => x.ln(),
                            Unary::Recip => 1.0 / x,
                            Unary::Sqrt => x.sqrt(),
                        };
                    }
                }
                Op::Binary(op, a, b) => {
                    for ((o, &x), &y) in out.iter_mut().zip(v(a)).zip(v(b)) {
                        *o = match op {
                            Binary::Add => x + y,
                            Binary::Sub => x - y,
                            Binary::Mul => x * y,
                        };
                    }
                }
                Op::MatMul(a, b, ta, tb) => {
                    let mat = |x: Var, t: bool| {
                        let [r, c] = tape.shape(x);
                        let m = Mat::new(v(x), r, c);
                        if t {
                            m.t()
                        } else {
                            m
                        }
                    };
                    gemm(mat(a, ta), mat(b, tb), out, Store::Write);
                }
                Op::RowMax(a) => {
                    let rows = v(a).chunks_exact(tape.shape(a)[1]);
                    for (o, row) in out.iter_mut().zip(rows) {
                        *o = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    }
                }
                Op::Gather(a, ref idx) => {
                    let a = v(a);
                    for (o, &j) in out.iter_mut().zip(idx.iter()) {
                        *o = a[j as usize];
                    }
                }
                Op::Scatter(a, ref idx) => {
                    out.fill(0.0);
                    for (&x, &j) in v(a).iter().zip(idx.iter()) {
                        out[j as usize] += x;
                    }
                }
                Op::Im2col(a, ref g) => im2col_into(v(a), g, out),
                Op::Col2im(a, ref g) => {
                    out.fill(0.0);
                    col2im_into(v(a), g, out);
                }
            }
        }
    }

    /// A node's value from the last evaluation, row-major.
    pub fn value(&self, v: Var) -> &[f32] {
        &self.values[v.idx()]
    }
}
