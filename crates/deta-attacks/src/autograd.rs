//! Graph-mode scalar automatic differentiation with higher-order support.
//!
//! The gradient-inversion attacks reproduced in this crate (DLG, iDLG,
//! IG) minimize objectives of the form `D(∇_θ L(x', y'), g*)` over a dummy
//! input `x'` — they differentiate *through* a gradient computation, which
//! requires second-order derivatives. This module provides a [`Tape`] whose
//! [`Tape::grad`] pass emits the gradient as **new graph nodes**, so the
//! result can itself be differentiated again, any number of times.
//!
//! Nodes are stored in an arena and identified by [`Var`]; construction
//! order is a topological order, so evaluation is a single linear sweep.
//!
//! # Examples
//!
//! ```
//! use deta_attacks::autograd::Tape;
//!
//! let mut t = Tape::new();
//! let x = t.input();
//! let y = t.mul(x, x); // y = x^2
//! let dy = t.grad(y, &[x])[0]; // dy/dx = 2x, as a graph node
//! let d2y = t.grad(dy, &[x])[0]; // d2y/dx2 = 2
//! let mut ev = t.evaluator();
//! ev.eval(&t, &[3.0]);
//! assert_eq!(ev.value(y), 9.0);
//! assert_eq!(ev.value(dy), 6.0);
//! assert_eq!(ev.value(d2y), 2.0);
//! ```

/// A node identifier in a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(u32);

impl Var {
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Primitive operations.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// External input; the payload is the input slot.
    Input(u32),
    /// Compile-time constant.
    Const(f64),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Neg(Var),
    Recip(Var),
    Tanh(Var),
    Exp(Var),
    Ln(Var),
    Sqrt(Var),
}

/// An append-only computation graph.
#[derive(Clone, Default)]
pub struct Tape {
    ops: Vec<Op>,
    n_inputs: u32,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Tape {
        Tape::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of declared inputs.
    pub fn input_count(&self) -> usize {
        self.n_inputs as usize
    }

    fn push(&mut self, op: Op) -> Var {
        let id = Var(self.ops.len() as u32);
        self.ops.push(op);
        id
    }

    /// Declares a new external input.
    pub fn input(&mut self) -> Var {
        let slot = self.n_inputs;
        self.n_inputs += 1;
        self.push(Op::Input(slot))
    }

    /// Declares `n` inputs at once.
    pub fn inputs(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.input()).collect()
    }

    /// A constant node.
    pub fn constant(&mut self, v: f64) -> Var {
        self.push(Op::Const(v))
    }

    /// `a + b`.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.push(Op::Add(a, b))
    }

    /// `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.push(Op::Sub(a, b))
    }

    /// `a * b`.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.push(Op::Mul(a, b))
    }

    /// `-a`.
    pub fn neg(&mut self, a: Var) -> Var {
        self.push(Op::Neg(a))
    }

    /// `1 / a`.
    pub fn recip(&mut self, a: Var) -> Var {
        self.push(Op::Recip(a))
    }

    /// `tanh(a)`.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.push(Op::Tanh(a))
    }

    /// `exp(a)`.
    pub fn exp(&mut self, a: Var) -> Var {
        self.push(Op::Exp(a))
    }

    /// `ln(a)`.
    pub fn ln(&mut self, a: Var) -> Var {
        self.push(Op::Ln(a))
    }

    /// `sqrt(a)`.
    pub fn sqrt(&mut self, a: Var) -> Var {
        self.push(Op::Sqrt(a))
    }

    /// `a / b`.
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        let r = self.recip(b);
        self.mul(a, r)
    }

    /// `a * c` for a compile-time constant `c`.
    pub fn scale(&mut self, a: Var, c: f64) -> Var {
        let k = self.constant(c);
        self.mul(a, k)
    }

    /// Sum of a slice of nodes (balanced reduction to keep graphs shallow).
    ///
    /// Returns a zero constant for an empty slice.
    pub fn sum(&mut self, vars: &[Var]) -> Var {
        match vars.len() {
            0 => self.constant(0.0),
            1 => vars[0],
            _ => {
                let mid = vars.len() / 2;
                let l = self.sum(&vars[..mid]);
                let r = self.sum(&vars[mid..]);
                self.add(l, r)
            }
        }
    }

    /// Dot product of two equal-length slices.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn dot(&mut self, a: &[Var], b: &[Var]) -> Var {
        assert_eq!(a.len(), b.len(), "dot length mismatch");
        let prods: Vec<Var> = a
            .iter()
            .zip(b.iter())
            .map(|(&x, &y)| self.mul(x, y))
            .collect();
        self.sum(&prods)
    }

    /// Squared L2 distance between two vectors.
    pub fn sq_dist(&mut self, a: &[Var], b: &[Var]) -> Var {
        assert_eq!(a.len(), b.len(), "sq_dist length mismatch");
        let terms: Vec<Var> = a
            .iter()
            .zip(b.iter())
            .map(|(&x, &y)| {
                let d = self.sub(x, y);
                self.mul(d, d)
            })
            .collect();
        self.sum(&terms)
    }

    /// Numerically stabilized softmax over a slice, returning probability
    /// nodes.
    ///
    /// Stabilization here subtracts nothing (graphs are built once and the
    /// exponent arguments in the attacks stay small); callers handling
    /// large logits should pre-scale.
    pub fn softmax(&mut self, logits: &[Var]) -> Vec<Var> {
        let exps: Vec<Var> = logits.iter().map(|&l| self.exp(l)).collect();
        let denom = self.sum(&exps);
        let inv = self.recip(denom);
        exps.iter().map(|&e| self.mul(e, inv)).collect()
    }

    /// Builds gradient nodes `d output / d wrt[i]` via reverse-mode
    /// differentiation, emitting new graph nodes (differentiable again).
    ///
    /// Nodes that do not influence `output` get a zero-constant gradient.
    pub fn grad(&mut self, output: Var, wrt: &[Var]) -> Vec<Var> {
        // Reachability: which nodes influence `output`?
        let n = output.idx() + 1;
        let mut reachable = vec![false; n];
        reachable[output.idx()] = true;
        for i in (0..n).rev() {
            if !reachable[i] {
                continue;
            }
            match self.ops[i] {
                Op::Input(_) | Op::Const(_) => {}
                Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) => {
                    reachable[a.idx()] = true;
                    reachable[b.idx()] = true;
                }
                Op::Neg(a) | Op::Recip(a) | Op::Tanh(a) | Op::Exp(a) | Op::Ln(a) | Op::Sqrt(a) => {
                    reachable[a.idx()] = true;
                }
            }
        }
        let mut adjoint: Vec<Option<Var>> = vec![None; n];
        adjoint[output.idx()] = Some(self.constant(1.0));
        for i in (0..n).rev() {
            let Some(a) = adjoint[i] else { continue };
            if !reachable[i] {
                continue;
            }
            let node = Var(i as u32);
            match self.ops[i] {
                Op::Input(_) | Op::Const(_) => {}
                Op::Add(x, y) => {
                    self.accumulate(&mut adjoint, x, a);
                    self.accumulate(&mut adjoint, y, a);
                }
                Op::Sub(x, y) => {
                    self.accumulate(&mut adjoint, x, a);
                    let na = self.neg(a);
                    self.accumulate(&mut adjoint, y, na);
                }
                Op::Mul(x, y) => {
                    let gx = self.mul(a, y);
                    self.accumulate(&mut adjoint, x, gx);
                    let gy = self.mul(a, x);
                    self.accumulate(&mut adjoint, y, gy);
                }
                Op::Neg(x) => {
                    let g = self.neg(a);
                    self.accumulate(&mut adjoint, x, g);
                }
                Op::Recip(x) => {
                    // d(1/x)/dx = -1/x^2 = -(node * node).
                    let sq = self.mul(node, node);
                    let neg_sq = self.neg(sq);
                    let g = self.mul(a, neg_sq);
                    self.accumulate(&mut adjoint, x, g);
                }
                Op::Tanh(x) => {
                    // d tanh / dx = 1 - tanh^2; reuse the forward node.
                    let t2 = self.mul(node, node);
                    let one = self.constant(1.0);
                    let d = self.sub(one, t2);
                    let g = self.mul(a, d);
                    self.accumulate(&mut adjoint, x, g);
                }
                Op::Exp(x) => {
                    let g = self.mul(a, node);
                    self.accumulate(&mut adjoint, x, g);
                }
                Op::Ln(x) => {
                    let r = self.recip(x);
                    let g = self.mul(a, r);
                    self.accumulate(&mut adjoint, x, g);
                }
                Op::Sqrt(x) => {
                    // d sqrt / dx = 1 / (2 sqrt(x)); reuse the forward node.
                    let r = self.recip(node);
                    let half = self.scale(r, 0.5);
                    let g = self.mul(a, half);
                    self.accumulate(&mut adjoint, x, g);
                }
            }
        }
        wrt.iter()
            .map(|&w| match adjoint.get(w.idx()).copied().flatten() {
                Some(g) => g,
                None => self.constant(0.0),
            })
            .collect()
    }

    fn accumulate(&mut self, adjoint: &mut [Option<Var>], target: Var, term: Var) {
        adjoint[target.idx()] = Some(match adjoint[target.idx()] {
            None => term,
            Some(prev) => self.add(prev, term),
        });
    }

    /// Creates a reusable evaluator sized for the current tape.
    pub fn evaluator(&self) -> Evaluator {
        Evaluator {
            values: vec![0.0; self.ops.len()],
        }
    }
}

/// A forward-evaluation buffer for a [`Tape`].
pub struct Evaluator {
    values: Vec<f64>,
}

impl Evaluator {
    /// Evaluates every node given the input slot values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the tape's input count.
    pub fn eval(&mut self, tape: &Tape, inputs: &[f64]) {
        assert_eq!(inputs.len(), tape.input_count(), "input count mismatch");
        if self.values.len() != tape.len() {
            self.values.resize(tape.len(), 0.0);
        }
        for (i, op) in tape.ops.iter().enumerate() {
            let v = match *op {
                Op::Input(slot) => inputs[slot as usize],
                Op::Const(c) => c,
                Op::Add(a, b) => self.values[a.idx()] + self.values[b.idx()],
                Op::Sub(a, b) => self.values[a.idx()] - self.values[b.idx()],
                Op::Mul(a, b) => self.values[a.idx()] * self.values[b.idx()],
                Op::Neg(a) => -self.values[a.idx()],
                Op::Recip(a) => 1.0 / self.values[a.idx()],
                Op::Tanh(a) => self.values[a.idx()].tanh(),
                Op::Exp(a) => self.values[a.idx()].exp(),
                Op::Ln(a) => self.values[a.idx()].ln(),
                Op::Sqrt(a) => self.values[a.idx()].sqrt(),
            };
            self.values[i] = v;
        }
    }

    /// Reads a node's value from the last evaluation.
    pub fn value(&self, v: Var) -> f64 {
        self.values[v.idx()]
    }

    /// Reads many node values.
    pub fn values(&self, vars: &[Var]) -> Vec<f64> {
        vars.iter().map(|&v| self.value(v)).collect()
    }
}
