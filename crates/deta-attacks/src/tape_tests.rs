use crate::tape::*;
use deta_crypto::DetRng;
use deta_tensor::ConvGeom;

fn eval1(tape: &Tape, out: Var, inputs: &[&[f32]]) -> Vec<f32> {
    let mut ev = tape.evaluator();
    ev.eval(tape, inputs);
    ev.value(out).to_vec()
}

fn close(got: f32, want: f64, tol: f64) -> bool {
    (f64::from(got) - want).abs() <= tol * (1.0 + want.abs())
}

/// Checks `df/dx` and the Hessian-vector product `d(df/dx · v)/dx` of a
/// scalar `f` built on a `[rows, cols]` input against central differences
/// of `f` and of `df/dx · v`, all evaluated on the tape in `f32`: with a
/// step of 1e-2 both truncation and rounding stay below 1e-3 relative.
fn check_against_central_differences(
    shape: [usize; 2],
    seed: u64,
    build: impl Fn(&mut Tape, Var) -> Var,
) {
    let mut t = Tape::new();
    let x = t.input(shape[0], shape[1]);
    let v = t.input(shape[0], shape[1]);
    let f = build(&mut t, x);
    let g = t.grad(f, &[x])[0];
    let gv = t.dot(g, v);
    let hv = t.grad(gv, &[x])[0];
    let mut rng = DetRng::from_u64(seed);
    let n = shape[0] * shape[1];
    let x0: Vec<f32> = (0..n).map(|_| rng.next_f32() - 0.5).collect();
    let v0: Vec<f32> = (0..n).map(|_| rng.next_f32() - 0.5).collect();
    let mut ev = t.evaluator();
    ev.eval(&t, &[&x0, &v0]);
    let (g0, hv0) = (ev.value(g).to_vec(), ev.value(hv).to_vec());
    let h = 1e-2f32;
    for i in 0..n {
        let mut at = |xi: f32| {
            let mut xs = x0.clone();
            xs[i] = xi;
            ev.eval(&t, &[&xs, &v0]);
            (f64::from(ev.value(f)[0]), f64::from(ev.value(gv)[0]))
        };
        let (xp, xm) = (x0[i] + h, x0[i] - h);
        let ((fp, gvp), (fm, gvm)) = (at(xp), at(xm));
        let step = f64::from(xp) - f64::from(xm);
        let (dg, dhv) = ((fp - fm) / step, (gvp - gvm) / step);
        assert!(close(g0[i], dg, 2e-3), "df/dx[{i}]: tape {} vs {dg}", g0[i]);
        assert!(
            close(hv0[i], dhv, 2e-3),
            "Hv[{i}]: tape {} vs {dhv}",
            hv0[i]
        );
    }
}

#[test]
fn basic_arithmetic() {
    let mut t = Tape::new();
    let x = t.input(1, 2);
    let y = t.input(1, 2);
    let s = t.add(x, y);
    let d = t.sub(x, y);
    let p = t.mul(s, d); // x^2 - y^2
    assert_eq!(eval1(&t, p, &[&[3.0, 1.0], &[2.0, 0.5]]), [5.0, 0.75]);
}

#[test]
fn unary_ops() {
    let mut t = Tape::new();
    let x = t.input(1, 1);
    let ops = [
        t.neg(x),
        t.recip(x),
        t.tanh(x),
        t.exp(x),
        t.ln(x),
        t.sqrt(x),
        t.scale(x, 1.5),
    ];
    let mut ev = t.evaluator();
    ev.eval(&t, &[&[2.0]]);
    let want = [
        -2.0,
        0.5,
        2.0f64.tanh(),
        2.0f64.exp(),
        2.0f64.ln(),
        2.0f64.sqrt(),
        3.0,
    ];
    for (&op, &w) in ops.iter().zip(want.iter()) {
        assert!(close(ev.value(op)[0], w, 1e-6), "{op:?}");
    }
}

#[test]
fn first_order_gradients() {
    // f = x^2 y + tanh(y); df/dx = 2xy, df/dy = x^2 + 1 - tanh^2(y).
    let mut t = Tape::new();
    let x = t.input(1, 1);
    let y = t.input(1, 1);
    let x2 = t.mul(x, x);
    let x2y = t.mul(x2, y);
    let th = t.tanh(y);
    let f = t.add(x2y, th);
    let g = t.grad(f, &[x, y]);
    let mut ev = t.evaluator();
    ev.eval(&t, &[&[1.5], &[0.7]]);
    assert!(close(ev.value(g[0])[0], 2.0 * 1.5 * 0.7, 1e-6));
    let want_gy = 1.5f64 * 1.5 + 1.0 - 0.7f64.tanh().powi(2);
    assert!(close(ev.value(g[1])[0], want_gy, 1e-6));
}

#[test]
fn second_order_gradients() {
    // f = x^3: f' = 3x^2, f'' = 6x, f''' = 6.
    let mut t = Tape::new();
    let x = t.input(1, 1);
    let x2 = t.mul(x, x);
    let f = t.mul(x2, x);
    let d1 = t.grad(f, &[x])[0];
    let d2 = t.grad(d1, &[x])[0];
    let d3 = t.grad(d2, &[x])[0];
    let mut ev = t.evaluator();
    ev.eval(&t, &[&[2.0]]);
    assert_eq!(ev.value(d1), [12.0]);
    assert_eq!(ev.value(d2), [12.0]);
    assert_eq!(ev.value(d3), [6.0]);
}

#[test]
fn gradient_of_unreachable_is_zero() {
    let mut t = Tape::new();
    let x = t.input(1, 1);
    let y = t.input(2, 3);
    let f = t.mul(x, x);
    let g = t.grad(f, &[y]);
    assert_eq!(t.shape(g[0]), [2, 3]);
    assert_eq!(eval1(&t, g[0], &[&[5.0], &[3.0; 6]]), [0.0; 6]);
}

#[test]
fn div_and_chain_rule() {
    // f = x / (1 + x^2); f'(x) = (1 - x^2) / (1 + x^2)^2.
    let mut t = Tape::new();
    let x = t.input(1, 1);
    let one = t.constant(1, 1, 1.0);
    let x2 = t.mul(x, x);
    let denom = t.add(one, x2);
    let inv = t.recip(denom);
    let f = t.mul(x, inv);
    let d = t.grad(f, &[x])[0];
    let xv = 0.8f64;
    let want = (1.0 - xv * xv) / (1.0 + xv * xv).powi(2);
    assert!(close(eval1(&t, d, &[&[0.8]])[0], want, 1e-6));
}

#[test]
fn sum_and_dot_helpers() {
    let mut t = Tape::new();
    let xs = t.input(2, 2);
    let total = t.sum(xs);
    let sq = t.dot(xs, xs);
    let rows = t.sum_rows(xs);
    let cols = t.sum_cols(xs);
    let outer = t.matmul(xs, xs, true, false); // xsᵀ · xs
    let mut ev = t.evaluator();
    ev.eval(&t, &[&[1.0, 2.0, 3.0, 4.0]]);
    assert_eq!(ev.value(total), [10.0]);
    assert_eq!(ev.value(sq), [30.0]);
    assert_eq!(ev.value(rows), [4.0, 6.0]);
    assert_eq!(ev.value(cols), [3.0, 7.0]);
    assert_eq!(ev.value(outer), [10.0, 14.0, 14.0, 20.0]);
}

#[test]
fn sq_dist_gradient() {
    // f = ||a - b||^2; df/da_i = 2 (a_i - b_i).
    let mut t = Tape::new();
    let a = t.input(1, 3);
    let b = t.input(1, 3);
    let f = t.sq_dist(a, b);
    let g = t.grad(f, &[a])[0];
    let got = eval1(&t, g, &[&[1.0, 2.0, 3.0], &[0.5, 0.5, 0.5]]);
    assert_eq!(got, [1.0, 3.0, 5.0]);
}

#[test]
fn softmax_sums_to_one_and_grads() {
    let mut t = Tape::new();
    let logits = t.input(1, 3);
    let probs = t.softmax(logits);
    let total = t.sum(probs);
    // d p0 / d l0 = p0 (1 - p0).
    let p0 = t.gather(probs, vec![0], [1, 1]);
    let g = t.grad(p0, &[logits])[0];
    let mut ev = t.evaluator();
    ev.eval(&t, &[&[0.1, 0.5, -0.3]]);
    assert!(close(ev.value(total)[0], 1.0, 1e-6));
    let p = f64::from(ev.value(probs)[0]);
    assert!(close(ev.value(g)[0], p * (1.0 - p), 1e-6));
    // Logits far past exp's range give the same probabilities.
    ev.eval(&t, &[&[1000.1, 1000.5, 999.7]]);
    assert!(close(ev.value(probs)[0], p, 1e-4));
}

#[test]
fn numeric_second_order_check() {
    // f = tanh(x*y) + exp(-x^2) against central differences for d2f/dx2.
    let mut t = Tape::new();
    let x = t.input(1, 1);
    let y = t.input(1, 1);
    let xy = t.mul(x, y);
    let th = t.tanh(xy);
    let x2 = t.mul(x, x);
    let nx2 = t.neg(x2);
    let e = t.exp(nx2);
    let f = t.add(th, e);
    let d1 = t.grad(f, &[x])[0];
    let d2 = t.grad(d1, &[x])[0];
    let (xv, yv) = (0.37f64, -0.81f64);
    let h = 1e-4;
    let fval = |xx: f64| (xx * yv).tanh() + (-xx * xx).exp();
    let numeric = (fval(xv + h) - 2.0 * fval(xv) + fval(xv - h)) / (h * h);
    let got = eval1(&t, d2, &[&[xv as f32], &[yv as f32]])[0];
    assert!(close(got, numeric, 1e-5), "{got} vs {numeric}");
}

#[test]
fn evaluator_resizes_after_growth() {
    let mut t = Tape::new();
    let x = t.input(1, 1);
    let f = t.mul(x, x);
    let mut ev = t.evaluator();
    ev.eval(&t, &[&[2.0]]);
    assert_eq!(ev.value(f), [4.0]);
    let g = t.grad(f, &[x])[0];
    ev.eval(&t, &[&[2.0]]);
    assert_eq!(ev.value(g), [4.0]);
    // Re-evaluation overwrites every buffer.
    ev.eval(&t, &[&[-3.0]]);
    assert_eq!((ev.value(f), ev.value(g)), (&[9.0][..], &[-6.0][..]));
}

#[test]
fn matmul_gradients_match_central_differences_under_every_transpose() {
    for (i, (ta, tb)) in [(false, false), (false, true), (true, false), (true, true)]
        .into_iter()
        .enumerate()
    {
        // x is [3, 4]; both factors are read from it.
        check_against_central_differences([3, 4], 10 + i as u64, |t, x| {
            let a = t.tanh(x);
            let k = if ta { 3 } else { 4 };
            let shape = if tb { [2, k] } else { [k, 2] };
            let b = t.gather(x, (0..2 * k as u32).rev().collect::<Vec<_>>(), shape);
            let p = t.matmul(a, b, ta, tb);
            let s = t.tanh(p);
            t.dot(s, s)
        });
    }
}

#[test]
fn reductions_broadcasts_and_gathers_match_central_differences() {
    check_against_central_differences([2, 3], 20, |t, x| {
        let row = t.gather(x, vec![5, 0, 3], [1, 3]);
        let rows = t.row_broadcast(row, 2);
        let m = t.mul(x, rows);
        let per_row = t.sum_cols(m); // [2, 1]
        let spread = t.col_broadcast(per_row, 3);
        let ls = t.log_softmax(spread);
        let e = t.exp(x);
        let cols = t.sum_rows(e); // [1, 3]
        let r = t.recip(cols);
        let q = t.sqrt(r);
        let qs = t.scatter(q, vec![4, 1, 2], [2, 3]);
        let mix = t.sub(ls, qs);
        let lx = t.ln(e);
        let z = t.scale(lx, 0.5);
        let w = t.mul(mix, z);
        let sw = t.tanh(w);
        let n = t.neg(sw);
        t.dot(n, mix)
    });
}

#[test]
fn im2col_gradients_match_central_differences() {
    // A 2x4x4 image, 3x3 kernel, stride 2, padding 1: overlapping patches,
    // so col2im sums.
    let g = ConvGeom {
        in_c: 2,
        in_h: 4,
        in_w: 4,
        k: 3,
        stride: 2,
        pad: 1,
    };
    check_against_central_differences([1, 32], 30, |t, x| {
        let cols = t.im2col(x, g);
        assert_eq!(t.shape(cols), [18, 4]);
        let c = t.tanh(cols);
        let back = t.col2im(c, g);
        let b2 = t.mul(back, x);
        let cs = t.dot(c, c);
        let bs = t.sum(b2);
        t.add(cs, bs)
    });
}

#[test]
fn im2col_and_col2im_are_adjoint() {
    // <im2col(x), c> = <x, col2im(c)>.
    let g = ConvGeom {
        in_c: 2,
        in_h: 5,
        in_w: 5,
        k: 3,
        stride: 2,
        pad: 1,
    };
    let mut t = Tape::new();
    let x = t.input(1, 50);
    let c = t.input(g.rows(), g.cols());
    let cols = t.im2col(x, g);
    let back = t.col2im(c, g);
    let lhs = t.dot(cols, c);
    let rhs = t.dot(x, back);
    let mut rng = DetRng::from_u64(40);
    let xv: Vec<f32> = (0..50).map(|_| rng.next_f32()).collect();
    let cv: Vec<f32> = (0..g.rows() * g.cols()).map(|_| rng.next_f32()).collect();
    let mut ev = t.evaluator();
    ev.eval(&t, &[&xv, &cv]);
    let (l, r) = (ev.value(lhs)[0], ev.value(rhs)[0]);
    assert!(close(l, f64::from(r), 1e-5), "{l} vs {r}");
}
