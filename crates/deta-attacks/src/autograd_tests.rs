use crate::autograd::*;

fn eval1(tape: &Tape, out: Var, inputs: &[f64]) -> f64 {
    let mut ev = tape.evaluator();
    ev.eval(tape, inputs);
    ev.value(out)
}

#[test]
fn basic_arithmetic() {
    let mut t = Tape::new();
    let x = t.input();
    let y = t.input();
    let s = t.add(x, y);
    let d = t.sub(x, y);
    let p = t.mul(s, d); // x^2 - y^2
    assert_eq!(eval1(&t, p, &[3.0, 2.0]), 5.0);
}

#[test]
fn unary_ops() {
    let mut t = Tape::new();
    let x = t.input();
    let ops = [
        t.neg(x),
        t.recip(x),
        t.tanh(x),
        t.exp(x),
        t.ln(x),
        t.sqrt(x),
    ];
    let mut ev = t.evaluator();
    ev.eval(&t, &[2.0]);
    let got = ev.values(&ops);
    let want = [
        -2.0,
        0.5,
        2.0f64.tanh(),
        2.0f64.exp(),
        2.0f64.ln(),
        2.0f64.sqrt(),
    ];
    for (g, w) in got.iter().zip(want.iter()) {
        assert!((g - w).abs() < 1e-12);
    }
}

#[test]
fn first_order_gradients() {
    // f = x^2 y + tanh(y); df/dx = 2xy, df/dy = x^2 + 1 - tanh^2(y).
    let mut t = Tape::new();
    let x = t.input();
    let y = t.input();
    let x2 = t.mul(x, x);
    let x2y = t.mul(x2, y);
    let th = t.tanh(y);
    let f = t.add(x2y, th);
    let g = t.grad(f, &[x, y]);
    let mut ev = t.evaluator();
    ev.eval(&t, &[1.5, 0.7]);
    assert!((ev.value(g[0]) - 2.0 * 1.5 * 0.7).abs() < 1e-12);
    let want_gy = 1.5f64 * 1.5 + 1.0 - 0.7f64.tanh().powi(2);
    assert!((ev.value(g[1]) - want_gy).abs() < 1e-12);
}

#[test]
fn second_order_gradients() {
    // f = x^3: f' = 3x^2, f'' = 6x, f''' = 6.
    let mut t = Tape::new();
    let x = t.input();
    let x2 = t.mul(x, x);
    let f = t.mul(x2, x);
    let d1 = t.grad(f, &[x])[0];
    let d2 = t.grad(d1, &[x])[0];
    let d3 = t.grad(d2, &[x])[0];
    let mut ev = t.evaluator();
    ev.eval(&t, &[2.0]);
    assert_eq!(ev.value(d1), 12.0);
    assert_eq!(ev.value(d2), 12.0);
    assert_eq!(ev.value(d3), 6.0);
}

#[test]
fn gradient_of_unreachable_is_zero() {
    let mut t = Tape::new();
    let x = t.input();
    let y = t.input();
    let f = t.mul(x, x);
    let g = t.grad(f, &[y]);
    assert_eq!(eval1(&t, g[0], &[5.0, 3.0]), 0.0);
}

#[test]
fn div_and_chain_rule() {
    // f = x / (1 + x^2); f'(x) = (1 - x^2) / (1 + x^2)^2.
    let mut t = Tape::new();
    let x = t.input();
    let one = t.constant(1.0);
    let x2 = t.mul(x, x);
    let denom = t.add(one, x2);
    let f = t.div(x, denom);
    let d = t.grad(f, &[x])[0];
    let mut ev = t.evaluator();
    let xv = 0.8f64;
    ev.eval(&t, &[xv]);
    let want = (1.0 - xv * xv) / (1.0 + xv * xv).powi(2);
    assert!((ev.value(d) - want).abs() < 1e-12);
}

#[test]
fn sum_and_dot_helpers() {
    let mut t = Tape::new();
    let xs = t.inputs(4);
    let total = t.sum(&xs);
    let sq = t.dot(&xs, &xs);
    let mut ev = t.evaluator();
    ev.eval(&t, &[1.0, 2.0, 3.0, 4.0]);
    assert_eq!(ev.value(total), 10.0);
    assert_eq!(ev.value(sq), 30.0);
}

#[test]
fn sq_dist_gradient() {
    // f = ||a - b||^2; df/da_i = 2 (a_i - b_i).
    let mut t = Tape::new();
    let a = t.inputs(3);
    let b = t.inputs(3);
    let f = t.sq_dist(&a, &b);
    let g = t.grad(f, &a);
    let mut ev = t.evaluator();
    ev.eval(&t, &[1.0, 2.0, 3.0, 0.5, 0.5, 0.5]);
    for (i, &gi) in g.iter().enumerate() {
        let want = 2.0 * ((i as f64 + 1.0) - 0.5);
        assert!((ev.value(gi) - want).abs() < 1e-12);
    }
}

#[test]
fn softmax_sums_to_one_and_grads() {
    let mut t = Tape::new();
    let logits = t.inputs(3);
    let probs = t.softmax(&logits);
    let total = t.sum(&probs);
    // d p0 / d l0 = p0 (1 - p0).
    let g = t.grad(probs[0], &[logits[0]])[0];
    let mut ev = t.evaluator();
    ev.eval(&t, &[0.1, 0.5, -0.3]);
    assert!((ev.value(total) - 1.0).abs() < 1e-12);
    let p0 = ev.value(probs[0]);
    assert!((ev.value(g) - p0 * (1.0 - p0)).abs() < 1e-12);
}

#[test]
fn numeric_second_order_check() {
    // Random-ish composite: f = tanh(x*y) + exp(-x^2) checked against
    // central differences for d2f/dx2.
    let mut t = Tape::new();
    let x = t.input();
    let y = t.input();
    let xy = t.mul(x, y);
    let th = t.tanh(xy);
    let x2 = t.mul(x, x);
    let nx2 = t.neg(x2);
    let e = t.exp(nx2);
    let f = t.add(th, e);
    let d1 = t.grad(f, &[x])[0];
    let d2 = t.grad(d1, &[x])[0];
    let mut ev = t.evaluator();
    let (xv, yv) = (0.37, -0.81);
    let h = 1e-4;
    let fval = |xx: f64| (xx * yv).tanh() + (-xx * xx).exp();
    ev.eval(&t, &[xv, yv]);
    let numeric = (fval(xv + h) - 2.0 * fval(xv) + fval(xv - h)) / (h * h);
    assert!(
        (ev.value(d2) - numeric).abs() < 1e-5,
        "{} vs {numeric}",
        ev.value(d2)
    );
}

#[test]
fn evaluator_resizes_after_growth() {
    let mut t = Tape::new();
    let x = t.input();
    let f = t.mul(x, x);
    let mut ev = t.evaluator();
    ev.eval(&t, &[2.0]);
    assert_eq!(ev.value(f), 4.0);
    let g = t.grad(f, &[x])[0];
    ev.eval(&t, &[2.0]);
    assert_eq!(ev.value(g), 4.0);
}
