//! Property tests for the tensor kernels.

use deta_crypto::DetRng;
use deta_proptest::{cases, Gen};
use deta_tensor::gemm::{
    gemm_avx2, gemm_avx512, gemm_portable, Mat, Store, MR, MR_AVX512, NR, NR_AVX512,
};
use deta_tensor::{col2im, im2col, ConvGeom, Tensor};

fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-3 * a.abs().max(b.abs()).max(1.0)
}

#[test]
fn matmul_identity() {
    cases("matmul_identity", 64, |g| {
        let (m, n) = (g.usize_in(1, 8), g.usize_in(1, 8));
        let mut rng = DetRng::from_u64(g.u64());
        let a = Tensor::randn(&[m, n], 1.0, &mut rng);
        let prod = a.matmul(&Tensor::eye(n));
        assert_eq!(prod.data(), a.data());
        let prod2 = Tensor::eye(m).matmul(&a);
        assert_eq!(prod2.data(), a.data());
    });
}

#[test]
fn matmul_associative() {
    cases("matmul_associative", 64, |g| {
        let (m, k, l, n) = (
            g.usize_in(1, 5),
            g.usize_in(1, 5),
            g.usize_in(1, 5),
            g.usize_in(1, 5),
        );
        let mut rng = DetRng::from_u64(g.u64());
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, l], 1.0, &mut rng);
        let c = Tensor::randn(&[l, n], 1.0, &mut rng);
        let lhs = a.matmul(&b).matmul(&c);
        let rhs = a.matmul(&b.matmul(&c));
        for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
            assert!(close(*x, *y), "{x} vs {y}");
        }
    });
}

#[test]
fn matmul_variants_agree() {
    cases("matmul_variants_agree", 64, |g| {
        let (m, k, n) = (g.usize_in(1, 6), g.usize_in(1, 6), g.usize_in(1, 6));
        let mut rng = DetRng::from_u64(g.u64());
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let plain = a.matmul(&b);
        let tn = a.transpose2().matmul_tn(&b);
        let nt = a.matmul_nt(&b.transpose2());
        for ((x, y), z) in plain.data().iter().zip(tn.data()).zip(nt.data()) {
            assert!(close(*x, *y) && close(*x, *z));
        }
    });
}

/// The scalar product the packed GEMM replaced, kept as the reference:
/// one dot product per output element, `p` upward, from `+0.0`.
fn reference_product(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (m, k, n) = (a.shape()[0], a.shape()[1], b.shape()[1]);
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.data()[i * k + p] * b.data()[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// A Gaussian matrix with about 38 % of its entries replaced by exact
/// zeros of either sign, the share a ReLU and a max-pool leave behind.
fn sparse_randn(rows: usize, cols: usize, rng: &mut DetRng) -> Tensor {
    let mut t = Tensor::randn(&[rows, cols], 1.0, rng);
    for v in t.data_mut() {
        match rng.gen_range(16) {
            0..=4 => *v = 0.0,
            5 => *v = -0.0,
            _ => {}
        }
    }
    t
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Asserts that `matmul`, `matmul_tn` and `matmul_nt` all give the
/// reference's bits for the logical product `[m, k] x [k, n]`.
fn assert_products_match_reference(m: usize, k: usize, n: usize, rng: &mut DetRng) {
    let a = sparse_randn(m, k, rng);
    let b = sparse_randn(k, n, rng);
    let want = bits(&reference_product(&a, &b));
    let shape = format!("[{m}, {k}] x [{k}, {n}]");
    assert_eq!(bits(a.matmul(&b).data()), want, "matmul {shape}");
    let tn = a.transpose2().matmul_tn(&b);
    assert_eq!(bits(tn.data()), want, "matmul_tn {shape}");
    let nt = a.matmul_nt(&b.transpose2());
    assert_eq!(bits(nt.data()), want, "matmul_nt {shape}");
    assert_eq!(nt.shape(), &[m, n]);
}

fn dim(g: &mut Gen) -> usize {
    g.usize_in(0, 71)
}

#[test]
fn products_match_scalar_reference_bit_for_bit() {
    cases("products_match_scalar_reference_bit_for_bit", 256, |g| {
        let (m, k, n) = (dim(g), dim(g), dim(g));
        let mut rng = DetRng::from_u64(g.u64());
        assert_products_match_reference(m, k, n, &mut rng);
    });
}

#[test]
fn products_match_reference_at_every_tile_remainder() {
    // Zero dimensions, `k = 1`, and every remainder modulo the register
    // tile on both sides of a full tile.
    let mut rng = DetRng::from_u64(0x71e);
    for m in 0..=2 * MR + 1 {
        for n in 0..=2 * NR + 1 {
            for k in [0, 1, 2, 5] {
                assert_products_match_reference(m, k, n, &mut rng);
            }
        }
    }
    // Across the edge of a packed block of rows.
    for m in [63, 64, 65, 129] {
        assert_products_match_reference(m, 3, NR + 1, &mut rng);
    }
}

#[test]
fn transposed_operands_match_reference_at_every_transpose_block_edge() {
    // A column-strided operand is packed in 4 x 4 blocks with a scalar
    // edge, so each of `m`, `k` and `n` crosses a block edge on both sides
    // of 4, 8, 16 and 32 (every tile's rows and columns). Each operand is
    // given once row-major and once as the transposed view of its
    // transpose, on every body this CPU has.
    const EDGES: [usize; 14] = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33];
    let mut rng = DetRng::from_u64(0x7b10c);
    for m in EDGES {
        for k in EDGES {
            for n in EDGES {
                let a = sparse_randn(m, k, &mut rng);
                let b = sparse_randn(k, n, &mut rng);
                let (at, bt) = (a.transpose2(), b.transpose2());
                let want = bits(&reference_product(&a, &b));
                for (a_layout, a) in [("row-major", a.mat()), ("transposed", at.mat().t())] {
                    for (b_layout, b) in [("row-major", b.mat()), ("transposed", bt.mat().t())] {
                        for (body_name, body) in BODIES {
                            let mut got = vec![f32::NAN; m * n];
                            if body(a, b, &mut got, Store::Write) {
                                assert_eq!(
                                    bits(&got),
                                    want,
                                    "{body_name} [{m}, {k}] {a_layout} x [{k}, {n}] {b_layout}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn portable_and_avx2_bodies_agree_bit_for_bit() {
    cases("portable_and_avx2_bodies_agree_bit_for_bit", 256, |g| {
        let (m, k, n) = (dim(g), dim(g), dim(g));
        let mut rng = DetRng::from_u64(g.u64());
        let a = sparse_randn(m, k, &mut rng);
        let b = sparse_randn(k, n, &mut rng);
        let bt = b.transpose2();
        // `b` once with unit column stride and once transposed, so both
        // packing walks run under both bodies.
        for b in [b.mat(), bt.mat().t()] {
            let mut portable = vec![f32::NAN; m * n];
            gemm_portable(a.mat(), b, &mut portable, Store::Write);
            let mut avx2 = vec![f32::NAN; m * n];
            if !gemm_avx2(a.mat(), b, &mut avx2, Store::Write) {
                return; // this CPU has only the portable body
            }
            assert_eq!(bits(&portable), bits(&avx2));
        }
    });
}

#[test]
fn avx512_body_matches_reference_bit_for_bit() {
    // Both sides of the tile's 8-row and 32-column edges and of a packed
    // block of rows, `k` from zero up, each with `a` and `b` once
    // row-major and once as transposed (column-strided) views.
    let (r, c) = (MR_AVX512, NR_AVX512);
    let mut rng = DetRng::from_u64(0x512);
    for m in [0, 1, r - 1, r, r + 1, 2 * r + 1, 63, 64, 65] {
        for n in [0, 1, c - 1, c, c + 1, 2 * c + 1] {
            for k in [0, 1, 2, 9] {
                let a = sparse_randn(m, k, &mut rng);
                let b = sparse_randn(k, n, &mut rng);
                let (at, bt) = (a.transpose2(), b.transpose2());
                let want = bits(&reference_product(&a, &b));
                for (a, b) in [(a.mat(), b.mat()), (at.mat().t(), bt.mat().t())] {
                    let mut got = vec![f32::NAN; m * n];
                    if !gemm_avx512(a, b, &mut got, Store::Write) {
                        return; // this CPU has no AVX-512F body
                    }
                    assert_eq!(bits(&got), want, "[{m}, {k}] x [{k}, {n}]");
                }
            }
        }
    }
    // Signed zeros (the loop above has returned on a CPU without
    // AVX-512F): every product is `-0.0` or `+0.0`, and a sum that starts
    // at `+0.0` stays there.
    let a = Tensor::from_vec(vec![-0.0, 0.0, -0.0], &[1, 3]);
    let b = Tensor::from_vec([[-0.0; 33], [0.0; 33], [1.0; 33]].concat(), &[3, 33]);
    let mut got = vec![f32::NAN; 33];
    assert!(gemm_avx512(a.mat(), b.mat(), &mut got, Store::Write));
    assert_eq!(bits(&got), bits(&reference_product(&a, &b)));
    assert!(got.iter().all(|v| v.to_bits() == 0), "{got:?}");
    // A zero times a non-finite is NaN, in the last column of the second
    // column tile.
    let a = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]);
    for poison in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
        let mut b = Tensor::from_vec([[1.0; 33], [2.0; 33]].concat(), &[2, 33]);
        b.data_mut()[32] = poison;
        let mut got = vec![f32::NAN; 33];
        assert!(gemm_avx512(a.mat(), b.mat(), &mut got, Store::Write));
        assert_eq!(bits(&got[..32]), bits(&[2.0; 32]));
        assert!(got[32].is_nan(), "0 x {poison}");
    }
}

/// A GEMM body as the tests call it: `false` when this CPU lacks it.
type Body = fn(Mat, Mat, &mut [f32], Store) -> bool;

/// The three bodies, by name.
const BODIES: [(&str, Body); 3] = [
    ("portable", |a, b, out, store| {
        gemm_portable(a, b, out, store);
        true
    }),
    ("avx2", gemm_avx2),
    ("avx512", gemm_avx512),
];

/// A value that is often a signed zero, sometimes `±inf` or NaN, and
/// otherwise Gaussian.
fn special(rng: &mut DetRng) -> f32 {
    match rng.gen_range(8) {
        0 => 0.0,
        1 => -0.0,
        2 => f32::INFINITY,
        3 => f32::NEG_INFINITY,
        4 => f32::NAN,
        _ => rng.next_gaussian() as f32,
    }
}

/// [`sparse_randn`] with one entry in 64 made `±inf` or NaN.
fn poisoned(rows: usize, cols: usize, rng: &mut DetRng) -> Tensor {
    let mut t = sparse_randn(rows, cols, rng);
    for v in t.data_mut() {
        if rng.gen_range(64) == 0 {
            *v = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][rng.gen_range(3) as usize];
        }
    }
    t
}

/// Equal bits, or NaN on both sides: the language leaves a NaN's
/// payload unspecified, so only its being NaN is compared.
fn same_bits(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
}

#[test]
fn the_adding_store_is_product_then_add_bit_for_bit_on_every_body() {
    cases(
        "the_adding_store_is_product_then_add_bit_for_bit_on_every_body",
        256,
        |g| {
            let (m, k, n) = (dim(g), g.usize_in(0, 12), dim(g));
            let mut rng = DetRng::from_u64(g.u64());
            let a = poisoned(m, k, &mut rng);
            let b = poisoned(k, n, &mut rng);
            let out: Vec<f32> = (0..m * n).map(|_| special(&mut rng)).collect();
            let bt = b.transpose2();
            // `b` once with unit column stride and once transposed, so both
            // packing walks store under every body.
            for b in [b.mat(), bt.mat().t()] {
                for (body_name, body) in BODIES {
                    let mut product = vec![f32::NAN; m * n];
                    if !body(a.mat(), b, &mut product, Store::Write) {
                        continue; // this CPU lacks the body
                    }
                    let want: Vec<f32> = out.iter().zip(&product).map(|(o, p)| o + p).collect();
                    let mut got = out.clone();
                    assert!(body(a.mat(), b, &mut got, Store::Add));
                    assert!(
                        same_bits(&got, &want),
                        "{body_name} [{m}, {k}] x [{k}, {n}]: {got:?} against {want:?}"
                    );
                }
            }
        },
    );
}

#[test]
fn zero_times_non_finite_is_nan() {
    // The scalar `matmul` / `matmul_tn` skipped a zero on the left and so
    // left the element alone; the one GEMM multiplies it like any value.
    for poison in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
        let a = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]);
        let b = Tensor::from_vec(vec![poison, 3.0, 2.0, 4.0], &[2, 2]);
        for out in [
            a.matmul(&b),
            a.transpose2().matmul_tn(&b),
            a.matmul_nt(&b.transpose2()),
        ] {
            assert!(out.data()[0].is_nan(), "0 x {poison}");
            assert_eq!(out.data()[1], 4.0);
        }
    }
}

#[test]
fn transpose_involution() {
    cases("transpose_involution", 64, |g| {
        let (m, n) = (g.usize_in(1, 10), g.usize_in(1, 10));
        let mut rng = DetRng::from_u64(g.u64());
        let a = Tensor::randn(&[m, n], 1.0, &mut rng);
        assert_eq!(a.transpose2().transpose2(), a);
    });
}

#[test]
fn softmax_rows_are_distributions() {
    cases("softmax_rows_are_distributions", 64, |g| {
        let (m, n) = (g.usize_in(1, 6), g.usize_in(1, 8));
        let mut rng = DetRng::from_u64(g.u64());
        let a = Tensor::randn(&[m, n], 5.0, &mut rng);
        let s = a.softmax_rows();
        for i in 0..m {
            let row: f32 = (0..n).map(|j| s.at2(i, j)).sum();
            assert!((row - 1.0).abs() < 1e-4);
            for j in 0..n {
                assert!(s.at2(i, j) >= 0.0);
            }
        }
    });
}

#[test]
fn im2col_col2im_adjoint() {
    cases("im2col_col2im_adjoint", 64, |g| {
        let c = g.usize_in(1, 3);
        let k = g.usize_in(1, 4);
        let stride = g.usize_in(1, 3);
        let pad = g.usize_in(0, 2);
        let h = g.usize_in(3, 8);
        let w = g.usize_in(3, 8);
        // The proptest original discarded invalid geometries with
        // prop_assume; skipping keeps the same semantics.
        if h + 2 * pad < k || w + 2 * pad < k {
            return;
        }
        let geom = ConvGeom {
            in_c: c,
            in_h: h,
            in_w: w,
            k,
            stride,
            pad,
        };
        let mut rng = DetRng::from_u64(g.u64());
        let x = Tensor::randn(&[c * h * w], 1.0, &mut rng);
        let y = Tensor::randn(&[geom.rows(), geom.cols()], 1.0, &mut rng);
        // <im2col(x), y> == <x, col2im(y)>.
        let lhs: f64 = im2col(&x, &geom)
            .data()
            .iter()
            .zip(y.data())
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        let rhs: f64 = x
            .data()
            .iter()
            .zip(col2im(&y, &geom).data())
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    });
}

#[test]
fn axpy_matches_scale_add() {
    cases("axpy_matches_scale_add", 64, |g| {
        let alpha = g.f32_in(-5.0, 5.0);
        let n = g.usize_in(1, 40);
        let mut rng = DetRng::from_u64(g.u64());
        let a = Tensor::randn(&[n], 1.0, &mut rng);
        let b = Tensor::randn(&[n], 1.0, &mut rng);
        let mut via_axpy = a.clone();
        via_axpy.axpy(alpha, &b);
        let via_ops = a.add(&b.scale(alpha));
        for (x, y) in via_axpy.data().iter().zip(via_ops.data()) {
            assert!(close(*x, *y));
        }
    });
}
