//! The one matrix product under `matmul`, `matmul_tn` and `matmul_nt`.
//!
//! [`gemm`] computes `out[i][j] = Σ_p a(i, p) · b(p, j)` over two strided
//! operands, so the three `Tensor` products are three stride choices.
//! It packs `a` into [`MR`]-row panels and `b` into [`NR`]-column panels
//! (zero-padded at the edges) and runs an `MR × NR` register tile over
//! them.
//!
//! The tile fixes the rounding order, and the rounding order is a
//! contract: every output element starts at `+0.0` and receives its
//! products one at a time, `p` upward, each as a separate multiply and
//! add. That is the sequence the scalar loops this module replaced gave
//! every element, so models, golden files and parity suites do not move
//! by a bit. Speed comes from vectorising across output *columns*, which
//! never reorders the sum of any one element. What the contract forbids:
//! fused multiply-add or fast-math, partial sums over blocks of `k`, and
//! accumulating into anything but a fresh `+0.0`.

use std::cell::RefCell;

/// Rows of the register tile.
pub const MR: usize = 4;
/// Columns of the register tile.
pub const NR: usize = 16;
/// Rows of `a` packed at a time; bounds the packing scratch at
/// `(MC + NR) · k` floats per thread.
const MC: usize = 64;

/// A borrowed strided matrix: element `(r, c)` is
/// `data[r * row_stride + c * col_stride]`.
#[derive(Clone, Copy, Debug)]
pub struct Mat<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    row_stride: usize,
    col_stride: usize,
}

impl<'a> Mat<'a> {
    /// Views a row-major `[rows, cols]` buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn new(data: &'a [f32], rows: usize, cols: usize) -> Mat<'a> {
        assert_eq!(data.len(), rows * cols, "matrix buffer length mismatch");
        Mat {
            data,
            rows,
            cols,
            row_stride: cols,
            col_stride: 1,
        }
    }

    /// The transpose, as a view of the same buffer.
    pub fn t(self) -> Mat<'a> {
        Mat {
            data: self.data,
            rows: self.cols,
            cols: self.rows,
            row_stride: self.col_stride,
            col_stride: self.row_stride,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }
}

thread_local! {
    /// Packed `a` block followed by one packed `b` panel. It only grows,
    /// so a thread stops allocating once it has seen its largest product.
    static PACKED: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Writes the row-major `[a.rows(), b.cols()]` product `a · b` to `out`.
///
/// There are exactly two bodies: the packed loop compiled with AVX2
/// enabled, taken whenever the running CPU reports AVX2, and the same
/// loop compiled for the build's baseline target everywhere else. Both
/// give every element the rounding sequence described in the module
/// docs, so which one ran is unobservable in the result.
///
/// A zero in `a` is multiplied like any other value: `0 × ±inf` and
/// `0 × NaN` put NaN in the output.
///
/// # Panics
///
/// Panics if the inner dimensions differ or `out` has the wrong length.
pub fn gemm(a: Mat, b: Mat, out: &mut [f32]) {
    if !gemm_avx2(a, b, out) {
        gemm_portable(a, b, out);
    }
}

/// [`gemm`]'s portable body, callable directly so tests can hold the two
/// bodies against each other.
pub fn gemm_portable(a: Mat, b: Mat, out: &mut [f32]) {
    check(a, b, out);
    PACKED.with_borrow_mut(|packed| run(a, b, out, packed));
}

/// [`gemm`]'s AVX2 body. Returns `false`, leaving `out` untouched, when
/// the CPU has no AVX2 (always, off x86-64).
pub fn gemm_avx2(a: Mat, b: Mat, out: &mut [f32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        check(a, b, out);
        PACKED.with_borrow_mut(|packed| {
            // SAFETY: `run_avx2` requires AVX2, which the line above just
            // observed on the CPU this thread is running on.
            unsafe { run_avx2(a, b, out, packed) }
        });
        return true;
    }
    let _ = (a, b, out);
    false
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2(a: Mat, b: Mat, out: &mut [f32], packed: &mut Vec<f32>) {
    run(a, b, out, packed);
}

fn check(a: Mat, b: Mat, out: &[f32]) {
    assert_eq!(
        a.cols, b.rows,
        "inner dimension mismatch: {} vs {}",
        a.cols, b.rows
    );
    assert_eq!(out.len(), a.rows * b.cols, "output length mismatch");
}

/// The packed loop. Inlined into both bodies so each compiles it, tile
/// included, for its own instruction set.
#[inline(always)]
fn run(a: Mat, b: Mat, out: &mut [f32], packed: &mut Vec<f32>) {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let a_len = m.min(MC).next_multiple_of(MR) * k;
    let need = a_len + NR * k;
    if packed.len() < need {
        packed.resize(need, 0.0);
    }
    let (a_packed, b_panel) = packed[..need].split_at_mut(a_len);
    for i0 in (0..m).step_by(MC) {
        let mc = MC.min(m - i0);
        let a_block = &mut a_packed[..mc.next_multiple_of(MR) * k];
        pack_a(a, i0, mc, a_block);
        for j0 in (0..n).step_by(NR) {
            let nc = NR.min(n - j0);
            pack_b(b, j0, nc, b_panel);
            for (panel, a_panel) in a_block.chunks_exact(MR * k).enumerate() {
                let acc = tile(a_panel, b_panel);
                let r0 = panel * MR;
                for (r, acc_row) in acc.iter().enumerate().take(mc - r0) {
                    let at = (i0 + r0 + r) * n + j0;
                    out[at..at + nc].copy_from_slice(&acc_row[..nc]);
                }
            }
        }
    }
}

/// Packs rows `i0..i0 + mc` of `a` as `MR`-row panels, each laid out
/// `[p][r]`; rows past the edge are zero.
#[inline(always)]
fn pack_a(a: Mat, i0: usize, mc: usize, dst: &mut [f32]) {
    let k = a.cols;
    for (panel, dst) in dst.chunks_exact_mut(MR * k).enumerate() {
        let r0 = panel * MR;
        let rows = MR.min(mc - r0);
        for (p, quad) in dst.chunks_exact_mut(MR).enumerate() {
            let base = (i0 + r0) * a.row_stride + p * a.col_stride;
            for (r, v) in quad.iter_mut().enumerate() {
                *v = if r < rows {
                    a.data[base + r * a.row_stride]
                } else {
                    0.0
                };
            }
        }
    }
}

/// Packs columns `j0..j0 + nc` of `b` as one panel laid out `[p][c]`;
/// columns past the edge are zero.
#[inline(always)]
fn pack_b(b: Mat, j0: usize, nc: usize, dst: &mut [f32]) {
    if nc < NR {
        dst.fill(0.0);
    }
    for (p, row) in dst.chunks_exact_mut(NR).enumerate() {
        let base = p * b.row_stride + j0 * b.col_stride;
        if b.col_stride == 1 {
            row[..nc].copy_from_slice(&b.data[base..base + nc]);
        } else {
            for (c, v) in row[..nc].iter_mut().enumerate() {
                *v = b.data[base + c * b.col_stride];
            }
        }
    }
}

/// The register tile, and the only multiply-add loop over `k` in the
/// crate: `acc[r][c] = Σ_p a_panel[p][r] · b_panel[p][c]`, `p` upward,
/// multiply then add, from `+0.0`. The compiler vectorises the `c` loop.
#[inline(always)]
fn tile(a_panel: &[f32], b_panel: &[f32]) -> [[f32; NR]; MR] {
    let (a_steps, _) = a_panel.as_chunks::<MR>();
    let (b_steps, _) = b_panel.as_chunks::<NR>();
    let mut acc = [[0.0f32; NR]; MR];
    for (a_step, b_step) in a_steps.iter().zip(b_steps) {
        for (acc_row, &a) in acc.iter_mut().zip(a_step) {
            for (sum, &b) in acc_row.iter_mut().zip(b_step) {
                *sum += a * b;
            }
        }
    }
    acc
}
