//! The one matrix product under `matmul`, `matmul_tn` and `matmul_nt`.
//!
//! [`gemm`] computes `out[i][j] = Σ_p a(i, p) · b(p, j)` over two strided
//! operands, so the three `Tensor` products are three stride choices.
//! It packs `a` into `R`-row panels and `b` into `C`-column panels
//! (zero-padded at the edges, the `b` panel starting on a 64-byte
//! boundary) and runs an `R × C` register tile over them: [`MR`] × [`NR`]
//! in the portable and AVX2 bodies, [`MR_AVX512`] × [`NR_AVX512`] in the
//! AVX-512F one.
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
//!
//! Under [`Store::Add`] the product is added to what `out` holds instead
//! of overwriting it. The sum still starts at `+0.0`: each
//! element's finished dot product is added to `out` once, as the tile is
//! stored, so the result is the bits of the product written to a buffer
//! of its own and then added to `out` element by element.

use std::cell::RefCell;

/// Rows of the portable and AVX2 register tile.
pub const MR: usize = 4;
/// Columns of the portable and AVX2 register tile.
pub const NR: usize = 16;
/// Rows of the AVX-512F register tile: one broadcast of `a` each.
pub const MR_AVX512: usize = 8;
/// Columns of the AVX-512F register tile: two 16-lane vectors.
pub const NR_AVX512: usize = 32;
/// Rows of `a` packed at a time, a multiple of every tile's rows.
const MC: usize = 64;
/// Rows of a column-strided `b` packed per pass down its columns: one
/// cache line of each column when the rows are contiguous.
const PACK_ROWS: usize = 16;
/// Floats of slack in the scratch, enough to start the `b` panel of any
/// 4-byte-aligned buffer on a 64-byte boundary.
const ALIGN_SLACK: usize = 64 / size_of::<f32>() - 1;

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

/// What a product does with the output buffer it is given.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Store {
    /// Overwrite it with the product.
    Write,
    /// Add the product to it: `out + Σ`, each element's sum complete
    /// before it is added.
    Add,
}

thread_local! {
    /// Packed `a` block, at most 15 floats of padding, then one packed
    /// `b` panel: at most `(MC + NR_AVX512) · k + 15` floats. It only
    /// grows, to exactly what a product needs, so a thread stops
    /// allocating once it has seen its largest product.
    static PACKED: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Stores the row-major `[a.rows(), b.cols()]` product `a · b` in `out`:
/// writes it there ([`Store::Write`]), or adds it to what `out` holds
/// ([`Store::Add`]), bit for bit what writing it to a buffer of its own
/// and then `out[i] += product[i]` gives, without that buffer.
///
/// There are three bodies, and nothing but the running CPU picks one:
/// [`gemm_avx512`] when it reports AVX-512F, else [`gemm_avx2`] when it
/// reports AVX2, else [`gemm_portable`]. All three give every element
/// the rounding sequence described in the module docs, so which one ran
/// is unobservable in the result.
///
/// A zero in `a` is multiplied like any other value: `0 × ±inf` and
/// `0 × NaN` put NaN in the output.
///
/// # Panics
///
/// Panics if the inner dimensions differ or `out` has the wrong length.
pub fn gemm(a: Mat, b: Mat, out: &mut [f32], store: Store) {
    if !gemm_avx512(a, b, out, store) && !gemm_avx2(a, b, out, store) {
        gemm_portable(a, b, out, store);
    }
}

/// [`gemm`]'s portable body, callable directly so tests can hold the
/// bodies against each other.
pub fn gemm_portable(a: Mat, b: Mat, out: &mut [f32], store: Store) {
    check(a, b, out);
    PACKED.with_borrow_mut(|packed| run(a, b, out, store, packed, tile_portable));
}

/// [`gemm`]'s AVX2 body: the portable loop compiled with AVX2 enabled.
/// Returns `false`, leaving `out` untouched, when the CPU has no AVX2
/// (always, off x86-64).
pub fn gemm_avx2(a: Mat, b: Mat, out: &mut [f32], store: Store) -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        check(a, b, out);
        PACKED.with_borrow_mut(|packed| {
            // SAFETY: `run_avx2` requires AVX2, which the line above just
            // observed on the CPU this thread is running on.
            unsafe { run_avx2(a, b, out, store, packed) }
        });
        return true;
    }
    let _ = (a, b, out, store);
    false
}

/// [`gemm`]'s AVX-512F body: the same packed loop around an explicit
/// [`MR_AVX512`] × [`NR_AVX512`] tile of sixteen 16-lane accumulators.
/// Returns `false`, leaving `out` untouched, when the CPU has no
/// AVX-512F (always, off x86-64).
pub fn gemm_avx512(a: Mat, b: Mat, out: &mut [f32], store: Store) -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        check(a, b, out);
        PACKED.with_borrow_mut(|packed| {
            // SAFETY: `run_avx512` requires AVX-512F, which the line above
            // just observed on the CPU this thread is running on.
            unsafe { run_avx512(a, b, out, store, packed) }
        });
        return true;
    }
    let _ = (a, b, out, store);
    false
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2(a: Mat, b: Mat, out: &mut [f32], store: Store, packed: &mut Vec<f32>) {
    run(a, b, out, store, packed, |a, b| tile_avx2(a, b));
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn run_avx512(a: Mat, b: Mat, out: &mut [f32], store: Store, packed: &mut Vec<f32>) {
    run(a, b, out, store, packed, |a, b| avx512::tile(a, b));
}

fn check(a: Mat, b: Mat, out: &[f32]) {
    assert_eq!(
        a.cols, b.rows,
        "inner dimension mismatch: {} vs {}",
        a.cols, b.rows
    );
    assert_eq!(out.len(), a.rows * b.cols, "output length mismatch");
}

/// The packed loop around an `R × C` tile. Inlined into every body so
/// each compiles it for its own instruction set.
#[inline(always)]
fn run<const R: usize, const C: usize>(
    a: Mat,
    b: Mat,
    out: &mut [f32],
    store: Store,
    packed: &mut Vec<f32>,
    tile: impl Fn(&[f32], &[f32]) -> [[f32; C]; R],
) {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    if k == 0 {
        // Every sum is empty, so `+0.0`; added, it still turns a `-0.0`
        // into `+0.0`.
        match store {
            Store::Write => out.fill(0.0),
            Store::Add => out.iter_mut().for_each(|o| *o += 0.0),
        }
        return;
    }
    let a_len = m.min(MC).next_multiple_of(R) * k;
    let need = a_len + ALIGN_SLACK + C * k;
    if packed.len() < need {
        // Exactly: doubling would hold up to twice the largest product's
        // scratch for the thread's lifetime.
        packed.reserve_exact(need - packed.len());
        packed.resize(need, 0.0);
    }
    // The `b` panel starts on a 64-byte boundary, so its rows straddle
    // no more cache lines than they must (a speed matter, not a safety
    // one: the tiles load unaligned).
    let pad = packed[a_len..].as_ptr().align_offset(64).min(ALIGN_SLACK);
    let (a_packed, rest) = packed.split_at_mut(a_len);
    let b_panel = &mut rest[pad..pad + C * k];
    for i0 in (0..m).step_by(MC) {
        let mc = MC.min(m - i0);
        let a_block = &mut a_packed[..mc.next_multiple_of(R) * k];
        // An `R`-row panel of `a`, laid out `[p][r]`, is an `R`-column
        // panel of its transpose.
        for (panel, dst) in a_block.chunks_exact_mut(R * k).enumerate() {
            let r0 = panel * R;
            pack::<R>(a.t(), i0 + r0, R.min(mc - r0), dst);
        }
        for j0 in (0..n).step_by(C) {
            let nc = C.min(n - j0);
            pack::<C>(b, j0, nc, b_panel);
            for (panel, a_panel) in a_block.chunks_exact(R * k).enumerate() {
                let acc = tile(a_panel, b_panel);
                let r0 = panel * R;
                for (r, acc_row) in acc.iter().enumerate().take(mc - r0) {
                    let at = (i0 + r0 + r) * n + j0;
                    store_row(store, &mut out[at..at + nc], &acc_row[..nc]);
                }
            }
        }
    }
}

/// Stores finished sums into `out`, as `store` says.
#[inline(always)]
fn store_row(store: Store, out: &mut [f32], sums: &[f32]) {
    match store {
        Store::Write => out.copy_from_slice(sums),
        Store::Add => {
            for (o, &s) in out.iter_mut().zip(sums) {
                *o += s;
            }
        }
    }
}

/// Packs columns `j0..j0 + nc` of `b` as one panel laid out `[p][c]`;
/// columns past the edge are zero. A partial panel (`nc < C`) zeroes a
/// row, or a block of rows, just before filling it, so the panel is
/// written in one pass while its lines are in cache: zeroing the whole
/// panel first wrote it twice, and zeroing only the padding columns cost
/// a `memset` call a row, which was slower still for a thin panel.
#[inline(always)]
fn pack<const C: usize>(b: Mat, j0: usize, nc: usize, dst: &mut [f32]) {
    if b.col_stride == 1 {
        for (p, row) in dst.as_chunks_mut::<C>().0.iter_mut().enumerate() {
            if nc < C {
                *row = [0.0; C];
            }
            let base = p * b.row_stride + j0;
            row[..nc].copy_from_slice(&b.data[base..base + nc]);
        }
        return;
    }
    // Otherwise `b` is the transpose of a row-major matrix (`Mat` has no
    // other layout), so each of its columns is a contiguous run. Copy a
    // block of rows at a time: one row at a time would read every column
    // on a cache line of its own, and at a page-sized stride those lines
    // all compete for one cache set. Within a block, four columns by four
    // rows at a time go through a register transpose; what is left over
    // at the edges is copied one value at a time.
    debug_assert_eq!(b.row_stride, 1);
    let column = |c: usize, p0: usize, len: usize| {
        let base = (j0 + c) * b.col_stride + p0;
        &b.data[base..base + len]
    };
    let whole = nc - nc % 4;
    for (block, rows) in dst.chunks_mut(C * PACK_ROWS).enumerate() {
        let (p0, len) = (block * PACK_ROWS, rows.len() / C);
        if nc < C {
            rows.fill(0.0);
        }
        let quad_rows = len - len % 4;
        for c in (0..whole).step_by(4) {
            let cols: [&[f32]; 4] = std::array::from_fn(|i| column(c + i, p0, len));
            for p in (0..quad_rows).step_by(4) {
                let quads = cols.map(|col| col[p..p + 4].try_into().expect("4 floats"));
                for (r, values) in transpose4(quads).iter().enumerate() {
                    let at = (p + r) * C + c;
                    rows[at..at + 4].copy_from_slice(values);
                }
            }
            for p in quad_rows..len {
                for (i, col) in cols.iter().enumerate() {
                    rows[p * C + c + i] = col[p];
                }
            }
        }
        for c in whole..nc {
            for (row, &v) in rows.chunks_exact_mut(C).zip(column(c, p0, len)) {
                row[c] = v;
            }
        }
    }
}

/// The transpose of a 4 × 4 block: `out[r][c] = block[c][r]`. On x86-64
/// it is four unpacks and four half-register moves of SSE, which every
/// x86-64 CPU has; written as plain indexing, it compiles to sixteen
/// scalar moves.
#[inline(always)]
fn transpose4(block: [[f32; 4]; 4]) -> [[f32; 4]; 4] {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE is part of the x86-64 baseline, so every CPU this code
    // runs on has it; each load reads, and each store writes, the 4
    // contiguous floats of one row.
    unsafe {
        use core::arch::x86_64::*;
        let [a, b, c, d] = block.map(|row| _mm_loadu_ps(row.as_ptr()));
        let (ab_lo, cd_lo) = (_mm_unpacklo_ps(a, b), _mm_unpacklo_ps(c, d));
        let (ab_hi, cd_hi) = (_mm_unpackhi_ps(a, b), _mm_unpackhi_ps(c, d));
        let columns = [
            _mm_movelh_ps(ab_lo, cd_lo),
            _mm_movehl_ps(cd_lo, ab_lo),
            _mm_movelh_ps(ab_hi, cd_hi),
            _mm_movehl_ps(cd_hi, ab_hi),
        ];
        columns.map(|column| {
            let mut row = [0.0; 4];
            _mm_storeu_ps(row.as_mut_ptr(), column);
            row
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    std::array::from_fn(|r| std::array::from_fn(|c| block[c][r]))
}

/// The portable and AVX2 register tile: `acc[r][c] = Σ_p a_panel[p][r] ·
/// b_panel[p][c]`, `p` upward, multiply then add, from `+0.0`. The
/// compiler vectorises the `c` loop.
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

/// [`tile`] for the build's baseline target. This and [`tile_avx2`] are
/// kept out of line: inlined into the packed loop, the tile is no longer
/// reliably vectorised.
#[inline(never)]
fn tile_portable(a_panel: &[f32], b_panel: &[f32]) -> [[f32; NR]; MR] {
    tile(a_panel, b_panel)
}

/// [`tile`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
fn tile_avx2(a_panel: &[f32], b_panel: &[f32]) -> [[f32; NR]; MR] {
    tile(a_panel, b_panel)
}

/// The AVX-512F register tile, written out in intrinsics so the sixteen
/// accumulators stay in registers.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{MR_AVX512, NR_AVX512};
    use core::arch::x86_64::*;

    const HALF: usize = NR_AVX512 / 2;

    /// [`super::tile`] at [`MR_AVX512`] × [`NR_AVX512`]: per `p`, two
    /// loads of `b`, eight broadcasts of `a`, and for each accumulator a
    /// `mul_ps` then an `add_ps` (never `fmadd_ps`), from `setzero_ps`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn tile(a_panel: &[f32], b_panel: &[f32]) -> [[f32; NR_AVX512]; MR_AVX512] {
        let (a_steps, _) = a_panel.as_chunks::<MR_AVX512>();
        let (b_steps, _) = b_panel.as_chunks::<NR_AVX512>();
        let mut acc = [[_mm512_setzero_ps(); 2]; MR_AVX512];
        for (a_step, b_step) in a_steps.iter().zip(b_steps) {
            // SAFETY: `b_step` is 32 contiguous floats, so both 16-float
            // unaligned loads read inside it.
            let (b0, b1) = unsafe {
                (
                    _mm512_loadu_ps(b_step.as_ptr()),
                    _mm512_loadu_ps(b_step.as_ptr().add(HALF)),
                )
            };
            for (acc_row, &a) in acc.iter_mut().zip(a_step) {
                let a = _mm512_set1_ps(a);
                acc_row[0] = _mm512_add_ps(acc_row[0], _mm512_mul_ps(a, b0));
                acc_row[1] = _mm512_add_ps(acc_row[1], _mm512_mul_ps(a, b1));
            }
        }
        let mut out = [[0.0f32; NR_AVX512]; MR_AVX512];
        for (row, acc_row) in out.iter_mut().zip(&acc) {
            // SAFETY: `row` is 32 contiguous writable floats, so both
            // 16-float unaligned stores write inside it.
            unsafe {
                _mm512_storeu_ps(row.as_mut_ptr(), acc_row[0]);
                _mm512_storeu_ps(row.as_mut_ptr().add(HALF), acc_row[1]);
            }
        }
        out
    }
}
