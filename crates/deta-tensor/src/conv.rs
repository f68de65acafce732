//! im2col/col2im lowering for 2-D convolution.
//!
//! `deta-nn` implements convolution as `im2col` followed by a matrix
//! product, with `col2im` scattering gradients back in the backward pass.
//! All tensors use NCHW layout.

use crate::Tensor;
use std::ops::Range;

/// Convolution geometry for a single spatial configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input channels.
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel size (square kernels).
    pub k: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on each side.
    pub pad: usize,
}

impl ConvGeom {
    /// Output height after convolution.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Output width after convolution.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Number of columns in the im2col matrix (output positions).
    pub fn cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Number of rows in the im2col matrix (patch size).
    pub fn rows(&self) -> usize {
        self.in_c * self.k * self.k
    }

    /// Along one axis, at kernel offset `k_off`: the output positions
    /// whose input coordinate `o * stride + k_off - pad` lies inside
    /// `0..in_len`, and the coordinate the first of them reads. Every
    /// other output position reads the zero padding.
    fn inside(&self, k_off: usize, in_len: usize, out_len: usize) -> (Range<usize>, usize) {
        let lo = self.pad.saturating_sub(k_off).div_ceil(self.stride);
        let hi = (in_len + self.pad)
            .saturating_sub(k_off)
            .div_ceil(self.stride)
            .min(out_len);
        if lo >= hi {
            return (0..0, 0);
        }
        (lo..hi, lo * self.stride + k_off - self.pad)
    }
}

/// Lowers one image `[C, H, W]` (flattened) to a patch matrix
/// `[C*k*k, out_h*out_w]`.
///
/// # Panics
///
/// Panics if `input.numel()` does not match the geometry.
pub fn im2col(input: &Tensor, g: &ConvGeom) -> Tensor {
    let mut out = vec![0.0f32; g.rows() * g.cols()];
    im2col_into(input.data(), g, &mut out);
    Tensor::from_vec(out, &[g.rows(), g.cols()])
}

/// [`im2col`] between slices: overwrites every element of `out`, so one
/// buffer serves every image of a batch.
///
/// # Panics
///
/// Panics if either length does not match the geometry.
pub fn im2col_into(data: &[f32], g: &ConvGeom, out: &mut [f32]) {
    assert_eq!(data.len(), g.in_c * g.in_h * g.in_w, "input size mismatch");
    let (out_h, out_w) = (g.out_h(), g.out_w());
    assert_eq!(out.len(), g.rows() * g.cols(), "cols size mismatch");
    let cols = out_h * out_w;
    for c in 0..g.in_c {
        for ky in 0..g.k {
            let (oys, iy_lo) = g.inside(ky, g.in_h, out_h);
            for kx in 0..g.k {
                let (oxs, ix_lo) = g.inside(kx, g.in_w, out_w);
                let row = (c * g.k + ky) * g.k + kx;
                let row = &mut out[row * cols..(row + 1) * cols];
                for (oy, dst) in row.chunks_exact_mut(out_w).enumerate() {
                    if !oys.contains(&oy) {
                        dst.fill(0.0);
                        continue;
                    }
                    let iy = c * g.in_h + iy_lo + (oy - oys.start) * g.stride;
                    let src = &data[iy * g.in_w + ix_lo..(iy + 1) * g.in_w];
                    dst[..oxs.start].fill(0.0);
                    dst[oxs.end..].fill(0.0);
                    let dst = &mut dst[oxs.clone()];
                    if g.stride == 1 {
                        dst.copy_from_slice(&src[..dst.len()]);
                    } else {
                        for (d, s) in dst.iter_mut().zip(src.iter().step_by(g.stride)) {
                            *d = *s;
                        }
                    }
                }
            }
        }
    }
}

/// Scatters a patch-matrix gradient `[C*k*k, out_h*out_w]` back to an image
/// gradient `[C, H, W]` (flattened), accumulating overlapping patches.
///
/// This is the exact adjoint of [`im2col`].
///
/// # Panics
///
/// Panics if `cols.shape()` does not match the geometry.
pub fn col2im(cols_mat: &Tensor, g: &ConvGeom) -> Tensor {
    assert_eq!(
        cols_mat.shape(),
        &[g.rows(), g.cols()],
        "cols shape mismatch"
    );
    let mut out = vec![0.0f32; g.in_c * g.in_h * g.in_w];
    col2im_into(cols_mat.data(), g, &mut out);
    Tensor::from_vec(out, &[g.in_c * g.in_h * g.in_w])
}

/// [`col2im`] between slices: *adds* the scattered patches to `out`, which
/// the caller zeroes (or not) first.
///
/// # Panics
///
/// Panics if either length does not match the geometry.
pub fn col2im_into(data: &[f32], g: &ConvGeom, out: &mut [f32]) {
    let (out_h, out_w) = (g.out_h(), g.out_w());
    assert_eq!(data.len(), g.rows() * g.cols(), "cols size mismatch");
    assert_eq!(out.len(), g.in_c * g.in_h * g.in_w, "image size mismatch");
    let cols = out_h * out_w;
    for c in 0..g.in_c {
        for ky in 0..g.k {
            let (oys, iy_lo) = g.inside(ky, g.in_h, out_h);
            for kx in 0..g.k {
                let (oxs, ix_lo) = g.inside(kx, g.in_w, out_w);
                let row = (c * g.k + ky) * g.k + kx;
                let row = &data[row * cols..(row + 1) * cols];
                let inside = row.chunks_exact(out_w).skip(oys.start).take(oys.len());
                for (i, src) in inside.enumerate() {
                    let iy = c * g.in_h + iy_lo + i * g.stride;
                    let dst = &mut out[iy * g.in_w + ix_lo..(iy + 1) * g.in_w];
                    let src = &src[oxs.clone()];
                    if g.stride == 1 {
                        for (d, s) in dst[..src.len()].iter_mut().zip(src) {
                            *d += *s;
                        }
                    } else {
                        for (d, s) in dst.iter_mut().step_by(g.stride).zip(src) {
                            *d += *s;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deta_crypto::DetRng;

    #[test]
    fn geometry() {
        let g = ConvGeom {
            in_c: 3,
            in_h: 8,
            in_w: 8,
            k: 3,
            stride: 1,
            pad: 1,
        };
        assert_eq!(g.out_h(), 8);
        assert_eq!(g.out_w(), 8);
        assert_eq!(g.rows(), 27);
        let g2 = ConvGeom {
            stride: 2,
            pad: 0,
            ..g
        };
        assert_eq!(g2.out_h(), 3);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no pad: im2col is just a reshape.
        let g = ConvGeom {
            in_c: 2,
            in_h: 2,
            in_w: 2,
            k: 1,
            stride: 1,
            pad: 0,
        };
        let input = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], &[8]);
        let cols = im2col(&input, &g);
        assert_eq!(cols.shape(), &[2, 4]);
        assert_eq!(cols.data(), input.data());
    }

    #[test]
    fn im2col_simple_3x3() {
        // Single channel 3x3 image, 2x2 kernel, stride 1, no pad.
        let g = ConvGeom {
            in_c: 1,
            in_h: 3,
            in_w: 3,
            k: 2,
            stride: 1,
            pad: 0,
        };
        #[rustfmt::skip]
        let input = Tensor::from_vec(vec![
            1.0, 2.0, 3.0,
            4.0, 5.0, 6.0,
            7.0, 8.0, 9.0,
        ], &[9]);
        let cols = im2col(&input, &g);
        assert_eq!(cols.shape(), &[4, 4]);
        // Patches (top-left origin), column order = output scan order.
        assert_eq!(cols.data()[0..4], [1.0, 2.0, 4.0, 5.0]); // kernel (0,0)
        assert_eq!(cols.data()[4..8], [2.0, 3.0, 5.0, 6.0]); // kernel (0,1)
        assert_eq!(cols.data()[8..12], [4.0, 5.0, 7.0, 8.0]); // kernel (1,0)
        assert_eq!(cols.data()[12..16], [5.0, 6.0, 8.0, 9.0]); // kernel (1,1)
    }

    #[test]
    fn padding_zeros() {
        let g = ConvGeom {
            in_c: 1,
            in_h: 2,
            in_w: 2,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let input = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]);
        let cols = im2col(&input, &g);
        assert_eq!(cols.shape(), &[9, 4]);
        // Kernel position (0,0) at output (0,0) reads the padded corner.
        assert_eq!(cols.data()[0], 0.0);
        // Kernel center at output (0,0) reads pixel (0,0).
        let center_row = 4; // ky=1, kx=1
        assert_eq!(cols.data()[center_row * 4], 1.0);
    }

    /// The lowering by its definition, one bounds test per element.
    fn naive_im2col(x: &[f32], g: &ConvGeom) -> Vec<f32> {
        let mut out = Vec::new();
        for (c, ky, kx) in kernel_taps(g) {
            for oy in 0..g.out_h() {
                for ox in 0..g.out_w() {
                    let iy = (oy * g.stride + ky).wrapping_sub(g.pad);
                    let ix = (ox * g.stride + kx).wrapping_sub(g.pad);
                    let inside = iy < g.in_h && ix < g.in_w;
                    out.push(if inside {
                        x[(c * g.in_h + iy) * g.in_w + ix]
                    } else {
                        0.0
                    });
                }
            }
        }
        out
    }

    /// The scatter by its definition, in the same element order.
    fn naive_col2im(cols: &[f32], g: &ConvGeom) -> Vec<f32> {
        let mut out = vec![0.0f32; g.in_c * g.in_h * g.in_w];
        let mut cols = cols.iter();
        for (c, ky, kx) in kernel_taps(g) {
            for oy in 0..g.out_h() {
                for ox in 0..g.out_w() {
                    let v = cols.next().unwrap();
                    let iy = (oy * g.stride + ky).wrapping_sub(g.pad);
                    let ix = (ox * g.stride + kx).wrapping_sub(g.pad);
                    if iy < g.in_h && ix < g.in_w {
                        out[(c * g.in_h + iy) * g.in_w + ix] += v;
                    }
                }
            }
        }
        out
    }

    fn kernel_taps(g: &ConvGeom) -> impl Iterator<Item = (usize, usize, usize)> {
        let k = g.k;
        (0..g.in_c).flat_map(move |c| (0..k).flat_map(move |ky| (0..k).map(move |kx| (c, ky, kx))))
    }

    #[test]
    fn lowering_matches_its_definition_bit_for_bit() {
        // Includes kernels wider than the padded image reaches (whole
        // rows of taps in the padding) and strides that skip the edge.
        let mut rng = DetRng::from_u64(11);
        for (in_h, in_w) in [(1, 1), (1, 4), (4, 5), (7, 3)] {
            for k in 1..=5 {
                for stride in 1..=3 {
                    for pad in 0..=3 {
                        if in_h + 2 * pad < k || in_w + 2 * pad < k {
                            continue;
                        }
                        let g = ConvGeom {
                            in_c: 2,
                            in_h,
                            in_w,
                            k,
                            stride,
                            pad,
                        };
                        let x = Tensor::randn(&[2 * in_h * in_w], 1.0, &mut rng);
                        let y = Tensor::randn(&[g.rows(), g.cols()], 1.0, &mut rng);
                        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                        let cols = im2col(&x, &g);
                        assert_eq!(
                            bits(cols.data()),
                            bits(&naive_im2col(x.data(), &g)),
                            "{g:?}"
                        );
                        let image = col2im(&y, &g);
                        assert_eq!(
                            bits(image.data()),
                            bits(&naive_col2im(y.data(), &g)),
                            "{g:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y: the defining
        // property of the adjoint, which is exactly what backprop needs.
        let g = ConvGeom {
            in_c: 2,
            in_h: 5,
            in_w: 4,
            k: 3,
            stride: 2,
            pad: 1,
        };
        let mut rng = DetRng::from_u64(7);
        let x = Tensor::randn(&[g.in_c * g.in_h * g.in_w], 1.0, &mut rng);
        let y = Tensor::randn(&[g.rows(), g.cols()], 1.0, &mut rng);
        let lhs: f32 = im2col(&x, &g)
            .data()
            .iter()
            .zip(y.data().iter())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f32 = x
            .data()
            .iter()
            .zip(col2im(&y, &g).data().iter())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn conv_via_im2col_matches_direct() {
        // Direct convolution vs im2col + matmul on a small case.
        let g = ConvGeom {
            in_c: 1,
            in_h: 4,
            in_w: 4,
            k: 3,
            stride: 1,
            pad: 0,
        };
        let mut rng = DetRng::from_u64(9);
        let input = Tensor::randn(&[16], 1.0, &mut rng);
        let kernel = Tensor::randn(&[1, 9], 1.0, &mut rng);
        let cols = im2col(&input, &g);
        let out = kernel.matmul(&cols); // [1, 4]
                                        // Direct computation.
        for oy in 0..2 {
            for ox in 0..2 {
                let mut acc = 0.0f32;
                for ky in 0..3 {
                    for kx in 0..3 {
                        acc += kernel.data()[ky * 3 + kx] * input.data()[(oy + ky) * 4 + (ox + kx)];
                    }
                }
                let got = out.data()[oy * 2 + ox];
                assert!((acc - got).abs() < 1e-5, "({oy},{ox}): {acc} vs {got}");
            }
        }
    }
}
