//! An independent convolution implementation: im2col + GEMM.
//!
//! The accelerator's golden model is the direct convolution in
//! [`crate::conv`]. To guard the guard, this module computes the same
//! layers by the classic lowering — unroll input patches into a matrix
//! (im2col) and multiply by the filter matrix — sharing *no* loop
//! structure with the direct path. Property tests pin the two
//! implementations together, so an indexing bug in either is caught by
//! the other.
//!
//! The GEMMs are register-tiled and cache-blocked: a `4x4` micro-kernel
//! holds sixteen accumulators in registers and streams the im2col matrix
//! through fixed-size array windows (eliding per-element bounds checks).
//! Bit-exactness with the direct convolution is preserved by construction —
//! every output element owns a single accumulator that walks the reduction
//! dimension in the direct loop's `(c, ky, kx)` order with no fused
//! multiply-add, so the float rounding sequence is identical and
//! [`conv2d_gemm_f32`] can stand in for [`crate::conv::conv2d_f32`] (model
//! calibration runs on it). `conv2d_gemm_quant_naive` stays as the quantized
//! property-test baseline.

use crate::conv::{ConvWeights, QuantConvWeights};
use crate::par::{ConvPool, SendPtr};
use crate::simd::{self, KernelTier, GEMM_I32_CHUNK_ROWS};
use zskip_quant::Sm8;
use zskip_tensor::{Shape, Tensor};

/// Micro-kernel tile: MR output channels x NR output positions.
const MR: usize = 4;
const NR: usize = 4;

/// Lowers input patches to a `(c * k * k) x (out_h * out_w)` matrix in
/// row-major order (one column per output position). Generic over the
/// element type — the float and quantized paths share this single routine.
pub fn im2col<T: Copy + Default>(
    input: &Tensor<T>,
    k: usize,
    stride: usize,
    pad: usize,
    zero: T,
) -> (Vec<T>, Shape) {
    let s = input.shape();
    let out_h = (s.h + 2 * pad - k) / stride + 1;
    let out_w = (s.w + 2 * pad - k) / stride + 1;
    let rows = s.c * k * k;
    let cols = out_h * out_w;
    let mut m = vec![zero; rows * cols];
    for c in 0..s.c {
        for ky in 0..k {
            for kx in 0..k {
                let row = (c * k + ky) * k + kx;
                let dst = &mut m[row * cols..(row + 1) * cols];
                for oy in 0..out_h {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    for ox in 0..out_w {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        dst[oy * out_w + ox] = input.get_or(c, iy, ix, zero);
                    }
                }
            }
        }
    }
    (m, Shape::new(rows, out_h, out_w))
}

/// Whether this conv geometry makes im2col the identity: a 1x1 stride-1
/// unpadded (pointwise) convolution's patch matrix *is* the input
/// activation, channel-major — one row per input channel, one column per
/// position. ResNet projection shortcuts are exactly this shape, so the
/// quantized GEMM skips the lowering copy entirely and streams the input
/// slice straight into the row-panel kernel.
pub fn pointwise_is_identity(k: usize, stride: usize, pad: usize) -> bool {
    k == 1 && stride == 1 && pad == 0
}

/// Lowers patches for the quantized GEMM, borrowing the input directly
/// when [`pointwise_is_identity`] holds (and `force_im2col` is off).
fn lower_patches<'a>(
    input: &'a Tensor<Sm8>,
    k: usize,
    stride: usize,
    pad: usize,
    force_im2col: bool,
) -> (std::borrow::Cow<'a, [Sm8]>, Shape) {
    if pointwise_is_identity(k, stride, pad) && !force_im2col {
        let s = input.shape();
        return (std::borrow::Cow::Borrowed(input.as_slice()), Shape::new(s.c, s.h, s.w));
    }
    let (m, shape) = im2col(input, k, stride, pad, Sm8::ZERO);
    (std::borrow::Cow::Owned(m), shape)
}

/// Float convolution via im2col + blocked GEMM (`out = W x patches + bias`).
pub fn conv2d_gemm_f32(
    input: &Tensor<f32>,
    weights: &ConvWeights,
    stride: usize,
    pad: usize,
    relu: bool,
) -> Tensor<f32> {
    let (m, mshape) = im2col(input, weights.k, stride, pad, 0.0);
    let cols = mshape.h * mshape.w;
    let rows = mshape.c;
    let mut out = Tensor::zeros(weights.out_c, mshape.h, mshape.w);
    let out_slice = out.as_mut_slice();
    let w = &weights.w[..];

    let mut ob = 0;
    while ob < weights.out_c {
        if weights.out_c - ob >= MR {
            // Four filter rows, resolved to slices once per block.
            let w0 = &w[ob * rows..(ob + 1) * rows];
            let w1 = &w[(ob + 1) * rows..(ob + 2) * rows];
            let w2 = &w[(ob + 2) * rows..(ob + 3) * rows];
            let w3 = &w[(ob + 3) * rows..(ob + 4) * rows];
            let bias = [
                weights.bias[ob],
                weights.bias[ob + 1],
                weights.bias[ob + 2],
                weights.bias[ob + 3],
            ];
            let mut jb = 0;
            while jb + NR <= cols {
                // 4x4 register tile; each accumulator walks r in order, so
                // the rounding sequence matches the naive loop exactly.
                let mut acc = [[0f32; NR]; MR];
                for (mi, a) in acc.iter_mut().enumerate() {
                    *a = [bias[mi]; NR];
                }
                for r in 0..rows {
                    let mbase = r * cols + jb;
                    let mr: [f32; NR] = m[mbase..mbase + NR].try_into().expect("NR window");
                    let wv = [w0[r], w1[r], w2[r], w3[r]];
                    for (acc_row, &wvm) in acc.iter_mut().zip(&wv) {
                        for (a, &mv) in acc_row.iter_mut().zip(&mr) {
                            *a += wvm * mv;
                        }
                    }
                }
                for (mi, acc_row) in acc.iter().enumerate() {
                    let obase = (ob + mi) * cols + jb;
                    for (ni, &v) in acc_row.iter().enumerate() {
                        out_slice[obase + ni] = if relu { v.max(0.0) } else { v };
                    }
                }
                jb += NR;
            }
            // Column remainder: scalar, same reduction order.
            for o in ob..ob + MR {
                let wrow = &w[o * rows..(o + 1) * rows];
                for j in jb..cols {
                    let mut acc = weights.bias[o];
                    for (r, &wv) in wrow.iter().enumerate() {
                        acc += wv * m[r * cols + j];
                    }
                    out_slice[o * cols + j] = if relu { acc.max(0.0) } else { acc };
                }
            }
            ob += MR;
        } else {
            // Output-channel remainder: scalar rows.
            let wrow = &w[ob * rows..(ob + 1) * rows];
            for j in 0..cols {
                let mut acc = weights.bias[ob];
                for (r, &wv) in wrow.iter().enumerate() {
                    acc += wv * m[r * cols + j];
                }
                out_slice[ob * cols + j] = if relu { acc.max(0.0) } else { acc };
            }
            ob += 1;
        }
    }
    out
}

/// Integer-exact quantized convolution via im2col + blocked GEMM; must
/// agree bit-for-bit with [`crate::conv::conv2d_quant`]. Dispatches to the
/// SIMD row-panel kernel when the runtime tier selection
/// ([`crate::simd::dispatch`]) is wider than scalar.
pub fn conv2d_gemm_quant(input: &Tensor<Sm8>, weights: &QuantConvWeights, stride: usize, pad: usize) -> Tensor<Sm8> {
    conv2d_gemm_quant_tier(input, weights, stride, pad, simd::dispatch())
}

/// [`conv2d_gemm_quant`] with an explicit kernel tier.
///
/// * [`KernelTier::Scalar`] runs the register-tiled `4x4` micro-kernel
///   below — the bit-exactness oracle.
/// * SIMD tiers run a row-panel kernel: per output channel, an `i32`
///   column-accumulator panel is updated one reduction row at a time by
///   [`crate::simd::axpy_i32`] (skipping zero weights — the software analogue
///   of the hardware's zero-weight skip), flushed into `i64` every
///   [`GEMM_I32_CHUNK_ROWS`] rows so no `i32` lane can overflow.
///
/// Integer accumulation is order-independent, so all tiers are
/// bit-identical (pinned by property test).
pub fn conv2d_gemm_quant_tier(
    input: &Tensor<Sm8>,
    weights: &QuantConvWeights,
    stride: usize,
    pad: usize,
    tier: KernelTier,
) -> Tensor<Sm8> {
    conv2d_gemm_quant_tier_impl(input, weights, stride, pad, tier, false)
}

/// [`conv2d_gemm_quant_tier`] with the pointwise fast path disabled: the
/// im2col matrix is always materialized, even for geometries where
/// [`pointwise_is_identity`] holds and the lowering is a pure copy. Kept
/// as the baseline `kernel_bench`'s `resnet_block` section measures the
/// 1x1 fast path against; results are bit-identical by construction.
pub fn conv2d_gemm_quant_tier_generic(
    input: &Tensor<Sm8>,
    weights: &QuantConvWeights,
    stride: usize,
    pad: usize,
    tier: KernelTier,
) -> Tensor<Sm8> {
    conv2d_gemm_quant_tier_impl(input, weights, stride, pad, tier, true)
}

fn conv2d_gemm_quant_tier_impl(
    input: &Tensor<Sm8>,
    weights: &QuantConvWeights,
    stride: usize,
    pad: usize,
    tier: KernelTier,
    force_im2col: bool,
) -> Tensor<Sm8> {
    if tier == KernelTier::Scalar {
        return conv2d_gemm_quant_blocked(input, weights, stride, pad, force_im2col);
    }
    let (m, mshape) = lower_patches(input, weights.k, stride, pad, force_im2col);
    let cols = mshape.h * mshape.w;
    let rows = mshape.c;
    let mut out = Tensor::zeros(weights.out_c, mshape.h, mshape.w);
    let out_slice = out.as_mut_slice();
    let mut acc64 = vec![0i64; cols];
    let mut acc32 = vec![0i32; cols];
    for o in 0..weights.out_c {
        let plane = &mut out_slice[o * cols..(o + 1) * cols];
        gemm_quant_channel(&m[..], cols, rows, weights, o, tier, &mut acc64, &mut acc32, plane);
    }
    out
}

/// One output channel of the SIMD row-panel quantized GEMM: the shared
/// body of [`conv2d_gemm_quant_tier`] and [`conv2d_gemm_quant_pool`]. Each
/// channel owns its accumulator panel and walks the reduction rows in
/// ascending order, so the channel's result is independent of which thread
/// (or how many) computes the other channels.
#[allow(clippy::too_many_arguments)]
fn gemm_quant_channel(
    m: &[Sm8],
    cols: usize,
    rows: usize,
    weights: &QuantConvWeights,
    o: usize,
    tier: KernelTier,
    acc64: &mut [i64],
    acc32: &mut [i32],
    out_plane: &mut [Sm8],
) {
    let wrow = &weights.w[o * rows..(o + 1) * rows];
    acc64.fill(weights.bias_acc[o]);
    acc32.fill(0);
    let mut pending = 0usize;
    for (r, &wv) in wrow.iter().enumerate() {
        let wv = wv.to_i32();
        if wv == 0 {
            continue;
        }
        simd::axpy_i32(tier, acc32, &m[r * cols..(r + 1) * cols], wv);
        pending += 1;
        if pending == GEMM_I32_CHUNK_ROWS {
            for (a64, a32) in acc64.iter_mut().zip(acc32.iter_mut()) {
                *a64 += *a32 as i64;
                *a32 = 0;
            }
            pending = 0;
        }
    }
    if pending > 0 {
        for (a64, a32) in acc64.iter_mut().zip(acc32.iter()) {
            *a64 += *a32 as i64;
        }
    }
    for (dst, &a) in out_plane.iter_mut().zip(acc64.iter()) {
        *dst = if weights.relu { weights.requant.apply_relu(a) } else { weights.requant.apply(a) };
    }
}

/// [`conv2d_gemm_quant_tier`] with the output channels chunked across an
/// intra-image worker pool: each participant takes a contiguous channel
/// range and runs `gemm_quant_channel` per channel with its own
/// accumulator panels. Bit-identical to the single-threaded row-panel
/// kernel at any worker count (channels are computed by the same body in
/// the same reduction order — only the executing thread varies). The
/// scalar tier uses the row-panel body too (not the blocked micro-kernel);
/// integer accumulation keeps that bit-exact as well.
pub fn conv2d_gemm_quant_pool(
    input: &Tensor<Sm8>,
    weights: &QuantConvWeights,
    stride: usize,
    pad: usize,
    tier: KernelTier,
    pool: &ConvPool,
) -> Tensor<Sm8> {
    let (m, mshape) = lower_patches(input, weights.k, stride, pad, false);
    let cols = mshape.h * mshape.w;
    let rows = mshape.c;
    let mut out = Tensor::zeros(weights.out_c, mshape.h, mshape.w);
    let out_ptr = SendPtr::new(out.as_mut_slice().as_mut_ptr());
    let panels = pool.threads().min(weights.out_c.max(1));
    let per = weights.out_c.div_ceil(panels);
    let m = &m[..];
    pool.run(panels, &|_, panel| {
        let o_lo = panel * per;
        let o_hi = ((panel + 1) * per).min(weights.out_c);
        // The GEMM path allocates per call anyway (im2col); per-panel
        // accumulators keep it simple. The allocation-free path is the
        // direct conv in `crate::conv`.
        let mut acc64 = vec![0i64; cols];
        let mut acc32 = vec![0i32; cols];
        for o in o_lo..o_hi {
            // SAFETY: panels own disjoint channel ranges, so plane `o` has
            // a single writer; `o < out_c` keeps it in bounds.
            let plane =
                unsafe { std::slice::from_raw_parts_mut(out_ptr.add(o * cols), cols) };
            gemm_quant_channel(m, cols, rows, weights, o, tier, &mut acc64, &mut acc32, plane);
        }
    });
    out
}

/// The register-tiled scalar GEMM (the [`KernelTier::Scalar`] body).
fn conv2d_gemm_quant_blocked(
    input: &Tensor<Sm8>,
    weights: &QuantConvWeights,
    stride: usize,
    pad: usize,
    force_im2col: bool,
) -> Tensor<Sm8> {
    let (m, mshape) = lower_patches(input, weights.k, stride, pad, force_im2col);
    let cols = mshape.h * mshape.w;
    let rows = mshape.c;
    let mut out = Tensor::zeros(weights.out_c, mshape.h, mshape.w);
    let out_slice = out.as_mut_slice();
    let w = &weights.w[..];
    let epilogue = |acc: i64| {
        if weights.relu {
            weights.requant.apply_relu(acc)
        } else {
            weights.requant.apply(acc)
        }
    };

    let mut ob = 0;
    while ob < weights.out_c {
        if weights.out_c - ob >= MR {
            let w0 = &w[ob * rows..(ob + 1) * rows];
            let w1 = &w[(ob + 1) * rows..(ob + 2) * rows];
            let w2 = &w[(ob + 2) * rows..(ob + 3) * rows];
            let w3 = &w[(ob + 3) * rows..(ob + 4) * rows];
            let bias = [
                weights.bias_acc[ob],
                weights.bias_acc[ob + 1],
                weights.bias_acc[ob + 2],
                weights.bias_acc[ob + 3],
            ];
            let mut jb = 0;
            while jb + NR <= cols {
                let mut acc = [[0i64; NR]; MR];
                for (mi, a) in acc.iter_mut().enumerate() {
                    *a = [bias[mi]; NR];
                }
                for r in 0..rows {
                    let mbase = r * cols + jb;
                    let mr: [Sm8; NR] = m[mbase..mbase + NR].try_into().expect("NR window");
                    let wv = [w0[r], w1[r], w2[r], w3[r]];
                    for (acc_row, &wvm) in acc.iter_mut().zip(&wv) {
                        for (a, &mv) in acc_row.iter_mut().zip(&mr) {
                            *a += wvm.mul_exact(mv) as i64;
                        }
                    }
                }
                for (mi, acc_row) in acc.iter().enumerate() {
                    let obase = (ob + mi) * cols + jb;
                    for (ni, &v) in acc_row.iter().enumerate() {
                        out_slice[obase + ni] = epilogue(v);
                    }
                }
                jb += NR;
            }
            for o in ob..ob + MR {
                let wrow = &w[o * rows..(o + 1) * rows];
                for j in jb..cols {
                    let mut acc: i64 = weights.bias_acc[o];
                    for (r, &wv) in wrow.iter().enumerate() {
                        acc += wv.mul_exact(m[r * cols + j]) as i64;
                    }
                    out_slice[o * cols + j] = epilogue(acc);
                }
            }
            ob += MR;
        } else {
            let wrow = &w[ob * rows..(ob + 1) * rows];
            for j in 0..cols {
                let mut acc: i64 = weights.bias_acc[ob];
                for (r, &wv) in wrow.iter().enumerate() {
                    acc += wv.mul_exact(m[r * cols + j]) as i64;
                }
                out_slice[ob * cols + j] = epilogue(acc);
            }
            ob += 1;
        }
    }
    out
}

/// The original naive quantized GEMM, kept as the property-test baseline.
pub fn conv2d_gemm_quant_naive(
    input: &Tensor<Sm8>,
    weights: &QuantConvWeights,
    stride: usize,
    pad: usize,
) -> Tensor<Sm8> {
    let (m, mshape) = im2col(input, weights.k, stride, pad, Sm8::ZERO);
    let cols = mshape.h * mshape.w;
    let rows = mshape.c;
    let mut out = Tensor::zeros(weights.out_c, mshape.h, mshape.w);
    for o in 0..weights.out_c {
        let wrow = &weights.w[o * rows..(o + 1) * rows];
        for j in 0..cols {
            let mut acc: i64 = weights.bias_acc[o];
            for (r, &wv) in wrow.iter().enumerate() {
                acc += wv.mul_exact(m[r * cols + j]) as i64;
            }
            out.as_mut_slice()[o * cols + j] =
                if weights.relu { weights.requant.apply_relu(acc) } else { weights.requant.apply(acc) };
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::{conv2d_f32, conv2d_quant};
    use proptest::prelude::*;
    use zskip_quant::Requantizer;

    fn float_weights(out_c: usize, in_c: usize, k: usize, seed: u64) -> ConvWeights {
        let mut w = ConvWeights::zeros(out_c, in_c, k);
        for (i, v) in w.w.iter_mut().enumerate() {
            *v = (((i as u64).wrapping_mul(seed | 1) >> 7) % 200) as f32 / 100.0 - 1.0;
        }
        for (i, b) in w.bias.iter_mut().enumerate() {
            *b = i as f32 * 0.1 - 0.2;
        }
        w
    }

    fn quant_weights(out_c: usize, in_c: usize, k: usize, seed: u64) -> QuantConvWeights {
        QuantConvWeights::new(
            out_c,
            in_c,
            k,
            (0..out_c * in_c * k * k)
                .map(|i| {
                    let v = ((i as u64).wrapping_mul(seed.wrapping_mul(2654435761) | 1) >> 9) % 255;
                    Sm8::from_i32_saturating(v as i32 - 127)
                })
                .collect(),
            (0..out_c as i64).map(|o| o * 7 - 11).collect(),
            Requantizer::from_ratio(1.0 / 16.0),
            seed.is_multiple_of(2),
        )
    }

    #[test]
    fn gemm_matches_direct_float() {
        let w = float_weights(4, 3, 3, 17);
        let input = Tensor::from_fn(3, 7, 9, |c, y, x| ((c * 63 + y * 9 + x) as f32 * 0.11).sin());
        for (stride, pad, relu) in [(1, 1, true), (1, 0, false), (2, 1, false)] {
            let a = conv2d_f32(&input, &w, stride, pad, relu);
            let b = conv2d_gemm_f32(&input, &w, stride, pad, relu);
            assert_eq!(a.shape(), b.shape());
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y} (stride {stride} pad {pad})");
            }
        }
    }

    #[test]
    fn im2col_shape_and_patch_content() {
        let input = Tensor::from_fn(2, 4, 4, |c, y, x| (c * 16 + y * 4 + x) as f32);
        let (m, shape) = im2col(&input, 3, 1, 1, 0.0);
        assert_eq!(shape, Shape::new(2 * 9, 4, 4));
        let cols = 16;
        // Center kernel tap of channel 0 at output (1,1) is input (1,1).
        let row = 4; // (c=0, ky=1, kx=1)
        assert_eq!(m[row * cols + 5], input[(0, 1, 1)]);
        // Top-left tap at output (0,0) is padding.
        assert_eq!(m[0], 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn quant_gemm_is_bit_exact_vs_direct(
            out_c in 1usize..5,
            in_c in 1usize..4,
            h in 3usize..9,
            w in 3usize..9,
            k in 1usize..4,
            pad in 0usize..2,
            seed in 0u64..500,
        ) {
            prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
            let qw = quant_weights(out_c, in_c, k, seed);
            let input = Tensor::from_fn(in_c, h, w, |c, y, x| {
                Sm8::from_i32_saturating((((c * 131 + y * 17 + x * 3) as u64 ^ seed) % 255) as i32 - 127)
            });
            let direct = conv2d_quant(&input, &qw, 1, pad);
            let gemm = conv2d_gemm_quant(&input, &qw, 1, pad);
            prop_assert_eq!(direct, gemm);
        }

        // Blocked GEMM vs. the direct float oracle: exact f32 equality. The
        // blocked kernel must keep the direct loop's accumulation order
        // per output element (model calibration relies on it).
        #[test]
        fn blocked_f32_gemm_is_bit_exact_vs_direct(
            out_c in 1usize..10, // crosses the MR=4 boundary and remainders
            in_c in 1usize..4,
            h in 3usize..10,
            w in 3usize..10,
            k in 1usize..4,
            pad in 0usize..2,
            stride in 1usize..3,
            seed in 0u64..500,
        ) {
            prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
            let cw = float_weights(out_c, in_c, k, seed | 1);
            let input = Tensor::from_fn(in_c, h, w, |c, y, x| {
                (((c * 67 + y * 13 + x * 5) as u64 ^ seed) % 199) as f32 * 0.013 - 1.2
            });
            let relu = seed % 2 == 0;
            let direct = conv2d_f32(&input, &cw, stride, pad, relu);
            let blocked = conv2d_gemm_f32(&input, &cw, stride, pad, relu);
            prop_assert_eq!(direct.shape(), blocked.shape());
            // Bit-exact: compare raw bits, not approximate equality.
            for (a, b) in direct.as_slice().iter().zip(blocked.as_slice()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        // Every reachable SIMD tier vs. the scalar blocked kernel: exact.
        #[test]
        fn simd_quant_gemm_is_bit_exact_vs_scalar(
            out_c in 1usize..8,
            in_c in 1usize..4,
            hw in 3usize..10,
            k in 1usize..4,
            pad in 0usize..2,
            stride in 1usize..3,
            seed in 0u64..500,
        ) {
            prop_assume!(hw + 2 * pad >= k);
            let qw = quant_weights(out_c, in_c, k, seed);
            let input = Tensor::from_fn(in_c, hw, hw, |c, y, x| {
                Sm8::from_i32_saturating((((c * 53 + y * 19 + x * 5) as u64 ^ seed) % 255) as i32 - 127)
            });
            let scalar = conv2d_gemm_quant_tier(&input, &qw, stride, pad, crate::simd::KernelTier::Scalar);
            for tier in crate::simd::KernelTier::supported() {
                let got = conv2d_gemm_quant_tier(&input, &qw, stride, pad, tier);
                prop_assert_eq!(&scalar, &got, "tier {}", tier);
            }
        }

        // Blocked vs. naive, QUANT: i64 accumulation is order-exact.
        #[test]
        fn blocked_quant_gemm_is_bit_exact_vs_naive(
            out_c in 1usize..10,
            in_c in 1usize..4,
            hw in 3usize..10,
            k in 1usize..4,
            pad in 0usize..2,
            stride in 1usize..3,
            seed in 0u64..500,
        ) {
            prop_assume!(hw + 2 * pad >= k);
            let qw = quant_weights(out_c, in_c, k, seed);
            let input = Tensor::from_fn(in_c, hw, hw, |c, y, x| {
                Sm8::from_i32_saturating((((c * 37 + y * 11 + x * 7) as u64 ^ seed) % 255) as i32 - 127)
            });
            let naive = conv2d_gemm_quant_naive(&input, &qw, stride, pad);
            let blocked = conv2d_gemm_quant(&input, &qw, stride, pad);
            prop_assert_eq!(naive, blocked);
        }

        // The 1x1 fast path (borrowed input as the patch matrix) vs. the
        // forced-im2col generic path vs. naive: all bit-identical.
        #[test]
        fn pointwise_fast_path_is_bit_exact(
            out_c in 1usize..8,
            in_c in 1usize..5,
            hw in 2usize..12,
            seed in 0u64..500,
        ) {
            let qw = quant_weights(out_c, in_c, 1, seed);
            let input = Tensor::from_fn(in_c, hw, hw, |c, y, x| {
                Sm8::from_i32_saturating((((c * 97 + y * 23 + x * 3) as u64 ^ seed) % 255) as i32 - 127)
            });
            let naive = conv2d_gemm_quant_naive(&input, &qw, 1, 0);
            for tier in crate::simd::KernelTier::supported() {
                let fast = conv2d_gemm_quant_tier(&input, &qw, 1, 0, tier);
                let generic = conv2d_gemm_quant_tier_generic(&input, &qw, 1, 0, tier);
                prop_assert_eq!(&naive, &fast, "fast path, tier {}", tier);
                prop_assert_eq!(&naive, &generic, "generic path, tier {}", tier);
            }
        }
    }

    #[test]
    fn pointwise_lowering_borrows_the_input() {
        let input = Tensor::from_fn(3, 4, 5, |c, y, x| {
            Sm8::from_i32_saturating((c * 20 + y * 5 + x) as i32 - 30)
        });
        assert!(pointwise_is_identity(1, 1, 0));
        assert!(!pointwise_is_identity(1, 2, 0));
        assert!(!pointwise_is_identity(1, 1, 1));
        assert!(!pointwise_is_identity(3, 1, 0));
        let (m, shape) = lower_patches(&input, 1, 1, 0, false);
        assert!(matches!(m, std::borrow::Cow::Borrowed(_)), "1x1 must not copy");
        assert_eq!(shape, Shape::new(3, 4, 5));
        assert_eq!(&m[..], input.as_slice());
        let (forced, fshape) = lower_patches(&input, 1, 1, 0, true);
        assert!(matches!(forced, std::borrow::Cow::Owned(_)));
        assert_eq!(fshape, shape);
        assert_eq!(&forced[..], input.as_slice());
    }
}
