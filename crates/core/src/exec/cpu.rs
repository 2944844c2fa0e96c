//! [`BackendKind::Cpu`]: host SIMD kernels with modelled cycles.
//!
//! The fastest functional path: layer arithmetic runs through the
//! `zskip-nn` SIMD `_into` kernels (tier-dispatched, allocation-free on
//! a warmed [`Scratch`] arena), while cycle counts, activity counters
//! and DDR traffic come from the closed-form model.
//!
//! **Where the statistics come from.** They are value-independent: they
//! depend on the layer geometry, the packed weights and the
//! configuration, never on activations — as on the paper's accelerator,
//! where a weight tile costs `max(4, nnz)` cycles whatever it multiplies.
//! So the first image of a (network, stats-relevant configuration) pair
//! runs the shared staged pipeline with the model's arithmetic switched
//! off, and the driver records every pass's [`PassStats`] plus the run's
//! DDR bytes into a process-wide stats plan
//! (`pipeline::stats_plan_key` lists what the key covers). Every later
//! image is handed its pass's cached statistics through
//! [`PassCtx::cached_stats`] and runs only the kernels, so its report is
//! field-for-field the one the pipeline would have produced. Only runs
//! that succeed end to end populate the plan, so a `LayerTooLarge` or
//! `Unsupported` error is never masked.
//!
//! **Why fault runs bypass it.** With a fault plan attached the driver
//! neither looks up nor inserts a plan: every pass runs the staged
//! pipeline, which issues the very same DMA descriptor sequence as
//! Model, so injected `dma:*` faults fire and surface identically. The
//! same holds for `weight_cache(false)`, which means "rebuild every
//! value-independent per-network artifact on every image".
//!
//! Bit-identical outputs follow by transitivity: the SIMD kernels equal
//! the scalar golden reference (cross-tier property suite,
//! `tests/kernel_tiers.rs`), and the Model backend's functional path
//! equals the same reference (`tests/backend_equivalence.rs`).
//!
//! [`BackendKind::Cpu`]: crate::exec::BackendKind::Cpu
//! [`Scratch`]: zskip_nn::scratch::Scratch
//! [`PassCtx::cached_stats`]: crate::exec::PassCtx::cached_stats

use super::pipeline::{self, fm_to_tensor_into, Exec};
use super::{PassCtx, StripeBackend};
use crate::driver::DriverError;
use crate::isa::PoolPadOp;
use crate::report::PassStats;
use zskip_nn::conv::{conv2d_quant_into, conv2d_quant_into_pool, QuantConvWeights};
use zskip_nn::gemm::{conv2d_gemm_quant_pool, conv2d_gemm_quant_tier};
use zskip_nn::pool::maxpool_quant_into;
use zskip_nn::simd::KernelTier;
use zskip_quant::Sm8;
use zskip_tensor::{Shape, Tensor, TiledFeatureMap};

/// The host-SIMD backend (see module docs).
pub(crate) struct CpuBackend;

/// The stats-only executor the CPU backend charges cycles with.
const STATS: Exec = Exec::Model { functional: false };

impl StripeBackend for CpuBackend {
    fn conv_pass(
        &self,
        ctx: &mut PassCtx<'_>,
        name: &str,
        input: &TiledFeatureMap<Sm8>,
        qw: &QuantConvWeights,
        out_shape: Shape,
    ) -> Result<(TiledFeatureMap<Sm8>, PassStats), DriverError> {
        // Cycles, counters, DDR traffic and fault behaviour from the
        // stats plan, else from the staged pipeline (its uncomputed
        // output tiles are discarded).
        let stats = match ctx.cached_stats {
            Some(stats) => stats.clone(),
            None => pipeline::conv_pass(ctx.driver, ctx.soc, STATS, name, input, qw, out_shape, ctx.src_addr, ctx.dst_addr)?.1,
        };
        let (src, dst, acc, tier, pool) = ctx.scratch.pass_buffers_pool();
        fm_to_tensor_into(input, src);
        // The pipeline input is pre-padded by the explicit pad pass and
        // stride-1 by the driver's geometry checks, so pad = 0 here
        // yields exactly `out_shape`. With a worker pool attached the
        // output channels split across it — bit-exact at any width.
        //
        // Kernel choice: on SIMD tiers the row-panel GEMM is the fastest
        // host path by a wide margin (see `BENCH_kernels.json`); on the
        // scalar tier the packed direct conv wins, and keeping it there
        // also exercises the accelerator-analogue kernel end-to-end under
        // `ZSKIP_KERNEL=scalar`. All variants are bit-identical
        // (cross-kernel property suite, `tests/kernel_tiers.rs`).
        if tier == KernelTier::Scalar {
            match pool {
                Some(p) => conv2d_quant_into_pool(src, qw, 1, 0, tier, p, acc, dst),
                None => conv2d_quant_into(src, qw, 1, 0, tier, acc, dst),
            }
            debug_assert_eq!(dst.shape(), out_shape);
            Ok((TiledFeatureMap::from_tensor(dst), stats))
        } else {
            let out = match pool {
                Some(p) => conv2d_gemm_quant_pool(src, qw, 1, 0, tier, p),
                None => conv2d_gemm_quant_tier(src, qw, 1, 0, tier),
            };
            debug_assert_eq!(out.shape(), out_shape);
            Ok((TiledFeatureMap::from_tensor(&out), stats))
        }
    }

    fn poolpad_pass(
        &self,
        ctx: &mut PassCtx<'_>,
        name: &str,
        input: &TiledFeatureMap<Sm8>,
        op: PoolPadOp,
        out_shape: Shape,
    ) -> Result<(TiledFeatureMap<Sm8>, PassStats), DriverError> {
        let stats = match ctx.cached_stats {
            Some(stats) => stats.clone(),
            None => pipeline::poolpad_pass(ctx.driver, ctx.soc, STATS, name, input, op, out_shape, ctx.src_addr, ctx.dst_addr)?.1,
        };
        let (src, dst, _, _) = ctx.scratch.pass_buffers();
        fm_to_tensor_into(input, src);
        match op {
            PoolPadOp::MaxPool { k, stride } => {
                maxpool_quant_into(src, k as usize, stride as usize, dst);
            }
            PoolPadOp::Pad { amount } => pad_into(src, amount as usize, dst),
        }
        debug_assert_eq!(dst.shape(), out_shape);
        Ok((TiledFeatureMap::from_tensor(dst), stats))
    }
}

/// Zero-pads `src` by `pad` on each spatial side into `dst`, reusing the
/// allocation (the in-place analogue of [`Tensor::padded`]).
fn pad_into(src: &Tensor<Sm8>, pad: usize, dst: &mut Tensor<Sm8>) {
    let s = src.shape();
    dst.reset(s.c, s.h + 2 * pad, s.w + 2 * pad);
    for c in 0..s.c {
        for y in 0..s.h {
            for x in 0..s.w {
                dst[(c, y + pad, x + pad)] = src[(c, y, x)];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fm_round_trip_preserves_logical_extent() {
        let t = Tensor::from_fn(3, 7, 5, |c, y, x| Sm8::from_i32_saturating((c * 17 + y * 5 + x) as i32 - 30));
        let fm = TiledFeatureMap::from_tensor(&t);
        let mut back = Tensor::zeros(1, 1, 1);
        fm_to_tensor_into(&fm, &mut back);
        assert_eq!(back, t);
    }

    #[test]
    fn pad_into_matches_padded() {
        let t = Tensor::from_fn(2, 6, 6, |c, y, x| Sm8::from_i32_saturating((c + y * 3 + x) as i32 - 8));
        let mut dst = Tensor::zeros(1, 1, 1);
        pad_into(&t, 2, &mut dst);
        assert_eq!(dst, t.padded(2));
    }
}
