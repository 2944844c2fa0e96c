//! Execution backends behind the driver: the staged stripe pipeline and
//! the [`StripeBackend`] trait its interchangeable targets implement.
//!
//! The paper's accelerator stack is multi-backend in spirit — the same
//! per-layer instructions drive a transaction-level model, a cycle-exact
//! simulation and (on the FPGA) the real engines. This module makes that
//! shape explicit:
//!
//! * [`pipeline`] — the staged per-layer pipeline every backend shares:
//!   stage FM + packed weights in DDR, execute stripes (DMA in →
//!   instruction batch → DMA out), collect [`PassStats`] and counters;
//! * [`sched`] — the multi-instance placement scheduler above the
//!   pipeline: stripe-parallel, image-parallel and layer-pipelined
//!   sharding across N instances, with the HLS-derived per-N cost model;
//! * `stripes` — pure stripe-planning geometry under bank capacity;
//! * `model` — [`BackendKind::Model`]: closed-form cycles, functional
//!   arithmetic from the golden reference (the library default);
//! * `cycle` — [`BackendKind::Cycle`]: cycle-exact simulation of all
//!   kernels on the `zskip-sim` engine (slow; for validation);
//! * `cpu` — [`BackendKind::Cpu`]: functional results from the
//!   `zskip-nn` SIMD `_into` kernels on a per-session [`Scratch`] arena,
//!   cycles from the closed-form model, computed once per network and
//!   configuration into a cached stats plan that later images replay
//!   (the fastest functional path; the CLI default).
//!
//! All backends are bit-identical in output and DMA-fault behaviour, and
//! Model/Cpu are cycle-identical — see `tests/backend_equivalence.rs`
//! and `docs/ARCHITECTURE.md` (which also documents how to add a
//! backend).

pub(crate) mod cpu;
pub(crate) mod cycle;
pub(crate) mod model;
pub mod pipeline;
pub mod sched;
pub(crate) mod stripes;

pub use pipeline::{fm_to_bytes, SocHandle};

use crate::driver::{Driver, DriverError};
use crate::isa::PoolPadOp;
use crate::report::PassStats;
use zskip_nn::conv::QuantConvWeights;
use zskip_nn::scratch::Scratch;
use zskip_quant::Sm8;
use zskip_tensor::{Shape, TiledFeatureMap};

/// Which execution backend computes each stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Transaction-level model: closed-form cycles (fast; the library
    /// default).
    Model,
    /// Cycle-exact simulation of all kernels (slow; for validation).
    Cycle,
    /// Host SIMD kernels for the arithmetic, closed-form cycle model for
    /// the statistics, computed once per network (fastest functional
    /// path; the CLI default).
    Cpu,
}

impl BackendKind {
    /// All backends, in documentation order.
    pub const ALL: [BackendKind; 3] = [BackendKind::Model, BackendKind::Cycle, BackendKind::Cpu];

    /// The CLI/serialization name (`model` | `cycle` | `cpu`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Model => "model",
            BackendKind::Cycle => "cycle",
            BackendKind::Cpu => "cpu",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-pass execution context a [`StripeBackend`] runs against: the
/// driver configuration, the SoC models (DDR + DMA) shared across the
/// layers of one inference, and the session's scratch arena.
pub struct PassCtx<'a> {
    /// The driver (configuration, flags, fault plan).
    pub driver: &'a Driver,
    /// SoC context: DDR staging + DMA engine, shared across passes.
    pub soc: &'a mut SocHandle,
    /// Per-session scratch arena (CPU-backend compute buffers).
    pub scratch: &'a mut Scratch,
    /// DDR address of the region the pass's input feature map is staged
    /// in — the producing plan slot's region during a network run
    /// ([`pipeline::slot_addr`]).
    pub src_addr: usize,
    /// DDR address of the region the pass's output feature map is
    /// written back to.
    pub dst_addr: usize,
    /// This pass's statistics from the network's cached stats plan, when
    /// the driver has one (cpu backend only; see `exec::cpu`). A backend
    /// whose statistics are value-independent returns these instead of
    /// running the staged pipeline; `None` means run it.
    pub cached_stats: Option<&'a PassStats>,
}

/// One execution target for the staged per-layer pipeline.
///
/// The contract every implementation must honour:
///
/// * **Bit-identical outputs.** The returned feature map must equal the
///   golden software reference (`QuantizedNetwork::forward_quant`)
///   exactly, including the zeroed round-up region beyond the logical
///   extent.
/// * **Shared pipeline.** Stripe planning, DDR staging and DMA issue go
///   through [`pipeline`] so DMA traffic and injected `dma:*` faults
///   behave identically across backends (fault detection is
///   value-independent). A pass handed [`PassCtx::cached_stats`] may skip
///   it: the driver supplies those only when no fault plan is attached.
/// * **Honest statistics.** `PassStats` cycles must come from an actual
///   execution or a validated model of one (or a cached earlier run of
///   that model) — never fabricated.
///
/// See `docs/ARCHITECTURE.md` for how to add a backend.
pub trait StripeBackend {
    /// Runs one convolution pass (input already padded; stride 1).
    ///
    /// # Errors
    /// See [`Driver::run_network`].
    fn conv_pass(
        &self,
        ctx: &mut PassCtx<'_>,
        name: &str,
        input: &TiledFeatureMap<Sm8>,
        qw: &QuantConvWeights,
        out_shape: Shape,
    ) -> Result<(TiledFeatureMap<Sm8>, PassStats), DriverError>;

    /// Runs one pad or max-pool pass.
    ///
    /// # Errors
    /// See [`Driver::run_network`].
    fn poolpad_pass(
        &self,
        ctx: &mut PassCtx<'_>,
        name: &str,
        input: &TiledFeatureMap<Sm8>,
        op: PoolPadOp,
        out_shape: Shape,
    ) -> Result<(TiledFeatureMap<Sm8>, PassStats), DriverError>;
}

/// The backend implementation for a [`BackendKind`].
pub fn backend(kind: BackendKind) -> &'static dyn StripeBackend {
    match kind {
        BackendKind::Model => &model::ModelBackend,
        BackendKind::Cycle => &cycle::CycleBackend,
        BackendKind::Cpu => &cpu::CpuBackend,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_display_is_the_name() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.to_string(), kind.name());
        }
    }
}
