//! The curated library surface a host application holds: a validated
//! [`Session`] wrapping one driver configuration plus the batching knobs
//! every consumer of the accelerator shares.
//!
//! The CLI's `infer`, `batch` and `serve` subcommands all route through
//! this type, so a daemon, a one-shot inference and a benchmark are
//! guaranteed to configure the stack identically: backend, intra-image
//! threads, SIMD kernel tier, weight-cache policy and batch shaping live
//! in exactly one builder. The serving daemon
//! ([`ServeEngine`](crate::serve::ServeEngine)) is a thin protocol layer
//! over a `Session`.
//!
//! ```
//! # use zskip_core::{AccelConfig, BackendKind, Session};
//! # use zskip_hls::AccelArch;
//! let config = AccelConfig::from_arch(
//!     &AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 4096 },
//!     100.0,
//! );
//! let session = Session::builder(config).backend(BackendKind::Cpu).build().unwrap();
//! assert!(session.driver().functional);
//! ```

use std::time::Duration;

use crate::batch::{
    run_batch, run_batch_resilient, BatchReport, ResilientBatchReport, RetryPolicy,
};
use crate::config::AccelConfig;
use crate::driver::{BackendKind, Driver, DriverBuilder, InferenceReport};
use crate::error::Error;
use crate::exec::sched::{self, Placement, ShardReport};
use zskip_fault::SharedFaultPlan;
use zskip_nn::model::QuantizedNetwork;
use zskip_nn::simd::KernelTier;
use zskip_nn::Scratch;
use zskip_tensor::Tensor;

/// Default request-coalescing cutoff ([`BatchConfig::max_batch`]).
pub const DEFAULT_MAX_BATCH: usize = 8;
/// Default adaptive batch window in milliseconds
/// ([`BatchConfig::batch_window`]).
pub const DEFAULT_BATCH_WINDOW_MS: u64 = 2;
/// Default admission-control queue depth ([`BatchConfig::queue_depth`]).
pub const DEFAULT_QUEUE_DEPTH: usize = 64;

/// Batch shaping and admission-control knobs shared by the batch engine
/// entry points and the serving daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Worker threads for the work-stealing batch pool (0 = host auto).
    pub workers: usize,
    /// Requests coalesced into one accelerator batch at most. The serve
    /// loop dispatches a batch as soon as this many requests are queued,
    /// without waiting out the window (the ResNet50-PYNQ host's
    /// `--max_bs` knob).
    pub max_batch: usize,
    /// How long the serve loop waits for more requests after the first
    /// one of a batch arrives. Zero dispatches immediately (lowest
    /// latency); larger windows trade latency for throughput.
    pub batch_window: Duration,
    /// Bounded submission-queue depth: admission control. A submit
    /// against a full queue is rejected with
    /// [`ServeError::Overloaded`](crate::serve::ServeError::Overloaded)
    /// instead of growing without bound — an overloaded server degrades
    /// to explicit backpressure, never collapse.
    pub queue_depth: usize,
    /// Per-request retry policy for transient faults.
    pub retry: RetryPolicy,
    /// Multi-instance placement for sharded batches
    /// ([`Session::run_sharded`]); `Auto` resolves per workload
    /// (see [`Placement::resolve`]).
    pub placement: Placement,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            workers: 0,
            max_batch: DEFAULT_MAX_BATCH,
            batch_window: Duration::from_millis(DEFAULT_BATCH_WINDOW_MS),
            queue_depth: DEFAULT_QUEUE_DEPTH,
            retry: RetryPolicy::default(),
            placement: Placement::Auto,
        }
    }
}

/// Validating builder for [`Session`]. Mirrors [`DriverBuilder`] and adds
/// the batch knobs; see the module docs for an example.
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    driver: DriverBuilder,
    batch: BatchConfig,
}

impl SessionBuilder {
    /// Starts a builder from an accelerator configuration with the
    /// [`DriverBuilder`] defaults and [`BatchConfig::default`].
    pub fn new(config: AccelConfig) -> SessionBuilder {
        SessionBuilder { driver: DriverBuilder::new(config), batch: BatchConfig::default() }
    }

    /// Starts a builder from a [`TunedConfig`](crate::tune::TunedConfig)
    /// artifact on disk (the output of `zskip tune`; the CLI's
    /// `--config <file>` flag routes through this). Every knob of the
    /// artifact is applied; callers may layer explicit overrides on the
    /// returned builder before `build()` — that is how CLI flags win
    /// over the artifact.
    ///
    /// # Errors
    /// `config.invalid` when the file cannot be read or is not a valid
    /// versioned artifact (see
    /// [`TunedConfig::load`](crate::tune::TunedConfig::load)).
    pub fn from_tuned(path: impl AsRef<std::path::Path>) -> Result<SessionBuilder, Error> {
        Ok(crate::tune::TunedConfig::load(path)?.session())
    }

    /// Selects the execution backend.
    pub fn backend(mut self, backend: BackendKind) -> SessionBuilder {
        self.driver = self.driver.backend(backend);
        self
    }

    /// Intra-image conv worker threads for the CPU backend
    /// (see [`DriverBuilder::threads`]).
    pub fn threads(mut self, threads: usize) -> SessionBuilder {
        self.driver = self.driver.threads(threads);
        self
    }

    /// Pins the session's SIMD kernel tier (see [`DriverBuilder::kernel`]).
    pub fn kernel(mut self, tier: KernelTier) -> SessionBuilder {
        self.driver = self.driver.kernel(tier);
        self
    }

    /// Overrides the simulated instance count with the RAM-preserving
    /// bank rescale (see [`DriverBuilder::instances`]).
    pub fn instances(mut self, instances: usize) -> SessionBuilder {
        self.driver = self.driver.instances(instances);
        self
    }

    /// Multi-instance placement for [`Session::run_sharded`]
    /// (see [`BatchConfig::placement`]).
    pub fn placement(mut self, placement: Placement) -> SessionBuilder {
        self.batch.placement = placement;
        self
    }

    /// Toggles the process-wide packed-weight and stats-plan caches
    /// (see [`DriverBuilder::weight_cache`]).
    pub fn weight_cache(mut self, on: bool) -> SessionBuilder {
        self.driver = self.driver.weight_cache(on);
        self
    }

    /// Event-scheduler park hysteresis for the cycle backend
    /// (see [`DriverBuilder::park_hysteresis`]).
    pub fn park_hysteresis(mut self, ticks: u32) -> SessionBuilder {
        self.driver = self.driver.park_hysteresis(ticks);
        self
    }

    /// Enables the future-work filter grouping.
    pub fn filter_grouping(mut self, on: bool) -> SessionBuilder {
        self.driver = self.driver.filter_grouping(on);
        self
    }

    /// When `false`, skip functional arithmetic (stats-only sweeps;
    /// model backend only).
    pub fn functional(mut self, on: bool) -> SessionBuilder {
        self.driver = self.driver.functional(on);
        self
    }

    /// When `false`, pack every weight slot (the no-skipping ablation).
    pub fn zero_skipping(mut self, on: bool) -> SessionBuilder {
        self.driver = self.driver.zero_skipping(on);
        self
    }

    /// Attaches a fault plan (see [`DriverBuilder::fault_plan`]).
    pub fn fault_plan(mut self, plan: SharedFaultPlan) -> SessionBuilder {
        self.driver = self.driver.fault_plan(plan);
        self
    }

    /// Replaces the whole batch configuration.
    pub fn batch_config(mut self, batch: BatchConfig) -> SessionBuilder {
        self.batch = batch;
        self
    }

    /// Batch-pool worker threads (0 = host auto).
    pub fn batch_workers(mut self, workers: usize) -> SessionBuilder {
        self.batch.workers = workers;
        self
    }

    /// Request-coalescing cutoff (see [`BatchConfig::max_batch`]).
    pub fn max_batch(mut self, max_batch: usize) -> SessionBuilder {
        self.batch.max_batch = max_batch;
        self
    }

    /// Adaptive batch window (see [`BatchConfig::batch_window`]).
    pub fn batch_window(mut self, window: Duration) -> SessionBuilder {
        self.batch.batch_window = window;
        self
    }

    /// Admission-control queue depth (see [`BatchConfig::queue_depth`]).
    pub fn queue_depth(mut self, depth: usize) -> SessionBuilder {
        self.batch.queue_depth = depth;
        self
    }

    /// Per-request transient-fault retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> SessionBuilder {
        self.batch.retry = retry;
        self
    }

    /// Validates the configuration and builds the session.
    ///
    /// # Errors
    /// Everything [`DriverBuilder::build`] rejects, plus a zero
    /// `max_batch` or `queue_depth` (both would deadlock the serve loop).
    pub fn build(self) -> Result<Session, Error> {
        if self.batch.max_batch == 0 {
            return Err(Error::InvalidConfig("max_batch must be nonzero".into()));
        }
        if self.batch.queue_depth == 0 {
            return Err(Error::InvalidConfig("queue_depth must be nonzero".into()));
        }
        let driver = self.driver.build()?;
        Ok(Session { driver, batch: self.batch })
    }
}

/// A validated, reusable inference session: one driver configuration plus
/// the batch knobs. Cheap to clone (the driver is plain data plus Arcs).
#[derive(Debug, Clone)]
pub struct Session {
    driver: Driver,
    batch: BatchConfig,
}

impl Session {
    /// Starts a validating [`SessionBuilder`] for this configuration.
    pub fn builder(config: AccelConfig) -> SessionBuilder {
        SessionBuilder::new(config)
    }

    /// The underlying driver.
    pub fn driver(&self) -> &Driver {
        &self.driver
    }

    /// The session's batch configuration.
    pub fn batch_config(&self) -> &BatchConfig {
        &self.batch
    }

    /// The resolved SIMD kernel tier this session computes with.
    pub fn kernel_tier(&self) -> KernelTier {
        self.driver.kernel_tier
    }

    /// Runs one inference.
    ///
    /// # Errors
    /// See [`Driver::run_network`].
    pub fn infer(
        &self,
        qnet: &QuantizedNetwork,
        input: &Tensor<f32>,
    ) -> Result<InferenceReport, Error> {
        Ok(self.driver.run_network(qnet, input)?)
    }

    /// [`Session::infer`] reusing a caller-owned arena (streaming use).
    ///
    /// # Errors
    /// See [`Driver::run_network`].
    pub fn infer_scratch(
        &self,
        qnet: &QuantizedNetwork,
        input: &Tensor<f32>,
        scratch: &mut Scratch,
    ) -> Result<InferenceReport, Error> {
        Ok(self.driver.run_network_scratch(qnet, input, scratch)?)
    }

    /// Runs a batch on the work-stealing pool with this session's worker
    /// count, failing fast on the first error.
    ///
    /// # Errors
    /// See [`run_batch`].
    pub fn run_batch(
        &self,
        qnet: &QuantizedNetwork,
        inputs: &[Tensor<f32>],
    ) -> Result<BatchReport, Error> {
        Ok(run_batch(&self.driver, qnet, inputs, self.batch.workers)?)
    }

    /// Runs a batch where each input carries its own `Result`, with this
    /// session's worker count and retry policy — the entry point the
    /// serving daemon coalesces requests into.
    pub fn run_batch_resilient(
        &self,
        qnet: &QuantizedNetwork,
        inputs: &[Tensor<f32>],
    ) -> ResilientBatchReport {
        run_batch_resilient(&self.driver, qnet, inputs, self.batch.workers, self.batch.retry)
    }

    /// Runs a batch sharded across the configured simulated instances
    /// under this session's [`BatchConfig::placement`], returning the
    /// per-image reports plus the placement's simulated timeline.
    /// Outputs are bit-identical to [`Session::infer`] per image.
    ///
    /// # Errors
    /// See [`crate::exec::sched::run_sharded`].
    pub fn run_sharded(
        &self,
        qnet: &QuantizedNetwork,
        inputs: &[Tensor<f32>],
    ) -> Result<ShardReport, Error> {
        Ok(sched::run_sharded(&self.driver, qnet, inputs, self.batch.placement)?)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use zskip_hls::AccelArch;
    use zskip_nn::eval::synthetic_inputs;
    use zskip_nn::layer::{LayerSpec, NetworkSpec};
    use zskip_nn::model::{Network, SyntheticModelConfig};
    use zskip_quant::DensityProfile;
    use zskip_tensor::Shape;

    fn config() -> AccelConfig {
        AccelConfig::from_arch(
            &AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 4096 },
            100.0,
        )
    }

    pub(crate) fn tiny_qnet(hw: usize) -> QuantizedNetwork {
        let layers = vec![
            LayerSpec::Conv { name: "c0".into(), in_c: 2, out_c: 4, k: 3, stride: 1, pad: 1, relu: true },
            LayerSpec::MaxPool { name: "p".into(), k: 2, stride: 2 },
        ];
        let spec = NetworkSpec { name: "session-test".into(), input: Shape::new(2, hw, hw), layers };
        let net = Network::synthetic(
            spec.clone(),
            &SyntheticModelConfig { seed: 9, density: DensityProfile::uniform(1, 0.5) },
        );
        let calib = synthetic_inputs(2, 1, spec.input);
        net.quantize(&calib)
    }

    #[test]
    fn builder_validates_batch_knobs() {
        let err = Session::builder(config()).max_batch(0).build().unwrap_err();
        assert_eq!(err.code(), "config.invalid");
        assert!(err.to_string().contains("max_batch"));
        let err = Session::builder(config()).queue_depth(0).build().unwrap_err();
        assert_eq!(err.code(), "config.invalid");
        assert!(err.to_string().contains("queue_depth"));
        // Driver-level validation still applies.
        let mut cfg = config();
        cfg.lanes = 0;
        let err = Session::builder(cfg).build().unwrap_err();
        assert_eq!(err.code(), "config.invalid");
    }

    #[test]
    fn session_infer_matches_driver_and_batch_paths() {
        let qnet = tiny_qnet(8);
        let inputs = synthetic_inputs(4, 3, qnet.spec.input);
        let session = Session::builder(config()).backend(BackendKind::Model).build().unwrap();
        let direct: Vec<_> = inputs
            .iter()
            .map(|i| session.driver().run_network(&qnet, i).expect("runs"))
            .collect();
        for (input, want) in inputs.iter().zip(&direct) {
            let got = session.infer(&qnet, input).expect("runs");
            assert_eq!(got.output, want.output);
        }
        let batch = session.run_batch(&qnet, &inputs).expect("runs");
        let resilient = session.run_batch_resilient(&qnet, &inputs);
        for ((b, r), want) in batch.reports.iter().zip(&resilient.items).zip(&direct) {
            assert_eq!(b.output, want.output);
            assert_eq!(r.result.as_ref().expect("succeeds").output, want.output);
        }
    }

    // The builder is the only construction path: these pin its defaults
    // and its structured rejection of invalid configurations.
    #[test]
    fn builder_provides_the_legacy_driver_defaults() {
        let session = Session::builder(config()).backend(BackendKind::Cycle).build().unwrap();
        assert_eq!(session.driver().backend, BackendKind::Cycle);
        assert!(session.driver().functional, "functional by default");
        assert!(session.driver().zero_skipping, "zero-skipping by default");

        let stats = Session::builder(config()).functional(false).build().unwrap();
        assert!(!stats.driver().functional, "stats-only");
        assert!(stats.driver().zero_skipping);
    }

    #[test]
    fn builder_rejects_invalid_config_instead_of_panicking() {
        let mut cfg = config();
        cfg.lanes = 2; // units stays 4: illegal on the cycle backend.
        let err = Session::builder(cfg).backend(BackendKind::Cycle).build().unwrap_err();
        assert_eq!(err.code(), "config.invalid");
        assert!(err.to_string().contains("units == lanes"), "{err}");
    }

    #[test]
    fn session_pins_kernel_tier_and_batch_config() {
        let session = Session::builder(config())
            .kernel(KernelTier::Scalar)
            .max_batch(3)
            .queue_depth(5)
            .batch_window(Duration::from_millis(7))
            .batch_workers(2)
            .retry(RetryPolicy::none())
            .build()
            .unwrap();
        assert_eq!(session.kernel_tier(), KernelTier::Scalar);
        assert_eq!(session.batch_config().max_batch, 3);
        assert_eq!(session.batch_config().queue_depth, 5);
        assert_eq!(session.batch_config().batch_window, Duration::from_millis(7));
        assert_eq!(session.batch_config().workers, 2);
        assert_eq!(session.batch_config().retry, RetryPolicy::none());
    }
}
