//! The design-space autotuner behind `zskip tune`.
//!
//! The paper's Figs. 6–8 are a hand-run exploration over four HLS
//! variants; this module automates it and extends it to every knob the
//! stack grew since: a typed [`SearchSpace`] over hardware (variant,
//! instances, placement, park hysteresis) and software (backend,
//! threads, kernel tier, caches, batch shaping) dimensions drawn from one
//! declarative [`knobs`] table, two
//! seeded-deterministic [`Searcher`]s, pluggable lower-is-better
//! [`Objective`]s, a fingerprint-keyed evaluation cache, and a versioned
//! [`TunedConfig`] artifact that
//! [`SessionBuilder::from_tuned`](crate::session::SessionBuilder::from_tuned)
//! and the CLI's `--config` flag load back.
//!
//! ```
//! use zskip_core::tune::{Objective, SearchSpace, Searcher, Tuner};
//! # use zskip_nn::eval::synthetic_inputs;
//! # let qnet = zskip_core::tune::doctest_qnet();
//! let inputs = synthetic_inputs(1, 5, qnet.spec.input);
//! let outcome = Tuner::new(SearchSpace::hls(), Objective::Cycles, &qnet, &inputs)
//!     .seed(1)
//!     .budget(16)
//!     .run();
//! assert!(outcome.best_score <= outcome.default_score);
//! assert_eq!(outcome.best.provenance.as_ref().unwrap().seed, 1);
//! ```
//!
//! Determinism contract: with a deterministic objective (`cycles`), the
//! same seed, space and budget produce a byte-identical artifact — the
//! searchers draw every choice from one
//! [`SplitMix64`](crate::rng::SplitMix64) stream and the evaluator is a
//! pure function of the config. Wall-clock objectives (latency, throughput, p99)
//! reproduce the same *search trajectory* only insofar as measured
//! scores order the same way; their provenance embeds the measured
//! score. See docs/TUNING.md.

mod artifact;
pub mod knobs;
mod objective;
mod search;
mod space;

pub use artifact::{Provenance, TunedConfig, ARTIFACT_VERSION};
pub use objective::{default_score, Evaluator, Objective};
pub use search::{SearchResult, Searcher};
pub use space::{Knob, Point, SearchSpace, SpaceKind};

use zskip_nn::model::QuantizedNetwork;
use zskip_tensor::Tensor;

/// Default fresh-evaluation budget (`zskip tune --budget`): enough for
/// several coordinate-descent sweeps over the built-in spaces.
pub const DEFAULT_BUDGET: u64 = 96;

/// Default tuner seed. Arbitrary but fixed: artifacts produced with the
/// defaults are reproducible across machines and releases.
pub const DEFAULT_SEED: u64 = 0x5aca_de09;

/// One configured tuning run: space + objective + searcher + seed +
/// budget over a workload. Build with [`Tuner::new`], adjust with the
/// builder methods, then [`Tuner::run`].
#[derive(Debug)]
pub struct Tuner<'a> {
    space: SearchSpace,
    searcher: Searcher,
    seed: u64,
    budget: u64,
    evaluator: Evaluator<'a>,
}

/// What a tuning run produced: the best artifact (provenance embedded)
/// plus the numbers reports and gates compare.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// Best configuration found, with [`Provenance`] filled in.
    pub best: TunedConfig,
    /// Its score (lower is better; units per the objective).
    pub best_score: f64,
    /// The default configuration's score on the same workload.
    pub default_score: f64,
    /// Fresh evaluations spent.
    pub evals: u64,
    /// Evaluations answered by the fingerprint cache.
    pub cache_hits: u64,
}

impl TuneOutcome {
    /// best/default improvement as a ratio (> 1 means the tuned config
    /// is better; 1.10 = 10% better). Infinity-scored defaults (which
    /// the built-in spaces never produce) yield NaN, which fails every
    /// `>=` gate — the conservative direction.
    pub fn speedup(&self) -> f64 {
        self.default_score / self.best_score
    }
}

impl<'a> Tuner<'a> {
    /// A tuner over `space` scoring `objective` on `qnet`/`inputs`, with
    /// the default searcher (coordinate descent), [`DEFAULT_SEED`] and
    /// [`DEFAULT_BUDGET`].
    ///
    /// # Panics
    /// When `inputs` is empty (see [`Evaluator::new`]).
    pub fn new(
        space: SearchSpace,
        objective: Objective,
        qnet: &'a QuantizedNetwork,
        inputs: &'a [Tensor<f32>],
    ) -> Tuner<'a> {
        Tuner {
            space,
            searcher: Searcher::CoordinateDescent,
            seed: DEFAULT_SEED,
            budget: DEFAULT_BUDGET,
            evaluator: Evaluator::new(objective, qnet, inputs),
        }
    }

    /// Selects the search algorithm.
    pub fn searcher(mut self, searcher: Searcher) -> Tuner<'a> {
        self.searcher = searcher;
        self
    }

    /// Seeds the searcher's random stream.
    pub fn seed(mut self, seed: u64) -> Tuner<'a> {
        self.seed = seed;
        self
    }

    /// Caps fresh evaluations (cache hits are free).
    pub fn budget(mut self, budget: u64) -> Tuner<'a> {
        self.budget = budget;
        self
    }

    /// Runs the search and packages the best point as an artifact with
    /// provenance.
    pub fn run(mut self) -> TuneOutcome {
        let result = self.searcher.run(&self.space, &mut self.evaluator, self.seed, self.budget);
        let mut best = self.space.config_at(&result.best_point);
        best.provenance = Some(Provenance {
            seed: self.seed,
            budget: self.budget,
            objective: self.evaluator.objective().name().to_string(),
            space: self.space.name().to_string(),
            searcher: self.searcher.name().to_string(),
            score: result.best_score,
            evals: self.evaluator.fresh_evals(),
            cache_hits: self.evaluator.cache_hits(),
        });
        TuneOutcome {
            best,
            best_score: result.best_score,
            default_score: result.default_score,
            evals: self.evaluator.fresh_evals(),
            cache_hits: self.evaluator.cache_hits(),
        }
    }
}

/// A tiny quantized network for the module's doctest. Hidden from docs;
/// real callers bring their own workload.
#[doc(hidden)]
pub fn doctest_qnet() -> QuantizedNetwork {
    use zskip_nn::eval::synthetic_inputs;
    use zskip_nn::layer::{LayerSpec, NetworkSpec};
    use zskip_nn::model::{Network, SyntheticModelConfig};
    use zskip_quant::DensityProfile;
    use zskip_tensor::Shape;
    let spec = NetworkSpec {
        name: "tune-doctest".into(),
        input: Shape::new(2, 8, 8),
        layers: vec![LayerSpec::Conv {
            name: "c0".into(),
            in_c: 2,
            out_c: 4,
            k: 3,
            stride: 1,
            pad: 1,
            relu: true,
        }],
    };
    let net = Network::synthetic(
        spec.clone(),
        &SyntheticModelConfig { seed: 9, density: DensityProfile::uniform(1, 0.5) },
    );
    let calib = synthetic_inputs(2, 1, spec.input);
    net.quantize(&calib)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::tests::tiny_qnet;
    use zskip_nn::eval::synthetic_inputs;

    #[test]
    fn tuner_embeds_full_provenance() {
        let qnet = tiny_qnet(8);
        let inputs = synthetic_inputs(1, 5, qnet.spec.input);
        let outcome = Tuner::new(SearchSpace::hls(), Objective::Cycles, &qnet, &inputs)
            .searcher(Searcher::Spsa)
            .seed(11)
            .budget(12)
            .run();
        let p = outcome.best.provenance.as_ref().expect("provenance embedded");
        assert_eq!(p.seed, 11);
        assert_eq!(p.budget, 12);
        assert_eq!(p.objective, "cycles");
        assert_eq!(p.space, "hls");
        assert_eq!(p.searcher, "spsa");
        assert_eq!(p.score, outcome.best_score);
        assert_eq!(p.evals, outcome.evals);
        assert_eq!(p.cache_hits, outcome.cache_hits);
        assert!(outcome.evals <= 12);
        assert!(outcome.speedup() >= 1.0);
    }

    #[test]
    fn same_seed_same_artifact_bytes() {
        let qnet = tiny_qnet(8);
        let inputs = synthetic_inputs(1, 5, qnet.spec.input);
        let run = || {
            Tuner::new(SearchSpace::hls(), Objective::Cycles, &qnet, &inputs)
                .seed(3)
                .budget(32)
                .run()
                .best
                .to_json_string()
        };
        assert_eq!(run(), run());
    }
}
