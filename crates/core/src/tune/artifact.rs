//! The versioned `TunedConfig` artifact: every tunable knob of a
//! [`Session`](crate::session::Session) plus the provenance of how the
//! tuner found it, serialized through `zskip-json`.
//!
//! The artifact is the tuner's output contract: `zskip tune` writes one,
//! [`SessionBuilder::from_tuned`](crate::session::SessionBuilder::from_tuned)
//! and the CLI's `--config <file>` flag load it, and
//! `zskip analyze --config` explains it. Serialization is canonical —
//! field order is fixed, floats render through the shared `zskip-json`
//! writer — so the determinism contract ("same seed + space + budget →
//! byte-identical artifact") holds at the byte level, not just
//! structurally.

use std::fs;
use std::path::Path;

use crate::error::Error;
use crate::exec::sched::Placement;
use crate::exec::BackendKind;
use crate::session::{
    SessionBuilder, DEFAULT_BATCH_WINDOW_MS, DEFAULT_MAX_BATCH, DEFAULT_QUEUE_DEPTH,
};
use crate::tune::knobs::KNOBS;
use zskip_hls::Variant;
use zskip_json::{Json, ToJson};
use zskip_nn::simd::KernelTier;

/// Current artifact schema version. Loaders reject other versions with
/// `config.invalid` rather than guessing at field semantics.
pub const ARTIFACT_VERSION: u64 = 1;

/// How a [`TunedConfig`] came to be: the search that produced it and the
/// score it measured. Scores from wall-clock objectives (latency,
/// throughput, p99) are measurements of the tuning host; the `cycles`
/// objective's score is simulated time and fully deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Seed the searcher ran with.
    pub seed: u64,
    /// Fresh-evaluation budget the search was given.
    pub budget: u64,
    /// Objective name (see [`Objective::name`](crate::tune::Objective::name)).
    pub objective: String,
    /// Search-space name (`software` | `hls` | `full`).
    pub space: String,
    /// Searcher name (`cd` | `spsa`).
    pub searcher: String,
    /// Best score found (lower is better; units depend on the objective).
    pub score: f64,
    /// Fresh evaluations actually spent.
    pub evals: u64,
    /// Evaluations answered by the fingerprint cache.
    pub cache_hits: u64,
}

impl ToJson for Provenance {
    fn to_json(&self) -> Json {
        Json::obj([
            ("seed", self.seed.to_json()),
            ("budget", self.budget.to_json()),
            ("objective", self.objective.to_json()),
            ("space", self.space.to_json()),
            ("searcher", self.searcher.to_json()),
            ("score", self.score.to_json()),
            ("evals", self.evals.to_json()),
            ("cache_hits", self.cache_hits.to_json()),
        ])
    }
}

impl Provenance {
    fn from_json(p: &Json) -> Result<Provenance, Error> {
        let field = |name: &str| {
            p.get(name)
                .ok_or_else(|| invalid(format!("tuned config: provenance missing field '{name}'")))
        };
        let mistyped = |name: &str, kind: &str| {
            invalid(format!("tuned config: provenance {name} must be {kind}"))
        };
        let int = |name: &str| field(name)?.as_u64().ok_or_else(|| mistyped(name, "an integer"));
        let text = |name: &str| {
            field(name)?.as_str().map(str::to_string).ok_or_else(|| mistyped(name, "a string"))
        };
        Ok(Provenance {
            seed: int("seed")?,
            budget: int("budget")?,
            objective: text("objective")?,
            space: text("space")?,
            searcher: text("searcher")?,
            score: field("score")?.as_f64().ok_or_else(|| mistyped("score", "a number"))?,
            evals: int("evals")?,
            cache_hits: int("cache_hits")?,
        })
    }
}

/// The complete tunable configuration of a session: hardware side
/// (variant, instances, placement, park hysteresis) and software side
/// (backend, threads, kernel tier, caches, batch shaping). This is the
/// search point the tuner moves through and the artifact it emits.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedConfig {
    /// HLS variant supplying the datapath geometry and clock.
    pub variant: Variant,
    /// Simulated accelerator instances (scale-out ladder).
    pub instances: usize,
    /// Execution backend.
    pub backend: BackendKind,
    /// Intra-image conv worker threads (cpu backend).
    pub threads: usize,
    /// Pinned SIMD kernel tier; `None` = process-wide dispatch.
    pub kernel: Option<KernelTier>,
    /// Process-wide packed-weight cache on/off.
    pub weight_cache: bool,
    /// Event-scheduler park hysteresis (cycle backend); `None` = engine
    /// default. Simulated cycles are bit-identical for every value.
    pub park_hysteresis: Option<u32>,
    /// Multi-instance placement.
    pub placement: Placement,
    /// Batch-pool worker threads (0 = host auto).
    pub batch_workers: usize,
    /// Request-coalescing cutoff.
    pub max_batch: usize,
    /// Adaptive batch window in milliseconds.
    pub batch_window_ms: u64,
    /// Admission-control queue depth.
    pub queue_depth: usize,
    /// How the search found this point; `None` for hand-written configs.
    pub provenance: Option<Provenance>,
}

impl Default for TunedConfig {
    /// The out-of-the-box session: the paper's 256-opt variant with the
    /// [`SessionBuilder`] defaults — exactly what `Session::builder
    /// (AccelConfig::for_variant(U256Opt)).build()` gives you. Tuned
    /// scores are compared against this baseline.
    fn default() -> TunedConfig {
        TunedConfig {
            variant: Variant::U256Opt,
            instances: 1,
            backend: BackendKind::Model,
            threads: 1,
            kernel: None,
            weight_cache: true,
            park_hysteresis: None,
            placement: Placement::Auto,
            batch_workers: 0,
            max_batch: DEFAULT_MAX_BATCH,
            batch_window_ms: DEFAULT_BATCH_WINDOW_MS,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            provenance: None,
        }
    }
}

fn invalid(reason: impl Into<String>) -> Error {
    Error::InvalidConfig(reason.into())
}

impl ToJson for TunedConfig {
    fn to_json(&self) -> Json {
        let mut fields = vec![("version", ARTIFACT_VERSION.to_json())];
        fields.extend(KNOBS.iter().map(|k| (k.name(), k.write_json(self))));
        if let Some(p) = &self.provenance {
            fields.push(("provenance", p.to_json()));
        }
        Json::obj(fields)
    }
}

impl TunedConfig {
    /// Parses an artifact from its JSON text.
    ///
    /// # Errors
    /// `config.invalid` on malformed JSON, a version mismatch, a missing
    /// or mistyped field, or an unknown enum name.
    pub fn from_json_str(text: &str) -> Result<TunedConfig, Error> {
        let json = Json::parse(text).map_err(|e| invalid(format!("tuned config: {e}")))?;
        TunedConfig::from_json(&json)
    }

    /// Parses an artifact from a parsed [`Json`] value.
    ///
    /// # Errors
    /// See [`TunedConfig::from_json_str`].
    pub fn from_json(json: &Json) -> Result<TunedConfig, Error> {
        let field = |name: &str| -> Result<&Json, Error> {
            json.get(name).ok_or_else(|| invalid(format!("tuned config: missing field '{name}'")))
        };
        let version = field("version")?
            .as_u64()
            .ok_or_else(|| invalid("tuned config: field 'version' must be an integer"))?;
        if version != ARTIFACT_VERSION {
            return Err(invalid(format!(
                "tuned config: version {version} not supported (this build reads version {ARTIFACT_VERSION})"
            )));
        }
        let mut config = TunedConfig::default();
        for knob in KNOBS {
            knob.read_json(&mut config, field(knob.name())?)
                .map_err(|e| invalid(format!("tuned config: {e}")))?;
        }
        config.provenance = json.get("provenance").map(Provenance::from_json).transpose()?;
        Ok(config)
    }

    /// The canonical serialized artifact text (what `save` writes).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Writes the artifact to `path`.
    ///
    /// # Errors
    /// `config.invalid` wrapping the I/O failure (the unified error has
    /// no I/O arm; a config that cannot be persisted is unusable).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), Error> {
        let path = path.as_ref();
        fs::write(path, self.to_json_string())
            .map_err(|e| invalid(format!("cannot write tuned config {}: {e}", path.display())))
    }

    /// Reads an artifact from `path`.
    ///
    /// # Errors
    /// `config.invalid` on I/O failure or any parse failure
    /// (see [`TunedConfig::from_json_str`]).
    pub fn load(path: impl AsRef<Path>) -> Result<TunedConfig, Error> {
        let path = path.as_ref();
        let text = fs::read_to_string(path)
            .map_err(|e| invalid(format!("cannot read tuned config {}: {e}", path.display())))?;
        TunedConfig::from_json_str(&text)
    }

    /// The evaluation-cache key: the canonical serialization of every
    /// knob, excluding provenance (two searches reaching the same point
    /// must share a cache entry even though their provenance differs).
    pub fn fingerprint(&self) -> String {
        let mut bare = self.clone();
        bare.provenance = None;
        bare.to_json_string()
    }

    /// A [`SessionBuilder`] configured with every knob of this artifact,
    /// starting from
    /// [`AccelConfig::for_variant_instances`](crate::config::AccelConfig::for_variant_instances)
    /// of the variant/instances pair. Call `.build()` — which validates,
    /// so zero instances fail there with `config.invalid` — or layer
    /// further overrides first (the CLI's explicit flags do).
    pub fn session(&self) -> SessionBuilder {
        let config =
            crate::config::AccelConfig::for_variant_instances(self.variant, self.instances.max(1));
        // Re-applying the count is a no-op for a valid count (the bank
        // rescale preserves the budget) and hands zero to the validator.
        let mut b = SessionBuilder::new(config)
            .instances(self.instances)
            .backend(self.backend)
            .threads(self.threads)
            .weight_cache(self.weight_cache)
            .placement(self.placement)
            .batch_workers(self.batch_workers)
            .max_batch(self.max_batch)
            .batch_window(std::time::Duration::from_millis(self.batch_window_ms))
            .queue_depth(self.queue_depth);
        if let Some(tier) = self.kernel {
            b = b.kernel(tier);
        }
        if let Some(ticks) = self.park_hysteresis {
            b = b.park_hysteresis(ticks);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_round_trips_byte_identically() {
        let config = TunedConfig::default();
        let text = config.to_json_string();
        let back = TunedConfig::from_json_str(&text).expect("parses");
        assert_eq!(back, config);
        assert_eq!(back.to_json_string(), text, "canonical form is a fixed point");
    }

    #[test]
    fn default_artifact_bytes_are_pinned() {
        // Key order, JSON types and `null` handling of artifact v1.
        let expected = r#"{
  "version": 1,
  "variant": "256-opt",
  "instances": 1,
  "backend": "model",
  "threads": 1,
  "kernel": null,
  "weight_cache": true,
  "park_hysteresis": null,
  "placement": "auto",
  "batch_workers": 0,
  "max_batch": 8,
  "batch_window_ms": 2,
  "queue_depth": 64
}"#;
        assert_eq!(TunedConfig::default().to_json_string(), expected);
    }

    #[test]
    fn zero_instances_fail_closed() {
        let config = TunedConfig { instances: 0, ..TunedConfig::default() };
        let err = config.session().build().unwrap_err();
        assert_eq!(err.code(), "config.invalid");
        let text = config.to_json_string();
        let err = TunedConfig::from_json_str(&text).expect("parses").session().build().unwrap_err();
        assert_eq!(err.code(), "config.invalid", "an artifact with zero instances");
    }

    #[test]
    fn provenance_round_trips() {
        let config = TunedConfig {
            provenance: Some(Provenance {
                seed: 7,
                budget: 64,
                objective: "cycles".into(),
                space: "hls".into(),
                searcher: "cd".into(),
                score: 0.001953125, // dyadic: exact in f64 and in decimal
                evals: 40,
                cache_hits: 24,
            }),
            ..TunedConfig::default()
        };
        let back = TunedConfig::from_json_str(&config.to_json_string()).expect("parses");
        assert_eq!(back, config);
    }

    #[test]
    fn fingerprint_ignores_provenance() {
        let mut a = TunedConfig::default();
        let b = TunedConfig {
            provenance: Some(Provenance {
                seed: 1,
                budget: 2,
                objective: "latency".into(),
                space: "software".into(),
                searcher: "spsa".into(),
                score: 3.0,
                evals: 4,
                cache_hits: 5,
            }),
            ..TunedConfig::default()
        };
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.threads = 4;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn rejects_malformed_artifacts() {
        for (text, why) in [
            ("not json", "parse failure"),
            (r#"{"version":99}"#, "future version"),
            (r#"{"version":1}"#, "missing fields"),
        ] {
            let err = TunedConfig::from_json_str(text).unwrap_err();
            assert_eq!(err.code(), "config.invalid", "{why}: {err}");
        }
        // An unknown enum name fails even with every field present.
        let mut text = TunedConfig::default().to_json_string();
        text = text.replace("\"256-opt\"", "\"999-opt\"");
        let err = TunedConfig::from_json_str(&text).unwrap_err();
        assert_eq!(err.code(), "config.invalid");
        assert!(err.to_string().contains("999-opt"));
    }

    #[test]
    fn session_applies_every_knob() {
        let config = TunedConfig {
            variant: Variant::U256Opt,
            instances: 4,
            backend: BackendKind::Cpu,
            threads: 2,
            kernel: Some(KernelTier::Scalar),
            weight_cache: false,
            park_hysteresis: Some(3),
            placement: Placement::Pipeline,
            batch_workers: 2,
            max_batch: 5,
            batch_window_ms: 7,
            queue_depth: 11,
            provenance: None,
        };
        let session = config.session().build().expect("valid");
        let d = session.driver();
        assert_eq!(d.backend, BackendKind::Cpu);
        assert_eq!(d.threads, 2);
        assert_eq!(d.kernel_tier, KernelTier::Scalar);
        assert!(!d.weight_cache);
        assert_eq!(d.park_hysteresis, Some(3));
        assert_eq!(d.config.instances, 4);
        let b = session.batch_config();
        assert_eq!(b.placement, Placement::Pipeline);
        assert_eq!(b.workers, 2);
        assert_eq!(b.max_batch, 5);
        assert_eq!(b.batch_window, std::time::Duration::from_millis(7));
        assert_eq!(b.queue_depth, 11);
    }
}
