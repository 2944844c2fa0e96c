//! Typed search spaces: which knobs the tuner may move and the candidate
//! values each may take.
//!
//! A space is an ordered list of [`Knob`]s; a [`Point`] is one index per
//! knob. Candidate lists are explicit and finite — bounds *and* steps in
//! one place — so the searchers never synthesize a value the
//! [`SessionBuilder`](crate::session::SessionBuilder) would reject as a
//! matter of course, and every point has a canonical
//! [`TunedConfig`](crate::tune::TunedConfig) it denotes. Every knob's
//! candidate list contains the session default, and the default point
//! selects exactly [`TunedConfig::default`] — the baseline the tuner's
//! improvement is measured against.

use crate::exec::sched::Placement;
use crate::exec::BackendKind;
use crate::tune::knobs::{self, Field, KnobDef, KnobValue};
use crate::tune::TunedConfig;
use zskip_hls::Variant;
use zskip_json::Json;
use zskip_nn::simd::KernelTier;

/// One tunable dimension: a [`knobs`] table entry plus its ordered
/// candidate values. Ordering matters — the searchers step by index, so
/// adjacent candidates should be adjacent in effect (instances 1 → 2 → 4,
/// not a shuffled list).
#[derive(Clone)]
pub struct Knob {
    def: &'static dyn KnobDef,
    /// Candidates in their artifact encoding, which erases the value type.
    candidates: Vec<Json>,
}

impl Knob {
    /// A knob over `field` taking `candidates`, in order.
    pub fn new<T: KnobValue>(
        field: &'static Field<T>,
        candidates: impl IntoIterator<Item = T>,
    ) -> Knob {
        Knob { def: field, candidates: candidates.into_iter().map(T::to_json).collect() }
    }

    /// The knob's stable name (used in artifacts, reports and docs).
    pub fn name(&self) -> &'static str {
        self.def.name()
    }

    /// Number of candidate values.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the candidate list is empty (never true for the built-in
    /// spaces; [`SearchSpace::new`] rejects it).
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Writes candidate `idx` into `config`.
    ///
    /// # Panics
    /// When `idx` is out of range (searchers clamp to the candidate list).
    pub fn apply(&self, idx: usize, config: &mut TunedConfig) {
        self.def
            .read_json(config, &self.candidates[idx])
            .expect("candidates are encoded by the knob's own value type");
    }

    /// The index of the session-default value in the candidate list, or
    /// `None` if the list omits it (validate rejects that for built-in
    /// spaces: the baseline must be representable).
    pub fn default_index(&self) -> Option<usize> {
        let default = self.def.write_json(&TunedConfig::default());
        self.candidates.iter().position(|c| *c == default)
    }
}

impl std::fmt::Debug for Knob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Knob")
            .field("name", &self.name())
            .field("candidates", &self.candidates)
            .finish()
    }
}

/// One position in a [`SearchSpace`]: a candidate index per knob.
pub type Point = Vec<usize>;

/// The named built-in spaces the CLI exposes (`--space`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceKind {
    /// Host-side knobs: backend, threads, kernel, caches, batch shaping.
    Software,
    /// Hardware-side knobs: variant, instances, placement, park
    /// hysteresis — the automated Fig. 6/7/8 exploration.
    Hls,
    /// Both of the above in one space.
    Full,
}

impl SpaceKind {
    /// All kinds, in documentation order.
    pub const ALL: [SpaceKind; 3] = [SpaceKind::Software, SpaceKind::Hls, SpaceKind::Full];

    /// The CLI/serialization name.
    pub fn name(self) -> &'static str {
        match self {
            SpaceKind::Software => "software",
            SpaceKind::Hls => "hls",
            SpaceKind::Full => "full",
        }
    }
}

impl std::fmt::Display for SpaceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An ordered set of [`Knob`]s the searchers move through.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    name: String,
    knobs: Vec<Knob>,
}

impl SearchSpace {
    /// A custom space from explicit knobs (tests and ablations; the CLI
    /// uses the named constructors).
    ///
    /// # Errors
    /// `config.invalid` when a knob has no candidates, omits the session
    /// default, or appears twice.
    pub fn new(name: impl Into<String>, knobs: Vec<Knob>) -> Result<SearchSpace, crate::Error> {
        let space = SearchSpace { name: name.into(), knobs };
        space.validate()?;
        Ok(space)
    }

    fn validate(&self) -> Result<(), crate::Error> {
        for (i, knob) in self.knobs.iter().enumerate() {
            if knob.is_empty() {
                return Err(crate::Error::InvalidConfig(format!(
                    "search space '{}': knob '{}' has no candidates",
                    self.name,
                    knob.name()
                )));
            }
            if knob.default_index().is_none() {
                return Err(crate::Error::InvalidConfig(format!(
                    "search space '{}': knob '{}' omits the session default \
                     (the baseline must be representable)",
                    self.name,
                    knob.name()
                )));
            }
            if self.knobs[..i].iter().any(|k| k.name() == knob.name()) {
                return Err(crate::Error::InvalidConfig(format!(
                    "search space '{}': duplicate knob '{}'",
                    self.name,
                    knob.name()
                )));
            }
        }
        Ok(())
    }

    /// The software space: every host-side knob of the session. The
    /// candidate lists bracket the defaults with the values the PR-4/6/7
    /// benchmarks showed matter.
    pub fn software() -> SearchSpace {
        SearchSpace {
            name: SpaceKind::Software.name().to_string(),
            knobs: vec![
                // No cycle backend: it is orders of magnitude slower to
                // evaluate and bit-identical to the model backend, so
                // searching it buys nothing (see docs/TUNING.md).
                Knob::new(&knobs::BACKEND, [BackendKind::Model, BackendKind::Cpu]),
                Knob::new(&knobs::THREADS, [1, 2, 4]),
                Knob::new(&knobs::KERNEL, [None, Some(KernelTier::Scalar)]),
                Knob::new(&knobs::WEIGHT_CACHE, [true, false]),
                Knob::new(&knobs::BATCH_WORKERS, [0, 1, 2, 4]),
                Knob::new(&knobs::MAX_BATCH, [1, 4, 8, 16]),
                Knob::new(&knobs::BATCH_WINDOW_MS, [0, 1, 2, 5]),
                Knob::new(&knobs::QUEUE_DEPTH, [64, 256]),
            ],
        }
    }

    /// The hardware space: the paper's four variants crossed with the
    /// scale-out ladder and placements — automated Fig. 6/7/8-style
    /// exploration. Park hysteresis rides along: it never changes
    /// simulated cycles (a flat dimension under the `cycles` objective),
    /// but it is a real knob for simulator wall time.
    pub fn hls() -> SearchSpace {
        SearchSpace {
            name: SpaceKind::Hls.name().to_string(),
            knobs: vec![
                Knob::new(&knobs::VARIANT, Variant::all()),
                Knob::new(&knobs::INSTANCES, [1, 2, 4]),
                Knob::new(
                    &knobs::PLACEMENT,
                    [Placement::Auto, Placement::Stripe, Placement::Image, Placement::Pipeline],
                ),
                Knob::new(&knobs::PARK_HYSTERESIS, [None, Some(1), Some(4), Some(16)]),
            ],
        }
    }

    /// The union of [`SearchSpace::software`] and [`SearchSpace::hls`].
    pub fn full() -> SearchSpace {
        let mut knobs = SearchSpace::software().knobs;
        knobs.extend(SearchSpace::hls().knobs);
        SearchSpace { name: SpaceKind::Full.name().to_string(), knobs }
    }

    /// The built-in space for a [`SpaceKind`].
    pub fn named(kind: SpaceKind) -> SearchSpace {
        match kind {
            SpaceKind::Software => SearchSpace::software(),
            SpaceKind::Hls => SearchSpace::hls(),
            SpaceKind::Full => SearchSpace::full(),
        }
    }

    /// The space's name (embedded in artifact provenance).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The knobs, in search order.
    pub fn knobs(&self) -> &[Knob] {
        &self.knobs
    }

    /// The point denoting the out-of-the-box session.
    pub fn default_point(&self) -> Point {
        self.knobs
            .iter()
            .map(|k| k.default_index().expect("validated: every knob holds the default"))
            .collect()
    }

    /// The [`TunedConfig`] a point denotes. Knobs outside this space keep
    /// their [`TunedConfig::default`] values.
    ///
    /// # Panics
    /// When the point's length or an index is out of range (searchers
    /// only construct in-range points).
    pub fn config_at(&self, point: &Point) -> TunedConfig {
        assert_eq!(point.len(), self.knobs.len(), "point arity matches the space");
        let mut config = TunedConfig::default();
        for (knob, &idx) in self.knobs.iter().zip(point) {
            knob.apply(idx, &mut config);
        }
        config
    }

    /// Total number of distinct points (the product of candidate counts).
    pub fn cardinality(&self) -> u128 {
        self.knobs.iter().map(|k| k.len() as u128).product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_spaces_validate_and_hold_the_default() {
        for kind in SpaceKind::ALL {
            let space = SearchSpace::named(kind);
            space.validate().expect("built-in space is valid");
            assert_eq!(space.name(), kind.name());
            let config = space.config_at(&space.default_point());
            assert_eq!(config, TunedConfig::default(), "{kind}: default point is the baseline");
            assert!(space.cardinality() > 1);
        }
    }

    #[test]
    fn full_space_is_the_union() {
        let full = SearchSpace::full();
        let expected: Vec<&str> = SearchSpace::software()
            .knobs()
            .iter()
            .chain(SearchSpace::hls().knobs())
            .map(|k| k.name())
            .collect();
        let got: Vec<&str> = full.knobs().iter().map(|k| k.name()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn config_at_moves_exactly_the_indexed_knobs() {
        let space = SearchSpace::hls();
        let mut point = space.default_point();
        point[0] = 0; // 16-unopt
        point[2] = 3; // pipeline
        let config = space.config_at(&point);
        assert_eq!(config.variant, Variant::U16Unopt);
        assert_eq!(config.placement, Placement::Pipeline);
        assert_eq!(config.instances, 1, "untouched knob keeps the default");
        assert_eq!(config.backend, TunedConfig::default().backend, "out-of-space knob untouched");
    }

    #[test]
    fn custom_space_rejects_degenerate_knobs() {
        let err = SearchSpace::new("empty", vec![Knob::new(&knobs::THREADS, [])]).unwrap_err();
        assert_eq!(err.code(), "config.invalid");
        let err =
            SearchSpace::new("no-default", vec![Knob::new(&knobs::THREADS, [2, 4])]).unwrap_err();
        assert_eq!(err.code(), "config.invalid");
        assert!(err.to_string().contains("session default"));
        let err = SearchSpace::new(
            "dup",
            vec![Knob::new(&knobs::THREADS, [1, 2]), Knob::new(&knobs::THREADS, [1, 4])],
        )
        .unwrap_err();
        assert_eq!(err.code(), "config.invalid");
        assert!(err.to_string().contains("duplicate"));
    }
}
