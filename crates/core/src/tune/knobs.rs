//! The knob table: the one definition of every [`TunedConfig`] knob.
//!
//! Each entry of [`KNOBS`] names a knob (its artifact key and search-space
//! name), fixes how its value is spelled on the command line and in the
//! artifact (through the value type's [`KnobValue`] impl, which also
//! supplies the closed choice list), and gives its command-line [`Flag`]
//! when the CLI exposes it. The artifact's JSON reader and writer, the
//! search space's [`Knob`](crate::tune::Knob)s and the `zskip` CLI's knob
//! flags, `--config` precedence and knob printout are all driven by this
//! table, so adding a knob means adding a `TunedConfig` field and one entry
//! here. Range checks stay in the session builders, which library callers
//! reach without the CLI.

use crate::exec::sched::Placement;
use crate::exec::BackendKind;
use crate::tune::{Objective, Searcher, SpaceKind, TunedConfig};
use zskip_hls::Variant;
use zskip_json::Json;
use zskip_nn::simd::KernelTier;

/// How a knob's value is spelled on the command line and in the artifact.
/// By default the artifact holds the command-line spelling as a string.
/// The tuner's own choices (objective, space, searcher), which an
/// artifact's provenance records by name, are spelled the same way.
pub trait KnobValue: Copy + 'static {
    /// The closed set of command-line spellings; `None` for numbers.
    fn choices() -> Option<Vec<&'static str>> {
        None
    }
    /// Parses a command-line spelling.
    fn parse(text: &str) -> Option<Self>;
    /// The command-line spelling, which [`KnobValue::parse`] reads back.
    fn show(self) -> String;
    /// What the artifact holds, for error messages.
    fn json_kind() -> String {
        Self::choices().map_or("a string".to_string(), |c| format!("one of {}", c.join(" | ")))
    }
    /// The artifact encoding.
    fn to_json(self) -> Json {
        Json::Str(self.show())
    }
    /// Decodes the artifact encoding; `None` when `json` is not one.
    fn from_json(json: &Json) -> Option<Self> {
        Self::parse(json.as_str()?)
    }
}

macro_rules! integer_knob {
    ($($t:ty),*) => {$(
        impl KnobValue for $t {
            fn parse(text: &str) -> Option<$t> {
                text.parse().ok()
            }
            fn show(self) -> String {
                self.to_string()
            }
            fn json_kind() -> String {
                "an integer".to_string()
            }
            fn to_json(self) -> Json {
                Json::Num(self as f64)
            }
            fn from_json(json: &Json) -> Option<$t> {
                json.as_u64()?.try_into().ok()
            }
        }
    )*};
}

integer_knob!(usize, u64, u32);

/// Enums spelled by a stable name.
macro_rules! named_knob {
    ($($t:ty => $all:expr, $name:ident;)*) => {$(
        impl KnobValue for $t {
            fn choices() -> Option<Vec<&'static str>> {
                Some($all.iter().map(|v| v.$name()).collect())
            }
            fn parse(text: &str) -> Option<$t> {
                $all.into_iter().find(|v| v.$name() == text)
            }
            fn show(self) -> String {
                self.$name().to_string()
            }
        }
    )*};
}

named_knob! {
    Variant => Variant::all(), label;
    BackendKind => BackendKind::ALL, name;
    Placement => Placement::ALL, name;
    KernelTier => KernelTier::ALL, name;
    Objective => Objective::ALL, name;
    SpaceKind => SpaceKind::ALL, name;
    Searcher => Searcher::ALL, name;
}

/// `on`/`off` on the command line, a JSON boolean in the artifact.
impl KnobValue for bool {
    fn choices() -> Option<Vec<&'static str>> {
        Some(vec!["on", "off"])
    }
    fn parse(text: &str) -> Option<bool> {
        match text {
            "on" => Some(true),
            "off" => Some(false),
            _ => None,
        }
    }
    fn show(self) -> String {
        if self { "on" } else { "off" }.to_string()
    }
    fn json_kind() -> String {
        "a boolean".to_string()
    }
    fn to_json(self) -> Json {
        Json::Bool(self)
    }
    fn from_json(json: &Json) -> Option<bool> {
        json.as_bool()
    }
}

/// An optional override; `None` leaves the choice to the library (the
/// process-wide kernel dispatch, the engine's park hysteresis), spelled
/// `auto` on the command line and `null` in the artifact.
impl<T: KnobValue> KnobValue for Option<T> {
    fn choices() -> Option<Vec<&'static str>> {
        T::choices().map(|c| std::iter::once("auto").chain(c).collect())
    }
    fn parse(text: &str) -> Option<Option<T>> {
        match text {
            "auto" => Some(None),
            text => T::parse(text).map(Some),
        }
    }
    fn show(self) -> String {
        self.map_or("auto".to_string(), T::show)
    }
    fn json_kind() -> String {
        format!("{} or null", T::json_kind())
    }
    fn to_json(self) -> Json {
        self.map_or(Json::Null, T::to_json)
    }
    fn from_json(json: &Json) -> Option<Option<T>> {
        match json {
            Json::Null => Some(None),
            json => T::from_json(json).map(Some),
        }
    }
}

/// Which CLI subcommands take a knob's flag. Each scope's subcommands
/// take every knob of the scopes before it too: `analyze` takes the
/// `Accelerator` knobs, `infer` adds `Session`, `batch` adds `Batch` and
/// `serve` takes them all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scope {
    /// The simulated hardware.
    Accelerator,
    /// How one image runs on the host.
    Session,
    /// The batch worker pool.
    Batch,
    /// The serving daemon's batching and admission control.
    Serve,
}

/// A knob's command-line flag.
#[derive(Debug)]
pub struct Flag {
    /// The flag, e.g. `--max-batch`.
    pub name: &'static str,
    /// The value's metavariable in `--help`.
    pub metavar: &'static str,
    /// The narrowest subcommand scope that takes the flag.
    pub scope: Scope,
    /// One-line `--help` text; the CLI appends choices and the default.
    pub help: &'static str,
}

/// One knob: a [`TunedConfig`] field, its name and its flag. Its value
/// type's [`KnobValue`] impl supplies the spellings.
pub struct Field<T> {
    name: &'static str,
    flag: Option<Flag>,
    get: fn(&TunedConfig) -> T,
    set: fn(&mut TunedConfig, T),
}

/// A [`Field`] with its value type erased, so one table holds every knob.
pub trait KnobDef: Sync {
    /// The artifact key and search-space name.
    fn name(&self) -> &'static str;
    /// The command-line flag, if the CLI exposes the knob.
    fn flag(&self) -> Option<&Flag>;
    /// The closed set of command-line spellings; `None` for numbers.
    fn choices(&self) -> Option<Vec<&'static str>>;
    /// The knob's value in `config`, spelled as on the command line.
    fn show(&self, config: &TunedConfig) -> String;
    /// Sets the knob from its command-line spelling.
    ///
    /// # Errors
    /// What the knob takes, when `text` is not a spelling of it.
    fn set_text(&self, config: &mut TunedConfig, text: &str) -> Result<(), String>;
    /// The knob's value in `config`, encoded for the artifact.
    fn write_json(&self, config: &TunedConfig) -> Json;
    /// Sets the knob from its artifact encoding.
    ///
    /// # Errors
    /// What the field must hold, when `json` is not an encoding of it.
    fn read_json(&self, config: &mut TunedConfig, json: &Json) -> Result<(), String>;
}

impl<T: KnobValue> KnobDef for Field<T> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn flag(&self) -> Option<&Flag> {
        self.flag.as_ref()
    }

    fn choices(&self) -> Option<Vec<&'static str>> {
        T::choices()
    }

    fn show(&self, config: &TunedConfig) -> String {
        (self.get)(config).show()
    }

    fn set_text(&self, config: &mut TunedConfig, text: &str) -> Result<(), String> {
        let value = T::parse(text).ok_or_else(|| {
            let takes = T::choices().map_or("a number".to_string(), |c| c.join(" | "));
            format!("takes {takes}, got '{text}'")
        })?;
        (self.set)(config, value);
        Ok(())
    }

    fn write_json(&self, config: &TunedConfig) -> Json {
        (self.get)(config).to_json()
    }

    fn read_json(&self, config: &mut TunedConfig, json: &Json) -> Result<(), String> {
        let value = T::from_json(json).ok_or_else(|| {
            format!("field '{}' must be {}, got {}", self.name, T::json_kind(), json.to_string_compact())
        })?;
        (self.set)(config, value);
        Ok(())
    }
}

/// Declares each knob as a `pub static` [`Field`] named after its
/// `TunedConfig` field — the artifact key, getter and setter all come from
/// the one field name — and lists them in [`KNOBS`].
macro_rules! knob_table {
    ($($(#[$doc:meta])* $konst:ident: $t:ty = $field:ident $(, $flag:literal $metavar:literal $scope:ident $help:expr)?;)*) => {
        $($(#[$doc])* pub static $konst: Field<$t> = Field {
            name: stringify!($field),
            flag: knob_table!(@flag $($flag $metavar $scope $help)?),
            get: |c| c.$field,
            set: |c, v| c.$field = v,
        };)*

        /// Every knob, in artifact key order.
        pub static KNOBS: &[&dyn KnobDef] = &[$(&$konst),*];
    };
    (@flag) => { None };
    (@flag $flag:literal $metavar:literal $scope:ident $help:expr) => {
        Some(Flag { name: $flag, metavar: $metavar, scope: Scope::$scope, help: $help })
    };
}

knob_table! {
    /// HLS variant supplying the datapath geometry and clock.
    VARIANT: Variant = variant, "--variant" "V" Accelerator "accelerator variant";
    /// Simulated accelerator instances (scale-out ladder).
    INSTANCES: usize = instances, "--instances" "N" Accelerator
        "accelerator instances to schedule over (the bank RAM budget divides across them)";
    /// Execution backend.
    BACKEND: BackendKind = backend, "--backend" "B" Session
        "execution backend (cpu = host SIMD kernels with cached model stats, \
         model = transaction-level, cycle = cycle-exact)";
    /// Intra-image conv worker threads (cpu backend).
    THREADS: usize = threads, "--threads" "T" Session
        "intra-image conv worker threads for the cpu backend (0 = host auto; others ignore)";
    /// Pinned SIMD kernel tier.
    KERNEL: Option<KernelTier> = kernel, "--kernel" "K" Session "SIMD kernel tier";
    /// Process-wide packed-weight and stats-plan caches on/off.
    WEIGHT_CACHE: bool = weight_cache, "--weight-cache" "on|off" Session
        "process-wide packed-weight and stats-plan caches";
    /// Event-scheduler park hysteresis (cycle backend); no flag.
    PARK_HYSTERESIS: Option<u32> = park_hysteresis;
    /// Multi-instance placement.
    PLACEMENT: Placement = placement, "--placement" "P" Accelerator "shard placement";
    /// Batch-pool worker threads.
    BATCH_WORKERS: usize = batch_workers, "--workers" "N" Batch
        "batch-pool worker threads (0 = auto)";
    /// Request-coalescing cutoff.
    MAX_BATCH: usize = max_batch, "--max-batch" "N" Serve
        "requests coalesced into one accelerator batch at most";
    /// Adaptive batch window in milliseconds.
    BATCH_WINDOW_MS: u64 = batch_window_ms, "--batch-window-ms" "MS" Serve
        "how long a forming batch waits for more requests";
    /// Admission-control queue depth.
    QUEUE_DEPTH: usize = queue_depth, "--queue-depth" "N" Serve
        "bounded submission-queue depth (admission control)";
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every knob field, by exhaustive destructuring: adding a field to
    /// `TunedConfig` fails to compile here until it is listed.
    fn knob_fields() -> Vec<&'static str> {
        let TunedConfig {
            variant: _,
            instances: _,
            backend: _,
            threads: _,
            kernel: _,
            weight_cache: _,
            park_hysteresis: _,
            placement: _,
            batch_workers: _,
            max_batch: _,
            batch_window_ms: _,
            queue_depth: _,
            provenance: _,
        } = TunedConfig::default();
        vec![
            "variant",
            "instances",
            "backend",
            "threads",
            "kernel",
            "weight_cache",
            "park_hysteresis",
            "placement",
            "batch_workers",
            "max_batch",
            "batch_window_ms",
            "queue_depth",
        ]
    }

    #[test]
    fn every_knob_field_has_exactly_one_table_entry() {
        let names: Vec<&str> = KNOBS.iter().map(|k| k.name()).collect();
        assert_eq!(names, knob_fields());
    }

    #[test]
    fn each_entry_reads_and_writes_only_its_own_field() {
        let base = TunedConfig::default();
        for knob in KNOBS {
            // A value that differs from the default, found through the
            // knob's own spellings.
            let other = ["2", "0", "off", "cycle", "scalar", "stripe", "16-unopt", "5"]
                .into_iter()
                .find_map(|text| {
                    let mut c = base.clone();
                    (knob.set_text(&mut c, text).is_ok() && c != base).then_some(c)
                })
                .unwrap_or_else(|| panic!("{}: no non-default probe value", knob.name()));
            let changed: Vec<&str> = KNOBS
                .iter()
                .filter(|k| k.write_json(&other) != k.write_json(&base))
                .map(|k| k.name())
                .collect();
            assert_eq!(changed, [knob.name()]);
            let mut back = base.clone();
            knob.read_json(&mut back, &knob.write_json(&other)).expect("own encoding reads back");
            assert_eq!(back, other, "{}", knob.name());
            assert_eq!(knob.set_text(&mut back, &knob.show(&other)), Ok(()));
            assert_eq!(back, other, "{}: show/parse round trip", knob.name());
        }
    }

    #[test]
    fn flags_are_unique_and_choices_parse() {
        let flags: Vec<&str> = KNOBS.iter().filter_map(|k| k.flag()).map(|f| f.name).collect();
        for (i, f) in flags.iter().enumerate() {
            assert!(!flags[..i].contains(f), "duplicate flag {f}");
        }
        for knob in KNOBS {
            for choice in knob.choices().unwrap_or_default() {
                let mut c = TunedConfig::default();
                knob.set_text(&mut c, choice).expect("every listed choice parses");
                assert_eq!(knob.show(&c), choice);
            }
        }
    }

    #[test]
    fn bad_spellings_name_what_the_knob_takes() {
        let mut c = TunedConfig::default();
        assert_eq!(
            VARIANT.set_text(&mut c, "999-opt"),
            Err("takes 16-unopt | 256-unopt | 256-opt | 512-opt, got '999-opt'".to_string())
        );
        assert_eq!(THREADS.set_text(&mut c, "x"), Err("takes a number, got 'x'".to_string()));
        let err = KERNEL.read_json(&mut c, &Json::Num(1.0)).unwrap_err();
        assert_eq!(err, "field 'kernel' must be one of scalar | sse2 | avx2 | avx512 or null, got 1");
        assert!(PARK_HYSTERESIS.read_json(&mut c, &Json::Num(5e9)).is_err(), "u32 range");
        assert_eq!(c, TunedConfig::default(), "failed sets leave the config alone");
    }
}
