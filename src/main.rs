//! `zskip` — command-line front end to the simulated accelerator.
//!
//! ```text
//! zskip synth [variant|all]       HLS synthesis summary and area breakdown
//! zskip sweep                     full VGG-16 variant/model sweep (Figs. 7-8 data)
//! zskip infer [flags]             run inference end to end, verify vs golden model
//! zskip batch [flags]             run a batch of inferences on a worker pool
//! zskip serve [flags]             serving daemon: NDJSON requests over stdio or TCP
//! zskip tune [flags]              seeded design-space autotuner, emits a config artifact
//! zskip analyze [flags]           per-layer zero-skip packing analysis
//! zskip faults [flags]            fault-injection survivability campaign
//! zskip trace                     cycle-exact waveform of a small convolution
//! ```
//!
//! Every flag-taking subcommand supports `--help`; flags are declared
//! declaratively and parsed by a shared, panic-free parser. Flags with a
//! closed set of values declare their choices and are rejected with the
//! stable `config.invalid` code before any work runs. The session knobs
//! (variant, instances, backend, threads, kernel tier, caches, placement
//! and batch shaping) are not declared here: each subcommand takes the
//! knob flags of its [`Scope`] from the library's [`KNOBS`] table, and
//! resolves them into one [`TunedConfig`] via [`resolve_config`] (a
//! `--config` artifact, when given, supplies the baseline and explicit
//! flags override it) that routes through one `Session`.

use std::sync::Arc;
use std::time::Duration;

use zskip::accel::serve::wire;
use zskip::accel::tune::knobs::{KnobValue, Scope, KNOBS};
use zskip::accel::tune::{DEFAULT_BUDGET, DEFAULT_SEED};
use zskip::accel::{
    AccelConfig, BackendKind, Driver, Objective, Placement, Provenance, SearchSpace, Searcher,
    ServeEngine, ShardReport, SpaceKind, TunedConfig, Tuner,
};
use zskip::hls::Variant;
use zskip::nn::eval::synthetic_inputs;
use zskip::nn::model::{Network, QuantizedNetwork, SyntheticModelConfig};
use zskip::perf::AreaBreakdown;
use zskip::quant::DensityProfile;

/// One flag a subcommand accepts.
struct Flag {
    name: &'static str,
    /// Metavariable for value-taking flags; `None` marks a boolean flag.
    metavar: Option<&'static str>,
    /// Default shown in `--help` (value-taking flags only).
    default: Option<String>,
    /// Closed value set, validated by the parser itself: any other value
    /// is rejected with the stable `config.invalid` code before the
    /// subcommand runs. `None` = free-form (numbers, paths, ...).
    choices: Option<Vec<&'static str>>,
    help: &'static str,
}

impl Flag {
    fn val(
        name: &'static str,
        metavar: &'static str,
        default: &'static str,
        help: &'static str,
    ) -> Flag {
        Flag { name, metavar: Some(metavar), default: Some(default.to_string()), choices: None, help }
    }

    /// A flag taking one of `T`'s spellings.
    fn choice<T: KnobValue>(
        name: &'static str,
        metavar: &'static str,
        default: T,
        help: &'static str,
    ) -> Flag {
        Flag { name, metavar: Some(metavar), default: Some(default.show()), choices: T::choices(), help }
    }

    fn boolean(name: &'static str, help: &'static str) -> Flag {
        Flag { name, metavar: None, default: None, choices: None, help }
    }
}

/// One subcommand of the CLI. `run` receives the parsed flag values.
/// `flag_groups` lists the subcommand's flag tables — subcommands share
/// the common groups below (the knob flags among them) and add their own
/// specifics, so `--help`, parsing and defaults stay in lockstep across
/// subcommands.
struct Command {
    name: &'static str,
    usage_args: &'static str,
    summary: &'static str,
    flag_groups: &'static [fn() -> Vec<Flag>],
    run: fn(&Parsed),
}

impl Command {
    fn flags(&self) -> Vec<Flag> {
        self.flag_groups.iter().flat_map(|group| group()).collect()
    }
}

/// The knobs the CLI starts from before `--config` and explicit flags:
/// the library defaults, except the cpu backend (output- and
/// cycle-identical to model, with the per-network stats computed once)
/// on host-auto threads.
fn cli_baseline() -> TunedConfig {
    TunedConfig { backend: BackendKind::Cpu, threads: 0, ..TunedConfig::default() }
}

/// The flag of every [`KNOBS`] entry of `scope` or an earlier one, with
/// its default rendered from [`cli_baseline`]; resolved into a
/// [`TunedConfig`] by [`resolve_config`].
fn knob_flags(scope: Scope) -> Vec<Flag> {
    let baseline = cli_baseline();
    KNOBS
        .iter()
        .filter_map(|k| {
            let f = k.flag().filter(|f| f.scope <= scope)?;
            Some(Flag {
                name: f.name,
                metavar: Some(f.metavar),
                default: Some(k.show(&baseline)),
                choices: k.choices(),
                help: f.help,
            })
        })
        .collect()
}

const HW_HELP: &str = "input height/width of the synthetic network";
const NETWORK_SPEC_HELP: &str =
    "JSON network-spec file (e.g. specs/resnet18.json; see docs/NETWORKS.md) instead of the built-in VGG-16";
const DENSITY_HELP: &str = "weight density: 'dc' (deep-compression VGG-16 profile) or a fraction in [0, 1]";

/// The synthetic-network knobs shared by inference subcommands.
fn network_flags() -> Vec<Flag> {
    vec![
        Flag::val("--network", "FILE", "vgg16", NETWORK_SPEC_HELP),
        Flag::val("--density", "D", "dc", DENSITY_HELP),
    ]
}

/// The tuned-config artifact loader shared by `infer`/`batch`/`serve`/
/// `analyze`: the artifact supplies the baseline knobs, explicit flags
/// override it (with a shadowing warning). See docs/TUNING.md.
fn config_flags() -> Vec<Flag> {
    vec![Flag::val(
        "--config",
        "FILE",
        "none",
        "tuned-config artifact from 'zskip tune' (explicit flags override its knobs)",
    )]
}

const COMMANDS: &[Command] = &[
    Command {
        name: "synth",
        usage_args: "[variant|all]",
        summary: "HLS synthesis summary and area breakdown",
        flag_groups: &[],
        run: |p| synth(p.positional.first().map(String::as_str).unwrap_or("all")),
    },
    Command {
        name: "sweep",
        usage_args: "",
        summary: "full VGG-16 variant/model sweep (paper Figs. 7-8 data)",
        flag_groups: &[],
        run: |_| sweep(),
    },
    Command {
        name: "infer",
        usage_args: "[flags]",
        summary: "run inference end to end, verify vs the golden model",
        flag_groups: &[
            || {
                vec![
                    Flag::val("--hw", "N", "64", HW_HELP),
                    Flag::val("--seed", "S", "3", "input image seed (serve's {\"seed\":S} matches)"),
                    Flag::boolean("--ternary", "quantize weights to ternary (-1/0/+1 magnitudes)"),
                ]
            },
            network_flags,
            || knob_flags(Scope::Session),
            config_flags,
        ],
        run: infer,
    },
    Command {
        name: "batch",
        usage_args: "[flags]",
        summary: "run a batch of inferences on a work-stealing worker pool",
        flag_groups: &[
            || {
                vec![
                    Flag::val("--n", "N", "8", "number of images in the batch"),
                    Flag::val("--hw", "N", "32", HW_HELP),
                ]
            },
            network_flags,
            || knob_flags(Scope::Batch),
            config_flags,
        ],
        run: batch,
    },
    Command {
        name: "serve",
        usage_args: "[flags]",
        summary: "serving daemon: newline-delimited JSON requests over stdio or TCP",
        flag_groups: &[
            || {
                vec![
                    Flag::val("--hw", "N", "32", HW_HELP),
                    Flag::val("--tcp", "ADDR", "off", "listen on a TCP address (e.g. 127.0.0.1:0) instead of stdio"),
                ]
            },
            network_flags,
            || knob_flags(Scope::Serve),
            config_flags,
        ],
        run: serve,
    },
    Command {
        name: "tune",
        usage_args: "[flags]",
        summary: "seeded design-space autotuner; writes a loadable best-config artifact",
        flag_groups: &[
            || {
                vec![
                    Flag::choice("--objective", "O", Objective::Cycles, "what to minimize (see docs/TUNING.md)"),
                    Flag::choice("--space", "S", SpaceKind::Hls, "search space"),
                    Flag::choice(
                        "--searcher",
                        "A",
                        Searcher::CoordinateDescent,
                        "search algorithm (cd = coordinate descent)",
                    ),
                    Flag::val("--seed", "S", "0x5acade09", "search seed (decimal or 0x-prefixed hex)"),
                    Flag::val("--budget", "N", "96", "fresh-evaluation budget (cache hits are free)"),
                    Flag::val("--out", "FILE", "tuned.json", "where to write the artifact"),
                    Flag::val("--n", "N", "4", "images driving the throughput/p99 objectives"),
                    Flag::val("--hw", "N", "32", HW_HELP),
                ]
            },
            network_flags,
        ],
        run: tune,
    },
    Command {
        name: "analyze",
        usage_args: "[flags]",
        summary: "per-layer zero-skip packing analysis",
        flag_groups: &[network_flags, || knob_flags(Scope::Accelerator), config_flags],
        run: analyze,
    },
    Command {
        name: "faults",
        usage_args: "[flags]",
        summary: "fault-injection survivability campaign (exit 1 unless all trials degrade gracefully)",
        flag_groups: &[|| {
            vec![
                Flag::val("--hw", "N", "8", HW_HELP),
                Flag::val("--seed", "S", "7", "seed for synthetic weights and inputs"),
                Flag::boolean("--json", "emit the survivability report as JSON on stdout"),
            ]
        }],
        run: faults,
    },
    Command {
        name: "trace",
        usage_args: "",
        summary: "cycle-exact waveform of a small convolution",
        flag_groups: &[],
        run: |_| trace(),
    },
];

/// Parsed arguments of one subcommand invocation.
struct Parsed {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
    positional: Vec<String>,
}

impl Parsed {
    fn get(&self, name: &str) -> Option<&str> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// Reads a [`Flag::choice`] flag, whose value the parser has checked.
    fn choice<T: KnobValue>(&self, name: &str, default: T) -> T {
        self.get(name).map_or(default, |v| T::parse(v).expect("the parser checked the choices"))
    }

    /// Parses a numeric flag, exiting with a message (not a panic) on
    /// malformed input.
    fn parse_num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| fail_invalid(&format!("{name} takes a number, got '{v}'"))),
        }
    }

    /// Parses a count flag that must be at least 1: a run over zero
    /// images or evaluations fails closed rather than doing nothing.
    fn parse_count<T: std::str::FromStr + PartialEq + From<u8>>(&self, name: &str, default: T) -> T {
        let n = self.parse_num(name, default);
        if n == T::from(0) {
            fail_invalid(&format!("{name} takes a positive count, got 0"));
        }
        n
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("zskip: {msg}");
    std::process::exit(2);
}

/// Rejects a bad configuration value with the same stable code the
/// library's [`zskip::Error::code`] gives `Error::InvalidConfig`, so
/// harnesses can match CLI and API failures with one string.
fn fail_invalid(msg: &str) -> ! {
    fail(&format!("error[config.invalid]: {msg}"));
}

/// Exits with a library error's stable code, e.g. a session that fails
/// to build (`error[config.invalid]`) or a run that fails in flight.
fn fail_error(e: &zskip::Error) -> ! {
    fail(&format!("error[{}]: {e}", e.code()));
}

/// Rejects a bad `--network` spec file with the stable code the library
/// gives `Error::Spec` — unreadable file, malformed JSON, and DAG
/// validation failures all land here.
fn fail_spec(msg: &str) -> ! {
    fail(&format!("error[spec.invalid]: {msg}"));
}

/// Loads and validates a `--network` JSON spec file.
fn load_spec(path: &str) -> zskip::nn::NetworkSpec {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail_spec(&format!("cannot read {path}: {e}")));
    zskip::nn::NetworkSpec::from_json(&text)
        .unwrap_or_else(|e| fail_spec(&format!("{path}: {e}")))
}

fn print_usage() {
    eprintln!("usage: zskip <command> [flags]  (zskip <command> --help for details)\n");
    for c in COMMANDS {
        eprintln!("  {:<10} {:<14} {}", c.name, c.usage_args, c.summary);
    }
}

fn print_command_help(cmd: &Command) {
    println!("usage: zskip {} {}", cmd.name, cmd.usage_args);
    println!("{}", cmd.summary);
    let flags = cmd.flags();
    if !flags.is_empty() {
        println!("\nflags:");
        for f in flags {
            let head = match f.metavar {
                Some(m) => format!("{} <{}>", f.name, m),
                None => f.name.to_string(),
            };
            let choices = f.choices.map(|c| format!(": {}", c.join(" | "))).unwrap_or_default();
            let default = f.default.map(|d| format!(" [default: {d}]")).unwrap_or_default();
            println!("  {head:<24} {}{choices}{default}", f.help);
        }
    }
}

/// The shared table-driven flag parser: validates every argument against
/// the subcommand's flag table, handles `--help`, and never panics.
fn parse_args(cmd: &Command, args: &[String]) -> Parsed {
    let flags = cmd.flags();
    let mut parsed = Parsed { values: Vec::new(), switches: Vec::new(), positional: Vec::new() };
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a == "--help" || a == "-h" {
            print_command_help(cmd);
            std::process::exit(0);
        }
        if let Some(flag) = flags.iter().find(|f| f.name == a) {
            if flag.metavar.is_some() {
                let Some(v) = args.get(i + 1) else {
                    fail(&format!("{} requires a value (zskip {} --help)", flag.name, cmd.name));
                };
                if let Some(choices) = &flag.choices {
                    if !choices.contains(&v.as_str()) {
                        fail_invalid(&format!(
                            "{} takes {}, got '{v}'",
                            flag.name,
                            choices.join(" | ")
                        ));
                    }
                }
                parsed.values.push((flag.name, v.clone()));
                i += 2;
            } else {
                parsed.switches.push(flag.name);
                i += 1;
            }
        } else if a.starts_with('-') {
            fail(&format!("unknown flag {a} for '{}' (zskip {} --help)", cmd.name, cmd.name));
        } else {
            parsed.positional.push(a.clone());
            i += 1;
        }
    }
    parsed
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd_name = args.first().map(String::as_str).unwrap_or("help");
    if cmd_name == "help" || cmd_name == "--help" || cmd_name == "-h" {
        print_usage();
        std::process::exit(0);
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == cmd_name) else {
        eprintln!("zskip: unknown command '{cmd_name}'\n");
        print_usage();
        std::process::exit(2);
    };
    let parsed = parse_args(cmd, &args[1..]);
    (cmd.run)(&parsed);
}

/// Parses a `u64` seed flag, accepting decimal or `0x`-prefixed hex (the
/// default tuner seed reads better in hex).
fn parse_seed(p: &Parsed, name: &str, default: u64) -> u64 {
    let Some(v) = p.get(name) else { return default };
    let (radix, digits) = match v.strip_prefix("0x") {
        Some(hex) => (16, hex),
        None => (10, v),
    };
    u64::from_str_radix(digits, radix)
        .unwrap_or_else(|_| fail_invalid(&format!("{name} takes a seed (decimal or 0x hex), got '{v}'")))
}

/// Reads `--hw`, which the built-in VGG-16 (five 2x2 pools) needs as a
/// positive multiple of 32; a `--network` spec fixes its own input.
fn parse_hw(p: &Parsed, default: usize) -> usize {
    let hw = p.parse_num("--hw", default);
    if p.get("--network").is_none() && (hw == 0 || !hw.is_multiple_of(32)) {
        fail_invalid(&format!("--hw takes a positive multiple of 32 for the built-in VGG-16, got {hw}"));
    }
    hw
}

fn parse_density(p: &Parsed, layers: usize) -> DensityProfile {
    match p.get("--density").unwrap_or("dc") {
        // The deep-compression profile is 13 per-layer entries; a loaded
        // spec with a different conv count falls back to the profile's
        // mean density, applied uniformly.
        "dc" if layers == 13 => DensityProfile::deep_compression_vgg16(),
        "dc" => DensityProfile::uniform(layers, 0.35),
        d => match d.parse() {
            Ok(density) if (0.0..=1.0).contains(&density) => DensityProfile::uniform(layers, density),
            _ => fail_invalid(&format!("--density takes 'dc' or a fraction in [0, 1], got '{d}'")),
        },
    }
}

/// A [`TunedConfig`] resolved from `--config` (when given) plus the
/// explicit CLI flags, which always win.
struct ResolvedConfig {
    config: TunedConfig,
    /// The artifact path, when `--config` was given.
    source: Option<String>,
    /// Shadowing notes: explicit flags that overrode a *differing*
    /// artifact knob. Already warned to stderr; `analyze` re-prints them.
    overrides: Vec<String>,
}

/// Resolves the session knobs every inference subcommand shares, with one
/// precedence rule: `--config` artifact knobs are the baseline (else
/// [`cli_baseline`]), and any explicitly-provided knob flag overrides its
/// knob. An override that *changes* a loaded artifact's value warns on
/// stderr — a tuned artifact silently degraded by a stray flag is the
/// failure mode this guards against.
fn resolve_config(p: &Parsed) -> ResolvedConfig {
    let source = p.get("--config").map(str::to_string);
    let mut config = match &source {
        Some(path) => TunedConfig::load(path).unwrap_or_else(|e| fail_error(&e)),
        None => cli_baseline(),
    };
    let mut overrides = Vec::new();
    for knob in KNOBS {
        let Some(flag) = knob.flag() else { continue };
        let Some(v) = p.get(flag.name) else { continue };
        let old = knob.show(&config);
        knob.set_text(&mut config, v).unwrap_or_else(|e| fail_invalid(&format!("{} {e}", flag.name)));
        if let Some(path) = source.as_deref().filter(|_| knob.show(&config) != old) {
            let note = format!("{} {v} shadows tuned '{old}'", flag.name);
            eprintln!("zskip: warning: {note} (artifact {path})");
            overrides.push(note);
        }
    }
    ResolvedConfig { config, source, overrides }
}

/// Renders a resolved config's knobs, six to a line (shared by `tune` and
/// `analyze --config`).
fn print_tuned_knobs(c: &TunedConfig, indent: &str) {
    let knobs: Vec<String> = KNOBS.iter().map(|k| format!("{} {}", k.name(), k.show(c))).collect();
    for line in knobs.chunks(6) {
        println!("{indent}{}", line.join(" | "));
    }
}

fn print_provenance(pr: &Provenance, indent: &str) {
    println!(
        "{indent}found by {} over the '{}' space minimizing {} (seed {:#x}, budget {}): \
         score {:.3e} s, {} fresh evals, {} cache hits",
        pr.searcher, pr.space, pr.objective, pr.seed, pr.budget, pr.score, pr.evals, pr.cache_hits,
    );
}

/// Builds the synthetic network the inference subcommands share: the
/// scaled VGG-16, or any `--network FILE` JSON spec. Same spec, seed and
/// calibration for `infer`, `batch` and `serve`, so a served request is
/// bit-comparable to a CLI inference.
fn build_network(p: &Parsed, hw: usize, ternary: bool) -> QuantizedNetwork {
    let spec = match p.get("--network") {
        Some(path) => load_spec(path),
        None => zskip::nn::vgg16::vgg16_scaled_spec(hw),
    };
    let convs =
        spec.layers.iter().filter(|l| matches!(l, zskip::nn::LayerSpec::Conv { .. })).count();
    let density = parse_density(p, convs);
    let net = Network::synthetic(spec.clone(), &SyntheticModelConfig { seed: 1, density });
    let calib = synthetic_inputs(2, 1, spec.input);
    if ternary {
        net.quantize_ternary(&calib)
    } else {
        net.quantize(&calib)
    }
}

fn synth(which: &str) {
    let variants: Vec<Variant> = match which {
        "all" => Variant::all().to_vec(),
        v => vec![Variant::parse(v).unwrap_or_else(|| {
            let labels = Variant::choices().unwrap_or_default().join(" | ");
            fail_invalid(&format!("synth takes 'all' or a variant ({labels}), got '{v}'"))
        })],
    };
    for v in variants {
        let r = v.synthesize();
        println!("== {v} ==");
        println!(
            "  {} MACs/cycle, achieved {:.1} MHz, operating {:.1} MHz, peak {:.1} GOPS",
            v.macs_per_cycle(),
            r.achieved_fmax_mhz,
            r.operating_mhz,
            r.peak_gops()
        );
        println!("  {}", r.utilization);
        if which != "all" {
            print!("{}", AreaBreakdown::from_synthesis(v.label(), &r).render());
        }
    }
}

fn sweep() {
    for p in zskip_bench::full_sweep() {
        println!(
            "{:<13} avg {:>6.1} GOPS  peak {:>6.1} GOPS  eff mean {:>4.2} best {:>4.2} worst {:>4.2}",
            format!("{}{}", p.variant, p.model),
            p.mean_gops(),
            p.peak_gops(),
            p.mean_efficiency(),
            p.best_efficiency(),
            p.worst_efficiency()
        );
    }
}

fn infer(p: &Parsed) {
    let hw = parse_hw(p, 64);
    let seed: u64 = p.parse_num("--seed", 3);
    let resolved = resolve_config(p);
    let variant = resolved.config.variant;
    let backend = resolved.config.backend;
    let session = resolved.config.session().build().unwrap_or_else(|e| fail_error(&e));
    let config = &session.driver().config;

    let qnet = build_network(p, hw, p.has("--ternary"));
    println!(
        "running {} on {} ({} GMACs, {backend} backend)...",
        qnet.spec.name,
        variant,
        qnet.spec.total_macs() / 1_000_000_000
    );
    let input = synthetic_inputs(seed, 1, qnet.spec.input).pop().expect("one");

    let report = if config.instances > 1 {
        let shard = session
            .run_sharded(&qnet, std::slice::from_ref(&input))
            .unwrap_or_else(|e| fail_error(&e));
        println!(
            "sharded over {} instances ({} placement): makespan {} cycles, {:.2}x vs one instance",
            shard.instances,
            shard.placement,
            shard.makespan_cycles,
            shard.speedup()
        );
        shard.items.into_iter().next().expect("one image in, one report out")
    } else {
        session.infer(&qnet, &input).unwrap_or_else(|e| fail_error(&e))
    };
    assert_eq!(report.output, qnet.forward_quant(&input), "bit-exact vs golden model");
    println!("bit-exact vs the software golden model");
    println!(
        "{} cycles = {:.2} ms at {:.0} MHz; mean {:.1} / peak {:.1} effective GOPS; DDR {} MiB",
        report.total_cycles,
        report.total_cycles as f64 * config.cycle_seconds() * 1e3,
        config.clock_mhz,
        report.mean_gops(config),
        report.peak_gops(config),
        report.ddr_bytes >> 20
    );
    let top = zskip::nn::fc::argmax(&report.output).expect("non-empty");
    println!("predicted class: {top}");
}

fn batch(p: &Parsed) {
    let hw = parse_hw(p, 32);
    let n: usize = p.parse_count("--n", 8);
    let resolved = resolve_config(p);
    let variant = resolved.config.variant;
    let backend = resolved.config.backend;
    let session = resolved.config.session().build().unwrap_or_else(|e| fail_error(&e));

    let qnet = build_network(p, hw, false);
    let inputs = synthetic_inputs(3, n, qnet.spec.input);
    println!("running {} x {} on {} ({backend} backend)...", n, qnet.spec.name, variant);
    if session.driver().config.instances > 1 {
        let shard = session.run_sharded(&qnet, &inputs).unwrap_or_else(|e| fail_error(&e));
        print_shard_summary(&shard, &session.driver().config);
        for (i, r) in shard.items.iter().enumerate() {
            let top = zskip::nn::fc::argmax(&r.output).expect("non-empty");
            println!("  image {i}: {} cycles, predicted class {top}", r.total_cycles);
        }
        return;
    }
    let t0 = std::time::Instant::now();
    let report = session.run_batch(&qnet, &inputs).unwrap_or_else(|e| fail_error(&e));
    let wall = t0.elapsed().as_secs_f64();
    println!(
        "{} images in {:.2} s on {} workers ({:.2} images/s, {:.1} M simulated cycles/s, {} steals)",
        n,
        wall,
        report.workers,
        n as f64 / wall,
        report.total_cycles() as f64 / wall / 1e6,
        report.steals
    );
    for (i, r) in report.reports.iter().enumerate() {
        let top = zskip::nn::fc::argmax(&r.output).expect("non-empty");
        println!("  image {i}: {} cycles, predicted class {top}", r.total_cycles);
    }
}

/// Renders one sharded run's timeline: placement, throughput, and the
/// per-instance utilization split the scheduler achieved.
fn print_shard_summary(shard: &ShardReport, config: &AccelConfig) {
    println!(
        "sharded {} images over {} instances ({} placement): makespan {} cycles, \
         {:.2}x vs one instance, {:.1} simulated images/s",
        shard.items.len(),
        shard.instances,
        shard.placement,
        shard.makespan_cycles,
        shard.speedup(),
        shard.images_per_s(config)
    );
    for (k, &busy) in shard.per_instance_busy.iter().enumerate() {
        let pct = if shard.makespan_cycles > 0 {
            busy as f64 / shard.makespan_cycles as f64 * 100.0
        } else {
            0.0
        };
        println!("  instance {k}: {busy} busy cycles ({pct:.0}% of makespan)");
    }
    if shard.placement == Placement::Pipeline {
        for (layer, bubbles) in &shard.layer_bubbles {
            println!("  stage '{layer}': {bubbles} bubble cycles waiting on upstream");
        }
        println!(
            "  weight staging: {} cycles hidden behind compute, {} exposed",
            shard.staging_hidden_cycles, shard.staging_exposed_cycles
        );
    }
}

fn serve(p: &Parsed) {
    let hw = parse_hw(p, 32);
    let resolved = resolve_config(p);
    let variant = resolved.config.variant;
    let backend = resolved.config.backend;
    let session = resolved.config.session().build().unwrap_or_else(|e| fail_error(&e));

    let qnet = Arc::new(build_network(p, hw, false));
    let batch_cfg = *session.batch_config();
    // The banner goes to stderr: in stdio mode stdout is the protocol
    // channel and must carry nothing but response lines.
    eprintln!(
        "zskip serve: {} on {} ({backend} backend, kernel {}, {} instance(s), {} placement, \
         max-batch {}, window {:?}, queue {})",
        qnet.spec.name,
        variant,
        session.kernel_tier(),
        session.driver().config.instances,
        batch_cfg.placement,
        batch_cfg.max_batch,
        batch_cfg.batch_window,
        batch_cfg.queue_depth,
    );
    let shape = qnet.spec.input;
    let engine = ServeEngine::start(session, Arc::clone(&qnet));
    let handle = engine.handle();

    let protocol_errors = match p.get("--tcp") {
        Some(addr) if addr != "off" => serve_tcp(&handle, shape, addr),
        _ => {
            // Not `stdin().lock()`: StdinLock is !Send, and the reader
            // runs on the connection's scoped reader thread.
            let stdin = std::io::BufReader::new(std::io::stdin());
            let mut stdout = std::io::stdout();
            let summary = wire::serve_connection(&handle, shape, stdin, &mut stdout)
                .unwrap_or_else(|e| fail(&format!("stdio serve loop failed: {e}")));
            summary.protocol_errors
        }
    };

    // EOF or a shutdown op landed: drain in-flight batches, then report.
    let stats = engine.join();
    println!("{}", wire::render_stats(&stats));
    eprintln!(
        "zskip serve: drained cleanly ({} served, {} failed, {} rejected, p50 {} us, p99 {} us)",
        stats.served,
        stats.failed,
        stats.rejected,
        stats.p50_us(),
        stats.p99_us()
    );
    if protocol_errors > 0 {
        eprintln!("zskip serve: {protocol_errors} protocol error(s)");
        std::process::exit(1);
    }
}

/// TCP mode: accepts connections until a client requests shutdown, one
/// handler thread per connection. Returns the total protocol errors.
fn serve_tcp(handle: &zskip::accel::ServeHandle, shape: zskip::tensor::Shape, addr: &str) -> u64 {
    use std::io::BufReader;
    use std::sync::atomic::{AtomicU64, Ordering};

    let listener =
        std::net::TcpListener::bind(addr).unwrap_or_else(|e| fail(&format!("cannot bind {addr}: {e}")));
    let local = listener.local_addr().map(|a| a.to_string()).unwrap_or_else(|_| addr.to_string());
    // Announce the bound address on stdout as a JSON line so harnesses
    // binding port 0 can discover the real port.
    use zskip::json::Json;
    println!(
        "{}",
        Json::obj([
            ("ok", Json::Bool(true)),
            ("op", Json::Str("listening".into())),
            ("addr", Json::Str(local.clone())),
        ])
        .to_string_compact()
    );
    eprintln!("zskip serve: listening on {local}");
    listener.set_nonblocking(true).unwrap_or_else(|e| fail(&format!("nonblocking accept: {e}")));
    let protocol_errors = AtomicU64::new(0);
    std::thread::scope(|scope| {
        while !handle.is_shutdown() {
            match listener.accept() {
                Ok((stream, peer)) => {
                    let handle = handle.clone();
                    let errors = &protocol_errors;
                    scope.spawn(move || {
                        let _ = stream.set_nonblocking(false);
                        let _ = stream.set_nodelay(true);
                        let Ok(read_half) = stream.try_clone() else { return };
                        let mut writer = stream;
                        match wire::serve_connection(
                            &handle,
                            shape,
                            BufReader::new(read_half),
                            &mut writer,
                        ) {
                            Ok(summary) => {
                                errors.fetch_add(summary.protocol_errors, Ordering::Relaxed);
                            }
                            Err(e) => eprintln!("zskip serve: connection {peer} failed: {e}"),
                        }
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => {
                    eprintln!("zskip serve: accept failed: {e}");
                    break;
                }
            }
        }
        // Scope exit joins the per-connection threads: every connection's
        // responses flush before the final drain summary prints.
    });
    protocol_errors.load(Ordering::Relaxed)
}

/// `zskip tune`: search a named space for the best config under an
/// objective, print the trajectory summary, and write the artifact that
/// `--config <file>` / [`SessionBuilder::from_tuned`] load back.
///
/// [`SessionBuilder::from_tuned`]: zskip::accel::SessionBuilder::from_tuned
fn tune(p: &Parsed) {
    let objective = p.choice("--objective", Objective::Cycles);
    let kind = p.choice("--space", SpaceKind::Hls);
    let searcher = p.choice("--searcher", Searcher::CoordinateDescent);
    let space = SearchSpace::named(kind);
    let seed = parse_seed(p, "--seed", DEFAULT_SEED);
    let budget: u64 = p.parse_count("--budget", DEFAULT_BUDGET);
    let hw = parse_hw(p, 32);
    let n: usize = p.parse_count("--n", 4);
    let out = p.get("--out").unwrap_or("tuned.json").to_string();

    let qnet = build_network(p, hw, false);
    let inputs = synthetic_inputs(3, n, qnet.spec.input);
    println!(
        "tuning {} for {} over the '{}' space ({} points) with {} (seed {seed:#x}, budget {budget})",
        qnet.spec.name,
        objective,
        space.name(),
        space.cardinality(),
        searcher,
    );
    let t0 = std::time::Instant::now();
    let outcome = Tuner::new(space, objective, &qnet, &inputs)
        .searcher(searcher)
        .seed(seed)
        .budget(budget)
        .run();
    println!(
        "searched {} fresh evaluations (+{} cache hits) in {:.1} s",
        outcome.evals,
        outcome.cache_hits,
        t0.elapsed().as_secs_f64(),
    );
    println!(
        "default {:.3e} s -> best {:.3e} s ({:.2}x)",
        outcome.default_score,
        outcome.best_score,
        outcome.speedup(),
    );
    print_tuned_knobs(&outcome.best, "  ");
    outcome.best.save(&out).unwrap_or_else(|e| fail_error(&e));
    println!("wrote {out} (load with --config {out} or SessionBuilder::from_tuned)");
}

/// `zskip analyze --network FILE`: prints the spec's layer DAG — shapes,
/// branch and join points, the execution plan's slot assignment and the
/// peak DDR-resident activation footprint.
fn analyze_network(path: &str) {
    use zskip::nn::{ExecPlan, LayerRef, LayerSpec};
    let spec = load_spec(path);
    let shapes = spec.shapes().unwrap_or_else(|e| fail_spec(&format!("{path}: {e}")));
    let plan = ExecPlan::build(&spec).unwrap_or_else(|e| fail_spec(&format!("{path}: {e}")));

    // Fan-out per producer: index 0 is the network input, i + 1 is layer
    // i's output. A producer with more than one consumer is a branch
    // point; `Add` layers are the joins.
    let mut fanout = vec![0usize; spec.layers.len() + 1];
    let producer = |r: LayerRef| match r {
        LayerRef::Input => 0,
        LayerRef::Layer(j) => j + 1,
    };
    for (i, layer) in spec.layers.iter().enumerate() {
        match layer {
            LayerSpec::Ref { from, .. } => fanout[producer(*from)] += 1,
            LayerSpec::Add { from, .. } => {
                fanout[producer(*from)] += 1;
                fanout[i] += 1; // the previous layer's output
            }
            _ => fanout[i] += 1,
        }
    }

    let s = spec.input;
    println!(
        "{}: {} layers, input {}x{}x{}, {:.1} MMACs",
        spec.name,
        spec.layers.len(),
        s.c,
        s.h,
        s.w,
        spec.total_macs() as f64 / 1e6
    );
    println!(
        "plan: {} activation slot(s), peak resident {} KiB{}\n",
        plan.slots,
        plan.peak_resident_bytes / 1024,
        plan.output_slot.map(|o| format!(", output in slot {o}")).unwrap_or_default(),
    );
    println!("{:>4}  {:<16} {:<28} {:>12} {:>6}  notes", "#", "layer", "kind", "shape", "slot");
    for (i, layer) in spec.layers.iter().enumerate() {
        let relu_tag = |relu: bool| if relu { " +relu" } else { "" };
        let ref_name = |r: LayerRef| match r {
            LayerRef::Input => "input".to_string(),
            LayerRef::Layer(j) => spec.layers[j].name().to_string(),
        };
        let kind = match layer {
            LayerSpec::Conv { k, stride, pad, relu, .. } => {
                format!("conv {k}x{k}/{stride} pad {pad}{}", relu_tag(*relu))
            }
            LayerSpec::MaxPool { k, stride, .. } => format!("maxpool {k}x{k}/{stride}"),
            LayerSpec::Fc { relu, .. } => format!("fc (host){}", relu_tag(*relu)),
            LayerSpec::Softmax => "softmax (host)".to_string(),
            LayerSpec::Ref { from, .. } => format!("ref <- {}", ref_name(*from)),
            LayerSpec::Add { from, relu, .. } => {
                format!("add <- {}{} (join)", ref_name(*from), relu_tag(*relu))
            }
            LayerSpec::GlobalAvgPool { .. } => "global avgpool (host)".to_string(),
            LayerSpec::BatchNorm { relu, .. } => format!("batchnorm{} (folds)", relu_tag(*relu)),
        };
        let out = shapes[i + 1];
        let step = &plan.steps[i];
        let slot = match step.dst {
            Some(d) => format!("{d}"),
            None => "flat".to_string(),
        };
        let mut notes = Vec::new();
        if fanout[i + 1] > 1 {
            notes.push(format!("branch point ({} consumers)", fanout[i + 1]));
        }
        if !step.frees.is_empty() {
            let freed: Vec<String> = step.frees.iter().map(|f| f.to_string()).collect();
            notes.push(format!("frees slot {}", freed.join(", ")));
        }
        println!(
            "{:>4}  {:<16} {:<28} {:>12} {:>6}  {}",
            i,
            layer.name(),
            kind,
            format!("{}x{}x{}", out.c, out.h, out.w),
            slot,
            notes.join("; ")
        );
    }
    if fanout[0] > 1 {
        println!("\nnetwork input is a branch point ({} consumers)", fanout[0]);
    }
    println!("\nper-slot high-water marks (KiB): {:?}", plan.slot_elems.iter().map(|e| e / 1024).collect::<Vec<_>>());
}

fn analyze(p: &Parsed) {
    use zskip::accel::LayerPackingStats;
    if let Some(path) = p.get("--network") {
        analyze_network(path);
        return;
    }
    let density = parse_density(p, 13);
    let conv3_density = density.density(4);
    let resolved = resolve_config(p);
    let variant = resolved.config.variant;
    let session = resolved.config.session().build().unwrap_or_else(|e| fail_error(&e));
    if let Some(path) = &resolved.source {
        println!("tuned config: {path} (artifact v{})", zskip::accel::tune::ARTIFACT_VERSION);
        print_tuned_knobs(&resolved.config, "  ");
        match &resolved.config.provenance {
            Some(pr) => print_provenance(pr, "  "),
            None => println!("  no provenance recorded (hand-written artifact)"),
        }
        if resolved.overrides.is_empty() {
            println!("  no CLI overrides: the artifact's knobs are in effect");
        } else {
            for w in &resolved.overrides {
                println!("  override: {w}");
            }
        }
        println!();
    }
    let config = AccelConfig::for_variant(variant);
    let qnet = zskip_bench::build_vgg16_with_density(density);
    println!(
        "VGG-16 packing analysis ({} lanes, zero-skip floor 4 cycles/weight-tile)\n",
        config.lanes
    );
    println!(
        "{:<9} {:>8} {:>10} {:>11} {:>9} {:>9} {:>8} {:>9}",
        "layer", "density", "scratch KB", "steps", "bubbles%", "skipped", "speedup", "vs ideal"
    );
    for (i, layer) in qnet.conv.iter().enumerate() {
        let name = zskip::nn::VGG16_CONV_NAMES.get(i).copied().unwrap_or("conv?");
        let s = LayerPackingStats::analyze(name, &layer.weights, &config);
        println!(
            "{:<9} {:>8.3} {:>10} {:>11} {:>8.1}% {:>9} {:>7.2}x {:>8.2}x",
            s.name,
            s.density,
            s.scratchpad_bytes / 1024,
            s.lockstep_steps,
            s.bubble_fraction() * 100.0,
            s.skipped_channels,
            s.predicted_skip_speedup(),
            s.lockstep_steps.max(1) as f64 / s.ideal_steps.max(1) as f64,
        );
    }
    println!("\n'vs ideal' is lockstep steps over per-lane-independent steps: the bubble");
    println!("cost the paper's future-work filter grouping recovers.");

    // Scheduler engagement: run one representative engine-level block
    // (conv3-scale, the profile's median-density layer class) under both
    // steppers and show how the event-driven scheduler spent its cycles.
    use zskip::accel::cycle::{run_instructions, run_instructions_dense};
    use zskip::hls::AccelArch;
    use zskip::quant::Sm8;
    use zskip::tensor::Tensor;
    let acfg = AccelConfig::from_arch(&AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 8192 }, 100.0);
    let (qw, _, _) = zskip_bench::make_conv_layer(64, 64, 16, conv3_density, zskip_bench::HARNESS_SEED);
    let img = Tensor::from_fn(64, 16, 16, |c, y, x| Sm8::from_i32_saturating(((c * 31 + y * 7 + x) % 200) as i32 - 100));
    let (banks, scratch, instrs) = zskip_bench::build_engine_workload(&acfg, &qw, &img);
    let dense =
        run_instructions_dense(&acfg, banks.clone(), scratch.clone(), &instrs, u64::MAX).expect("dense block runs");
    let event = run_instructions(&acfg, banks, scratch, &instrs, u64::MAX).expect("event block runs");
    assert_eq!(dense.cycles, event.cycles, "schedulers must agree cycle-exactly");
    assert_eq!(dense.report, event.report, "schedulers must agree on kernel stats");
    let s = event.report.sched;
    println!("\nEvent-driven scheduler on one engine-level block ({} cycles, bit-identical to dense):", event.cycles);
    println!(
        "  executed {} ({:.1}% lean), idle-jumped {}, parks {}, wakes {}",
        s.executed_cycles,
        if s.executed_cycles > 0 { s.lean_cycles as f64 / s.executed_cycles as f64 * 100.0 } else { 0.0 },
        s.idle_jumped,
        s.parks,
        s.wakes
    );
    println!("  ('lean' cycles ticked only runnable kernels; dense ticks all {} every cycle)", dense.report.kernels.len());

    // Software datapath: which SIMD kernel tier this host dispatches to,
    // and the golden model's steady-state allocation behaviour (a warmed
    // scratch arena with zero grow events performs zero heap allocations
    // per image — proven by the counting-allocator test, measured by
    // `kernel_bench`; see docs/KERNELS.md).
    use zskip::nn::simd::KernelTier;
    use zskip::nn::Scratch;
    let host_tiers: Vec<&str> = KernelTier::supported().iter().map(|t| t.name()).collect();
    println!(
        "\nSoftware kernel tier: {} (host supports: {}; override with {}=<tier>)",
        zskip::nn::dispatch(),
        host_tiers.join(", "),
        zskip::nn::KERNEL_ENV
    );
    let surrogate = zskip::nn::vgg16::vgg16_scaled_spec(32);
    let snet = Network::synthetic(
        surrogate.clone(),
        &SyntheticModelConfig { seed: zskip_bench::HARNESS_SEED, density: DensityProfile::deep_compression_vgg16() },
    );
    let sq = snet.quantize(&synthetic_inputs(2, 1, surrogate.input));
    let probe = synthetic_inputs(3, 3, surrogate.input);
    let auto_workers = zskip::nn::ConvPool::auto_threads();
    println!("Intra-image conv workers: {auto_workers} at auto (host parallelism)");
    let mut arena = Scratch::new();
    arena.set_threads(auto_workers);
    for input in &probe {
        let _ = sq.forward_quant_scratch(input, &mut arena);
    }
    let steady = if arena.grow_events() <= 1 { "0" } else { "NONZERO (arena regrew!)" };
    println!(
        "Scratch arena ({} images, vgg16-32 surrogate, {} worker(s)): {} grow event(s), {} KiB, steady-state heap allocations/image: {}",
        probe.len(),
        auto_workers,
        arena.grow_events(),
        arena.capacity_bytes() / 1024,
        steady
    );

    // Shared caches: drive two images through the cpu backend so the
    // caches are populated the way `infer`/`batch` populate them, then
    // report the process-wide caches (packed scratchpad groups keyed by
    // weight identity + lane/skip geometry, per-network stats plans — the
    // second image replays the first's — and the nn kernels' packed
    // per-filter tap streams).
    let cpu_driver = Driver::builder(AccelConfig::for_variant(variant))
        .backend(BackendKind::Cpu)
        .build()
        .expect("cpu driver builds");
    for image in probe.iter().take(2) {
        let _ = cpu_driver.run_network(&sq, image).expect("surrogate image runs");
    }
    let gc = zskip::accel::weight_cache_stats();
    let sc = zskip::accel::stats_cache_stats();
    let tc = zskip::nn::conv::tap_cache_stats();
    println!(
        "Packed-group weight cache: {} entries ({:.1} MiB), {} hits / {} misses",
        gc.entries,
        gc.bytes as f64 / (1 << 20) as f64,
        gc.hits,
        gc.misses
    );
    println!(
        "Stats-plan cache:          {} entries ({:.1} KiB), {} hits / {} misses",
        sc.entries,
        sc.bytes as f64 / 1024.0,
        sc.hits,
        sc.misses
    );
    println!(
        "Packed-tap kernel cache:   {} entries ({:.1} MiB), {} hits / {} misses",
        tc.entries,
        tc.bytes as f64 / (1 << 20) as f64,
        tc.hits,
        tc.misses
    );

    // Sharding: what the placement scheduler would do with this workload
    // at --instances N — chosen placement, the cost model's device and
    // derated clock, per-instance utilization, and (for the pipeline)
    // where the inter-stage bubbles sit.
    let instances = resolved.config.instances;
    let placement = resolved.config.placement;
    let cost = zskip::accel::CostModel::for_instances(variant, instances);
    println!(
        "\nSharding at {} instance(s): {} at {:.1} MHz, ALM utilization {:.2}{}",
        cost.instances,
        cost.device,
        cost.clock_mhz,
        cost.alm_utilization,
        if cost.fits { "" } else { " (DOES NOT FIT)" }
    );
    let shard_config = session.driver().config;
    let shard_driver = Driver::builder(shard_config)
        .backend(BackendKind::Model)
        .build()
        .expect("model driver builds");
    let shard_inputs = synthetic_inputs(3, (2 * instances).max(4), surrogate.input);
    let shard = zskip::accel::run_sharded(&shard_driver, &sq, &shard_inputs, placement)
        .unwrap_or_else(|e| fail_error(&e.into()));
    print_shard_summary(&shard, &shard_config);

    // Serving limits: what `zskip serve` defaults to on this build, so an
    // operator can size clients without starting the daemon.
    let baseline = cli_baseline();
    let serve_knobs: Vec<String> = KNOBS
        .iter()
        .filter_map(|k| k.flag().filter(|f| f.scope == Scope::Serve).map(|f| format!("{} {}", f.name, k.show(&baseline))))
        .collect();
    println!("\nServe defaults: {} (full wire protocol in docs/SERVING.md)", serve_knobs.join(", "));
}

fn faults(p: &Parsed) {
    use zskip::accel::{run_campaign, CampaignConfig};
    let cfg = CampaignConfig { hw: p.parse_num("--hw", 8), seed: p.parse_num("--seed", 7) };
    let report = run_campaign(&cfg);
    if p.has("--json") {
        println!("{}", report.to_json().to_string_pretty());
    } else {
        println!("fault-injection campaign ({} trials)\n", report.trials.len());
        println!("{:<20} {:<22} {:<17} detail", "site", "fault", "outcome");
        for t in &report.trials {
            println!("{:<20} {:<22} {:<17} {}", t.site, t.fault, t.outcome.label(), t.detail);
        }
        let (identical, recovered, errors, vulnerable) = report.tally();
        println!(
            "\n{} identical, {} recovered by retry, {} structured errors, {} vulnerable",
            identical, recovered, errors, vulnerable
        );
        println!("verdict: {}", if report.survived() { "SURVIVED" } else { "VULNERABLE" });
    }
    if !report.survived() {
        std::process::exit(1);
    }
}

fn trace() {
    use zskip::accel::cycle::run_instructions_traced;
    use zskip::accel::{BankSet, ConvInstr, FmLayout, GroupWeights, Instruction};
    use zskip::hls::AccelArch;
    use zskip::nn::conv::QuantConvWeights;
    use zskip::quant::{Requantizer, Sm8};
    use zskip::tensor::{Shape, Tensor, TiledFeatureMap};

    let cfg = AccelConfig::from_arch(&AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 1024 }, 100.0);
    // A tiny conv with uneven per-filter sparsity so the waveform shows
    // lockstep bubbles and the barrier convoy.
    let qw = QuantConvWeights::new(
        4,
        4,
        3,
        (0..144)
            .map(|i| {
                let filter = i / 36;
                if i % (filter + 2) == 0 { Sm8::ZERO } else { Sm8::from_i32_saturating((i % 9) - 4) }
            })
            .collect(),
        vec![0; 4],
        Requantizer::from_ratio(1.0 / 16.0),
        true,
    );
    let input = Tensor::from_fn(4, 8, 8, |c, y, x| Sm8::from_i32_saturating(((c + y + x) % 9) as i32 - 4)).padded(1);
    let tiled = TiledFeatureMap::from_tensor(&input);
    let in_layout = FmLayout::full(0, input.shape());
    let out_layout = FmLayout::full(in_layout.end(), Shape::new(4, 8, 8));
    let mut banks = BankSet::new(&cfg);
    in_layout.store(&mut banks, &tiled, 0..tiled.tiles_y());
    let gw = GroupWeights::from_filters(&qw, 0, 4);
    let instr = Instruction::Conv(ConvInstr {
        ofm_first: 0,
        ifm_count: 4,
        ifm_base: 0,
        ifm_tiles_x: in_layout.tiles_x as u16,
        ifm_tile_rows: in_layout.tile_rows as u16,
        ifm_row_offset: 0,
        ofm_base: out_layout.base as u32,
        ofm_tiles_x: out_layout.tiles_x as u16,
        ofm_tile_rows: out_layout.tile_rows as u16,
        wgt_base: 0,
        bias: [0; 4],
        requant_mult: qw.requant.mult as u16,
        requant_shift: qw.requant.shift as u8,
        relu: true,
        active_lanes: 4,
    });
    let (outcome, trace) =
        run_instructions_traced(&cfg, banks, gw.to_bytes(), &[instr], 1_000_000, 160).expect("runs");
    println!("cycle-exact waveform of one conv instruction ({} cycles total)", outcome.cycles);
    println!("legend: '#' busy, 'x' blocked on FIFO, '.' idle, ' ' done\n");
    print!("{}", trace.render(80));
    println!("{}", outcome.report.render_utilization());
}
