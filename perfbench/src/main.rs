//! The zskip benchmark: end-to-end and per-layer host wall time of the
//! library on named workloads. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload vgg16-offline --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. The command exits
//! non-zero when any output or simulated cycle count is wrong.

mod bench;
mod host;
mod stats;
mod trace;

use std::process::ExitCode;

use bench::{Workload, WORKLOADS};
use zskip_json::Json;

const USAGE: &str = "usage: zskip-perfbench --workload NAME --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut setup_probe) = (None, None, 10.0, false, false);
    while let Some(flag) = args.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(
                    Workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload '{value}' (one of {})", names.join(", ")))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                seconds = value.parse().ok().filter(|s: &f64| *s > 0.0).ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        setup_probe,
    })
}

/// The (name, unit) pairs `BENCHMARK.json` in the working directory
/// declares for this kind of run, sorted; `None` when there is no such
/// file.
fn declared_metrics(trace: bool) -> Result<Option<Vec<(String, String)>>, String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else { return Ok(None) };
    let json = Json::parse(&text).map_err(|e| e.to_string())?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let list = json.get(key).and_then(Json::as_arr).ok_or(format!("no '{key}' list"))?;
    let mut pairs = list
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_string);
            field("name").zip(field("unit")).ok_or(format!("a '{key}' entry lacks a name or unit"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    pairs.sort();
    Ok(Some(pairs))
}

/// Pins glibc's malloc thresholds at their documented defaults (128 KiB),
/// which turns off glibc's dynamic threshold adjustment. Without this, a
/// single large free raises both thresholds for the rest of the process,
/// and with them whether every pass's buffers page-fault afresh: the
/// same ResNet-18 image then takes 30 ms or 60 ms depending on what ran
/// before, and which it is varies from run to run.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_thresholds() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    const DEFAULT: i32 = 128 * 1024;
    // SAFETY: `mallopt` only sets allocator parameters; it runs first
    // thing in `main`, before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, DEFAULT);
        mallopt(M_TRIM_THRESHOLD, DEFAULT);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_thresholds() {}

fn main() -> ExitCode {
    pin_malloc_thresholds();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("zskip-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        bench::setup_probe(args.workload, args.seed);
        return ExitCode::SUCCESS;
    }
    println!("{}", host::fingerprint(zskip_nn::simd::dispatch()));
    let ticks = host::cpu_ticks();
    let report = if args.trace {
        bench::traced(args.workload, args.seed)
    } else {
        bench::untraced(args.workload, args.seed, args.seconds)
    };
    if let (Some((steal0, total0)), Some((steal1, total1))) = (ticks, host::cpu_ticks()) {
        let share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        eprintln!("host: {:.1} % of CPU time stolen by the hypervisor during the run", 100.0 * share);
    }

    let mut tally = report.tally;
    match declared_metrics(args.trace) {
        Ok(Some(declared)) => {
            let mut emitted: Vec<(String, String)> =
                report.metrics.iter().map(|(n, _, u)| (n.clone(), u.to_string())).collect();
            emitted.sort();
            let ok = emitted == declared;
            if !ok {
                eprintln!("zskip-perfbench: metrics differ from BENCHMARK.json: {emitted:?} vs {declared:?}");
            }
            tally.check(ok);
        }
        Ok(None) => eprintln!("zskip-perfbench: no BENCHMARK.json here; metric names not checked"),
        Err(e) => {
            eprintln!("zskip-perfbench: BENCHMARK.json: {e}");
            tally.check(false);
        }
    }
    let mut metrics = Vec::new();
    eprintln!("{} (seed {}, trace {})", args.workload.name, args.seed, u8::from(args.trace));
    for (name, value, unit) in &report.metrics {
        eprintln!("  {name:<32} {value:>14.4} {unit}");
        // A metric that could not be measured makes the run incorrect.
        tally.check(value.is_finite());
        let value = if value.is_finite() { value.to_string() } else { "null".into() };
        metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    eprintln!(
        "  attempted {} failed {} (rejected {}, errors {}, mismatches {}): failed_frac {}",
        tally.attempted,
        tally.failed(),
        tally.rejected,
        tally.errors,
        tally.mismatches,
        tally.failed_frac()
    );
    let correct = tally.failed() == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed(),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
