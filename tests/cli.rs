//! The `zskip` binary's configuration surface, driven as a user drives it.
//!
//! * Every knob flag of the library's knob table, plus `--hw`,
//!   `--density`, `--n`, `--seed` and `--budget`, fails closed on a bad
//!   value (a zero count included): exit 2 with the stable
//!   `error[config.invalid]` code, never a panic (exit 101).
//! * `infer`/`batch`/`serve`/`analyze --help` list exactly their flags,
//!   with the knob defaults the CLI has always shipped.
//! * An artifact written by `TunedConfig::default()` round-trips through
//!   `--config`, and an explicit flag shadowing it warns.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use zskip::accel::tune::knobs::{Scope, KNOBS};
use zskip::accel::tune::TunedConfig;

fn zskip(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_zskip"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("zskip runs")
}

fn assert_config_invalid(args: &[&str]) {
    let out = zskip(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2, stderr: {stderr}");
    assert!(stderr.contains("error[config.invalid]"), "{args:?}: {stderr}");
}

/// A per-test scratch directory (tests run in parallel).
fn temp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zskip-cli-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn bad_knob_values_fail_closed_with_config_invalid() {
    for knob in KNOBS {
        let Some(flag) = knob.flag() else { continue };
        let cmd = match flag.scope {
            Scope::Accelerator | Scope::Session => "infer",
            Scope::Batch => "batch",
            Scope::Serve => "serve",
        };
        assert_config_invalid(&[cmd, flag.name, "bogus"]);
    }
    // Well-formed values the session builders reject.
    for args in [
        ["infer", "--instances", "0"],
        ["analyze", "--instances", "0"],
        ["serve", "--max-batch", "0"],
        ["serve", "--queue-depth", "0"],
    ] {
        assert_config_invalid(&args);
    }
}

#[test]
fn bad_network_flags_fail_closed_with_config_invalid() {
    for args in [
        ["infer", "--hw", "0"],
        ["infer", "--hw", "3"],
        ["infer", "--hw", "x"],
        ["serve", "--hw", "16"],
        ["infer", "--density", "1.5"],
        ["infer", "--density", "-0.5"],
        ["infer", "--density", "x"],
        ["analyze", "--density", "2"],
    ] {
        assert_config_invalid(&args);
    }
}

#[test]
fn bad_counts_and_seeds_fail_closed_with_config_invalid() {
    for args in [
        // A run over zero images or zero evaluations is an error, not a no-op.
        ["batch", "--n", "0"],
        ["batch", "--n", "x"],
        ["batch", "--n", "-1"],
        ["tune", "--budget", "0"],
        ["tune", "--budget", "x"],
        ["tune", "--n", "0"],
        ["tune", "--seed", "0xzz"],
        ["tune", "--seed", "-1"],
        ["infer", "--seed", "x"],
        ["infer", "--seed", "-1"],
    ] {
        assert_config_invalid(&args);
    }
}

/// `(flag, default)` of every flag line in `zskip <cmd> --help`.
fn help_flags(cmd: &str) -> Vec<(String, Option<String>)> {
    let out = zskip(&[cmd, "--help"]);
    assert!(out.status.success(), "{cmd} --help");
    let mut flags: Vec<(String, Option<String>)> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("--").map(|rest| (l, rest)))
        .map(|(line, rest)| {
            let name = format!("--{}", rest.split_whitespace().next().expect("flag name"));
            let default = line
                .rsplit_once("[default: ")
                .map(|(_, d)| d.trim_end_matches(']').to_string());
            (name, default)
        })
        .collect();
    flags.sort();
    flags
}

#[test]
fn help_lists_exactly_each_subcommands_flags() {
    let knob_defaults = [
        ("--variant", "256-opt"),
        ("--instances", "1"),
        ("--backend", "cpu"),
        ("--threads", "0"),
        ("--kernel", "auto"),
        ("--weight-cache", "on"),
        ("--placement", "auto"),
        ("--workers", "0"),
        ("--max-batch", "8"),
        ("--batch-window-ms", "2"),
        ("--queue-depth", "64"),
    ];
    let expected: [(&str, &[&str]); 4] = [
        (
            "infer",
            &[
                "--hw", "--seed", "--ternary", "--network", "--density", "--config", "--variant",
                "--instances", "--backend", "--threads", "--kernel", "--weight-cache",
                "--placement",
            ],
        ),
        (
            "batch",
            &[
                "--n", "--hw", "--network", "--density", "--config", "--variant", "--instances",
                "--backend", "--threads", "--kernel", "--weight-cache", "--placement", "--workers",
            ],
        ),
        (
            "serve",
            &[
                "--hw", "--tcp", "--network", "--density", "--config", "--variant", "--instances",
                "--backend", "--threads", "--kernel", "--weight-cache", "--placement", "--workers",
                "--max-batch", "--batch-window-ms", "--queue-depth",
            ],
        ),
        ("analyze", &["--network", "--density", "--config", "--variant", "--instances", "--placement"]),
    ];
    for (cmd, flags) in expected {
        let got = help_flags(cmd);
        let mut names: Vec<&str> = got.iter().map(|(n, _)| n.as_str()).collect();
        let mut want = flags.to_vec();
        names.sort_unstable();
        want.sort_unstable();
        assert_eq!(names, want, "{cmd} --help flags");
        for (flag, default) in knob_defaults {
            if let Some((_, shown)) = got.iter().find(|(n, _)| n == flag) {
                assert_eq!(shown.as_deref(), Some(default), "{cmd} {flag} default");
            }
        }
    }
}

const TINY_SPEC: &str = r#"{
  "name": "cli-tiny",
  "input": {"c": 3, "h": 8, "w": 8},
  "layers": [
    {"op": "conv", "name": "c1", "in_c": 3, "out_c": 4, "k": 3, "stride": 1, "pad": 1, "relu": true}
  ]
}"#;

#[test]
fn default_artifact_round_trips_through_config() {
    let dir = temp_dir("config");
    let spec = dir.join("tiny.json");
    let artifact = dir.join("default.json");
    std::fs::write(&spec, TINY_SPEC).expect("writes spec");
    TunedConfig::default().save(&artifact).expect("saves artifact");
    let (spec, artifact) = (spec.to_str().expect("utf-8"), artifact.to_str().expect("utf-8"));

    let out = zskip(&["infer", "--network", spec, "--config", artifact]);
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert!(out.status.success(), "{stderr}");
    assert!(stdout.contains("on 256-opt") && stdout.contains("model backend"), "{stdout}");
    assert!(stdout.contains("bit-exact"), "{stdout}");
    assert!(!stderr.contains("shadows"), "no flag overrides the artifact: {stderr}");

    let out = zskip(&["infer", "--network", spec, "--config", artifact, "--backend", "cpu"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("--backend cpu shadows tuned 'model'"), "{stderr}");

    // An artifact whose knob the session builder rejects fails closed.
    let zero = dir.join("zero.json");
    TunedConfig { instances: 0, ..TunedConfig::default() }.save(&zero).expect("saves");
    assert_config_invalid(&["infer", "--network", spec, "--config", zero.to_str().expect("utf-8")]);
    std::fs::remove_dir_all(&dir).ok();
}
