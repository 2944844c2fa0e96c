//! The cpu backend's process-wide stats-plan cache: one miss per
//! (network, stats-relevant configuration), hits on every later image,
//! no lookups at all when the cache is bypassed, and nothing cached from
//! a failed run.
//!
//! The cache and its counters are process-wide. This file is a test
//! process of its own, and every test holds one lock and works on a
//! network no other test here builds, so the counter deltas each test
//! reads are its own.

use std::sync::{Mutex, MutexGuard};
use zskip::accel::{
    stats_cache_stats, AccelConfig, BackendKind, Driver, DriverError, Error, Session,
};
use zskip::fault::{FaultKind, FaultPlan};
use zskip::hls::AccelArch;
use zskip::nn::eval::synthetic_inputs;
use zskip::nn::layer::{conv3x3, maxpool2x2, LayerSpec, NetworkSpec};
use zskip::nn::model::{Network, QuantizedNetwork, SyntheticModelConfig};
use zskip::nn::simd::KernelTier;
use zskip::quant::cache::CacheStats;
use zskip::quant::DensityProfile;
use zskip::tensor::{Shape, Tensor};

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn config(bank_tiles: usize) -> AccelConfig {
    AccelConfig::from_arch(&AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles }, 100.0)
}

/// A small network whose weights depend on `seed` (so each test gets its
/// own cache key) and `n` distinct inputs for it.
fn network(seed: u64, n: usize) -> (QuantizedNetwork, Vec<Tensor<f32>>) {
    let spec = NetworkSpec {
        name: "cached".into(),
        input: Shape::new(3, 12, 12),
        layers: vec![
            conv3x3("c1", 3, 6),
            maxpool2x2("p1"),
            conv3x3("c2", 6, 8),
            LayerSpec::Fc { name: "fc".into(), in_features: 8 * 6 * 6, out_features: 5, relu: false },
        ],
    };
    let net = Network::synthetic(
        spec.clone(),
        &SyntheticModelConfig { seed, density: DensityProfile::uniform(2, 0.5) },
    );
    let qnet = net.quantize(&synthetic_inputs(seed ^ 1, 2, spec.input));
    (qnet, synthetic_inputs(seed ^ 2, n, spec.input))
}

/// Counter movement since `before`: (hits, misses, entries).
fn delta(before: CacheStats) -> (u64, u64, usize) {
    let now = stats_cache_stats();
    (now.hits - before.hits, now.misses - before.misses, now.entries - before.entries)
}

#[test]
fn n_images_give_one_miss_then_hits() {
    let _serial = serial();
    let (qnet, inputs) = network(101, 5);
    let cpu = Driver::builder(config(4096)).backend(BackendKind::Cpu).build().unwrap();
    let model = Driver::builder(config(4096)).backend(BackendKind::Model).build().unwrap();
    let before = stats_cache_stats();
    for input in &inputs {
        let got = cpu.run_network(&qnet, input).unwrap();
        let want = model.run_network(&qnet, input).unwrap();
        assert_eq!(got.output, want.output);
        assert_eq!(got.total_cycles, want.total_cycles);
        assert_eq!(got.ddr_bytes, want.ddr_bytes);
    }
    assert_eq!(delta(before), (4, 1, 1), "5 images: 1 miss, 4 hits, 1 new entry");
    assert!(stats_cache_stats().bytes > before.bytes, "the entry's bytes are counted");
}

#[test]
fn sessions_differing_only_in_threads_or_kernel_share_one_entry() {
    let _serial = serial();
    let (qnet, inputs) = network(202, 1);
    let before = stats_cache_stats();
    let sessions = [
        Session::builder(config(4096)).backend(BackendKind::Cpu).build().unwrap(),
        Session::builder(config(4096)).backend(BackendKind::Cpu).threads(2).build().unwrap(),
        Session::builder(config(4096)).backend(BackendKind::Cpu).kernel(KernelTier::Scalar).build().unwrap(),
    ];
    let reports: Vec<_> = sessions.iter().map(|s| s.infer(&qnet, &inputs[0]).unwrap()).collect();
    for r in &reports[1..] {
        assert_eq!(r.output, reports[0].output);
        assert_eq!(r.total_cycles, reports[0].total_cycles);
    }
    assert_eq!(delta(before), (2, 1, 1), "one entry, built once, hit by the other two sessions");
}

#[test]
fn bypassed_runs_do_no_lookups() {
    let _serial = serial();
    let (qnet, inputs) = network(303, 3);
    let before = stats_cache_stats();
    // `weight_cache(false)` rebuilds every value-independent per-network
    // artifact per image; Model and Cycle compute their statistics as
    // they execute.
    let drivers = [
        Driver::builder(config(4096)).backend(BackendKind::Cpu).weight_cache(false).build().unwrap(),
        Driver::builder(config(4096)).backend(BackendKind::Model).build().unwrap(),
        Driver::builder(config(4096)).backend(BackendKind::Cycle).build().unwrap(),
    ];
    for driver in &drivers {
        for input in &inputs {
            driver.run_network(&qnet, input).unwrap();
        }
    }
    assert_eq!(delta(before), (0, 0, 0));
}

#[test]
fn failed_runs_never_populate_the_cache() {
    let _serial = serial();
    let (qnet, inputs) = network(404, 2);
    let before = stats_cache_stats();
    let cramped = Driver::builder(config(8)).backend(BackendKind::Cpu).build().unwrap();
    for input in &inputs {
        let err = cramped.run_network(&qnet, input).unwrap_err();
        assert!(matches!(err, DriverError::LayerTooLarge { .. }), "{err:?}");
    }
    assert_eq!(delta(before), (0, 0, 0), "each retry rebuilds and fails the same way");
}

/// After a clean cpu warm-up, a fault-planned cpu driver bypasses the
/// cached plan: the staged pipeline runs, so every `dma:xfer` fault fires
/// and surfaces exactly as on Model, and the cache counters stay put.
#[test]
fn faulted_cpu_runs_bypass_the_warm_cache_and_fail_like_model() {
    let _serial = serial();
    let (qnet, inputs) = network(505, 2);
    let clean = Driver::builder(config(4096)).backend(BackendKind::Cpu).build().unwrap();
    for input in &inputs {
        clean.run_network(&qnet, input).unwrap();
    }
    let before = stats_cache_stats();
    for (kind, want_code) in [
        (FaultKind::DmaTruncate { tiles: 1 }, "dma.truncated"),
        (FaultKind::DmaCorrupt { xor: 0x40 }, "dma.parity"),
    ] {
        for at in [0, 2, 7] {
            let mut errors = Vec::new();
            for backend in [BackendKind::Model, BackendKind::Cpu] {
                let plan = FaultPlan::new().inject("dma:xfer", at, kind).shared();
                let driver = Driver::builder(config(4096))
                    .backend(backend)
                    .fault_plan(plan.clone())
                    .build()
                    .unwrap();
                let err = driver.run_network(&qnet, &inputs[1]).unwrap_err();
                assert_eq!(plan.lock().unwrap().fired().len(), 1, "{backend}: exactly one fault fired");
                assert_eq!(Error::from(err.clone()).code(), want_code, "{backend}");
                errors.push(err);
            }
            assert_eq!(errors[0], errors[1], "fault {kind:?} at {at}: cpu fails exactly as model");
        }
    }
    assert_eq!(delta(before), (0, 0, 0));
}
