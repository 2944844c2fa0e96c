//! Cross-backend differential harness: the Model, Cycle and Cpu backends
//! must be interchangeable.
//!
//! * **Outputs**: bit-identical to each other and to the software golden
//!   model (`forward_quant`) on random `NetworkSpec`s.
//! * **Statistics**: Model and Cpu charge cycles with the same
//!   closed-form model, so their cycle counts and DDR byte counts are
//!   *equal*, not merely close; Cycle agrees within the documented
//!   tolerance.
//! * **Cached statistics**: the cpu backend computes a network's
//!   statistics once and replays them on later images, so every
//!   equivalence check also runs a second, distinct input through the
//!   cache-hit path, and a key-sensitivity test interleaves configurations
//!   that must never share an entry.
//! * **Transient faults**: the staged pipeline issues the same DMA
//!   descriptor sequence on every backend, and DMA fault detection is
//!   value-independent — an injected `dma:*` fault must surface as the
//!   same structured error everywhere.

use proptest::prelude::*;
use zskip::accel::{
    AccelConfig, BackendKind, Driver, DriverError, Error, InferenceReport, PassStats,
};
use zskip::fault::{FaultKind, FaultPlan};
use zskip::hls::AccelArch;
use zskip::nn::eval::synthetic_inputs;
use zskip::nn::layer::{conv3x3, maxpool2x2, LayerSpec, NetworkSpec};
use zskip::nn::model::{Network, QuantizedNetwork, SyntheticModelConfig};
use zskip::nn::plan::ExecPlan;
use zskip::quant::DensityProfile;
use zskip::soc::dma::DmaError;
use zskip::tensor::{Shape, Tensor};

fn config(bank_tiles: usize, instances: usize) -> AccelConfig {
    AccelConfig::from_arch(&AccelArch { conv_units: 4, lanes: 4, instances, bank_tiles }, 100.0)
}

fn tiny_spec() -> NetworkSpec {
    NetworkSpec {
        name: "tiny".into(),
        input: Shape::new(3, 12, 12),
        layers: vec![
            conv3x3("c1", 3, 6),
            maxpool2x2("p1"),
            conv3x3("c2", 6, 9),
            maxpool2x2("p2"),
            LayerSpec::Fc { name: "fc".into(), in_features: 9 * 3 * 3, out_features: 5, relu: false },
        ],
    }
}

fn quantized(density: f64, seed: u64) -> (QuantizedNetwork, Tensor<f32>) {
    let spec = tiny_spec();
    let net = Network::synthetic(
        spec.clone(),
        &SyntheticModelConfig { seed, density: DensityProfile::uniform(2, density) },
    );
    let calib = synthetic_inputs(seed ^ 1, 2, spec.input);
    let qnet = net.quantize(&calib);
    let input = synthetic_inputs(seed ^ 2, 1, spec.input).pop().expect("one input");
    (qnet, input)
}

/// A random small network: 1-3 padded conv layers with random channel
/// counts and kernel sizes, optionally pooled, optionally FC-capped.
fn network_strategy() -> impl Strategy<Value = NetworkSpec> {
    let conv = (1usize..=3, 2usize..=8, prop::bool::ANY);
    (
        8usize..=19,                 // input h/w
        1usize..=3,                  // input channels
        prop::collection::vec(conv, 1..=3),
        prop::bool::ANY,             // pool after first conv
        prop::bool::ANY,             // fc head
    )
        .prop_map(|(hw, in_c, convs, pool, fc)| {
            let mut layers = Vec::new();
            let mut c = in_c;
            for (i, (k, out_c, relu)) in convs.into_iter().enumerate() {
                layers.push(LayerSpec::Conv {
                    name: format!("c{i}"),
                    in_c: c,
                    out_c,
                    k,
                    stride: 1,
                    pad: k / 2,
                    relu,
                });
                c = out_c;
                if i == 0 && pool && hw >= 8 {
                    layers.push(LayerSpec::MaxPool { name: "p".into(), k: 2, stride: 2 });
                }
            }
            let mut spec = NetworkSpec { name: "rand".into(), input: Shape::new(in_c, hw, hw), layers };
            if fc {
                if let Ok(shapes) = spec.shapes() {
                    let s = shapes.last().copied().expect("non-empty");
                    spec.layers.push(LayerSpec::Fc {
                        name: "fc".into(),
                        in_features: s.c * s.h * s.w,
                        out_features: 4,
                        relu: false,
                    });
                }
            }
            spec
        })
        .prop_filter("kernel must fit every intermediate map", |spec| spec.shapes().is_ok())
}

/// Builds one residual block: `w_in -> w_out` with an optional
/// downsampling maxpool and 1x1-projection skip, optional batch-norm
/// (folded into the convs at quantization time).
fn push_residual_block(
    layers: &mut Vec<LayerSpec>,
    b: usize,
    w_in: usize,
    w_out: usize,
    bn: bool,
    down: bool,
    join_relu: bool,
) {
    let conv = |name: String, in_c: usize, out_c: usize, k: usize, relu: bool| LayerSpec::Conv {
        name,
        in_c,
        out_c,
        k,
        stride: 1,
        pad: k / 2,
        relu,
    };
    // `block_in` is the layer whose output both branches consume (or the
    // network input when the block opens the network).
    let block_in = match layers.len() {
        0 => zskip::nn::LayerRef::Input,
        n => zskip::nn::LayerRef::Layer(n - 1),
    };
    if down {
        layers.push(LayerSpec::MaxPool { name: format!("b{b}_pool"), k: 2, stride: 2 });
    }
    layers.push(conv(format!("b{b}_c1"), w_in, w_out, 3, !bn));
    if bn {
        layers.push(LayerSpec::BatchNorm { name: format!("b{b}_bn1"), relu: true });
    }
    layers.push(conv(format!("b{b}_c2"), w_out, w_out, 3, false));
    if bn {
        layers.push(LayerSpec::BatchNorm { name: format!("b{b}_bn2"), relu: false });
    }
    if down || w_in != w_out {
        // Projection skip: re-open the block input, mirror the pooling,
        // project to the new width with a 1x1 conv.
        let main_end = zskip::nn::LayerRef::Layer(layers.len() - 1);
        layers.push(LayerSpec::Ref { name: format!("b{b}_skip"), from: block_in });
        if down {
            layers.push(LayerSpec::MaxPool { name: format!("b{b}_skip_pool"), k: 2, stride: 2 });
        }
        layers.push(conv(format!("b{b}_proj"), w_in, w_out, 1, false));
        if bn {
            layers.push(LayerSpec::BatchNorm { name: format!("b{b}_proj_bn"), relu: false });
        }
        layers.push(LayerSpec::Add { name: format!("b{b}_add"), from: main_end, relu: join_relu });
    } else {
        layers.push(LayerSpec::Add { name: format!("b{b}_add"), from: block_in, relu: join_relu });
    }
}

/// A random residual (DAG) network: stem conv, 1-2 residual blocks
/// (identity joins, or a downsampling block whose skip branch is a
/// maxpool + 1x1 projection), optional batch-norm everywhere, optional
/// global-average-pool + FC head.
fn dag_network_strategy() -> impl Strategy<Value = NetworkSpec> {
    (
        (
            8usize..=14, // input h/w
            1usize..=3,  // input channels
            2usize..=5,  // block width
            1usize..=2,  // residual blocks
        ),
        (
            prop::bool::ANY, // batch-norm
            prop::bool::ANY, // downsample + project in the last block
            prop::bool::ANY, // gap + fc head
            prop::bool::ANY, // relu at the joins
        ),
    )
        .prop_map(|((hw, in_c, w, blocks), (bn, down, head, join_relu))| {
            let mut layers = vec![LayerSpec::Conv {
                name: "stem".into(),
                in_c,
                out_c: w,
                k: 3,
                stride: 1,
                pad: 1,
                relu: !bn,
            }];
            if bn {
                layers.push(LayerSpec::BatchNorm { name: "stem_bn".into(), relu: true });
            }
            let mut width = w;
            for b in 0..blocks {
                let last = b + 1 == blocks;
                let w_out = if last && down { width * 2 } else { width };
                push_residual_block(&mut layers, b, width, w_out, bn, last && down, join_relu);
                width = w_out;
            }
            if head {
                layers.push(LayerSpec::GlobalAvgPool { name: "gap".into() });
                layers.push(LayerSpec::Fc {
                    name: "fc".into(),
                    in_features: width,
                    out_features: 4,
                    relu: false,
                });
            }
            NetworkSpec { name: "rand-dag".into(), input: Shape::new(in_c, hw, hw), layers }
        })
        .prop_filter("every shape must fit", |spec| spec.shapes().is_ok())
}

fn quantize_spec(spec: &NetworkSpec, density: f64, seed: u64) -> (QuantizedNetwork, Tensor<f32>) {
    let conv_count = spec.conv_layers().len();
    let net = Network::synthetic(
        spec.clone(),
        &SyntheticModelConfig { seed, density: DensityProfile::uniform(conv_count, density) },
    );
    let qnet = net.quantize(&synthetic_inputs(seed ^ 1, 1, spec.input));
    let input = synthetic_inputs(seed ^ 2, 1, spec.input).pop().expect("one");
    (qnet, input)
}

/// Every field of a pass's statistics, with the activity counters as
/// (name, value) pairs in name order.
type StatsFields = (u64, Vec<u64>, u64, u64, u64, usize, u64, Vec<(&'static str, u64)>);

fn stats_fields(s: &PassStats) -> StatsFields {
    let mut counters: Vec<_> = s.counters.iter().collect();
    counters.sort_unstable();
    (
        s.compute_cycles,
        s.per_instance_cycles.clone(),
        s.io_dma_cycles,
        s.weight_dma_cycles,
        s.total_cycles,
        s.stripes,
        s.striping_factor.to_bits(),
        counters,
    )
}

/// `got` equals `want` field for field: output, every layer's name and
/// `PassStats`, total cycles and DDR bytes.
fn assert_same_report(got: &InferenceReport, want: &InferenceReport, what: &str) {
    assert_eq!(got.output, want.output, "{what}: output");
    assert_eq!(got.total_cycles, want.total_cycles, "{what}: total cycles");
    assert_eq!(got.ddr_bytes, want.ddr_bytes, "{what}: DDR bytes");
    assert_eq!(got.layers.len(), want.layers.len(), "{what}: layer count");
    for (g, w) in got.layers.iter().zip(&want.layers) {
        assert_eq!(g.name, w.name, "{what}: layer order");
        assert_eq!(g.is_conv, w.is_conv, "{what}: layer {}", g.name);
        assert_eq!(g.dense_macs, w.dense_macs, "{what}: layer {}", g.name);
        assert_eq!(stats_fields(&g.stats), stats_fields(&w.stats), "{what}: layer {}", g.name);
    }
}

/// Model and Cpu (single- and multi-threaded) agree field for field on
/// `input` and then on a second, distinct input — the latter served from
/// the cpu backend's cached stats plan.
fn check_cpu_matches_model(qnet: &QuantizedNetwork, input: &Tensor<f32>, seed: u64) {
    let cfg = config(2048, 1);
    let model = Driver::builder(cfg).backend(BackendKind::Model).build().unwrap();
    let cpu = Driver::builder(cfg).backend(BackendKind::Cpu).build().unwrap();
    // Intra-image multithreaded cpu backend: panel decomposition over a
    // 3-worker pool must not change outputs or statistics either.
    let mt = Driver::builder(cfg).backend(BackendKind::Cpu).threads(3).build().unwrap();
    let second = synthetic_inputs(seed ^ 3, 1, qnet.spec.input).pop().expect("one");
    assert_ne!(&second, input, "the second input must differ from the first");
    for (i, x) in [input, &second].into_iter().enumerate() {
        let want = model.run_network(qnet, x).expect("fits");
        assert_eq!(want.output, qnet.forward_quant(x), "model vs golden, input {i}");
        assert_same_report(&cpu.run_network(qnet, x).expect("fits"), &want, &format!("cpu, input {i}"));
        assert_same_report(&mt.run_network(qnet, x).expect("fits"), &want, &format!("cpu x3, input {i}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Model and Cpu: bit-identical outputs AND identical statistics on
    /// random specs (both charge the same closed-form cycle model; only
    /// the functional arithmetic engine differs), on a first image and on
    /// a second one served from the cached stats plan.
    #[test]
    fn cpu_and_model_backends_are_equivalent_on_random_specs(
        spec in network_strategy(),
        density in 0.1f64..1.0,
        seed in 0u64..10_000,
    ) {
        let (qnet, input) = quantize_spec(&spec, density, seed);
        check_cpu_matches_model(&qnet, &input, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Model and Cpu on random *DAG* specs — skip connections, 1x1
    /// projections, folded batch-norm, GAP heads: bit-identical outputs
    /// and identical per-layer statistics, single- and multi-threaded, on
    /// a first image and on a second one served from the stats plan.
    #[test]
    fn cpu_and_model_backends_are_equivalent_on_dag_specs(
        spec in dag_network_strategy(),
        density in 0.1f64..1.0,
        seed in 0u64..10_000,
    ) {
        let (qnet, input) = quantize_spec(&spec, density, seed);
        check_cpu_matches_model(&qnet, &input, seed);
    }
}

proptest! {
    // The cycle backend is ~100x slower; fewer cases, smaller nets.
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// All three backends produce bit-identical outputs on random specs.
    #[test]
    fn all_three_backends_agree_on_random_specs(
        hw in 6usize..=10,
        out_c in 2usize..=6,
        k in 1usize..=3,
        density in 0.2f64..1.0,
        seed in 0u64..1_000,
    ) {
        let spec = NetworkSpec {
            name: "rand3".into(),
            input: Shape::new(2, hw, hw),
            layers: vec![LayerSpec::Conv {
                name: "c".into(),
                in_c: 2,
                out_c,
                k,
                stride: 1,
                pad: k / 2,
                relu: true,
            }],
        };
        prop_assume!(spec.shapes().is_ok());
        let (qnet, input) = quantize_spec(&spec, density, seed);
        let cfg = config(1024, 1);
        let golden = qnet.forward_quant(&input);
        for backend in BackendKind::ALL {
            let report = Driver::builder(cfg).backend(backend).build().unwrap().run_network(&qnet, &input).expect("fits");
            prop_assert_eq!(&report.output, &golden, "backend {}", backend);
        }
    }

    /// All three backends on small random residual blocks: bit-identical
    /// outputs, and per-layer structure/work statistics agree everywhere
    /// (cycle counts are pinned exactly between Model and Cpu only — the
    /// cycle-exact engine has its own documented tolerance).
    #[test]
    fn all_three_backends_agree_on_dag_specs(
        hw in 6usize..=8,
        w in 2usize..=3,
        bn in prop::bool::ANY,
        down in prop::bool::ANY,
        density in 0.2f64..1.0,
        seed in 0u64..1_000,
    ) {
        let mut layers = vec![LayerSpec::Conv {
            name: "stem".into(), in_c: 2, out_c: w, k: 3, stride: 1, pad: 1, relu: true,
        }];
        push_residual_block(&mut layers, 0, w, if down { w * 2 } else { w }, bn, down, true);
        let spec = NetworkSpec { name: "dag3".into(), input: Shape::new(2, hw, hw), layers };
        prop_assume!(spec.shapes().is_ok());
        let (qnet, input) = quantize_spec(&spec, density, seed);
        let cfg = config(1024, 1);
        let golden = qnet.forward_quant(&input);
        let reports: Vec<_> = BackendKind::ALL
            .iter()
            .map(|&b| Driver::builder(cfg).backend(b).build().unwrap().run_network(&qnet, &input).expect("fits"))
            .collect();
        let (model, cycle, cpu) = (&reports[0], &reports[1], &reports[2]);
        for (r, b) in reports.iter().zip(BackendKind::ALL) {
            prop_assert_eq!(&r.output, &golden, "backend {}", b);
            prop_assert_eq!(r.layers.len(), model.layers.len(), "backend {}", b);
            for (l, m) in r.layers.iter().zip(&model.layers) {
                prop_assert_eq!(&l.name, &m.name, "backend {}", b);
                prop_assert_eq!(l.stats.stripes, m.stats.stripes, "backend {}", b);
                prop_assert_eq!(
                    l.stats.counters.get("macs"), m.stats.counters.get("macs"),
                    "backend {} layer {}", b, &l.name
                );
            }
        }
        prop_assert_eq!(cpu.total_cycles, model.total_cycles);
        prop_assert_eq!(cpu.ddr_bytes, model.ddr_bytes);
        prop_assert_eq!(cycle.ddr_bytes, model.ddr_bytes);
    }
}

/// A fixed residual network (downsampling block, projection skip, folded
/// batch-norm) for the fault-equivalence test below.
fn residual_fixture(seed: u64) -> (QuantizedNetwork, Tensor<f32>) {
    let mut layers = vec![LayerSpec::Conv {
        name: "stem".into(), in_c: 2, out_c: 3, k: 3, stride: 1, pad: 1, relu: true,
    }];
    push_residual_block(&mut layers, 0, 3, 3, true, false, true);
    push_residual_block(&mut layers, 1, 3, 6, true, true, true);
    let spec = NetworkSpec { name: "res-fixture".into(), input: Shape::new(2, 12, 12), layers };
    quantize_spec(&spec, 0.6, seed)
}

/// The DAG plan walk must not change fault equivalence: on a residual
/// network, one injected DMA fault surfaces as the same structured error
/// with the same stable code on every backend.
#[test]
fn transient_dma_faults_surface_identically_on_dag_networks() {
    let (qnet, input) = residual_fixture(21);
    for (kind, want_code) in [
        (FaultKind::DmaTruncate { tiles: 1 }, "dma.truncated"),
        (FaultKind::DmaCorrupt { xor: 0x40 }, "dma.parity"),
    ] {
        for at in [0, 2, 7] {
            let mut codes = Vec::new();
            for backend in BackendKind::ALL {
                let plan = FaultPlan::new().inject("dma:xfer", at, kind).shared();
                let driver = Driver::builder(config(4096, 1))
                    .backend(backend)
                    .fault_plan(plan.clone())
                    .build()
                    .expect("valid config");
                let err = driver.run_network(&qnet, &input).unwrap_err();
                assert!(err.is_transient(), "{backend}: DMA faults are transient");
                assert_eq!(plan.lock().unwrap().fired().len(), 1, "{backend}: exactly one fault fired");
                codes.push(Error::from(err).code());
            }
            assert_eq!(codes, vec![want_code; 3], "fault {kind:?} at {at}");
        }
    }
}

#[test]
fn every_backend_matches_software_reference_bit_exact() {
    let (qnet, input) = quantized(0.6, 11);
    let golden = qnet.forward_quant(&input);
    for backend in BackendKind::ALL {
        let report = Driver::builder(config(4096, 1)).backend(backend).build().unwrap().run_network(&qnet, &input).expect("runs");
        assert_eq!(report.output, golden, "backend {backend}");
        assert!(report.total_cycles > 0);
        assert!(report.ddr_bytes > 0);
        assert_eq!(report.conv_layers().count(), 2);
    }
}

#[test]
fn model_and_cycle_backends_agree_on_cycles_within_tolerance() {
    let (qnet, input) = quantized(0.4, 33);
    let model = Driver::builder(config(4096, 1)).backend(BackendKind::Model).build().unwrap().run_network(&qnet, &input).unwrap();
    let cycle = Driver::builder(config(4096, 1)).backend(BackendKind::Cycle).build().unwrap().run_network(&qnet, &input).unwrap();
    assert_eq!(model.output, cycle.output, "functional equality");
    let diff = model.total_cycles.abs_diff(cycle.total_cycles) as f64;
    assert!(
        diff <= 0.03 * cycle.total_cycles as f64 + 400.0,
        "model {} vs cycle {}",
        model.total_cycles,
        cycle.total_cycles
    );
}

#[test]
fn striping_preserves_results_on_every_backend() {
    let (qnet, input) = quantized(0.7, 44);
    let golden = qnet.forward_quant(&input);
    for backend in [BackendKind::Model, BackendKind::Cpu] {
        // Tiny banks: forces multiple stripes per layer.
        let striped = Driver::builder(config(20, 1)).backend(backend).build().unwrap().run_network(&qnet, &input).unwrap();
        assert_eq!(striped.output, golden, "backend {backend}");
        let roomy = Driver::builder(config(8192, 1)).backend(backend).build().unwrap().run_network(&qnet, &input).unwrap();
        let stripes_tight: usize = striped.layers.iter().map(|l| l.stats.stripes).sum();
        let stripes_roomy: usize = roomy.layers.iter().map(|l| l.stats.stripes).sum();
        assert!(stripes_tight > stripes_roomy, "{stripes_tight} vs {stripes_roomy}");
        // Halo re-fetch shows up as striping factor > 1 on conv layers.
        assert!(striped.conv_layers().any(|l| l.stats.striping_factor > 1.01));
    }
}

#[test]
fn two_instances_cut_compute_on_striped_layers() {
    let (qnet, input) = quantized(1.0, 55);
    for backend in [BackendKind::Model, BackendKind::Cpu] {
        let one = Driver::builder(config(20, 1)).backend(backend).build().unwrap().run_network(&qnet, &input).unwrap();
        let two = Driver::builder(config(20, 2)).backend(backend).build().unwrap().run_network(&qnet, &input).unwrap();
        assert_eq!(two.output, qnet.forward_quant(&input));
        let c1: u64 = one.conv_layers().map(|l| l.stats.compute_cycles).sum();
        let c2: u64 = two.conv_layers().map(|l| l.stats.compute_cycles).sum();
        assert!(c2 < c1, "scale-out must reduce busiest-instance compute: {c2} vs {c1}");
    }
}

#[test]
fn filter_grouping_keeps_results_and_not_slower() {
    let (qnet, input) = quantized(0.3, 66);
    for backend in [BackendKind::Model, BackendKind::Cpu] {
        let plain = Driver::builder(config(4096, 1)).backend(backend).build().unwrap();
        let grouped =
            Driver::builder(config(4096, 1)).backend(backend).filter_grouping(true).build().unwrap();
        let a = plain.run_network(&qnet, &input).unwrap();
        let b = grouped.run_network(&qnet, &input).unwrap();
        assert_eq!(a.output, b.output, "grouping must not change results ({backend})");
        let ca: u64 = a.conv_layers().map(|l| l.stats.compute_cycles).sum();
        let cb: u64 = b.conv_layers().map(|l| l.stats.compute_cycles).sum();
        assert!(cb <= ca + ca / 50, "grouping should not slow down: {cb} vs {ca}");
    }
}

#[test]
fn pruned_network_runs_faster_than_dense() {
    let (dense, input) = quantized(1.0, 77);
    let (pruned, _) = quantized(0.3, 77);
    for backend in [BackendKind::Model, BackendKind::Cpu] {
        let driver = Driver::builder(config(4096, 1)).backend(backend).build().unwrap();
        let d = driver.run_network(&dense, &input).unwrap();
        let p = driver.run_network(&pruned, &input).unwrap();
        let cd: u64 = d.conv_layers().map(|l| l.stats.compute_cycles).sum();
        let cp: u64 = p.conv_layers().map(|l| l.stats.compute_cycles).sum();
        assert!(cp < cd, "zero-skipping must help: pruned {cp} vs dense {cd}");
    }
}

#[test]
fn layer_too_large_is_reported_identically() {
    let (qnet, input) = quantized(1.0, 88);
    for backend in BackendKind::ALL {
        let err = Driver::builder(config(8, 1)).backend(backend).build().unwrap().run_network(&qnet, &input).unwrap_err();
        match err {
            DriverError::LayerTooLarge { needed, capacity, .. } => {
                assert!(needed > capacity);
            }
            other => panic!("expected LayerTooLarge on {backend}, got {other:?}"),
        }
    }
}

/// The driver rejects an input whose shape is not the spec's input shape
/// on every backend, instead of running it (and, on cpu, attaching the
/// spec's cached statistics to it).
#[test]
fn mismatched_input_shape_is_an_invalid_network_on_every_backend() {
    let spec = NetworkSpec {
        name: "eight".into(),
        input: Shape::new(2, 8, 8),
        layers: vec![conv3x3("c1", 2, 4)],
    };
    let (qnet, input) = quantize_spec(&spec, 0.5, 5);
    let wrong = synthetic_inputs(6, 1, Shape::new(2, 16, 16)).pop().expect("one");
    for backend in BackendKind::ALL {
        let driver = Driver::builder(config(4096, 1)).backend(backend).build().unwrap();
        // Before and after a clean run (which warms the cpu stats plan).
        for _ in 0..2 {
            let err = driver.run_network(&qnet, &wrong).unwrap_err();
            assert!(
                matches!(err, DriverError::InvalidNetwork(ref r) if r.contains("input shape")),
                "{backend}: {err:?}"
            );
            assert_eq!(Error::from(err).code(), "driver.invalid-network", "{backend}");
            driver.run_network(&qnet, &input).expect("the spec's own shape runs");
        }
    }
}

/// The stats-plan key must separate every statistics-relevant knob: one
/// network runs on cpu under configurations differing in bank capacity,
/// instance count, zero-skipping and filter grouping — plus a same-spec
/// network at another density and the same weights on a larger input —
/// interleaved over two rounds so every run after the first round is a
/// cache hit next to its neighbours' entries. Each report must equal
/// Model's under the same configuration.
#[test]
fn stats_plan_key_separates_every_stats_relevant_knob() {
    let spec = NetworkSpec {
        name: "fcn".into(),
        input: Shape::new(3, 12, 12),
        layers: vec![conv3x3("c1", 3, 6), maxpool2x2("p1"), conv3x3("c2", 6, 9)],
    };
    let (sparse, _) = quantize_spec(&spec, 0.3, 123);
    let (dense, _) = quantize_spec(&spec, 0.9, 123);
    // Same weights, larger input: only the spec's geometry differs.
    let mut resized = sparse.clone();
    resized.spec.input = Shape::new(3, 16, 16);
    resized.plan = ExecPlan::build(&resized.spec).unwrap();
    let nets = [("density 0.3", &sparse), ("density 0.9", &dense), ("16x16", &resized)];
    type Knobs = (usize, usize, bool, bool);
    let variants: [Knobs; 6] = [
        (4096, 1, true, false),
        (20, 1, true, false),
        (4096, 2, true, false),
        (20, 2, true, false),
        (4096, 1, false, false),
        (4096, 1, true, true),
    ];
    for round in 0..2u64 {
        for (net, qnet) in nets {
            let x = synthetic_inputs(round, 1, qnet.spec.input).pop().expect("one");
            for (bank_tiles, instances, zero_skipping, filter_grouping) in variants {
                let build = |backend| {
                    Driver::builder(config(bank_tiles, instances))
                        .backend(backend)
                        .zero_skipping(zero_skipping)
                        .filter_grouping(filter_grouping)
                        .build()
                        .unwrap()
                };
                let want = build(BackendKind::Model).run_network(qnet, &x).unwrap();
                let got = build(BackendKind::Cpu).run_network(qnet, &x).unwrap();
                assert_same_report(
                    &got,
                    &want,
                    &format!(
                        "round {round}, {net}, bank_tiles {bank_tiles}, instances {instances}, \
                         zero_skipping {zero_skipping}, filter_grouping {filter_grouping}"
                    ),
                );
            }
        }
    }
}

#[test]
fn gops_reporting_is_consistent() {
    let (qnet, input) = quantized(1.0, 99);
    let cfg = config(4096, 1);
    for backend in [BackendKind::Model, BackendKind::Cpu] {
        let report = Driver::builder(cfg).backend(backend).build().unwrap().run_network(&qnet, &input).unwrap();
        let mean = report.mean_gops(&cfg);
        let peak = report.peak_gops(&cfg);
        assert!(peak >= mean && mean > 0.0, "peak {peak} mean {mean}");
        // Effective GOPS can never exceed peak arithmetic throughput for a
        // dense (unpruned) network.
        assert!(peak <= cfg.peak_gops() * 1.001, "peak {peak} vs hw {}", cfg.peak_gops());
    }
}

/// One injected DMA fault must surface as the same structured error with
/// the same stable code on every backend: the staged pipeline issues the
/// identical descriptor sequence, and DMA fault detection is
/// value-independent.
#[test]
fn transient_dma_faults_surface_identically_across_backends() {
    let (qnet, input) = quantized(0.6, 11);
    for (kind, want_code) in [
        (FaultKind::DmaTruncate { tiles: 1 }, "dma.truncated"),
        (FaultKind::DmaCorrupt { xor: 0x40 }, "dma.parity"),
    ] {
        for at in [0, 2, 7] {
            let mut codes = Vec::new();
            for backend in BackendKind::ALL {
                let plan = FaultPlan::new().inject("dma:xfer", at, kind).shared();
                let driver = Driver::builder(config(4096, 1))
                    .backend(backend)
                    .fault_plan(plan.clone())
                    .build()
                    .expect("valid config");
                let err = driver.run_network(&qnet, &input).unwrap_err();
                assert!(err.is_transient(), "{backend}: DMA faults are transient");
                assert_eq!(plan.lock().unwrap().fired().len(), 1, "{backend}: exactly one fault fired");
                codes.push(Error::from(err).code());
            }
            assert_eq!(codes, vec![want_code; 3], "fault {kind:?} at {at}");
        }
    }
}

#[test]
fn injected_dma_truncation_surfaces_as_structured_error() {
    let (qnet, input) = quantized(0.6, 11);
    let plan = FaultPlan::new().inject("dma:xfer", 2, FaultKind::DmaTruncate { tiles: 1 }).shared();
    let driver =
        Driver::builder(config(4096, 1)).fault_plan(plan.clone()).build().expect("valid config");
    let err = driver.run_network(&qnet, &input).unwrap_err();
    assert!(
        matches!(err, DriverError::Dma(DmaError::Truncated { .. })),
        "expected truncation, got {err:?}"
    );
    assert_eq!(plan.lock().unwrap().fired().len(), 1, "exactly one fault fired");
}
