//! SIMD kernel-tier benchmark — emits `BENCH_kernels.json`.
//!
//! Measures the quantized datapath kernels at every CPU tier reachable on
//! this host (scalar / SSE2 / AVX2, see `docs/KERNELS.md`):
//!
//! * **GEMM**: `conv2d_gemm_quant_tier` per tier on three VGG-16-shaped
//!   layers at deep-compression densities. The scalar tier is the
//!   register-blocked seed kernel; SIMD tiers must be bit-identical
//!   (asserted here and property-tested in `crates/nn`).
//! * **Packed conv**: the packed-nonzero span kernel (`conv2d_quant_into`)
//!   per tier on the same layers — the path functional inference runs on.
//! * **Allocations per image**: heap allocations of one quantized forward
//!   pass through the allocating API vs. the [`Scratch`] arena after
//!   warm-up, counted by a counting global allocator. Steady state must
//!   be zero.
//! * **Driver backends**: end-to-end images/s through
//!   `Driver::run_network_scratch` on the scaled VGG-16 spec, per
//!   execution backend (model vs cpu). The cpu backend replaces the
//!   transaction model's per-tile functional sweep with the SIMD `_into`
//!   kernels, so it must not be slower.
//! * **Single image**: the cpu backend with the shared packed-weight
//!   cache and auto worker count against the re-pack-per-image,
//!   single-threaded baseline (the PR-5 path, selected with
//!   `weight_cache(false)`). The speedup is the acceptance number: must
//!   be >= 2x.
//! * **Intra-image threading**: cpu-backend latency at 1/2/4/8 workers
//!   plus the shared-cache hit/miss counters. Outputs are bit-identical
//!   at every width (asserted here; property-tested in
//!   `tests/kernel_tiers.rs`).
//! * **ResNet block**: the 1x1 projection-conv fast path (im2col skipped,
//!   the input borrowed as the patch matrix) against the generic im2col
//!   lowering on a bottleneck-reduce shape, plus the quantized
//!   residual-add cost relative to that conv.
//!
//! * **Set-up**: `Network::synthetic_with_threads` and `Network::quantize`
//!   on the reference VGG-16/32 at 1 thread and at the auto width, plus
//!   64-bit digests of the synthesized and the quantized network.
//!
//! `--check` exits nonzero if any SIMD tier is slower than scalar on a
//! reference shape, the steady-state pass allocates, the cpu backend
//! falls behind the model backend, the single-image speedup is below 2x,
//! the auto-width multithreaded latency regresses past the
//! single-threaded one, the 1x1 fast path is slower than the generic
//! lowering, or a set-up digest differs from its pinned value — wired
//! into `scripts/verify.sh`.
//!
//! Writes `BENCH_kernels.json` at the repository root plus the usual
//! `experiments/kernel_bench.{txt,json}` artifacts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use zskip_bench::{make_conv_layer, setup, write_artifacts};
use zskip_core::config::AccelConfig;
use zskip_core::driver::{BackendKind, Driver};
use zskip_core::weight_cache_stats;
use zskip_hls::Variant;
use zskip_json::{Json, ToJson};
use zskip_nn::conv::{conv2d_quant_into, tap_cache_stats};
use zskip_nn::eval::synthetic_inputs;
use zskip_nn::gemm::conv2d_gemm_quant_tier;
use zskip_nn::model::{Network, QuantizedNetwork, SyntheticModelConfig};
use zskip_nn::simd::KernelTier;
use zskip_nn::vgg16::vgg16_scaled_spec;
use zskip_nn::{ConvPool, Scratch};
use zskip_quant::cache::CacheStats;
use zskip_quant::DensityProfile;
use zskip_tensor::Tensor;

/// Counts heap allocations so the zero-allocation contract is measurable
/// from a release binary, not just the counting-allocator test.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; only adds a counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One kernel × tier timing.
struct TierTiming {
    tier: &'static str,
    ms: f64,
    /// Scalar time over this tier's time (1.0 for scalar itself).
    speedup: f64,
}

impl ToJson for TierTiming {
    fn to_json(&self) -> Json {
        Json::obj([
            ("tier", self.tier.to_json()),
            ("ms", self.ms.to_json()),
            ("speedup", self.speedup.to_json()),
        ])
    }
}

struct ShapeResult {
    layer: String,
    out_c: usize,
    in_c: usize,
    hw: usize,
    density: f64,
    gemm: Vec<TierTiming>,
    packed: Vec<TierTiming>,
    best_tier: &'static str,
    /// Scalar blocked GEMM over the best SIMD tier's GEMM.
    best_gemm_speedup: f64,
}

impl ToJson for ShapeResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("layer", self.layer.to_json()),
            ("out_c", self.out_c.to_json()),
            ("in_c", self.in_c.to_json()),
            ("hw", self.hw.to_json()),
            ("density", self.density.to_json()),
            ("gemm", self.gemm.to_json()),
            ("packed", self.packed.to_json()),
            ("best_tier", self.best_tier.to_json()),
            ("best_gemm_speedup", self.best_gemm_speedup.to_json()),
        ])
    }
}

struct AllocResult {
    /// Allocations for one image through the allocating `forward_quant`.
    allocating_per_image: u64,
    /// Allocations for one steady-state image through the scratch arena.
    scratch_steady_per_image: u64,
    /// Arena grow events after streaming several images (1 = warm-up only).
    grow_events: u64,
    /// Arena footprint after warm-up.
    arena_bytes: usize,
}

impl ToJson for AllocResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("allocating_per_image", self.allocating_per_image.to_json()),
            ("scratch_steady_per_image", self.scratch_steady_per_image.to_json()),
            ("grow_events", self.grow_events.to_json()),
            ("arena_bytes", self.arena_bytes.to_json()),
        ])
    }
}

/// One driver backend's end-to-end throughput on the scaled VGG spec.
struct BackendTiming {
    backend: &'static str,
    ms_per_image: f64,
    images_per_s: f64,
}

impl ToJson for BackendTiming {
    fn to_json(&self) -> Json {
        Json::obj([
            ("backend", self.backend.to_json()),
            ("ms_per_image", self.ms_per_image.to_json()),
            ("images_per_s", self.images_per_s.to_json()),
        ])
    }
}

struct CpuBackendResult {
    /// Input height/width of the scaled VGG-16 spec the backends ran.
    hw: usize,
    backends: Vec<BackendTiming>,
    /// Cpu images/s over model images/s (the `--check` acceptance
    /// number: must be >= 1).
    cpu_speedup_vs_model: f64,
}

impl ToJson for CpuBackendResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("hw", self.hw.to_json()),
            ("backends", self.backends.to_json()),
            ("cpu_speedup_vs_model", self.cpu_speedup_vs_model.to_json()),
        ])
    }
}

fn cache_to_json(s: &CacheStats) -> Json {
    Json::obj([
        ("entries", s.entries.to_json()),
        ("hits", s.hits.to_json()),
        ("misses", s.misses.to_json()),
        ("bytes", s.bytes.to_json()),
    ])
}

/// The tentpole acceptance number: optimized single-image cpu-backend
/// latency (shared weight cache + auto workers) against the PR-5
/// baseline (re-pack per image, single-threaded).
struct SingleImageResult {
    baseline_ms: f64,
    optimized_ms: f64,
    /// `baseline_ms / optimized_ms`; `--check` requires >= 2.
    speedup: f64,
}

impl ToJson for SingleImageResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("baseline_ms", self.baseline_ms.to_json()),
            ("optimized_ms", self.optimized_ms.to_json()),
            ("speedup", self.speedup.to_json()),
        ])
    }
}

/// Cpu-backend latency at one intra-image worker count.
struct WorkerTiming {
    workers: usize,
    ms_per_image: f64,
}

impl ToJson for WorkerTiming {
    fn to_json(&self) -> Json {
        Json::obj([
            ("workers", self.workers.to_json()),
            ("ms_per_image", self.ms_per_image.to_json()),
        ])
    }
}

struct IntraImageResult {
    /// The host's available parallelism (`--threads 0`).
    auto_workers: usize,
    timings: Vec<WorkerTiming>,
    /// Auto-width latency over single-threaded latency; `--check`
    /// requires it to stay within a small noise tolerance of 1.
    mt_vs_single: f64,
    group_cache: CacheStats,
    tap_cache: CacheStats,
}

impl ToJson for IntraImageResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("auto_workers", self.auto_workers.to_json()),
            ("timings", self.timings.to_json()),
            ("mt_vs_single", self.mt_vs_single.to_json()),
            ("group_cache", cache_to_json(&self.group_cache)),
            ("tap_cache", cache_to_json(&self.tap_cache)),
        ])
    }
}

/// The residual-block section: the 1x1 projection fast path against the
/// generic im2col lowering, plus the quantized residual-add overhead.
struct ResnetBlockResult {
    out_c: usize,
    in_c: usize,
    hw: usize,
    density: f64,
    tier: String,
    /// Forced im2col lowering of the same 1x1 conv.
    generic_ms: f64,
    /// The pointwise fast path (input borrowed as the patch matrix).
    pointwise_ms: f64,
    /// `generic_ms / pointwise_ms`; `--check` requires >= 1.
    pointwise_speedup: f64,
    /// Quantized residual add of the two branch outputs.
    add_ms: f64,
    /// `add_ms / pointwise_ms` — the join cost relative to the conv.
    add_overhead_vs_conv: f64,
}

impl ToJson for ResnetBlockResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("out_c", self.out_c.to_json()),
            ("in_c", self.in_c.to_json()),
            ("hw", self.hw.to_json()),
            ("density", self.density.to_json()),
            ("tier", self.tier.to_json()),
            ("generic_ms", self.generic_ms.to_json()),
            ("pointwise_ms", self.pointwise_ms.to_json()),
            ("pointwise_speedup", self.pointwise_speedup.to_json()),
            ("add_ms", self.add_ms.to_json()),
            ("add_overhead_vs_conv", self.add_overhead_vs_conv.to_json()),
        ])
    }
}

/// Set-up wall time at one fill width.
struct SetupTiming {
    threads: usize,
    synth_ms: f64,
    quantize_ms: f64,
}

impl ToJson for SetupTiming {
    fn to_json(&self) -> Json {
        Json::obj([
            ("threads", self.threads.to_json()),
            ("synth_ms", self.synth_ms.to_json()),
            ("quantize_ms", self.quantize_ms.to_json()),
        ])
    }
}

/// The set-up path (`Network::synthetic_with_threads` +
/// `Network::quantize`) on the reference VGG-16/32, with digests of what
/// it produced at every width.
struct SetupResult {
    auto_threads: usize,
    timings: Vec<SetupTiming>,
    network_digest: u64,
    quantized_digest: u64,
    /// Whether every width reproduced the pinned digests; `--check`
    /// requires it.
    digests_match: bool,
}

impl ToJson for SetupResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("network", "vgg16-32 deep-compression, weight seed 1, calibration seed 2".to_json()),
            ("auto_threads", self.auto_threads.to_json()),
            ("timings", self.timings.to_json()),
            ("network_digest", format!("{:#018x}", self.network_digest).to_json()),
            ("quantized_digest", format!("{:#018x}", self.quantized_digest).to_json()),
            ("digests_match", self.digests_match.to_json()),
        ])
    }
}

struct Bench {
    host_tiers: Vec<String>,
    dispatch_tier: String,
    shapes: Vec<ShapeResult>,
    allocs: AllocResult,
    cpu_backend: CpuBackendResult,
    single_image: SingleImageResult,
    intra_image: IntraImageResult,
    resnet_block: ResnetBlockResult,
    setup: SetupResult,
    /// Best SIMD GEMM speedup on the conv3_2-like shape (the acceptance
    /// number: must be >= 2x).
    conv3_2_gemm_speedup: f64,
}

impl ToJson for Bench {
    fn to_json(&self) -> Json {
        Json::obj([
            ("host_tiers", self.host_tiers.to_json()),
            ("dispatch_tier", self.dispatch_tier.to_json()),
            ("shapes", self.shapes.to_json()),
            ("allocs", self.allocs.to_json()),
            ("cpu_backend", self.cpu_backend.to_json()),
            ("single_image", self.single_image.to_json()),
            ("intra_image", self.intra_image.to_json()),
            ("resnet_block", self.resnet_block.to_json()),
            ("setup", self.setup.to_json()),
            ("conv3_2_gemm_speedup", self.conv3_2_gemm_speedup.to_json()),
        ])
    }
}

/// Best-of-3 wall time of `f`, in seconds.
fn time_best<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        result = Some(r);
    }
    (best, result.expect("ran at least once"))
}

fn bench_shapes() -> Vec<ShapeResult> {
    let layers: [(&str, usize, usize, usize, f64); 3] = [
        ("conv1_1-like", 64, 3, 32, 0.58),
        ("conv2_2-like", 128, 128, 16, 0.36),
        ("conv3_2-like", 256, 256, 8, 0.29),
    ];
    let tiers = KernelTier::supported();
    layers
        .into_iter()
        .map(|(name, out_c, in_c, hw, density)| {
            let (qw, tiled, _) = make_conv_layer(out_c, in_c, hw, density, 7);
            let input = tiled.to_tensor();

            let mut gemm = Vec::new();
            let mut scalar_gemm_ms = f64::NAN;
            let mut oracle = None;
            for &tier in &tiers {
                let (s, out) = time_best(|| conv2d_gemm_quant_tier(&input, &qw, 1, 0, tier));
                match &oracle {
                    None => oracle = Some(out),
                    Some(o) => assert_eq!(o, &out, "{name}: GEMM tier {tier} diverged from scalar"),
                }
                let ms = s * 1e3;
                if tier == KernelTier::Scalar {
                    scalar_gemm_ms = ms;
                }
                gemm.push(TierTiming { tier: tier.name(), ms, speedup: scalar_gemm_ms / ms });
            }

            let mut packed = Vec::new();
            let mut scalar_packed_ms = f64::NAN;
            let mut packed_oracle = None;
            for &tier in &tiers {
                let mut acc = Vec::new();
                let mut out = Tensor::zeros(1, 1, 1);
                let (s, ()) =
                    time_best(|| conv2d_quant_into(&input, &qw, 1, 0, tier, &mut acc, &mut out));
                match &packed_oracle {
                    None => packed_oracle = Some(out.clone()),
                    Some(o) => assert_eq!(o, &out, "{name}: packed tier {tier} diverged from scalar"),
                }
                let ms = s * 1e3;
                if tier == KernelTier::Scalar {
                    scalar_packed_ms = ms;
                }
                packed.push(TierTiming { tier: tier.name(), ms, speedup: scalar_packed_ms / ms });
            }

            let best = gemm.iter().skip(1).min_by(|a, b| a.ms.total_cmp(&b.ms));
            let (best_tier, best_gemm_speedup) = match best {
                Some(t) => (t.tier, t.speedup),
                None => ("scalar", 1.0),
            };
            ShapeResult { layer: name.to_string(), out_c, in_c, hw, density, gemm, packed, best_tier, best_gemm_speedup }
        })
        .collect()
}

fn bench_allocs() -> AllocResult {
    let spec = vgg16_scaled_spec(32);
    let net = Network::synthetic(
        spec.clone(),
        &SyntheticModelConfig { seed: 1, density: DensityProfile::deep_compression_vgg16() },
    );
    let qnet = net.quantize(&synthetic_inputs(2, 1, spec.input));
    let inputs = synthetic_inputs(3, 4, spec.input);

    let mut scratch = Scratch::new();
    // Warm-up image: grows the arena and fills the lazy weight caches.
    let _ = qnet.forward_quant_scratch(&inputs[0], &mut scratch);
    let arena_bytes = scratch.capacity_bytes();

    // Allocating API (one already-warm image, so only per-layer tensors).
    let before = ALLOCS.load(Ordering::Relaxed);
    let _ = qnet.forward_quant(&inputs[1]);
    let allocating_per_image = ALLOCS.load(Ordering::Relaxed) - before;

    // Scratch arena steady state over the remaining images.
    let mut scratch_steady_per_image = 0;
    for input in &inputs[1..] {
        let before = ALLOCS.load(Ordering::Relaxed);
        let _ = qnet.forward_quant_scratch(input, &mut scratch);
        scratch_steady_per_image = (ALLOCS.load(Ordering::Relaxed) - before).max(scratch_steady_per_image);
    }

    AllocResult {
        allocating_per_image,
        scratch_steady_per_image,
        grow_events: scratch.grow_events(),
        arena_bytes,
    }
}

/// The scaled VGG-16 end-to-end workload shared by the driver benches.
fn vgg_workload(hw: usize) -> (QuantizedNetwork, Vec<Tensor<f32>>, AccelConfig) {
    let spec = vgg16_scaled_spec(hw);
    let net = Network::synthetic(
        spec.clone(),
        &SyntheticModelConfig { seed: 1, density: DensityProfile::deep_compression_vgg16() },
    );
    let qnet = net.quantize(&synthetic_inputs(2, 1, spec.input));
    let inputs = synthetic_inputs(5, 2, spec.input);
    (qnet, inputs, AccelConfig::for_variant(Variant::U256Opt))
}

/// Best-of-3 ms/image of `driver` over `inputs` on a warmed scratch,
/// returning the warm-up image's output for bit-identity checks.
fn drive_ms_per_image(
    driver: &Driver,
    qnet: &QuantizedNetwork,
    inputs: &[Tensor<f32>],
) -> (f64, Vec<zskip_quant::Sm8>) {
    let mut scratch = Scratch::new();
    // Warm-up image: grows the arena, the worker pool and the caches.
    let out = driver.run_network_scratch(qnet, &inputs[0], &mut scratch).expect("runs").output;
    let (s, ()) = time_best(|| {
        for input in inputs {
            driver.run_network_scratch(qnet, input, &mut scratch).expect("runs");
        }
    });
    (s * 1e3 / inputs.len() as f64, out)
}

fn bench_cpu_backend(
    qnet: &QuantizedNetwork,
    inputs: &[Tensor<f32>],
    config: AccelConfig,
) -> CpuBackendResult {
    let mut backends = Vec::new();
    let mut golden: Option<Vec<zskip_quant::Sm8>> = None;
    for backend in [BackendKind::Model, BackendKind::Cpu] {
        let driver = Driver::builder(config).backend(backend).build().unwrap();
        let (ms_per_image, out) = drive_ms_per_image(&driver, qnet, inputs);
        match &golden {
            None => golden = Some(out),
            Some(g) => assert_eq!(g, &out, "{backend}: backend diverged from model"),
        }
        backends.push(BackendTiming {
            backend: backend.name(),
            ms_per_image,
            images_per_s: 1e3 / ms_per_image,
        });
    }
    let per_s = |name: &str| {
        backends.iter().find(|b| b.backend == name).map(|b| b.images_per_s).unwrap_or(f64::NAN)
    };
    let cpu_speedup_vs_model = per_s("cpu") / per_s("model");
    CpuBackendResult { hw: 32, backends, cpu_speedup_vs_model }
}

fn bench_single_image(
    qnet: &QuantizedNetwork,
    inputs: &[Tensor<f32>],
    config: AccelConfig,
) -> SingleImageResult {
    // PR-5 path: re-pack weights per image, parse the scratchpad per
    // instruction, single-threaded conv.
    let baseline = Driver::builder(config)
        .backend(BackendKind::Cpu)
        .weight_cache(false)
        .threads(1)
        .build()
        .expect("valid config");
    // This PR's path: shared packed-weight cache, auto worker count.
    let optimized =
        Driver::builder(config).backend(BackendKind::Cpu).threads(0).build().expect("valid config");

    let mut base_scratch = Scratch::new();
    let mut opt_scratch = Scratch::new();
    let base_out =
        baseline.run_network_scratch(qnet, &inputs[0], &mut base_scratch).expect("runs").output;
    let opt_out =
        optimized.run_network_scratch(qnet, &inputs[0], &mut opt_scratch).expect("runs").output;
    assert_eq!(base_out, opt_out, "optimized cpu path diverged from the baseline");

    // Interleave the two configurations round by round so slow clock
    // drift (thermal / frequency throttling over a long bench run) hits
    // both equally instead of skewing the ratio.
    let mut baseline_ms = f64::INFINITY;
    let mut optimized_ms = f64::INFINITY;
    for _ in 0..3 {
        for (driver, scratch, best) in [
            (&baseline, &mut base_scratch, &mut baseline_ms),
            (&optimized, &mut opt_scratch, &mut optimized_ms),
        ] {
            let t0 = Instant::now();
            for input in inputs {
                driver.run_network_scratch(qnet, input, scratch).expect("runs");
            }
            *best = best.min(t0.elapsed().as_secs_f64() * 1e3 / inputs.len() as f64);
        }
    }
    SingleImageResult { baseline_ms, optimized_ms, speedup: baseline_ms / optimized_ms }
}

fn bench_intra_image(
    qnet: &QuantizedNetwork,
    inputs: &[Tensor<f32>],
    config: AccelConfig,
) -> IntraImageResult {
    let mut timings = Vec::new();
    let mut golden: Option<Vec<zskip_quant::Sm8>> = None;
    for workers in [1usize, 2, 4, 8] {
        let driver = Driver::builder(config)
            .backend(BackendKind::Cpu)
            .threads(workers)
            .build()
            .expect("valid config");
        let (ms_per_image, out) = drive_ms_per_image(&driver, qnet, inputs);
        match &golden {
            None => golden = Some(out),
            Some(g) => assert_eq!(g, &out, "{workers} workers: output diverged from 1 worker"),
        }
        timings.push(WorkerTiming { workers, ms_per_image });
    }
    let auto_workers = ConvPool::auto_threads();
    let ms_at = |w: usize| {
        timings
            .iter()
            .filter(|t| t.workers <= w)
            .min_by(|a, b| a.workers.cmp(&b.workers).reverse())
            .map(|t| t.ms_per_image)
            .unwrap_or(f64::NAN)
    };
    IntraImageResult {
        auto_workers,
        mt_vs_single: ms_at(auto_workers) / ms_at(1),
        timings,
        group_cache: weight_cache_stats(),
        tap_cache: tap_cache_stats(),
    }
}

fn bench_resnet_block() -> ResnetBlockResult {
    use zskip_core::rng::SplitMix64;
    use zskip_nn::eltwise::add_quant;
    use zskip_nn::gemm::conv2d_gemm_quant_tier_generic;
    use zskip_quant::{Requantizer, Sm8};

    // Bottleneck-reduce-like 1x1 projection: 256 channels down to 64,
    // the shape where the im2col copy is largest relative to the GEMM.
    let (out_c, in_c, hw, density) = (64usize, 256usize, 28usize, 0.45);
    let mut rng = SplitMix64::new(11);
    let w: Vec<Sm8> = (0..out_c * in_c)
        .map(|_| {
            let h = rng.next_u64();
            if (h >> 32) % 1000 < (density * 1000.0) as u64 {
                Sm8::from_i32_saturating(((h >> 17) % 253) as i32 - 126)
            } else {
                Sm8::ZERO
            }
        })
        .collect();
    let qw = zskip_nn::conv::QuantConvWeights::new(
        out_c,
        in_c,
        1,
        w,
        vec![0; out_c],
        Requantizer::from_ratio(1.0 / 64.0),
        false,
    );
    let input = Tensor::from_fn(in_c, hw, hw, |c, y, x| {
        Sm8::from_i32_saturating(((c * 31 + y * 7 + x) % 200) as i32 - 100)
    });
    let tier = zskip_nn::dispatch();

    let fast = conv2d_gemm_quant_tier(&input, &qw, 1, 0, tier);
    let generic = conv2d_gemm_quant_tier_generic(&input, &qw, 1, 0, tier);
    assert_eq!(fast, generic, "1x1 fast path diverged from the im2col lowering");

    // Interleave the two lowerings round by round so clock drift hits
    // both equally instead of skewing the ratio.
    const REPS: usize = 8;
    let mut generic_ms = f64::INFINITY;
    let mut pointwise_ms = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..REPS {
            let _ = conv2d_gemm_quant_tier_generic(&input, &qw, 1, 0, tier);
        }
        generic_ms = generic_ms.min(t0.elapsed().as_secs_f64() * 1e3 / REPS as f64);
        let t0 = Instant::now();
        for _ in 0..REPS {
            let _ = conv2d_gemm_quant_tier(&input, &qw, 1, 0, tier);
        }
        pointwise_ms = pointwise_ms.min(t0.elapsed().as_secs_f64() * 1e3 / REPS as f64);
    }

    // The residual join: quantized elementwise add of the branch outputs.
    let skip = Tensor::from_fn(out_c, hw, hw, |c, y, x| {
        Sm8::from_i32_saturating(((c * 13 + y * 5 + x * 3) % 200) as i32 - 100)
    });
    let (s, _) = time_best(|| {
        for _ in 0..REPS {
            let _ = add_quant(&fast, &skip, Requantizer::IDENTITY, Requantizer::IDENTITY, true);
        }
    });
    let add_ms = s * 1e3 / REPS as f64;

    ResnetBlockResult {
        out_c,
        in_c,
        hw,
        density,
        tier: tier.name().to_string(),
        generic_ms,
        pointwise_ms,
        pointwise_speedup: generic_ms / pointwise_ms,
        add_ms,
        add_overhead_vs_conv: add_ms / pointwise_ms,
    }
}

fn bench_setup() -> SetupResult {
    let auto_threads = ConvPool::auto_threads();
    let mut widths = vec![1, auto_threads];
    widths.dedup();
    let (mut network_digest, mut quantized_digest) = (0, 0);
    let mut digests_match = true;
    let timings = widths
        .into_iter()
        .map(|threads| {
            let (synth_s, net) = time_best(|| {
                let (spec, config) = setup::vgg16_reference();
                Network::synthetic_with_threads(spec, &config, threads)
            });
            let (quantize_s, qnet) = time_best(|| setup::quantize(&net));
            network_digest = setup::network_digest(&net);
            quantized_digest = setup::quantized_digest(&qnet);
            digests_match &= network_digest == setup::VGG16_NETWORK_DIGEST
                && quantized_digest == setup::VGG16_QUANTIZED_DIGEST;
            SetupTiming { threads, synth_ms: synth_s * 1e3, quantize_ms: quantize_s * 1e3 }
        })
        .collect();
    SetupResult { auto_threads, timings, network_digest, quantized_digest, digests_match }
}

fn render(bench: &Bench) -> String {
    let mut text = String::new();
    text.push_str(&format!(
        "SIMD kernel tiers (host: {}; dispatch: {})\n\n",
        bench.host_tiers.join(", "),
        bench.dispatch_tier
    ));
    text.push_str(&format!(
        "{:<14} {:>8} {:<8} {:>11} {:>9} {:>11} {:>9}\n",
        "layer", "density", "tier", "gemm ms", "speedup", "packed ms", "speedup"
    ));
    for s in &bench.shapes {
        for (g, p) in s.gemm.iter().zip(&s.packed) {
            text.push_str(&format!(
                "{:<14} {:>8.2} {:<8} {:>11.2} {:>8.2}x {:>11.2} {:>8.2}x\n",
                s.layer, s.density, g.tier, g.ms, g.speedup, p.ms, p.speedup
            ));
        }
    }
    text.push('\n');
    for s in &bench.shapes {
        text.push_str(&format!(
            "{}: best SIMD GEMM tier {} at {:.2}x over blocked scalar\n",
            s.layer, s.best_tier, s.best_gemm_speedup
        ));
    }
    let a = &bench.allocs;
    text.push_str(&format!(
        "\nallocations/image: {} (allocating API) -> {} (scratch arena, steady state)\n",
        a.allocating_per_image, a.scratch_steady_per_image
    ));
    text.push_str(&format!(
        "arena: {} grow event(s), {} KiB footprint after warm-up\n",
        a.grow_events,
        a.arena_bytes / 1024
    ));
    let c = &bench.cpu_backend;
    text.push_str(&format!("\ndriver backends (vgg16-{}, bit-identical outputs):\n", c.hw));
    for b in &c.backends {
        text.push_str(&format!(
            "  {:<6} {:>8.2} ms/image  {:>7.2} images/s\n",
            b.backend, b.ms_per_image, b.images_per_s
        ));
    }
    text.push_str(&format!("  cpu backend at {:.2}x model throughput\n", c.cpu_speedup_vs_model));
    let si = &bench.single_image;
    text.push_str(&format!(
        "\nsingle image (cpu backend): {:.2} ms baseline (re-pack per image, 1 thread) -> {:.2} ms optimized (shared cache, auto threads): {:.2}x\n",
        si.baseline_ms, si.optimized_ms, si.speedup
    ));
    let ii = &bench.intra_image;
    text.push_str(&format!("\nintra-image workers (auto = {}):\n", ii.auto_workers));
    for t in &ii.timings {
        text.push_str(&format!("  {:>2} workers {:>8.2} ms/image\n", t.workers, t.ms_per_image));
    }
    text.push_str(&format!(
        "  group cache: {} entries, {} hits / {} misses, {} KiB; tap cache: {} entries, {} hits / {} misses, {} KiB\n",
        ii.group_cache.entries,
        ii.group_cache.hits,
        ii.group_cache.misses,
        ii.group_cache.bytes / 1024,
        ii.tap_cache.entries,
        ii.tap_cache.hits,
        ii.tap_cache.misses,
        ii.tap_cache.bytes / 1024,
    ));
    let rb = &bench.resnet_block;
    text.push_str(&format!(
        "\nresnet block (1x1 projection {}->{} @ {}x{}, tier {}):\n",
        rb.in_c, rb.out_c, rb.hw, rb.hw, rb.tier
    ));
    text.push_str(&format!(
        "  generic im2col {:.3} ms -> pointwise fast path {:.3} ms ({:.2}x)\n",
        rb.generic_ms, rb.pointwise_ms, rb.pointwise_speedup
    ));
    text.push_str(&format!(
        "  residual add {:.3} ms ({:.2}x of the 1x1 conv)\n",
        rb.add_ms, rb.add_overhead_vs_conv
    ));
    let su = &bench.setup;
    text.push_str(&format!("\nset-up (vgg16-32, auto = {} threads):\n", su.auto_threads));
    for t in &su.timings {
        text.push_str(&format!(
            "  {:>2} threads: synthesize {:>8.1} ms, quantize {:>7.1} ms\n",
            t.threads, t.synth_ms, t.quantize_ms
        ));
    }
    text.push_str(&format!(
        "  digests: network {:#018x}, quantized {:#018x} ({})\n",
        su.network_digest,
        su.quantized_digest,
        if su.digests_match { "match the pinned values" } else { "DIFFER from the pinned values" }
    ));
    text
}

/// `--check` policy: every SIMD tier must beat scalar on every reference
/// shape for both kernels, and steady state must not allocate.
fn check(bench: &Bench) -> Result<(), String> {
    for s in &bench.shapes {
        for t in s.gemm.iter().chain(&s.packed).filter(|t| t.tier != "scalar") {
            if t.speedup < 1.0 {
                return Err(format!(
                    "{}: tier {} is {:.2}x vs scalar (slower)",
                    s.layer, t.tier, t.speedup
                ));
            }
        }
    }
    if bench.allocs.scratch_steady_per_image != 0 {
        return Err(format!(
            "steady-state forward pass performed {} allocations",
            bench.allocs.scratch_steady_per_image
        ));
    }
    if bench.cpu_backend.cpu_speedup_vs_model < 1.0 {
        return Err(format!(
            "cpu backend is slower than the model backend's functional sweep ({:.2}x)",
            bench.cpu_backend.cpu_speedup_vs_model
        ));
    }
    if bench.single_image.speedup < 2.0 {
        return Err(format!(
            "single-image cpu speedup is {:.2}x vs the re-pack-per-image baseline (need >= 2x)",
            bench.single_image.speedup
        ));
    }
    // Auto-width multithreading must not be worse than single-threaded
    // (10% tolerance for timer noise; on a single-core host auto == 1 and
    // this compares a config with itself).
    if bench.intra_image.mt_vs_single > 1.10 {
        return Err(format!(
            "multithreaded single-image latency regressed: {:.2}x the single-threaded latency",
            bench.intra_image.mt_vs_single
        ));
    }
    if !bench.setup.digests_match {
        return Err(format!(
            "set-up output changed: network digest {:#018x}, quantized digest {:#018x} (pinned {:#018x}, {:#018x})",
            bench.setup.network_digest,
            bench.setup.quantized_digest,
            setup::VGG16_NETWORK_DIGEST,
            setup::VGG16_QUANTIZED_DIGEST
        ));
    }
    if bench.resnet_block.pointwise_speedup < 1.0 {
        return Err(format!(
            "1x1 pointwise fast path is {:.2}x vs the generic im2col lowering (must not be slower)",
            bench.resnet_block.pointwise_speedup
        ));
    }
    Ok(())
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");
    let (qnet, inputs, config) = vgg_workload(32);
    let bench = Bench {
        host_tiers: KernelTier::supported().iter().map(|t| t.name().to_string()).collect(),
        dispatch_tier: zskip_nn::dispatch().name().to_string(),
        shapes: bench_shapes(),
        allocs: bench_allocs(),
        cpu_backend: bench_cpu_backend(&qnet, &inputs, config),
        single_image: bench_single_image(&qnet, &inputs, config),
        intra_image: bench_intra_image(&qnet, &inputs, config),
        resnet_block: bench_resnet_block(),
        setup: bench_setup(),
        conv3_2_gemm_speedup: 0.0,
    };
    let conv3_2 = bench
        .shapes
        .iter()
        .find(|s| s.layer == "conv3_2-like")
        .map(|s| s.best_gemm_speedup)
        .unwrap_or(0.0);
    let bench = Bench { conv3_2_gemm_speedup: conv3_2, ..bench };

    let text = render(&bench);
    print!("{text}");

    write_artifacts("kernel_bench", &text, &bench);
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::write(root.join("BENCH_kernels.json"), zskip_json::to_string_pretty(&bench))
        .expect("write BENCH_kernels.json");

    if check_mode {
        if let Err(msg) = check(&bench) {
            eprintln!("kernel_bench --check FAILED: {msg}");
            std::process::exit(1);
        }
        println!("kernel_bench --check OK");
    }
}
