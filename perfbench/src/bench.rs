//! The workloads and the phases that measure them.
//!
//! Everything here calls the public library API (`Network::synthetic`,
//! `Network::quantize`, `Session`, `ServeEngine`, `Driver::conv_pass`)
//! and checks every output against `QuantizedNetwork::forward_quant`,
//! which is computed outside every timed region.

use std::hint::black_box;
use std::process::Command;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use zskip_core::serve::{ServeEngine, ServeHandle, ServeReply};
use zskip_core::tune::TunedConfig;
use zskip_core::{weight_cache_stats, BackendKind, InferenceReport, Session, SessionBuilder, SocHandle};
use zskip_nn::conv::tap_cache_stats;
use zskip_nn::eval::synthetic_inputs;
use zskip_nn::gemm::{conv2d_gemm_quant_pool, conv2d_gemm_quant_tier};
use zskip_nn::model::{Network, QuantizedConvLayer, QuantizedNetwork, SyntheticModelConfig};
use zskip_nn::{LayerSpec, NetworkSpec, Scratch};
use zskip_quant::{DensityProfile, Sm8};
use zskip_tensor::{Tensor, TiledFeatureMap};

use crate::host;
use crate::stats::{min_samples_for_tail, open_loop, Outcome, Samples, Tally, TAIL_Q};
use crate::trace::Tracer;

/// Weight seed of every network, as in the CLI.
const WEIGHT_SEED: u64 = 1;
/// Calibration-input seed of `Network::quantize`, as in the CLI.
const CALIB_SEED: u64 = 2;
/// Images per `run_batch` call (the CLI's default `max_batch`).
const BATCH: usize = 8;
/// Serve rates of the per-layer serve probes, requests per second.
const PROBE_RATES: [u32; 2] = [8, 16];
/// Rounds an untraced run's window is cut into.
const ROUNDS: usize = 4;
/// Cycle-backend images in the traced run.
const TRACED_CYCLE_IMAGES: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    Vgg16,
    Resnet18,
}

impl Net {
    fn spec(self) -> NetworkSpec {
        match self {
            Net::Vgg16 => zskip_nn::vgg16::vgg16_scaled_spec(32),
            Net::Resnet18 => {
                let text = std::fs::read_to_string("specs/resnet18.json")
                    .unwrap_or_else(|e| panic!("reading specs/resnet18.json: {e}"));
                NetworkSpec::from_json(&text).unwrap_or_else(|e| panic!("specs/resnet18.json: {e}"))
            }
        }
    }

    fn density(self, convs: usize) -> DensityProfile {
        match self {
            Net::Vgg16 => DensityProfile::deep_compression_vgg16(),
            Net::Resnet18 => DensityProfile::uniform(convs, 0.35),
        }
    }

    /// Distinct inputs per run; requests cycle through them so the golden
    /// outputs stay cheap to compute.
    fn input_pool(self) -> usize {
        match self {
            Net::Vgg16 => 4,
            Net::Resnet18 => 16,
        }
    }

    /// How many times set-up runs per untraced run (this process plus
    /// fresh child processes, so every sample starts on cold caches).
    fn setup_samples(self) -> usize {
        match self {
            Net::Vgg16 => 5,
            Net::Resnet18 => 9,
        }
    }

    /// Repetitions of each per-image probe in the traced run.
    fn probe_reps(self) -> usize {
        match self {
            Net::Vgg16 => 3,
            Net::Resnet18 => 9,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub net: Net,
    /// Open-loop rate through `ServeEngine`; `None` is the offline
    /// closed loop plus `run_batch`.
    pub rate: Option<u32>,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload { name: "vgg16-offline", net: Net::Vgg16, rate: None },
    Workload { name: "resnet18-serve", net: Net::Resnet18, rate: Some(8) },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }
}

/// What a run prints: the correctness tally and its metrics, in order.
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn new() -> Report {
        Report { tally: Tally::default(), metrics: Vec::new() }
    }

    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }
}

/// The CLI's session defaults (threads 0, workers 0, `max_batch` 8, 2 ms
/// window, queue 64, the 256-opt variant) on `backend`.
fn session(backend: BackendKind) -> SessionBuilder {
    TunedConfig { threads: 0, backend, ..TunedConfig::default() }.session()
}

fn build(builder: SessionBuilder) -> Session {
    builder.build().unwrap_or_else(|e| panic!("session: {e}"))
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn median(s: &Samples) -> f64 {
    s.median().unwrap_or(f64::NAN)
}

fn tail(s: &Samples) -> f64 {
    s.tail().unwrap_or(f64::NAN)
}

/// A network ready to serve: quantized weights, a cpu session and, for a
/// serve workload, a running engine.
struct Ready {
    qnet: Arc<QuantizedNetwork>,
    session: Session,
    engine: Option<ServeEngine>,
    setup_ms: f64,
}

/// Synthesis, quantization, session build (and engine start).
fn setup(net: Net, serve: bool, t: &mut Tracer) -> Ready {
    let start = Instant::now();
    let (qnet, session, engine) = t.span("setup", None, |t| {
        let net_ = t.span("nn.synth", None, |_| {
            let spec = net.spec();
            let convs = spec.layers.iter().filter(|l| matches!(l, LayerSpec::Conv { .. })).count();
            let density = net.density(convs);
            Network::synthetic(spec, &SyntheticModelConfig { seed: WEIGHT_SEED, density })
        });
        let qnet = t.span("nn.quantize", None, |_| net_.quantize(&synthetic_inputs(CALIB_SEED, 1, net_.spec.input)));
        drop(net_);
        let qnet = Arc::new(qnet);
        let session = t.span("exec.session_build", None, |_| build(session(BackendKind::Cpu)));
        let engine =
            serve.then(|| t.span("serve.start", None, |_| ServeEngine::start(session.clone(), Arc::clone(&qnet))));
        (qnet, session, engine)
    });
    Ready { qnet, session, engine, setup_ms: ms_since(start) }
}

/// Submits one request and waits for its reply.
fn serve_one(handle: &ServeHandle, input: &Tensor<f32>) -> Result<InferenceReport, zskip_core::Error> {
    let (tx, rx) = mpsc::channel();
    handle.submit("first", input.clone(), tx)?;
    rx.recv().expect("an accepted request always completes").result
}

/// The first request on cold weight/tap caches: (ms, report).
fn first_request(
    ready: &Ready,
    input: &Tensor<f32>,
    scratch: &mut Scratch,
    t: &mut Tracer,
) -> (f64, Result<InferenceReport, zskip_core::Error>) {
    let start = Instant::now();
    let r = t.span("first_request", Some(0), |_| match &ready.engine {
        Some(engine) => serve_one(&engine.handle(), input),
        None => ready.session.infer_scratch(&ready.qnet, input, scratch),
    });
    (ms_since(start), r)
}

fn check(tally: &mut Tally, r: &Result<InferenceReport, zskip_core::Error>, golden: &[Sm8]) -> bool {
    let outcome = match r {
        Ok(rep) if rep.output == golden => Outcome::Ok,
        Ok(_) => Outcome::Mismatch,
        Err(_) => Outcome::Error,
    };
    tally.record(outcome);
    outcome == Outcome::Ok
}

/// One fresh process's sample, run by the parent as `--setup-probe`:
/// set-up and the first request on cold caches. Prints one line,
/// `probe <setup_ms> <first_ms> <ok> <output>`, where `<output>` is the
/// first request's output in hex (`-` if it failed), for the parent to
/// check against its golden output.
pub fn setup_probe(w: Workload, seed: u64) {
    let mut t = Tracer::new(false);
    let ready = setup(w.net, w.rate.is_some(), &mut t);
    let input = synthetic_inputs(seed, 1, ready.qnet.spec.input).pop().expect("one input");
    let (first_ms, r) = first_request(&ready, &input, &mut Scratch::new(), &mut t);
    if let Some(engine) = ready.engine {
        engine.join();
    }
    let output = r.as_ref().map_or("-".to_string(), |rep| hex(&rep.output));
    println!("probe {} {first_ms} {} {output}", ready.setup_ms, r.is_ok());
}

fn hex(output: &[Sm8]) -> String {
    output.iter().map(|v| format!("{:02x}", v.to_bits())).collect()
}

/// Cold-process samples gathered over a run.
#[derive(Default)]
struct ColdSamples {
    setup_s: Samples,
    first_ms: Samples,
}

impl ColdSamples {
    /// Runs `n` `--setup-probe` children one after another, waiting for
    /// each, adds their samples and checks their first output against
    /// `golden`.
    fn sample(&mut self, w: Workload, seed: u64, n: usize, golden: &[Sm8], tally: &mut Tally) {
        for _ in 0..n {
            let probe = std::env::current_exe().ok().and_then(|exe| {
                let args = ["--workload", w.name, "--seed", &seed.to_string(), "--setup-probe"];
                Command::new(exe).args(args).output().ok()
            });
            let text = probe.map(|out| String::from_utf8_lossy(&out.stdout).into_owned()).unwrap_or_default();
            let line = text.lines().find_map(|l| l.strip_prefix("probe ")).unwrap_or_default();
            match line.split_whitespace().collect::<Vec<_>>()[..] {
                [setup_ms, first_ms, ok, output] => match (setup_ms.parse::<f64>(), first_ms.parse::<f64>()) {
                    (Ok(setup_ms), Ok(first_ms)) => {
                        self.setup_s.push(setup_ms / 1e3);
                        self.first_ms.push(first_ms);
                        tally.record(match (ok, output == hex(golden)) {
                            ("true", true) => Outcome::Ok,
                            ("true", false) => Outcome::Mismatch,
                            _ => Outcome::Error,
                        });
                    }
                    _ => tally.record(Outcome::Error),
                },
                _ => tally.record(Outcome::Error),
            }
        }
    }
}

/// Inputs from `--seed` and their golden outputs.
struct Inputs {
    images: Vec<Tensor<f32>>,
    golden: Vec<Vec<Sm8>>,
}

impl Inputs {
    fn new(qnet: &QuantizedNetwork, net: Net, seed: u64) -> Inputs {
        let images = synthetic_inputs(seed, net.input_pool(), qnet.spec.input);
        let golden = images.iter().map(|x| qnet.forward_quant(x)).collect();
        Inputs { images, golden }
    }

    fn get(&self, i: usize) -> (&Tensor<f32>, &[Sm8]) {
        let k = i % self.images.len();
        (&self.images[k], &self.golden[k])
    }
}

/// What the traffic of an untraced run produced, over all its rounds.
#[derive(Default)]
struct Traffic {
    /// Per-request latency in ms; in an open loop, from the due time.
    latency: Samples,
    /// Simulated cycles of every report.
    cycles: Samples,
    /// Requests sent so far: the index of the next one.
    sent: usize,
}

/// A single-client closed loop of at least `requests` requests and at
/// least `min` long.
fn closed_loop(
    ready: &Ready,
    inputs: &Inputs,
    scratch: &mut Scratch,
    (requests, min): (usize, Duration),
    traffic: &mut Traffic,
    tally: &mut Tally,
    t: &mut Tracer,
) {
    let end = traffic.sent + requests;
    let start = Instant::now();
    while traffic.sent < end || start.elapsed() < min {
        let i = traffic.sent;
        let (x, golden) = inputs.get(i);
        let t0 = Instant::now();
        let r = t.span("exec.request", Some(i as u64), |_| ready.session.infer_scratch(&ready.qnet, x, scratch));
        let ms = ms_since(t0);
        if check(tally, &r, golden) {
            traffic.latency.push(ms);
        }
        if let Ok(rep) = r {
            traffic.cycles.push(rep.total_cycles as f64);
        }
        traffic.sent += 1;
    }
}

/// What `run_batch` gave over its repetitions.
#[derive(Default)]
struct BatchRun {
    images_per_s: Samples,
    workers: usize,
    steals: u64,
}

/// `Session::run_batch` on a fixed batch, at least once and for at least
/// `min`.
fn batch_phase(
    session: &Session,
    qnet: &QuantizedNetwork,
    inputs: &Inputs,
    min: Duration,
    run: &mut BatchRun,
    tally: &mut Tally,
    t: &mut Tracer,
) {
    let batch: Vec<Tensor<f32>> = (0..BATCH).map(|i| inputs.get(i).0.clone()).collect();
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let r = t.span("batch.run", None, |_| session.run_batch(qnet, &batch));
        let secs = t0.elapsed().as_secs_f64();
        match r {
            Ok(b) => {
                for (i, report) in b.reports.iter().enumerate() {
                    let ok = report.output == inputs.get(i).1;
                    tally.record(if ok { Outcome::Ok } else { Outcome::Mismatch });
                }
                run.images_per_s.push(BATCH as f64 / secs);
                run.workers = b.workers;
                run.steals = b.steals;
            }
            Err(_) => (0..BATCH).for_each(|_| tally.record(Outcome::Error)),
        }
        if start.elapsed() >= min {
            break;
        }
    }
}

/// One open loop through a serve engine.
struct ServeRun {
    /// Latency from each request's due time to its completion, ms.
    latency: Samples,
    queue_ms: Samples,
    batch_ms: Samples,
    batch_size: Samples,
    /// How late the generator submitted each request, ms.
    gen_late: Samples,
    rejected: u64,
    cycles: Samples,
    served: usize,
    /// From the first due time to the last completion.
    secs: f64,
}

/// Offers `n` requests, numbered from `first`, at `rate` per second on an
/// absolute schedule. Latency counts from the due time, so a generator
/// that falls behind cannot hide queueing; a rejected request counts as
/// failed.
fn open_loop_phase(
    handle: &ServeHandle,
    inputs: &Inputs,
    rate: u32,
    (first, n): (usize, usize),
    tally: &mut Tally,
    t: &mut Tracer,
) -> ServeRun {
    type Done = (usize, Instant, Instant, ServeReply);
    let (tx, rx) = mpsc::channel::<Done>();
    let start = Instant::now() + Duration::from_millis(5);
    let (submits, replies) = std::thread::scope(|s| {
        let generator = s.spawn(move || {
            let mut submits = Vec::with_capacity(n);
            open_loop(n, f64::from(rate), start, |k, due| {
                let i = first + k;
                let input = inputs.get(i).0.clone();
                let tx = tx.clone();
                let submitted = Instant::now();
                let r = handle.submit_with(
                    i.to_string(),
                    input,
                    Box::new(move |reply| drop(tx.send((i, due, Instant::now(), reply)))),
                );
                submits.push((i, due, submitted, r.is_ok()));
            });
            submits
        });
        // Every accepted request's completion holds a sender, so this
        // ends once the generator is done and every reply is in.
        let replies: Vec<Done> = rx.iter().collect();
        (generator.join().expect("generator thread"), replies)
    });
    let mut run = ServeRun {
        latency: Samples::new(),
        queue_ms: Samples::new(),
        batch_ms: Samples::new(),
        batch_size: Samples::new(),
        gen_late: Samples::new(),
        rejected: 0,
        cycles: Samples::new(),
        served: 0,
        secs: 0.0,
    };
    for &(i, due, submitted, accepted) in &submits {
        run.gen_late.push((submitted - due).as_secs_f64() * 1e3);
        t.record("serve.submit", Some(i as u64), due, submitted);
        if !accepted {
            tally.record(Outcome::Rejected);
            run.rejected += 1;
        }
    }
    let mut last = start;
    for (i, due, done, reply) in replies {
        t.record("serve.request", Some(i as u64), due, done);
        if check(tally, &reply.result, inputs.get(i).1) {
            run.latency.push((done - due).as_secs_f64() * 1e3);
            run.served += 1;
        }
        if let Ok(rep) = &reply.result {
            run.cycles.push(rep.total_cycles as f64);
        }
        run.queue_ms.push(reply.stats.queue_us as f64 / 1e3);
        run.batch_ms.push(reply.stats.batch_us as f64 / 1e3);
        run.batch_size.push(reply.stats.batch_size as f64);
        last = last.max(done);
    }
    run.secs = (last - start).as_secs_f64();
    run
}

/// Requests an open loop offers in a run of `seconds`: enough for a p90
/// with ten samples beyond it.
fn open_loop_requests(rate: u32, seconds: f64) -> usize {
    ((f64::from(rate) * seconds).ceil() as usize).max(min_samples_for_tail(TAIL_Q))
}

/// The Model backend on one image: its output must match the golden
/// output, and its cycles the cpu backend's, layer by layer.
fn model_gate(
    ready: &Ready,
    inputs: &Inputs,
    cpu: &InferenceReport,
    tally: &mut Tally,
    t: &mut Tracer,
) -> InferenceReport {
    let (x, golden) = inputs.get(0);
    let r = t.span("exec.model", Some(0), |_| build(session(BackendKind::Model)).infer(&ready.qnet, x));
    check(tally, &r, golden);
    let rep = r.unwrap_or_else(|e| panic!("model backend: {e}"));
    let cycles = |r: &InferenceReport| r.layers.iter().map(|l| l.stats.total_cycles).collect::<Vec<_>>();
    tally.check(cycles(&rep) == cycles(cpu) && rep.total_cycles == cpu.total_cycles);
    rep
}

/// The cycle-accurate simulator's images over a run.
#[derive(Default)]
struct SimRun {
    host_ms: Samples,
    mcycles_per_s: Samples,
    cycles: Samples,
    sent: usize,
}

/// `images` more images on the cycle backend.
fn cycle_phase(
    session: &Session,
    qnet: &QuantizedNetwork,
    inputs: &Inputs,
    images: usize,
    run: &mut SimRun,
    tally: &mut Tally,
    t: &mut Tracer,
) {
    for _ in 0..images {
        let (x, golden) = inputs.get(run.sent);
        let t0 = Instant::now();
        let r = t.span("sim.cycle", Some(run.sent as u64), |_| session.infer(qnet, x));
        let secs = t0.elapsed().as_secs_f64();
        check(tally, &r, golden);
        if let Ok(rep) = r {
            run.host_ms.push(secs * 1e3);
            run.mcycles_per_s.push(rep.total_cycles as f64 / secs / 1e6);
            run.cycles.push(rep.total_cycles as f64);
        }
        run.sent += 1;
    }
}

/// Simulated cycles are value-independent: they must be the same for
/// every image.
fn same_cycles(cycles: &Samples, tally: &mut Tally) -> f64 {
    let (lo, hi) = (cycles.quantile(0.0), cycles.quantile(1.0));
    tally.check(lo == hi && lo.is_some());
    lo.unwrap_or(f64::NAN)
}

/// The untraced run: every end-to-end metric. The measured window is cut
/// into rounds; every round runs a share of the traffic and then a share
/// of the cold-process samples, so that every metric samples the whole
/// run rather than one part of it.
pub fn untraced(w: Workload, seed: u64, seconds: f64) -> Report {
    let mut rep = Report::new();
    let mut t = Tracer::new(false);
    let ready = setup(w.net, w.rate.is_some(), &mut t);
    let first_input = synthetic_inputs(seed, 1, ready.qnet.spec.input).pop().expect("one input");
    let mut scratch = Scratch::new();
    let (first_ms, first) = first_request(&ready, &first_input, &mut scratch, &mut t);
    let mut cold = ColdSamples::default();
    cold.setup_s.push(ready.setup_ms / 1e3);
    cold.first_ms.push(first_ms);
    let inputs = Inputs::new(&ready.qnet, w.net, seed);
    check(&mut rep.tally, &first, &inputs.golden[0]);
    let first = first.unwrap_or_else(|e| panic!("first request: {e}"));

    let rounds = ROUNDS;
    let children = w.net.setup_samples() - 1;
    let children_after = |r: usize| children * (r + 1) / rounds - children * r / rounds;
    let mut traffic = Traffic::default();
    let images_per_s = match (w.rate, &ready.engine) {
        (Some(rate), Some(engine)) => {
            let per_round = open_loop_requests(rate, seconds).div_ceil(rounds);
            let (mut served, mut secs) = (0, 0.0);
            for r in 0..rounds {
                let run =
                    open_loop_phase(&engine.handle(), &inputs, rate, (traffic.sent, per_round), &mut rep.tally, &mut t);
                traffic.sent += per_round;
                traffic.latency.extend(&run.latency);
                traffic.cycles.extend(&run.cycles);
                (served, secs) = (served + run.served, secs + run.secs);
                cold.sample(w, seed, children_after(r), &inputs.golden[0], &mut rep.tally);
            }
            served as f64 / secs
        }
        _ => {
            let batch_session = build(session(BackendKind::Cpu).batch_workers(host::nproc()));
            let mut batch = BatchRun::default();
            let round = Duration::from_secs_f64(seconds / rounds as f64);
            let per_round = min_samples_for_tail(TAIL_Q).div_ceil(rounds);
            for r in 0..rounds {
                let closed = (per_round, round.mul_f64(0.7));
                closed_loop(&ready, &inputs, &mut scratch, closed, &mut traffic, &mut rep.tally, &mut t);
                batch_phase(
                    &batch_session,
                    &ready.qnet,
                    &inputs,
                    round.mul_f64(0.3),
                    &mut batch,
                    &mut rep.tally,
                    &mut t,
                );
                cold.sample(w, seed, children_after(r), &inputs.golden[0], &mut rep.tally);
            }
            median(&batch.images_per_s)
        }
    };
    let sim_cycles = same_cycles(&traffic.cycles, &mut rep.tally);
    model_gate(&ready, &inputs, &first, &mut rep.tally, &mut t);
    if let Some(engine) = ready.engine {
        engine.join();
    }

    rep.put("setup_s", median(&cold.setup_s), "s");
    rep.put("first_image_ms", median(&cold.first_ms), "ms");
    rep.put("latency_p50_ms", median(&traffic.latency), "ms");
    // The tail is printed but not gated: on a shared host it moved by up
    // to a third between two sets of ten runs (see README.md).
    eprintln!("  latency p90 {:.3} ms over {} requests (not gated)", tail(&traffic.latency), traffic.latency.len());
    rep.put("images_per_s", images_per_s, "1/s");
    rep.put("sim_cycles_per_image", sim_cycles, "cycles");
    rep.put("peak_rss_mb", host::peak_rss_mib().unwrap_or(f64::NAN), "MiB");
    rep
}

fn median_of(t: &Tracer, name: &str) -> f64 {
    let mut s = Samples::new();
    t.durations_ms(name).for_each(|v| s.push(v));
    median(&s)
}

/// The traced run: every per-layer metric, from spans around the
/// benchmark's calls into each layer.
pub fn traced(w: Workload, seed: u64) -> Report {
    let mut rep = Report::new();
    let mut t = Tracer::new(true);
    let ready = setup(w.net, w.rate.is_some(), &mut t);
    rep.put("nn.synth_ms", median_of(&t, "nn.synth"), "ms");
    rep.put("nn.quantize_ms", median_of(&t, "nn.quantize"), "ms");
    let inputs = Inputs::new(&ready.qnet, w.net, seed);
    let mut scratch = Scratch::new();
    let (_, first) = first_request(&ready, inputs.get(0).0, &mut scratch, &mut t);
    check(&mut rep.tally, &first, inputs.get(0).1);
    let (taps, groups) = (tap_cache_stats(), weight_cache_stats());

    // Per-image probes on the workload's network, interleaved so that
    // host drift hits each of them alike.
    let tier = ready.session.kernel_tier();
    let mut fwd = Scratch::with_tier(tier);
    fwd.set_threads(ready.session.driver().threads);
    let layers = conv_inputs(&ready.qnet, seed);
    let stats_session = build(session(BackendKind::Model).functional(false));
    let mut stats_scratch = Scratch::new();
    let batch_session = build(session(BackendKind::Cpu).batch_workers(host::nproc()));
    let mut batch = BatchRun::default();
    let (x, golden) = inputs.get(0);
    let (mut cpu, mut stats) = (None, None);
    for i in 0..w.net.probe_reps() as u64 {
        let ok = t.span("nn.forward", Some(i), |_| ready.qnet.forward_quant_scratch(x, &mut fwd) == golden);
        rep.tally.record(if ok { Outcome::Ok } else { Outcome::Mismatch });
        t.span("nn.kernel", Some(i), |_| {
            for (layer, _, x) in &layers {
                black_box(match fwd.pool() {
                    Some(pool) => conv2d_gemm_quant_pool(x, &layer.weights, 1, 0, tier, pool),
                    None => conv2d_gemm_quant_tier(x, &layer.weights, 1, 0, tier),
                });
            }
        });
        let r = t.span("exec.cpu", Some(i), |_| ready.session.infer_scratch(&ready.qnet, x, &mut scratch));
        check(&mut rep.tally, &r, golden);
        cpu = Some(r.unwrap_or_else(|e| panic!("cpu backend: {e}")));
        let r = t.span("exec.stats", Some(i), |_| stats_session.infer_scratch(&ready.qnet, x, &mut stats_scratch));
        stats = Some(r.unwrap_or_else(|e| panic!("stats-only session: {e}")));
        batch_phase(&batch_session, &ready.qnet, &inputs, Duration::ZERO, &mut batch, &mut rep.tally, &mut t);
    }
    let (cpu, stats) = (cpu.expect("probe_reps > 0"), stats.expect("probe_reps > 0"));
    let (forward_ms, kernel_ms) = (median_of(&t, "nn.forward"), median_of(&t, "nn.kernel"));
    let (cpu_ms, stats_ms) = (median_of(&t, "exec.cpu"), median_of(&t, "exec.stats"));
    rep.tally.check(stats.total_cycles == cpu.total_cycles);
    let model = model_gate(&ready, &inputs, &cpu, &mut rep.tally, &mut t);
    let model_ms = median_of(&t, "exec.model");
    let mut sim = SimRun::default();
    let cycle = build(session(BackendKind::Cycle));
    cycle_phase(&cycle, &ready.qnet, &inputs, TRACED_CYCLE_IMAGES, &mut sim, &mut rep.tally, &mut t);
    let cycle_cycles = same_cycles(&sim.cycles, &mut rep.tally);

    // Tracing overhead: the same closed loop, alternating untraced and
    // traced requests so drift hits both alike.
    let (mut plain, mut spanned) = (Samples::new(), Samples::new());
    for i in 0..2 * w.net.probe_reps() {
        let (x, golden) = inputs.get(i);
        let t0 = Instant::now();
        let r = if i % 2 == 0 {
            ready.session.infer_scratch(&ready.qnet, x, &mut scratch)
        } else {
            t.span("trace.request", Some(i as u64), |_| ready.session.infer_scratch(&ready.qnet, x, &mut scratch))
        };
        let ms = ms_since(t0);
        check(&mut rep.tally, &r, golden);
        if i % 2 == 0 {
            plain.push(ms)
        } else {
            spanned.push(ms)
        }
    }

    rep.put("nn.forward_ms", forward_ms, "ms");
    rep.put("exec.cpu_ms", cpu_ms, "ms");
    rep.put("exec.stats_ms", stats_ms, "ms");
    rep.put("nn.kernel_ms", kernel_ms, "ms");
    rep.put("exec.host_ms", cpu_ms - stats_ms - kernel_ms, "ms");
    rep.put("exec.model_ms", model_ms, "ms");
    rep.put("quant.tap_cache.hits", taps.hits as f64, "count");
    rep.put("quant.tap_cache.misses", taps.misses as f64, "count");
    rep.put("exec.weight_cache.hits", groups.hits as f64, "count");
    rep.put("exec.weight_cache.misses", groups.misses as f64, "count");
    let workers = batch.workers.max(1) as f64;
    rep.put("batch.workers", workers, "count");
    rep.put("batch.steals", batch.steals as f64, "count");
    rep.put("batch.efficiency", median(&batch.images_per_s) * cpu_ms / (1000.0 * workers), "ratio");
    rep.put("sim.host_ms_per_image", median(&sim.host_ms), "ms");
    rep.put("sim.mcycles_per_s", median(&sim.mcycles_per_s), "Mcycles/s");
    rep.put("sim.model_gap", (model.total_cycles as f64 - cycle_cycles) / cycle_cycles, "ratio");
    rep.put("soc.ddr_mib_per_image", cpu.ddr_bytes as f64 / f64::from(1 << 20), "MiB");

    layer_table(w, &ready, seed, &mut rep, &mut t);
    serve_probes(w, &ready, seed, &mut rep, &mut t);
    if let Some(engine) = ready.engine {
        engine.join();
    }
    rep.put("trace.overhead_frac", median(&spanned) / median(&plain) - 1.0, "ratio");
    write_trace(w, seed, &t);
    rep
}

/// Every conv layer of `qnet` with its spec and a padded input of the
/// layer's shape (values from `seed`; the kernels' work and the simulated
/// cycles do not depend on activation values).
fn conv_inputs(qnet: &QuantizedNetwork, seed: u64) -> Vec<(&QuantizedConvLayer, &LayerSpec, Tensor<Sm8>)> {
    let shapes = qnet.spec.shapes().expect("the network's shapes propagate");
    let salt = seed as usize;
    qnet.conv
        .iter()
        .map(|layer| {
            let spec = &qnet.spec.layers[layer.layer_index];
            let LayerSpec::Conv { pad, .. } = spec else { unreachable!("conv weights belong to a conv layer") };
            let s = shapes[layer.layer_index];
            let x = Tensor::from_fn(s.c, s.h, s.w, |c, y, x| {
                Sm8::from_i32_saturating((((c * 31 + y * 7 + x) ^ salt) % 200) as i32 - 100)
            });
            (layer, spec, x.padded(*pad))
        })
        .collect()
}

/// VGG-16's conv layers one at a time through `Driver::conv_pass` on the
/// cpu and stats-only drivers: host ms next to simulated cycles and
/// effective GOPS (the paper's Figs. 7-8).
fn layer_table(w: Workload, ready: &Ready, seed: u64, rep: &mut Report, t: &mut Tracer) {
    let vgg = match w.net {
        Net::Vgg16 => Arc::clone(&ready.qnet),
        Net::Resnet18 => t.span("layers.setup", None, |t| setup(Net::Vgg16, false, t).qnet),
    };
    let shapes = vgg.spec.shapes().expect("VGG-16 shapes propagate");
    let cpu = build(session(BackendKind::Cpu));
    let stats = build(session(BackendKind::Model).functional(false));
    let cycle_s = stats.driver().config.cycle_seconds();
    for (layer, spec, input) in conv_inputs(&vgg, seed) {
        let name = spec.name();
        let (input_shape, out_shape) = (shapes[layer.layer_index], shapes[layer.layer_index + 1]);
        let input = TiledFeatureMap::from_tensor(&input);
        let pass = |session: &Session| {
            session
                .driver()
                .conv_pass(name, &input, &layer.weights, out_shape, &mut SocHandle::new())
                .unwrap_or_else(|e| panic!("conv_pass {name}: {e}"))
                .1
        };
        let (cpu_span, stats_span) = (format!("layer.{name}.cpu"), format!("layer.{name}.stats"));
        let mut cycles = 0.0;
        for i in 0..3 {
            let c = t.span(&cpu_span, Some(i), |_| pass(&cpu));
            let s = t.span(&stats_span, Some(i), |_| pass(&stats));
            rep.tally.check(c.total_cycles == s.total_cycles);
            cycles = s.total_cycles as f64;
        }
        let gops = 2.0 * spec.macs(input_shape) as f64 / (cycles * cycle_s) / 1e9;
        rep.put(format!("layer.{name}.cpu_ms"), median_of(t, &cpu_span), "ms");
        rep.put(format!("layer.{name}.stats_ms"), median_of(t, &stats_span), "ms");
        rep.put(format!("layer.{name}.sim_cycles"), cycles, "cycles");
        rep.put(format!("layer.{name}.sim_gops"), gops, "GOPS");
    }
}

/// ResNet-18 served at 8 and 16 requests/s, each on a fresh engine with
/// the CLI's batch knobs. `serve.overhead_ms` compares the r8 median with
/// a closed loop of the same session timed just before it, in the same
/// process state.
fn serve_probes(w: Workload, ready: &Ready, seed: u64, rep: &mut Report, t: &mut Tracer) {
    let qnet = match w.net {
        Net::Resnet18 => Arc::clone(&ready.qnet),
        Net::Vgg16 => t.span("serve.setup", None, |t| setup(Net::Resnet18, false, t).qnet),
    };
    let inputs = Inputs::new(&qnet, Net::Resnet18, seed);
    let session = build(session(BackendKind::Cpu));
    let mut scratch = Scratch::new();
    let (x, golden) = inputs.get(0);
    for i in 0..Net::Resnet18.probe_reps() as u64 {
        let r = t.span("serve.cpu", Some(i), |_| session.infer_scratch(&qnet, x, &mut scratch));
        check(&mut rep.tally, &r, golden);
    }
    let cpu_ms = median_of(t, "serve.cpu");
    for rate in PROBE_RATES {
        let engine = ServeEngine::start(session.clone(), Arc::clone(&qnet));
        let run = t.span(&format!("serve.r{rate}"), None, |t| {
            open_loop_phase(&engine.handle(), &inputs, rate, (0, min_samples_for_tail(TAIL_Q)), &mut rep.tally, t)
        });
        engine.join();
        let p = format!("serve.r{rate}");
        rep.put(format!("{p}.latency_p50_ms"), median(&run.latency), "ms");
        rep.put(format!("{p}.latency_p90_ms"), tail(&run.latency), "ms");
        rep.put(format!("{p}.queue_p50_ms"), median(&run.queue_ms), "ms");
        rep.put(format!("{p}.queue_p90_ms"), tail(&run.queue_ms), "ms");
        rep.put(format!("{p}.batch_p50_ms"), median(&run.batch_ms), "ms");
        rep.put(format!("{p}.mean_batch"), mean(&run.batch_size), "count");
        rep.put(format!("{p}.rejected"), run.rejected as f64, "count");
        rep.put(format!("{p}.gen_late_p90_ms"), tail(&run.gen_late), "ms");
        if rate == PROBE_RATES[0] {
            rep.put("serve.overhead_ms", median(&run.latency) - cpu_ms, "ms");
        }
    }
}

fn mean(s: &Samples) -> f64 {
    s.mean().unwrap_or(f64::NAN)
}

/// Writes the spans as Chrome trace-event JSON under `perfbench/out/`.
fn write_trace(w: Workload, seed: u64, t: &Tracer) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("trace-{}-{seed}.json", w.name));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, t.chrome_json())) {
        Ok(()) => eprintln!("trace: {} spans -> {}", t.len(), path.display()),
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
}
