//! Cycle-backend correctness tests: bit-exactness against the golden
//! software model, zero-skipping effects, pool/pad instructions.

use super::*;
use crate::isa::{ConvInstr, PoolPadInstr, PoolPadOp};
use crate::layout::FmLayout;
use crate::weights::GroupWeights;
use zskip_hls::AccelArch;
use zskip_nn::conv::{conv2d_quant, QuantConvWeights};
use zskip_quant::{Requantizer, Sm8};
use zskip_tensor::{Shape, Tensor, TiledFeatureMap};

fn config() -> AccelConfig {
    AccelConfig::from_arch(&AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 4096 }, 100.0)
}

fn input_tensor(c: usize, h: usize, w: usize) -> Tensor<Sm8> {
    Tensor::from_fn(c, h, w, |c, y, x| Sm8::from_i32_saturating(((c * 37 + y * 11 + x * 5) % 200) as i32 - 100))
}

fn weights(out_c: usize, in_c: usize, zero_every: usize) -> QuantConvWeights {
    let w: Vec<Sm8> = (0..out_c * in_c * 9)
        .map(|i| {
            if i % zero_every == 0 {
                Sm8::ZERO
            } else {
                Sm8::from_i32_saturating((i % 15) as i32 - 7)
            }
        })
        .collect();
    QuantConvWeights::new(
        out_c,
        in_c,
        3,
        w,
        (0..out_c as i64).map(|o| o * 3 - 2).collect(),
        Requantizer::from_ratio(1.0 / 64.0),
        true,
    )
}

/// Builds the bank image, scratchpad and instruction stream for a conv
/// layer (pre-padded input resident, single stripe), runs the cycle
/// backend and returns (output tensor, cycles).
pub(super) fn run_conv(cfg: &AccelConfig, qw: &QuantConvWeights, input: &Tensor<Sm8>) -> (Tensor<Sm8>, u64) {
    let (outcome, out_layout) = run_conv_outcome(cfg, qw, input, run_instructions);
    let (h, w) = (input.shape().h, input.shape().w);
    let out_shape = Shape::new(qw.out_c, h, w);
    let mut got = TiledFeatureMap::zeros(out_shape);
    out_layout.load(&outcome.banks, &mut got, 0..out_layout.tile_rows);
    (got.to_tensor().cropped(h, w), outcome.cycles)
}

/// Like [`run_conv`] but parameterized over the backend entry point and
/// returning the full [`CycleOutcome`] for report comparisons.
pub(super) fn run_conv_outcome(
    cfg: &AccelConfig,
    qw: &QuantConvWeights,
    input: &Tensor<Sm8>,
    run: impl Fn(&AccelConfig, BankSet, Vec<u8>, &[Instruction], u64) -> Result<super::CycleOutcome, zskip_sim::SimError>,
) -> (super::CycleOutcome, FmLayout) {
    let (h, w) = (input.shape().h, input.shape().w);
    let padded = input.padded(1);
    let tiled_in = TiledFeatureMap::from_tensor(&padded);
    let in_layout = FmLayout::full(0, padded.shape());
    let out_shape = Shape::new(qw.out_c, h, w);
    let out_layout = FmLayout::full(in_layout.end(), out_shape);

    let mut banks = BankSet::new(cfg);
    in_layout.store(&mut banks, &tiled_in, 0..tiled_in.tiles_y());

    let mut scratchpad = Vec::new();
    let mut instrs = Vec::new();
    for g in 0..qw.out_c.div_ceil(cfg.lanes) {
        let ofm_first = g * cfg.lanes;
        let gw = GroupWeights::from_filters(qw, ofm_first, cfg.lanes);
        let wgt_base = scratchpad.len() as u32;
        scratchpad.extend_from_slice(&gw.to_bytes());
        let active = cfg.lanes.min(qw.out_c - ofm_first);
        let mut bias = [0i32; 4];
        for (lane, b) in bias.iter_mut().enumerate().take(active) {
            *b = qw.bias_acc[ofm_first + lane] as i32;
        }
        instrs.push(Instruction::Conv(ConvInstr {
            ofm_first: ofm_first as u16,
            ifm_count: qw.in_c as u16,
            ifm_base: in_layout.base as u32,
            ifm_tiles_x: in_layout.tiles_x as u16,
            ifm_tile_rows: in_layout.tile_rows as u16,
            ifm_row_offset: 0,
            ofm_base: out_layout.base as u32,
            ofm_tiles_x: out_layout.tiles_x as u16,
            ofm_tile_rows: out_layout.tile_rows as u16,
            wgt_base,
            bias,
            requant_mult: qw.requant.mult as u16,
            requant_shift: qw.requant.shift as u8,
            relu: qw.relu,
            active_lanes: active as u8,
        }));
    }

    let outcome = run(cfg, banks, scratchpad, &instrs, 10_000_000).expect("run completes");
    (outcome, out_layout)
}

#[test]
fn fast_forward_matches_cycle_by_cycle_on_vgg16_layer() {
    // conv1_1 of the scaled VGG-16 (3 -> 64 channels, 3x3, mixed
    // sparsity): the fast-forward entry point must produce the identical
    // output, cycle count, per-kernel stats and counters. The
    // accelerator's kernels are Reactive (their blocked ticks are pure
    // FIFO probes), so a whole-design quiescent cycle may legally be
    // replayed — this pins that enabling the feature cannot perturb the
    // simulation.
    let cfg = config();
    let qw = weights(64, 3, 4);
    let input = input_tensor(3, 8, 8);
    let (plain, layout) = run_conv_outcome(&cfg, &qw, &input, run_instructions_dense);
    let (fast, _) = run_conv_outcome(&cfg, &qw, &input, run_instructions_fast);

    assert_eq!(plain.cycles, fast.cycles, "cycle counts must match");
    assert_eq!(plain.report, fast.report, "kernel stats and counters must match");
    assert_eq!(plain.counters, fast.counters);
    let extract = |outcome: &super::CycleOutcome| {
        let mut got = TiledFeatureMap::zeros(Shape::new(qw.out_c, 8, 8));
        layout.load(&outcome.banks, &mut got, 0..layout.tile_rows);
        got.to_tensor().cropped(8, 8)
    };
    let out = extract(&plain);
    assert_eq!(out, extract(&fast), "outputs must be bit-identical");
    assert_eq!(out, conv2d_quant(&input, &qw, 1, 1), "and match the golden model");
}

#[test]
fn event_scheduler_matches_dense_on_vgg16_layer() {
    // The event-driven scheduler (the default behind `run_instructions`)
    // must be indistinguishable from the dense oracle on the full
    // accelerator: same output bits, same cycle count, same per-kernel
    // stats and counters — with a meaningful number of parks actually
    // exercised (the controller parks on `done`, write units on their
    // tile inputs, staging on full work FIFOs).
    let cfg = config();
    let qw = weights(64, 3, 4);
    let input = input_tensor(3, 8, 8);
    let (dense, layout) = run_conv_outcome(&cfg, &qw, &input, run_instructions_dense);
    let (event, _) = run_conv_outcome(&cfg, &qw, &input, run_instructions);

    assert_eq!(dense.cycles, event.cycles, "cycle counts must match");
    assert_eq!(dense.report, event.report, "kernel stats and counters must match");
    assert_eq!(dense.counters, event.counters);
    assert!(event.report.sched.parks > 0, "event run must actually park kernels");
    assert_eq!(dense.report.sched.parks, 0, "dense run never parks");
    let extract = |outcome: &super::CycleOutcome| {
        let mut got = TiledFeatureMap::zeros(Shape::new(qw.out_c, 8, 8));
        layout.load(&outcome.banks, &mut got, 0..layout.tile_rows);
        got.to_tensor().cropped(8, 8)
    };
    let out = extract(&dense);
    assert_eq!(out, extract(&event), "outputs must be bit-identical");
    assert_eq!(out, conv2d_quant(&input, &qw, 1, 1), "and match the golden model");
}

/// A hosted-mode entry point under test.
type HostedRun = fn(&AccelConfig, BankSet, Vec<u8>, HostModel, u64) -> Result<CycleOutcome, zskip_sim::SimError>;

/// Adapter so the hosted entry points fit [`run_conv_outcome`]'s
/// signature: splits the instruction stream into layers with the given
/// staging latencies and wraps it into a [`HostModel`].
fn hosted(
    staging: &'static [u64],
    poll_interval: u64,
    run: HostedRun,
) -> impl Fn(&AccelConfig, BankSet, Vec<u8>, &[Instruction], u64) -> Result<CycleOutcome, zskip_sim::SimError> {
    move |cfg, banks, scratch, instrs, max| {
        let per_layer = instrs.len().div_ceil(staging.len());
        let layers = instrs
            .chunks(per_layer.max(1))
            .zip(staging)
            .map(|(chunk, &staging_cycles)| HostLayer { staging_cycles, instrs: chunk.to_vec() })
            .collect();
        run(cfg, banks, scratch, HostModel { poll_interval, layers }, max)
    }
}

#[test]
fn hosted_event_matches_dense_and_jumps_staging() {
    // The hosted system design (host kernel staging, dispatching and
    // polling each layer, §IV-C) under the event scheduler must be
    // bit-identical to the dense oracle while jumping the long staging
    // and polling gaps. Staging latencies deliberately exceed the default
    // 10k-cycle deadlock window — the hosted wiring widens the window to
    // the longest gap, and both steppers must agree it's not a deadlock.
    const STAGING: &[u64] = &[30_000, 15_000, 45_000];
    let cfg = config();
    let qw = weights(64, 3, 4);
    let input = input_tensor(3, 8, 8);
    let (dense, layout) = run_conv_outcome(&cfg, &qw, &input, hosted(STAGING, 200, run_hosted_dense));
    let (event, _) = run_conv_outcome(&cfg, &qw, &input, hosted(STAGING, 200, run_hosted));

    assert_eq!(dense.cycles, event.cycles, "cycle counts must match");
    assert_eq!(dense.report, event.report, "kernel stats and counters must match");
    assert_eq!(dense.counters, event.counters);
    assert_eq!(dense.report.sched.parks, 0, "dense run never parks");
    assert!(event.report.sched.parks > 0, "host and accelerator kernels must park");
    let total_staging: u64 = STAGING.iter().sum();
    assert!(
        event.report.sched.idle_jumped > total_staging / 2,
        "staging gaps must be jumped, not ground through: {:?}",
        event.report.sched
    );
    assert_eq!(event.report.sched.executed_cycles + event.report.sched.idle_jumped, event.cycles);

    let extract = |outcome: &super::CycleOutcome| {
        let mut got = TiledFeatureMap::zeros(Shape::new(qw.out_c, 8, 8));
        layout.load(&outcome.banks, &mut got, 0..layout.tile_rows);
        got.to_tensor().cropped(8, 8)
    };
    let out = extract(&dense);
    assert_eq!(out, extract(&event), "outputs must be bit-identical");
    assert_eq!(out, conv2d_quant(&input, &qw, 1, 1), "and match the golden model");
}

#[test]
fn hosted_run_pays_staging_over_preloaded() {
    // Same instruction stream, hosted vs. preloaded: identical output
    // banks, but the hosted run pays the staging latency and the
    // poll-interval quantization on top of the compute cycles.
    const STAGING: &[u64] = &[20_000, 20_000];
    let cfg = config();
    let qw = weights(16, 3, 4);
    let input = input_tensor(3, 8, 8);
    let (plain, layout) = run_conv_outcome(&cfg, &qw, &input, run_instructions);
    let (hosted_out, _) = run_conv_outcome(&cfg, &qw, &input, hosted(STAGING, 500, run_hosted));

    let extract = |outcome: &super::CycleOutcome| {
        let mut got = TiledFeatureMap::zeros(Shape::new(qw.out_c, 8, 8));
        layout.load(&outcome.banks, &mut got, 0..layout.tile_rows);
        got.to_tensor().cropped(8, 8)
    };
    assert_eq!(extract(&plain), extract(&hosted_out), "hosted run computes the same result");
    let total_staging: u64 = STAGING.iter().sum();
    assert!(
        hosted_out.cycles > plain.cycles + total_staging,
        "hosted run must pay staging on top of compute: {} vs {} + {}",
        hosted_out.cycles,
        plain.cycles,
        total_staging
    );
}

#[test]
fn conv_matches_golden_model_bit_exact() {
    let cfg = config();
    let qw = weights(8, 8, 5);
    let input = input_tensor(8, 12, 12);
    let (got, _) = run_conv(&cfg, &qw, &input);
    assert_eq!(got, conv2d_quant(&input, &qw, 1, 1));
}

#[test]
fn conv_matches_with_ragged_group() {
    // 10 OFMs: the final group has 2 active lanes.
    let cfg = config();
    let qw = weights(10, 5, 4);
    let input = input_tensor(5, 8, 8);
    let (got, _) = run_conv(&cfg, &qw, &input);
    assert_eq!(got, conv2d_quant(&input, &qw, 1, 1));
}

#[test]
fn conv_matches_on_16_unopt_architecture() {
    let base = AccelConfig::from_arch(&AccelArch::single_submodule(), 55.0);
    let cfg = AccelConfig { bank_tiles: 4096, ..base };
    let qw = weights(5, 3, 3);
    let input = input_tensor(3, 8, 8);
    let (got, _) = run_conv(&cfg, &qw, &input);
    assert_eq!(got, conv2d_quant(&input, &qw, 1, 1));
}

#[test]
fn non_square_feature_maps_work() {
    let cfg = config();
    let qw = weights(4, 3, 6);
    let input = input_tensor(3, 6, 14);
    let (got, _) = run_conv(&cfg, &qw, &input);
    assert_eq!(got, conv2d_quant(&input, &qw, 1, 1));
}

#[test]
fn pruned_weights_take_fewer_cycles_and_stay_exact() {
    let cfg = config();
    let input = input_tensor(8, 16, 16);

    let dense = weights(8, 8, usize::MAX); // nothing zeroed
    let (out_dense, dense_cycles) = run_conv(&cfg, &dense, &input);
    assert_eq!(out_dense, conv2d_quant(&input, &dense, 1, 1));

    let sparse = weights(8, 8, 2); // roughly half the weights zero
    let (out_sparse, sparse_cycles) = run_conv(&cfg, &sparse, &input);
    assert_eq!(out_sparse, conv2d_quant(&input, &sparse, 1, 1));

    assert!(
        sparse_cycles < dense_cycles,
        "zero-skipping must save cycles: sparse {sparse_cycles} vs dense {dense_cycles}"
    );
}

#[test]
fn four_cycle_floor_limits_sparse_speedup() {
    // With only 1 non-zero weight per tile, cycles are floored by the
    // 4-cycle IFM quad load: speedup over 8 nnz is at most 2x-ish, far
    // from 8x.
    let cfg = config();
    let input = input_tensor(4, 16, 16);

    let mut nearly_empty = weights(4, 4, usize::MAX);
    // Keep exactly one non-zero weight per (o, i) filter.
    for o in 0..4 {
        for i in 0..4 {
            for ky in 0..3 {
                for kx in 0..3 {
                    if !(ky == 1 && kx == 1) {
                        let idx = ((o * 4 + i) * 3 + ky) * 3 + kx;
                        nearly_empty.w[idx] = Sm8::ZERO;
                    }
                }
            }
        }
    }
    nearly_empty.invalidate_caches();
    let (out1, one_cycles) = run_conv(&cfg, &nearly_empty, &input);
    assert_eq!(out1, conv2d_quant(&input, &nearly_empty, 1, 1));

    let dense = weights(4, 4, usize::MAX); // 9 nnz per tile
    let (_, dense_cycles) = run_conv(&cfg, &dense, &input);

    let speedup = dense_cycles as f64 / one_cycles as f64;
    assert!(speedup < 3.0, "floor must cap the speedup, got {speedup:.2}x");
    assert!(speedup > 1.5, "sparse run should still be faster, got {speedup:.2}x");
}

#[test]
fn fully_pruned_group_writes_bias_only_tiles() {
    let cfg = config();
    let mut qw = weights(4, 4, 5);
    qw.w.iter_mut().for_each(|w| *w = Sm8::ZERO);
    qw.invalidate_caches();
    qw.relu = false;
    qw.requant = Requantizer::IDENTITY;
    qw.bias_acc = vec![7, -3, 0, 120];
    let input = input_tensor(4, 8, 8);
    let (got, _) = run_conv(&cfg, &qw, &input);
    for o in 0..4 {
        for v in got.channel(o) {
            assert_eq!(v.to_i32() as i64, qw.bias_acc[o]);
        }
    }
}

#[test]
fn pool_instruction_matches_reference() {
    let cfg = config();
    let input = input_tensor(8, 16, 16);
    let tiled_in = TiledFeatureMap::from_tensor(&input);
    let in_layout = FmLayout::full(0, input.shape());
    let out_shape = Shape::new(8, 8, 8);
    let out_layout = FmLayout::full(in_layout.end(), out_shape);
    let mut banks = BankSet::new(&cfg);
    in_layout.store(&mut banks, &tiled_in, 0..4);
    let instr = Instruction::PoolPad(PoolPadInstr {
        channels: 8,
        in_base: 0,
        in_tiles_x: 4,
        in_tile_rows: 4,
        in_row_start: 0,
        out_base: out_layout.base as u32,
        out_tiles_x: 2,
        out_tile_rows: 2,
        out_row_start: 0,
        op: PoolPadOp::MaxPool { k: 2, stride: 2 },
    });
    let outcome = run_instructions(&cfg, banks, Vec::new(), &[instr], 1_000_000).expect("run completes");
    let mut got = TiledFeatureMap::zeros(out_shape);
    out_layout.load(&outcome.banks, &mut got, 0..2);
    assert_eq!(got.to_tensor().cropped(8, 8), zskip_nn::pool::maxpool_quant(&input, 2, 2));
}

#[test]
fn pad_instruction_matches_reference() {
    let cfg = config();
    let input = input_tensor(4, 8, 8);
    let tiled_in = TiledFeatureMap::from_tensor(&input);
    let in_layout = FmLayout::full(0, input.shape());
    let out_shape = Shape::new(4, 10, 10);
    let out_layout = FmLayout::full(in_layout.end(), out_shape);
    let mut banks = BankSet::new(&cfg);
    in_layout.store(&mut banks, &tiled_in, 0..2);
    let instr = Instruction::PoolPad(PoolPadInstr {
        channels: 4,
        in_base: 0,
        in_tiles_x: 2,
        in_tile_rows: 2,
        in_row_start: 0,
        out_base: out_layout.base as u32,
        out_tiles_x: 3,
        out_tile_rows: 3,
        out_row_start: 0,
        op: PoolPadOp::Pad { amount: 1 },
    });
    let outcome = run_instructions(&cfg, banks, Vec::new(), &[instr], 1_000_000).expect("run completes");
    let mut got = TiledFeatureMap::zeros(out_shape);
    out_layout.load(&outcome.banks, &mut got, 0..3);
    assert_eq!(got.to_tensor().cropped(10, 10), input.padded(1));
}

#[test]
fn empty_stream_finishes_quickly() {
    let cfg = config();
    let outcome = run_instructions(&cfg, BankSet::new(&cfg), Vec::new(), &[], 10_000).expect("run completes");
    assert!(outcome.cycles < 50, "cycles {}", outcome.cycles);
}

#[test]
fn counters_record_macs_and_bubbles() {
    let cfg = config();
    let qw = weights(8, 8, 3);
    let input = input_tensor(8, 8, 8);
    let padded = input.padded(1);
    let tiled_in = TiledFeatureMap::from_tensor(&padded);
    let in_layout = FmLayout::full(0, padded.shape());
    let out_layout = FmLayout::full(in_layout.end(), Shape::new(8, 8, 8));
    let mut banks = BankSet::new(&cfg);
    in_layout.store(&mut banks, &tiled_in, 0..tiled_in.tiles_y());
    let gw = GroupWeights::from_filters(&qw, 0, 4);
    let scratchpad = gw.to_bytes();
    let instr = Instruction::Conv(ConvInstr {
        ofm_first: 0,
        ifm_count: 8,
        ifm_base: 0,
        ifm_tiles_x: in_layout.tiles_x as u16,
        ifm_tile_rows: in_layout.tile_rows as u16,
        ifm_row_offset: 0,
        ofm_base: out_layout.base as u32,
        ofm_tiles_x: 2,
        ofm_tile_rows: 2,
        wgt_base: 0,
        bias: [0; 4],
        requant_mult: qw.requant.mult as u16,
        requant_shift: qw.requant.shift as u8,
        relu: true,
        active_lanes: 4,
    });
    let outcome = run_instructions(&cfg, banks, scratchpad, &[instr], 1_000_000).expect("run completes");
    // MACs: group nnz x 16 values x 4 positions.
    assert_eq!(outcome.counters.get("macs"), gw.total_nnz() as u64 * 16 * 4);
    // Bubbles appear because the filters have unequal nnz.
    assert!(outcome.counters.get("bubble_lanes") > 0);
    assert!(outcome.counters.get("ofm_tiles_written") == 16);
}

/// A mixed stream — pad, conv, pool back to back in one doorbell — runs
/// in order with correct dataflow between instructions.
#[test]
fn mixed_instruction_stream_chains_correctly() {
    let cfg = config();
    let (c_in, h, w) = (4usize, 8usize, 8usize);
    let input = input_tensor(c_in, h, w);
    let qw = weights(4, c_in, 3);

    // Layouts: raw input -> padded -> conv output -> pooled output.
    let raw = FmLayout::full(0, input.shape());
    let padded_shape = Shape::new(c_in, h + 2, w + 2);
    let padded = FmLayout::full(raw.end(), padded_shape);
    let conv_shape = Shape::new(4, h, w);
    let conv_out = FmLayout::full(padded.end(), conv_shape);
    let pool_shape = Shape::new(4, h / 2, w / 2);
    let pool_out = FmLayout::full(conv_out.end(), pool_shape);

    let mut banks = BankSet::new(&cfg);
    let tiled = TiledFeatureMap::from_tensor(&input);
    raw.store(&mut banks, &tiled, 0..tiled.tiles_y());

    let gw = GroupWeights::from_filters(&qw, 0, cfg.lanes);
    let scratchpad = gw.to_bytes();

    let stream = vec![
        Instruction::PoolPad(PoolPadInstr {
            channels: c_in as u16,
            in_base: raw.base as u32,
            in_tiles_x: raw.tiles_x as u16,
            in_tile_rows: raw.tile_rows as u16,
            in_row_start: 0,
            out_base: padded.base as u32,
            out_tiles_x: padded.tiles_x as u16,
            out_tile_rows: padded.tile_rows as u16,
            out_row_start: 0,
            op: PoolPadOp::Pad { amount: 1 },
        }),
        Instruction::Conv(ConvInstr {
            ofm_first: 0,
            ifm_count: c_in as u16,
            ifm_base: padded.base as u32,
            ifm_tiles_x: padded.tiles_x as u16,
            ifm_tile_rows: padded.tile_rows as u16,
            ifm_row_offset: 0,
            ofm_base: conv_out.base as u32,
            ofm_tiles_x: conv_out.tiles_x as u16,
            ofm_tile_rows: conv_out.tile_rows as u16,
            wgt_base: 0,
            bias: [1, -2, 3, -4],
            requant_mult: qw.requant.mult as u16,
            requant_shift: qw.requant.shift as u8,
            relu: true,
            active_lanes: 4,
        }),
        Instruction::PoolPad(PoolPadInstr {
            channels: 4,
            in_base: conv_out.base as u32,
            in_tiles_x: conv_out.tiles_x as u16,
            in_tile_rows: conv_out.tile_rows as u16,
            in_row_start: 0,
            out_base: pool_out.base as u32,
            out_tiles_x: pool_out.tiles_x as u16,
            out_tile_rows: pool_out.tile_rows as u16,
            out_row_start: 0,
            op: PoolPadOp::MaxPool { k: 2, stride: 2 },
        }),
    ];

    let mut qw_bias = qw.clone();
    qw_bias.bias_acc = vec![1, -2, 3, -4];
    let want = zskip_nn::pool::maxpool_quant(&conv2d_quant(&input, &qw_bias, 1, 1), 2, 2);

    let outcome = run_instructions(&cfg, banks, scratchpad, &stream, 10_000_000).expect("runs");
    let mut got = TiledFeatureMap::zeros(pool_shape);
    pool_out.load(&outcome.banks, &mut got, 0..pool_out.tile_rows);
    assert_eq!(got.to_tensor().cropped(h / 2, w / 2), want);

    // Same stream on the model backend: identical final banks region.
    let mut model_banks = BankSet::new(&cfg);
    let tiled = TiledFeatureMap::from_tensor(&input);
    raw.store(&mut model_banks, &tiled, 0..tiled.tiles_y());
    let gw2 = GroupWeights::from_filters(&qw, 0, cfg.lanes);
    crate::model::run_instructions_with_mode(&cfg, &mut model_banks, &gw2.to_bytes(), &stream, &mut zskip_sim::Counters::new(), true);
    let mut got2 = TiledFeatureMap::zeros(pool_shape);
    pool_out.load(&model_banks, &mut got2, 0..pool_out.tile_rows);
    assert_eq!(got2.to_tensor().cropped(h / 2, w / 2), want);
}
