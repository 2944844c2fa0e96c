//! Criterion benchmarks comparing the two accelerator backends on the
//! same conv layer: cycle-exact kernels vs. the transaction-level model.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use zskip_core::{cycle, model, AccelConfig, BankSet, ConvInstr, GroupWeights, Instruction};
use zskip_hls::AccelArch;
use zskip_nn::conv::QuantConvWeights;
use zskip_quant::{Requantizer, Sm8};
use zskip_sim::Counters;
use zskip_tensor::{Shape, Tensor, TiledFeatureMap};

fn setup() -> (AccelConfig, BankSet, Vec<u8>, Vec<Instruction>) {
    let cfg = AccelConfig::from_arch(&AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 8192 }, 100.0);
    let (out_c, in_c, hw) = (8, 8, 16);
    let qw = QuantConvWeights::new(
        out_c,
        in_c,
        3,
        (0..out_c * in_c * 9)
            .map(|i| if i % 3 == 0 { Sm8::ZERO } else { Sm8::from_i32_saturating((i % 13) as i32 - 6) })
            .collect(),
        vec![0; out_c],
        Requantizer::from_ratio(1.0 / 64.0),
        true,
    );
    let input =
        Tensor::from_fn(in_c, hw, hw, |c, y, x| Sm8::from_i32_saturating(((c * 7 + y * 3 + x) % 200) as i32 - 100))
            .padded(1);
    let tiled = TiledFeatureMap::from_tensor(&input);
    let in_layout = zskip_core::FmLayout::full(0, input.shape());
    let out_layout = zskip_core::FmLayout::full(in_layout.end(), Shape::new(out_c, hw, hw));
    let mut banks = BankSet::new(&cfg);
    in_layout.store(&mut banks, &tiled, 0..tiled.tiles_y());
    let mut scratchpad = Vec::new();
    let mut instrs = Vec::new();
    for g in 0..out_c.div_ceil(cfg.lanes) {
        let gw = GroupWeights::from_filters(&qw, g * cfg.lanes, cfg.lanes);
        let wgt_base = scratchpad.len() as u32;
        scratchpad.extend_from_slice(&gw.to_bytes());
        instrs.push(Instruction::Conv(ConvInstr {
            ofm_first: (g * cfg.lanes) as u16,
            ifm_count: in_c as u16,
            ifm_base: 0,
            ifm_tiles_x: in_layout.tiles_x as u16,
            ifm_tile_rows: in_layout.tile_rows as u16,
            ifm_row_offset: 0,
            ofm_base: out_layout.base as u32,
            ofm_tiles_x: out_layout.tiles_x as u16,
            ofm_tile_rows: out_layout.tile_rows as u16,
            wgt_base,
            bias: [0; 4],
            requant_mult: qw.requant.mult as u16,
            requant_shift: qw.requant.shift as u8,
            relu: true,
            active_lanes: 4,
        }));
    }
    (cfg, banks, scratchpad, instrs)
}

fn backends(c: &mut Criterion) {
    let (cfg, banks, scratchpad, instrs) = setup();
    let mut g = c.benchmark_group("backends");
    g.bench_function("cycle_exact_conv_8x8x16", |b| {
        b.iter(|| {
            let out =
                cycle::run_instructions(&cfg, banks.clone(), scratchpad.clone(), &instrs, 100_000_000).expect("runs");
            black_box(out.cycles)
        })
    });
    g.bench_function("model_conv_8x8x16", |b| {
        b.iter(|| {
            let mut bk = banks.clone();
            let out = model::run_instructions_with_mode(&cfg, &mut bk, &scratchpad, &instrs, &mut Counters::new(), true);
            black_box(out.cycles)
        })
    });
    g.bench_function("model_conv_8x8x16_stats_only", |b| {
        b.iter(|| {
            let mut bk = banks.clone();
            let out = model::run_instructions_with_mode(&cfg, &mut bk, &scratchpad, &instrs, &mut Counters::new(), false);
            black_box(out.cycles)
        })
    });
    g.finish();
}

criterion_group!(benches, backends);
criterion_main!(benches);
