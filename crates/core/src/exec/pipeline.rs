//! The staged per-layer pipeline shared by every [`StripeBackend`].
//!
//! One accelerator pass always runs the same stages, whatever executes
//! the arithmetic:
//!
//! 1. **stage** — serialize the tiled input FM and the packed group
//!    weights into the DDR model;
//! 2. **stripe** — for each planned stripe: DMA the IFM rows into banks,
//!    preload the scratchpad weights, issue the instruction batch to the
//!    instruction executor, then DMA the OFM rows back out;
//! 3. **collect** — merge per-instance cycles, DMA cycles and activity
//!    counters into a [`PassStats`].
//!
//! Because stripe plans, DMA descriptor sequences and instruction
//! streams are value-independent, two backends running this pipeline on
//! the same layer observe identical DDR traffic, identical injected DMA
//! faults and (for the closed-form executor) identical cycle counts —
//! the invariant `tests/backend_equivalence.rs` locks down.
//!
//! [`StripeBackend`]: crate::exec::StripeBackend

use crate::bank::BankSet;
use crate::cycle;
use crate::driver::{Driver, DriverError};
use crate::isa::{ConvInstr, Instruction, PoolPadInstr, PoolPadOp};
use crate::layout::FmLayout;
use crate::model;
use crate::report::PassStats;
use crate::weights::GroupWeights;
use std::sync::{Arc, OnceLock};
use zskip_fault::SharedFaultPlan;
use zskip_nn::conv::QuantConvWeights;
use zskip_nn::model::QuantizedNetwork;
use zskip_quant::cache::{CacheStats, Fingerprint, WeightCache};
use zskip_quant::grouping::FilterGrouping;
use zskip_quant::Sm8;
use zskip_sim::Counters;
use zskip_soc::ddr::DdrModel;
use zskip_soc::dma::{DmaController, TILE_BYTES};
use zskip_tensor::{Shape, Tensor, TiledFeatureMap, TILE_DIM};

/// DDR feature-map region stride: each execution-plan slot owns one
/// fixed region of this size, so a skip-branch activation stays resident
/// in DDR without the next pass's output overwriting it (the classic
/// linear chain degenerates to two regions — the old A/B ping-pong).
/// 32 MiB holds the largest tiled VGG-16 feature map with room to spare.
pub const DDR_FM_STRIDE: usize = 32 << 20;

/// Scratch region for the explicit pad pass's intermediate feature map.
/// The padded image is consumed immediately by the following conv pass,
/// so it never occupies a plan slot.
pub const DDR_FM_PAD: usize = 256 << 20;

const DDR_WEIGHTS: usize = 512 << 20;

/// Start of execution-plan slot `slot`'s DDR feature-map region.
///
/// # Panics
/// Panics if the slot's region would collide with the pad scratch region
/// (the driver checks a plan's slot count up front).
pub fn slot_addr(slot: usize) -> usize {
    let addr = slot * DDR_FM_STRIDE;
    assert!(addr + DDR_FM_STRIDE <= DDR_FM_PAD, "slot {slot} exceeds the DDR feature-map window");
    addr
}

/// Mutable SoC context threaded through a network run: the DDR model and
/// the DMA engine the staged pipeline moves feature maps with. Opaque to
/// callers; created per inference by the driver, or explicitly for the
/// single-pass benchmarking entry points ([`Driver::conv_pass`]).
pub struct SocHandle {
    pub(crate) ddr: DdrModel,
    pub(crate) dma: DmaController,
    /// Reused serialization buffer for staging FMs into DDR: grows to the
    /// largest FM of the network on the first image, then stops
    /// allocating (the DDR-staging analogue of the `Scratch` arena).
    staging: Vec<u8>,
}

impl SocHandle {
    /// Creates a fresh SoC context (1 GiB DDR, default timing).
    pub fn new() -> SocHandle {
        SocHandle::with_plan(None)
    }

    /// A SoC context with a fault plan attached to its DMA engine.
    pub fn with_faults(plan: SharedFaultPlan) -> SocHandle {
        SocHandle::with_plan(Some(plan))
    }

    pub(crate) fn with_plan(plan: Option<SharedFaultPlan>) -> SocHandle {
        // 1 GiB DDR4 region, default System I timing.
        let mut dma = DmaController::new();
        if let Some(plan) = plan {
            dma.set_fault_plan(plan);
        }
        SocHandle { ddr: DdrModel::new(1 << 30), dma, staging: Vec::new() }
    }

    /// Total DDR traffic so far (reads + writes), in bytes.
    pub(crate) fn ddr_bytes(&self) -> u64 {
        self.ddr.bytes_read() + self.ddr.bytes_written()
    }

    /// Serializes a tiled FM and writes it to DDR at `addr`, reusing the
    /// handle's staging buffer (allocation-free once warmed). The byte
    /// image and DDR traffic are identical to
    /// [`fm_to_bytes`] + `write_block`.
    fn stage_fm(&mut self, addr: usize, fm: &TiledFeatureMap<Sm8>) {
        self.staging.clear();
        self.staging.reserve(fm.tile_count() * TILE_BYTES);
        for t in fm.as_tiles() {
            for v in t.as_array() {
                self.staging.push(v.to_bits());
            }
        }
        self.ddr.write_block(addr, &self.staging);
    }
}

impl Default for SocHandle {
    fn default() -> Self {
        Self::new()
    }
}

/// Serializes a tiled FM into the DDR byte image (channel-major,
/// row-major tiles, 16 bytes per tile).
pub fn fm_to_bytes(fm: &TiledFeatureMap<Sm8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(fm.tile_count() * TILE_BYTES);
    for t in fm.as_tiles() {
        for v in t.as_array() {
            out.push(v.to_bits());
        }
    }
    out
}

/// Densifies a tiled FM into `out` at its logical extent, reusing the
/// allocation (the inverse of [`TiledFeatureMap::from_tensor`], which
/// re-zeroes the round-up region on the way back).
pub(crate) fn fm_to_tensor_into(fm: &TiledFeatureMap<Sm8>, out: &mut Tensor<Sm8>) {
    let s = fm.logical_shape();
    out.reset(s.c, s.h, s.w);
    for c in 0..s.c {
        for y in 0..s.h {
            let (ty, iy) = (y / TILE_DIM, y % TILE_DIM);
            for x in 0..s.w {
                out[(c, y, x)] = fm.tile(c, ty, x / TILE_DIM)[(iy, x % TILE_DIM)];
            }
        }
    }
}

/// One conv layer's packed OFM-group weights, staged once: the parsed
/// [`GroupWeights`] plus their concatenated scratchpad byte image with
/// per-group offsets. Packing a VGG-scale layer (filter tiling, zero-skip
/// entry packing, serialization) is value-independent work that PR-5
/// repeated for every image; a [`WeightCache`] keyed by the layer's
/// content fingerprint makes it a first-image cost shared by every
/// driver in the process.
pub(crate) struct PackedLayerWeights {
    /// One entry per OFM group, in group order.
    pub(crate) groups: Vec<GroupWeights>,
    /// All groups' scratchpad bytes, concatenated in group order.
    pub(crate) blob: Vec<u8>,
    /// Byte offset of each group within `blob`.
    pub(crate) offsets: Vec<usize>,
}

impl PackedLayerWeights {
    fn build(qw: &QuantConvWeights, lanes: usize, zero_skipping: bool) -> PackedLayerWeights {
        let groups: Vec<GroupWeights> = (0..qw.out_c.div_ceil(lanes))
            .map(|g| GroupWeights::from_filters_with_skipping(qw, g * lanes, lanes, zero_skipping))
            .collect();
        let mut offsets = Vec::with_capacity(groups.len());
        let mut blob = Vec::with_capacity(groups.iter().map(GroupWeights::total_bytes).sum());
        for g in &groups {
            offsets.push(blob.len());
            blob.extend_from_slice(&g.to_bytes());
        }
        PackedLayerWeights { groups, blob, offsets }
    }

    /// The byte range of group `gi` within [`PackedLayerWeights::blob`].
    fn group_span(&self, gi: usize) -> std::ops::Range<usize> {
        self.offsets[gi]..self.offsets.get(gi + 1).copied().unwrap_or(self.blob.len())
    }

    fn heap_bytes(&self) -> usize {
        self.groups.iter().map(GroupWeights::heap_bytes).sum::<usize>()
            + self.blob.capacity()
            + self.offsets.capacity() * std::mem::size_of::<usize>()
    }
}

/// The process-wide packed-group-weight cache. Keyed by the layer's
/// content fingerprint combined with the packing parameters (lanes,
/// zero-skipping), so two accelerator configurations never alias.
fn group_cache() -> &'static WeightCache<PackedLayerWeights> {
    static CACHE: OnceLock<WeightCache<PackedLayerWeights>> = OnceLock::new();
    CACHE.get_or_init(WeightCache::new)
}

/// Statistics of the process-wide packed-group-weight cache (entries,
/// hits, misses, resident bytes) — surfaced by `zskip analyze`.
pub fn weight_cache_stats() -> CacheStats {
    group_cache().stats()
}

/// A network's value-independent run statistics under one
/// stats-relevant configuration: every accelerator pass's [`PassStats`]
/// in the order the driver's plan walk issues them, plus the run's DDR
/// traffic. Cycle counts, activity counters and DMA traffic depend only
/// on the layer geometry, the packed weights and the configuration — never
/// on activation values — so one staged-pipeline run yields them for every
/// later image (the cpu backend's cache-hit path, see `exec::cpu`).
pub(crate) struct StatsPlan {
    /// One entry per backend pass (pad, conv or pool), in execution order.
    pub(crate) passes: Vec<PassStats>,
    /// Total DDR bytes read and written by the run.
    pub(crate) ddr_bytes: u64,
}

impl StatsPlan {
    pub(crate) fn heap_bytes(&self) -> usize {
        self.passes.capacity() * std::mem::size_of::<PassStats>()
            + self
                .passes
                .iter()
                .map(|p| p.per_instance_cycles.capacity() * std::mem::size_of::<u64>())
                .sum::<usize>()
    }
}

/// The process-wide stats-plan cache, keyed by [`stats_plan_key`].
pub(crate) fn stats_cache() -> &'static WeightCache<StatsPlan> {
    static CACHE: OnceLock<WeightCache<StatsPlan>> = OnceLock::new();
    CACHE.get_or_init(WeightCache::new)
}

/// Statistics of the process-wide stats-plan cache (entries, hits,
/// misses, resident bytes) — surfaced by `zskip analyze`.
pub fn stats_cache_stats() -> CacheStats {
    stats_cache().stats()
}

/// The stats-plan cache key of running `qnet` under `driver`: the spec's
/// layer geometry and input shape, every conv layer's weight content, every
/// [`AccelConfig`](crate::AccelConfig) field, and the zero-skipping and
/// filter-grouping flags. Knobs that cannot change statistics (threads,
/// kernel tier, park hysteresis, batch shaping) stay out, so sessions
/// differing only in those share one entry.
pub(crate) fn stats_plan_key(driver: &Driver, qnet: &QuantizedNetwork) -> u64 {
    // Destructured so a new configuration field fails to compile here
    // until it is either keyed or argued stats-neutral.
    let crate::AccelConfig {
        units,
        lanes,
        instances,
        bank_tiles,
        clock_mhz,
        fifo_depth,
        weight_bytes_per_cycle,
        scratchpad_bytes,
    } = driver.config;
    // The key lives only as long as the process, so the spec's `Debug`
    // rendering (every field, `Ref`/`Add` targets as layer indices) is a
    // complete and deterministic encoding of its geometry.
    let fp = Fingerprint::new()
        .bytes(format!("{:?}", qnet.spec).as_bytes())
        .u64(units as u64)
        .u64(lanes as u64)
        .u64(instances as u64)
        .u64(bank_tiles as u64)
        .u64(clock_mhz.to_bits())
        .u64(fifo_depth as u64)
        .u64(weight_bytes_per_cycle as u64)
        .u64(scratchpad_bytes as u64)
        .u64(driver.zero_skipping as u64)
        .u64(driver.filter_grouping as u64);
    qnet.conv.iter().fold(fp, |fp, c| fp.u64(c.weights.fingerprint())).finish()
}

/// Resolves (building on first use) the packed group weights for a conv
/// layer under the driver's packing parameters.
fn packed_groups(driver: &Driver, qw: &QuantConvWeights) -> Arc<PackedLayerWeights> {
    let lanes = driver.config.lanes;
    if !driver.weight_cache {
        return Arc::new(PackedLayerWeights::build(qw, lanes, driver.zero_skipping));
    }
    let key = Fingerprint::new()
        .u64(qw.fingerprint())
        .u64(lanes as u64)
        .u64(driver.zero_skipping as u64)
        .finish();
    group_cache().get_or_insert_with(
        key,
        || PackedLayerWeights::build(qw, lanes, driver.zero_skipping),
        PackedLayerWeights::heap_bytes,
    )
}

/// Which instruction executor a staged pass issues its batches to.
///
/// This is the *only* point where backends diverge inside the pipeline;
/// everything else (staging, striping, DMA) is shared.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Exec {
    /// Transaction-level model: closed-form cycles. With
    /// `functional: false` the arithmetic is skipped — cycle counts and
    /// counters are value-independent, so they are unchanged.
    Model {
        /// Run the functional arithmetic alongside the cycle model.
        functional: bool,
    },
    /// Cycle-exact simulation of all kernels.
    Cycle,
}

impl Exec {
    /// Executes an instruction batch, returning cycles and the banks.
    ///
    /// `prepacked`, when present, carries one parsed [`GroupWeights`] per
    /// conv instruction (in stream order): the model executor then skips
    /// re-parsing the scratchpad image it already serialized from those
    /// very groups. The cycle backend always parses — its data-staging
    /// kernels consume the byte stream, like the hardware.
    fn run(
        &self,
        driver: &Driver,
        mut banks: BankSet,
        scratchpad: Vec<u8>,
        instrs: &[Instruction],
        counters: &mut Counters,
        prepacked: Option<&[GroupWeights]>,
    ) -> Result<(u64, BankSet), DriverError> {
        match self {
            Exec::Model { functional } => {
                let outcome = match prepacked {
                    Some(groups) => model::run_instructions_prepacked(
                        &driver.config,
                        &mut banks,
                        instrs,
                        counters,
                        *functional,
                        groups,
                    ),
                    None => model::run_instructions_with_mode(
                        &driver.config,
                        &mut banks,
                        &scratchpad,
                        instrs,
                        counters,
                        *functional,
                    ),
                };
                Ok((outcome.cycles, banks))
            }
            Exec::Cycle => {
                let outcome = cycle::run_instructions_configured(
                    &driver.config,
                    banks,
                    scratchpad,
                    instrs,
                    u64::MAX,
                    driver.fault_plan().cloned(),
                    driver.park_hysteresis,
                )
                .map_err(DriverError::Sim)?;
                counters.merge(&outcome.counters);
                Ok((outcome.cycles, outcome.banks))
            }
        }
    }
}

/// Runs one staged convolution pass (input already padded; stride 1).
/// `src_addr`/`dst_addr` are the DDR regions the input is staged in and
/// the output is written back to — the plan slots' regions during a
/// network run ([`slot_addr`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_pass(
    driver: &Driver,
    soc: &mut SocHandle,
    exec: Exec,
    name: &str,
    input: &TiledFeatureMap<Sm8>,
    qw: &QuantConvWeights,
    out_shape: Shape,
    src_addr: usize,
    dst_addr: usize,
) -> Result<(TiledFeatureMap<Sm8>, PassStats), DriverError> {
    // Optional future-work filter grouping: reorder output channels by
    // non-zero count so lockstep lanes balance; un-permuted on output.
    let grouping = if driver.filter_grouping {
        let nnz: Vec<usize> = (0..qw.out_c).map(|o| qw.output_filter_nnz(o)).collect();
        Some(FilterGrouping::by_nnz(&nnz, driver.config.lanes))
    } else {
        None
    };
    let permuted;
    let qw = if let Some(g) = &grouping {
        permuted = permute_filters(qw, &g.order);
        &permuted
    } else {
        qw
    };

    let in_rows = input.tiles_y();
    let out = TiledFeatureMap::<Sm8>::zeros(out_shape);
    let out_rows = out.tiles_y();
    let words_in = input.channels().div_ceil(4) * input.tiles_x();
    let words_out = out_shape.c.div_ceil(4) * out.tiles_x();
    let stripes =
        super::stripes::plan_stripes(name, None, out_rows, in_rows, words_in, words_out, driver.config.bank_tiles)?;

    // Stage activations and packed weights in DDR. Under a filter
    // grouping the permuted layer is image-local, so it bypasses the
    // shared cache (its fingerprint would be recomputed per image anyway).
    soc.stage_fm(src_addr, input);
    let packed = if grouping.is_some() {
        Arc::new(PackedLayerWeights::build(qw, driver.config.lanes, driver.zero_skipping))
    } else {
        packed_groups(driver, qw)
    };
    let groups = &packed.groups;
    soc.ddr.write_block(DDR_WEIGHTS, &packed.blob);

    let mut stats = PassStats {
        per_instance_cycles: vec![0; driver.config.instances],
        stripes: stripes.len(),
        striping_factor: stripes.iter().map(|s| s.in_hi - s.in_lo).sum::<usize>() as f64
            / in_rows.max(1) as f64,
        ..Default::default()
    };
    let mut out_fm = out;

    // Work distribution across instances: multi-stripe layers give each
    // instance separate stripes (the paper's "each instance operates
    // concurrently on separate stripes of FMs"); single-stripe layers
    // (deep, small-FM) instead replicate the IFM stripe into both
    // instances' banks and split the OFM groups between them.
    let split_groups = stripes.len() < driver.config.instances && driver.config.instances > 1;

    for (si, stripe) in stripes.iter().enumerate() {
        let in_layout = FmLayout {
            base: 0,
            channels: input.channels(),
            tiles_x: input.tiles_x(),
            tile_rows: stripe.in_hi - stripe.in_lo,
        };
        let out_layout = FmLayout {
            base: in_layout.end(),
            channels: out_shape.c,
            tiles_x: out_fm.tiles_x(),
            tile_rows: stripe.out_b - stripe.out_a,
        };

        let parts = if split_groups { driver.config.instances } else { 1 };
        let chunk = groups.len().div_ceil(parts);
        for part in 0..parts {
            let instance = if split_groups { part } else { si % driver.config.instances };
            let group_range = (part * chunk)..((part + 1) * chunk).min(groups.len());
            if group_range.is_empty() {
                continue;
            }
            let mut banks = BankSet::new(&driver.config);

            // DMA in: one descriptor per channel (replicated per part
            // when groups are split — both instances need the IFMs).
            stats.io_dma_cycles +=
                dma_fm_stripe(soc, src_addr, input, stripe.in_lo..stripe.in_hi, &in_layout, &mut banks, true)?;

            // Per-group: weight preload + conv instruction. The
            // scratchpad image is copied from the staged blob — the
            // same bytes `GroupWeights::to_bytes` produced, without
            // re-serializing per image.
            let mut scratchpad = Vec::new();
            let mut instrs = Vec::new();
            for gi in group_range.clone() {
                let span = packed.group_span(gi);
                let bytes = span.len();
                let (_, wcycles) = soc.ddr.read_block(DDR_WEIGHTS + span.start, bytes);
                stats.weight_dma_cycles += wcycles;
                let ofm_first = gi * driver.config.lanes;
                let wgt_base = scratchpad.len() as u32;
                scratchpad.extend_from_slice(&packed.blob[span]);
                let active = driver.config.lanes.min(qw.out_c - ofm_first);
                let mut bias = [0i32; 4];
                for (lane, b) in bias.iter_mut().enumerate().take(active) {
                    *b = qw.bias_acc[ofm_first + lane].clamp(i32::MIN as i64, i32::MAX as i64) as i32;
                }
                instrs.push(Instruction::Conv(ConvInstr {
                    ofm_first: ofm_first as u16,
                    ifm_count: qw.in_c as u16,
                    ifm_base: 0,
                    ifm_tiles_x: in_layout.tiles_x as u16,
                    ifm_tile_rows: in_layout.tile_rows as u16,
                    ifm_row_offset: (stripe.out_a - stripe.in_lo) as u16,
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

            // Hand the already-parsed groups to the model executor only
            // on the cached path, so `weight_cache(false)` measures the
            // PR-5 baseline (scratchpad parse included) for the bench
            // speedup gate.
            let prepacked = (driver.weight_cache && grouping.is_none())
                .then(|| &groups[group_range.clone()]);
            let (cycles, result_banks) =
                exec.run(driver, banks, scratchpad, &instrs, &mut stats.counters, prepacked)?;
            stats.per_instance_cycles[instance] += cycles;
            let mut banks = result_banks;

            // DMA out this part's OFM channels.
            out_layout.load_channels(
                &banks,
                &mut out_fm,
                stripe.out_a..stripe.out_b,
                (part * chunk * driver.config.lanes)
                    ..(((part + 1) * chunk * driver.config.lanes).min(out_shape.c)),
            );
            stats.io_dma_cycles +=
                dma_fm_stripe(soc, dst_addr, &out_fm, stripe.out_a..stripe.out_b, &out_layout, &mut banks, false)?;
        }
    }

    stats.finish();
    // Tile-aligned compute fills whole tiles; cells beyond the logical
    // extent are don't-cares that downstream boundary windows must
    // read as zero.
    out_fm.zero_round_up_region();
    // Undo the grouping permutation so downstream layers see model
    // channel order (host-side relabeling; free at DMA time).
    if let Some(g) = &grouping {
        out_fm = unpermute_channels(&out_fm, &g.order);
    }
    Ok((out_fm, stats))
}

/// Runs one staged pad or pool pass (DDR regions as in [`conv_pass`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn poolpad_pass(
    driver: &Driver,
    soc: &mut SocHandle,
    exec: Exec,
    name: &str,
    input: &TiledFeatureMap<Sm8>,
    op: PoolPadOp,
    out_shape: Shape,
    src_addr: usize,
    dst_addr: usize,
) -> Result<(TiledFeatureMap<Sm8>, PassStats), DriverError> {
    let in_rows = input.tiles_y();
    let mut out_fm = TiledFeatureMap::<Sm8>::zeros(out_shape);
    let out_rows = out_fm.tiles_y();
    let channels = input.channels();
    let words_in = channels.div_ceil(4) * input.tiles_x();
    let words_out = channels.div_ceil(4) * out_fm.tiles_x();
    let stripes = super::stripes::plan_stripes(
        name,
        Some(op),
        out_rows,
        in_rows,
        words_in,
        words_out,
        driver.config.bank_tiles,
    )?;

    soc.stage_fm(src_addr, input);

    let mut stats = PassStats {
        per_instance_cycles: vec![0; driver.config.instances],
        stripes: stripes.len(),
        striping_factor: stripes.iter().map(|s| s.in_hi - s.in_lo).sum::<usize>() as f64
            / in_rows.max(1) as f64,
        ..Default::default()
    };

    for (si, stripe) in stripes.iter().enumerate() {
        let instance = si % driver.config.instances;
        let mut banks = BankSet::new(&driver.config);
        let in_layout = FmLayout {
            base: 0,
            channels,
            tiles_x: input.tiles_x(),
            tile_rows: stripe.in_hi - stripe.in_lo,
        };
        let out_layout = FmLayout {
            base: in_layout.end(),
            channels,
            tiles_x: out_fm.tiles_x(),
            tile_rows: stripe.out_b - stripe.out_a,
        };
        stats.io_dma_cycles +=
            dma_fm_stripe(soc, src_addr, input, stripe.in_lo..stripe.in_hi, &in_layout, &mut banks, true)?;

        let instr = Instruction::PoolPad(PoolPadInstr {
            channels: channels as u16,
            in_base: 0,
            in_tiles_x: in_layout.tiles_x as u16,
            in_tile_rows: in_layout.tile_rows as u16,
            in_row_start: stripe.in_lo as u16,
            out_base: out_layout.base as u32,
            out_tiles_x: out_layout.tiles_x as u16,
            out_tile_rows: out_layout.tile_rows as u16,
            out_row_start: stripe.out_a as u16,
            op,
        });
        let (cycles, result_banks) =
            exec.run(driver, banks, Vec::new(), &[instr], &mut stats.counters, None)?;
        stats.per_instance_cycles[instance] += cycles;
        let mut banks = result_banks;
        out_layout.load(&banks, &mut out_fm, stripe.out_a..stripe.out_b);
        stats.io_dma_cycles +=
            dma_fm_stripe(soc, dst_addr, &out_fm, stripe.out_a..stripe.out_b, &out_layout, &mut banks, false)?;
    }
    stats.finish();
    out_fm.zero_round_up_region();
    Ok((out_fm, stats))
}

/// Moves one FM stripe between DDR and banks via the DMA engine,
/// returning the cycle cost. `to_banks` selects the direction.
///
/// # Errors
/// [`DriverError::Dma`]: with a well-planned stripe this only happens
/// under injected faults (truncation, parity).
fn dma_fm_stripe(
    soc: &mut SocHandle,
    ddr_base: usize,
    fm: &TiledFeatureMap<Sm8>,
    rows: std::ops::Range<usize>,
    layout: &FmLayout,
    banks: &mut BankSet,
    to_banks: bool,
) -> Result<u64, DriverError> {
    use zskip_soc::dma::{DmaDescriptor, DmaDirection};
    let mut cycles = 0;
    let tiles_per_row = fm.tiles_x();
    let rows_per_channel = fm.tiles_y();
    for c in 0..fm.channels() {
        let ddr_addr = ddr_base + (c * rows_per_channel + rows.start) * tiles_per_row * TILE_BYTES;
        let desc = DmaDescriptor {
            direction: if to_banks { DmaDirection::DdrToBank } else { DmaDirection::BankToDdr },
            ddr_addr,
            bank: FmLayout::bank_of(c),
            bank_tile_index: layout.addr(c, 0, 0),
            tiles: rows.len() * tiles_per_row,
        };
        cycles += soc.dma.run(&desc, &mut soc.ddr, banks).map_err(DriverError::Dma)?;
    }
    Ok(cycles)
}

/// Reorders a layer's output filters (weights + bias) by `order`.
fn permute_filters(qw: &QuantConvWeights, order: &[usize]) -> QuantConvWeights {
    let kk = qw.k * qw.k;
    let per_filter = qw.in_c * kk;
    let mut w = Vec::with_capacity(qw.w.len());
    let mut bias = Vec::with_capacity(qw.bias_acc.len());
    for &o in order {
        w.extend_from_slice(&qw.w[o * per_filter..(o + 1) * per_filter]);
        bias.push(qw.bias_acc[o]);
    }
    QuantConvWeights::new(qw.out_c, qw.in_c, qw.k, w, bias, qw.requant, qw.relu)
}

/// Un-permutes channels of an FM produced under a filter grouping.
fn unpermute_channels(fm: &TiledFeatureMap<Sm8>, order: &[usize]) -> TiledFeatureMap<Sm8> {
    let mut out = TiledFeatureMap::zeros(fm.logical_shape());
    for (pos, &orig) in order.iter().enumerate() {
        for ty in 0..fm.tiles_y() {
            for tx in 0..fm.tiles_x() {
                *out.tile_mut(orig, ty, tx) = *fm.tile(pos, ty, tx);
            }
        }
    }
    out
}
