//! Networks with weights: synthetic generation, quantization, inference.
//!
//! This module is the Rust stand-in for the paper's Caffe flow (§IV-B/C):
//! start from a trained float model, prune to a sparsity profile, reduce to
//! 8-bit sign+magnitude by scaling, and hand the result to the accelerator
//! driver. Trained VGG-16 weights and ImageNet are data-gated (see
//! DESIGN.md), so float models are generated synthetically with seeded,
//! realistically-scaled distributions — everything downstream (sparsity
//! structure, zero-skipping, cycle counts, bit-exactness) is faithful.

use crate::conv::{conv2d_quant_into, conv2d_quant_into_pool, ConvWeights, QuantConvWeights};
use crate::eltwise::{
    add_f32, add_quant_phase1, add_quant_phase2, batchnorm_f32, global_avgpool_f32,
    global_avgpool_quant_into, BnWeights,
};
use crate::fc::{fc_f32, fc_quant_into, softmax, FcWeights, QuantFcWeights};
use crate::gemm::conv2d_gemm_f32;
use crate::layer::{LayerRef, LayerSpec, NetworkSpec};
use crate::par::ConvPool;
use crate::plan::{ExecPlan, PlanStep};
use crate::pool::{maxpool_f32, maxpool_quant_into};
use crate::scratch::{slot_pair, Scratch};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use zskip_quant::{prune_to_density, DensityProfile, QuantParams, Requantizer, Sm8};
use zskip_tensor::Tensor;

/// A float network: a spec plus per-layer weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    /// The layer graph.
    pub spec: NetworkSpec,
    /// Weights for each conv layer, in layer order.
    pub conv_weights: Vec<ConvWeights>,
    /// Weights for each FC layer, in layer order.
    pub fc_weights: Vec<FcWeights>,
    /// Weights for each batch-norm layer, in layer order (empty for
    /// BN-free networks; folded away by [`Network::fold_batchnorm`]).
    pub bn_weights: Vec<BnWeights>,
}

/// Configuration for synthetic model generation.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticModelConfig {
    /// RNG seed; identical seeds generate identical models.
    pub seed: u64,
    /// Per-conv-layer density profile applied by magnitude pruning.
    pub density: DensityProfile,
}

impl Default for SyntheticModelConfig {
    fn default() -> Self {
        SyntheticModelConfig { seed: 0x5eed, density: DensityProfile::dense(0) }
    }
}

impl Network {
    /// Generates a synthetic float model for a network spec: He-scaled
    /// Gaussian weights (`std = sqrt(2 / fan_in)`), small biases, then
    /// magnitude pruning per the density profile. Large weight tensors
    /// fill on [`ConvPool::auto_threads`] workers; see
    /// [`Network::synthetic_with_threads`].
    pub fn synthetic(spec: NetworkSpec, config: &SyntheticModelConfig) -> Network {
        Network::synthetic_with_threads(spec, config, ConvPool::auto_threads())
    }

    /// [`Network::synthetic`] with large weight tensors filled on
    /// `threads` workers. The network is bit-identical at every thread
    /// count: each value is a pure function of its position in the seed's
    /// keystream, whichever worker computes it.
    pub fn synthetic_with_threads(spec: NetworkSpec, config: &SyntheticModelConfig, threads: usize) -> Network {
        let shapes = spec.shapes().expect("network must be shape-valid");
        let mut rng = GaussianStream::new(config.seed, threads);
        let mut conv_weights = Vec::new();
        let mut fc_weights = Vec::new();
        let mut bn_weights = Vec::new();
        let mut conv_idx = 0;
        for (li, layer) in spec.layers.iter().enumerate() {
            match layer {
                LayerSpec::Conv { in_c, out_c, k, .. } => {
                    let fan_in = in_c * k * k;
                    let std = (2.0 / fan_in as f32).sqrt();
                    let mut w = ConvWeights::zeros(*out_c, *in_c, *k);
                    rng.fill(&mut w.w, std);
                    for b in w.bias.iter_mut() {
                        *b = rng.next() * 0.01;
                    }
                    prune_to_density(&mut w.w, config.density.density(conv_idx));
                    conv_idx += 1;
                    conv_weights.push(w);
                }
                LayerSpec::Fc { in_features, out_features, .. } => {
                    let std = (2.0 / *in_features as f32).sqrt();
                    let mut w = FcWeights::zeros(*out_features, *in_features);
                    rng.fill(&mut w.w, std);
                    for b in w.bias.iter_mut() {
                        *b = rng.next() * 0.01;
                    }
                    fc_weights.push(w);
                }
                LayerSpec::BatchNorm { .. } => {
                    // Realistic inference statistics: gamma near 1, small
                    // beta/mean, variance strictly positive near 1.
                    let c = shapes[li].c;
                    let mut bn = BnWeights::identity(c);
                    for i in 0..c {
                        bn.gamma[i] = 1.0 + rng.next() * 0.1;
                        bn.beta[i] = rng.next() * 0.05;
                        bn.mean[i] = rng.next() * 0.05;
                        bn.var[i] = (1.0 + rng.next() * 0.25).abs().max(0.05);
                    }
                    bn_weights.push(bn);
                }
                LayerSpec::MaxPool { .. }
                | LayerSpec::Softmax
                | LayerSpec::Ref { .. }
                | LayerSpec::Add { .. }
                | LayerSpec::GlobalAvgPool { .. } => {}
            }
        }
        Network { spec, conv_weights, fc_weights, bn_weights }
    }

    /// Folds every batch-norm layer into its preceding convolution's
    /// weights in f32 — the standard inference-time transform: scale
    /// output-channel `o`'s filters by `gamma[o] / sqrt(var[o] + eps)`
    /// and map the bias through the same per-channel affine. The BN layer
    /// disappears from the spec (its fused ReLU moves onto the conv) and
    /// every `Ref`/`Add` reference is remapped to the compacted indices.
    ///
    /// [`Network::quantize`] calls this first when the spec carries
    /// batch-norm, which pins the fold order: fold in f32, then quantize.
    pub fn fold_batchnorm(&self) -> Network {
        if !self.spec.has_batchnorm() {
            return self.clone();
        }
        let mut layers: Vec<LayerSpec> = Vec::with_capacity(self.spec.layers.len());
        // Old layer index -> index of the layer producing the same value
        // in the folded spec (a BN maps to its host conv).
        let mut index_map = vec![usize::MAX; self.spec.layers.len()];
        let mut conv_weights = self.conv_weights.clone();
        let mut conv_i = 0;
        let mut bn_i = 0;
        for (i, layer) in self.spec.layers.iter().enumerate() {
            match layer {
                LayerSpec::BatchNorm { relu, .. } => {
                    let bn = &self.bn_weights[bn_i];
                    bn_i += 1;
                    let w = &mut conv_weights[conv_i - 1];
                    let affine = bn.affine();
                    assert_eq!(affine.len(), w.out_c, "one affine per conv output channel");
                    let per_filter = w.in_c * w.k * w.k;
                    for (o, &(a, b)) in affine.iter().enumerate() {
                        for v in &mut w.w[o * per_filter..(o + 1) * per_filter] {
                            *v *= a;
                        }
                        w.bias[o] = a * w.bias[o] + b;
                    }
                    let host = layers.last_mut().expect("validated: BN follows its conv");
                    match host {
                        LayerSpec::Conv { relu: conv_relu, .. } => *conv_relu = *relu,
                        _ => unreachable!("validated: BN follows its conv"),
                    }
                    index_map[i] = layers.len() - 1;
                }
                _ => {
                    let mut l = layer.clone();
                    match &mut l {
                        LayerSpec::Ref { from, .. } | LayerSpec::Add { from, .. } => {
                            if let LayerRef::Layer(j) = from {
                                *from = LayerRef::Layer(index_map[*j]);
                            }
                        }
                        LayerSpec::Conv { .. } => conv_i += 1,
                        _ => {}
                    }
                    layers.push(l);
                    index_map[i] = layers.len() - 1;
                }
            }
        }
        let spec = NetworkSpec { name: self.spec.name.clone(), input: self.spec.input, layers };
        debug_assert!(spec.shapes().is_ok(), "folding preserves validity");
        Network { spec, conv_weights, fc_weights: self.fc_weights.clone(), bn_weights: Vec::new() }
    }

    /// Float forward pass, invoking `visit(layer_index, activation)` after
    /// every layer (index 0 receives the input). Returns the final
    /// activation flattened. Convolutions run on the blocked
    /// [`conv2d_gemm_f32`], bit-identical to the direct
    /// [`crate::conv::conv2d_f32`] oracle.
    pub fn forward_f32_with(
        &self,
        input: &Tensor<f32>,
        mut visit: impl FnMut(usize, &Tensor<f32>),
    ) -> Vec<f32> {
        visit(0, input);
        // The float oracle favours clarity over memory: every boundary
        // activation is kept so `Ref`/`Add` can reach back into the DAG
        // (`acts[0]` is the input, `acts[i + 1]` the output of layer `i`).
        let mut acts: Vec<Tensor<f32>> = Vec::with_capacity(self.spec.layers.len() + 1);
        acts.push(input.clone());
        let mut conv_i = 0;
        let mut fc_i = 0;
        let mut bn_i = 0;
        for (li, layer) in self.spec.layers.iter().enumerate() {
            let next = {
                let prev = acts.last().expect("non-empty");
                let resolve = |r: &LayerRef| match r {
                    LayerRef::Input => &acts[0],
                    LayerRef::Layer(j) => &acts[j + 1],
                };
                match layer {
                    LayerSpec::Conv { stride, pad, relu, .. } => {
                        let out = conv2d_gemm_f32(prev, &self.conv_weights[conv_i], *stride, *pad, *relu);
                        conv_i += 1;
                        out
                    }
                    LayerSpec::MaxPool { k, stride, .. } => maxpool_f32(prev, *k, *stride),
                    LayerSpec::Fc { relu, .. } => {
                        let out = fc_f32(prev.as_slice(), &self.fc_weights[fc_i], *relu);
                        fc_i += 1;
                        Tensor::from_vec(out.len(), 1, 1, out)
                    }
                    LayerSpec::Softmax => {
                        let out = softmax(prev.as_slice());
                        Tensor::from_vec(out.len(), 1, 1, out)
                    }
                    LayerSpec::Ref { from, .. } => resolve(from).clone(),
                    LayerSpec::Add { from, relu, .. } => add_f32(prev, resolve(from), *relu),
                    LayerSpec::GlobalAvgPool { .. } => global_avgpool_f32(prev),
                    LayerSpec::BatchNorm { relu, .. } => {
                        let out = batchnorm_f32(prev, &self.bn_weights[bn_i], *relu);
                        bn_i += 1;
                        out
                    }
                }
            };
            visit(li + 1, &next);
            acts.push(next);
        }
        acts.pop().expect("non-empty").into_vec()
    }

    /// Float forward pass.
    pub fn forward_f32(&self, input: &Tensor<f32>) -> Vec<f32> {
        self.forward_f32_with(input, |_, _| {})
    }

    /// Quantizes this network to 8-bit sign+magnitude using the given
    /// calibration inputs to set activation scales (max-abs calibration).
    /// With no calibration inputs, all activation scales default to 1.0.
    ///
    /// Batch-norm folds **before** quantization ([`Network::fold_batchnorm`]
    /// runs first when the spec carries BN), so the returned network's
    /// spec is BN-free; calibration then sees the folded activations.
    pub fn quantize(&self, calibration: &[Tensor<f32>]) -> QuantizedNetwork {
        if self.spec.has_batchnorm() {
            return self.fold_batchnorm().quantize(calibration);
        }
        let boundaries = self.spec.layers.len() + 1;
        let mut max_abs = vec![0f32; boundaries];
        for input in calibration {
            self.forward_f32_with(input, |i, act| {
                let m = act.as_slice().iter().fold(0f32, |m, &v| m.max(v.abs()));
                max_abs[i] = max_abs[i].max(m);
            });
        }
        let scales: Vec<f32> =
            max_abs.iter().map(|&m| if m > 0.0 { m / 127.0 } else { 1.0 }).collect();

        let mut conv = Vec::new();
        let mut fc = Vec::new();
        let mut conv_i = 0;
        let mut fc_i = 0;
        for (li, layer) in self.spec.layers.iter().enumerate() {
            let s_in = scales[li];
            let s_out = scales[li + 1];
            match layer {
                LayerSpec::Conv { relu, .. } => {
                    let w = &self.conv_weights[conv_i];
                    let wq = QuantParams::from_max_abs(&w.w);
                    conv.push(QuantizedConvLayer {
                        layer_index: li,
                        weights: QuantConvWeights::new(
                            w.out_c,
                            w.in_c,
                            w.k,
                            w.w.iter().map(|&v| wq.quantize(v)).collect(),
                            w.bias
                                .iter()
                                .map(|&b| (b / (s_in * wq.scale)).round() as i64)
                                .collect(),
                            Requantizer::from_ratio((s_in * wq.scale / s_out) as f64),
                            *relu,
                        ),
                        in_scale: s_in,
                        w_scale: wq.scale,
                        out_scale: s_out,
                    });
                    conv_i += 1;
                }
                LayerSpec::Fc { relu, .. } => {
                    let w = &self.fc_weights[fc_i];
                    let wq = QuantParams::from_max_abs(&w.w);
                    fc.push(QuantFcWeights {
                        out_features: w.out_features,
                        in_features: w.in_features,
                        w: w.w.iter().map(|&v| wq.quantize(v)).collect(),
                        bias_acc: w
                            .bias
                            .iter()
                            .map(|&b| (b / (s_in * wq.scale)).round() as i64)
                            .collect(),
                        requant: Requantizer::from_ratio((s_in * wq.scale / s_out) as f64),
                        relu: *relu,
                    });
                    fc_i += 1;
                }
                // Ref/Add/GAP carry no weights: their requantizers derive
                // from the activation scales on demand (see
                // [`QuantizedNetwork::add_requantizers`]).
                LayerSpec::MaxPool { .. }
                | LayerSpec::Softmax
                | LayerSpec::Ref { .. }
                | LayerSpec::Add { .. }
                | LayerSpec::GlobalAvgPool { .. } => {}
                LayerSpec::BatchNorm { .. } => unreachable!("folded above"),
            }
        }
        QuantizedNetwork {
            spec: self.spec.clone(),
            plan: ExecPlan::build(&self.spec).expect("network must be shape-valid"),
            input_params: QuantParams { scale: scales[0] },
            activation_scales: scales,
            conv,
            fc,
        }
    }
}

impl Network {
    /// Quantizes this network with **ternary** conv weights (the paper's
    /// future-work network style): each conv layer's weights become
    /// `{-1, 0, +1}` with a per-layer scale, inducing 30-60% sparsity that
    /// the zero-skipping hardware exploits directly. FC layers stay 8-bit.
    pub fn quantize_ternary(&self, calibration: &[Tensor<f32>]) -> QuantizedNetwork {
        use zskip_quant::TernaryParams;
        if self.spec.has_batchnorm() {
            // Fold first so the layer walk below sees the same spec the
            // 8-bit quantization produced.
            return self.fold_batchnorm().quantize_ternary(calibration);
        }
        // Start from the 8-bit quantization for activation scales and FC.
        let mut q = self.quantize(calibration);
        let mut conv_i = 0;
        for (li, layer) in self.spec.layers.iter().enumerate() {
            if let LayerSpec::Conv { relu, .. } = layer {
                let w = &self.conv_weights[conv_i];
                let s_in = q.activation_scales[li];
                let s_out = q.activation_scales[li + 1];
                let t = TernaryParams::from_weights(&w.w);
                let ql = &mut q.conv[conv_i];
                ql.weights.w = t.quantize_all(&w.w);
                ql.weights.bias_acc =
                    w.bias.iter().map(|&b| (b / (s_in * t.scale)).round() as i64).collect();
                ql.weights.requant = t.requantizer(s_in, s_out);
                ql.weights.relu = *relu;
                ql.weights.invalidate_caches();
                ql.w_scale = t.scale;
                conv_i += 1;
            }
        }
        q
    }
}

/// One quantized conv layer with its scale bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedConvLayer {
    /// Index of this layer in the network spec.
    pub layer_index: usize,
    /// The integer operands (what the accelerator consumes).
    pub weights: QuantConvWeights,
    /// Input activation scale.
    pub in_scale: f32,
    /// Weight scale.
    pub w_scale: f32,
    /// Output activation scale.
    pub out_scale: f32,
}

/// A fully quantized network: the artifact handed to the accelerator driver.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedNetwork {
    /// The layer graph (shared with the float model; batch-norm-free —
    /// quantization folds BN away).
    pub spec: NetworkSpec,
    /// The DAG execution plan (slot assignment and liveness) the scratch
    /// forward pass and the accelerator driver both walk.
    pub plan: ExecPlan,
    /// Quantizer for network inputs.
    pub input_params: QuantParams,
    /// Activation scale at every layer boundary (len = layers + 1).
    pub activation_scales: Vec<f32>,
    /// Quantized conv layers, in order.
    pub conv: Vec<QuantizedConvLayer>,
    /// Quantized FC layers, in order.
    pub fc: Vec<QuantFcWeights>,
}

impl QuantizedNetwork {
    /// Integer-exact forward pass (the software golden model). Returns the
    /// final quantized activations.
    ///
    /// Convenience wrapper over [`QuantizedNetwork::forward_quant_scratch`]
    /// with a throwaway arena; streaming callers should hold a [`Scratch`]
    /// and call the `_scratch` variant so steady-state images allocate
    /// nothing.
    pub fn forward_quant(&self, input: &Tensor<f32>) -> Vec<Sm8> {
        let mut scratch = Scratch::new();
        self.forward_quant_scratch(input, &mut scratch).to_vec()
    }

    /// Integer-exact forward pass through a caller-owned buffer arena.
    /// Returns a borrow of the final quantized activations inside the
    /// arena (copy it out before the next image).
    ///
    /// The first image through a network grows the arena and warms the
    /// per-layer weight caches; after that the whole pass performs zero
    /// heap allocations (`tests/alloc_free.rs` asserts this with a
    /// counting allocator). Kernels run at [`Scratch::tier`].
    pub fn forward_quant_scratch<'s>(&self, input: &Tensor<f32>, scratch: &'s mut Scratch) -> &'s [Sm8] {
        let before = scratch.capacity_bytes();
        let tier = scratch.tier();
        scratch.ensure_slots(self.plan.slots.max(1));
        let mut flat_cur: Option<usize> = None;
        {
            let Scratch { slots, acc, flat, pool, .. } = scratch;
            // The plan always places the network input in slot 0.
            input.map_into(&mut slots[0], |v| self.input_params.quantize(v));
            let mut conv_i = 0;
            let mut fc_i = 0;
            for step in &self.plan.steps {
                let layer = &self.spec.layers[step.layer];
                match layer {
                    LayerSpec::Conv { stride, pad, .. } => {
                        let (src, dst) = slot_pair(slots, step.src.expect("conv reads a slot"), step.dst.expect("conv writes a slot"));
                        match pool.as_deref() {
                            Some(p) => conv2d_quant_into_pool(
                                src,
                                &self.conv[conv_i].weights,
                                *stride,
                                *pad,
                                tier,
                                p,
                                acc,
                                dst,
                            ),
                            None => conv2d_quant_into(
                                src,
                                &self.conv[conv_i].weights,
                                *stride,
                                *pad,
                                tier,
                                acc,
                                dst,
                            ),
                        }
                        conv_i += 1;
                    }
                    LayerSpec::MaxPool { k, stride, .. } => {
                        let (src, dst) = slot_pair(slots, step.src.expect("pool reads a slot"), step.dst.expect("pool writes a slot"));
                        maxpool_quant_into(src, *k, *stride, dst);
                    }
                    // A Ref is a pure alias: its plan step re-emits the
                    // source slot (`dst == src`), no data moves.
                    LayerSpec::Ref { .. } => {}
                    LayerSpec::Add { relu, .. } => {
                        let (ra, rb) = self.add_requantizers(step);
                        add_quant_phase1(&slots[step.src.expect("add reads a slot")], ra, acc);
                        let (b, dst) = slot_pair(slots, step.operand.expect("add has an operand"), step.dst.expect("add writes a slot"));
                        add_quant_phase2(b, rb, *relu, acc, dst);
                    }
                    LayerSpec::GlobalAvgPool { .. } => {
                        let (src, dst) = slot_pair(slots, step.src.expect("gap reads a slot"), step.dst.expect("gap writes a slot"));
                        let r = self.gap_requantizer(step, src.shape().h * src.shape().w);
                        global_avgpool_quant_into(src, r, dst);
                    }
                    LayerSpec::Fc { .. } => {
                        match flat_cur {
                            Some(fi) => {
                                let (lo, hi) = flat.split_at_mut(1);
                                let (src, dst) =
                                    if fi == 0 { (&lo[0], &mut hi[0]) } else { (&hi[0], &mut lo[0]) };
                                fc_quant_into(src, &self.fc[fc_i], dst);
                                flat_cur = Some(1 - fi);
                            }
                            None => {
                                let src = &slots[step.src.expect("first fc reads a slot")];
                                fc_quant_into(src.as_slice(), &self.fc[fc_i], &mut flat[0]);
                                flat_cur = Some(0);
                            }
                        }
                        fc_i += 1;
                    }
                    LayerSpec::Softmax => {
                        // Softmax is monotone; the quantized path carries logits
                        // through (classification by argmax is unchanged).
                    }
                    LayerSpec::BatchNorm { .. } => {
                        unreachable!("quantize() folds batch-norm before execution")
                    }
                }
            }
        }
        if scratch.capacity_bytes() != before {
            scratch.grow_events += 1;
        }
        match flat_cur {
            Some(fi) => &scratch.flat[fi],
            None => scratch.slots[self.plan.output_slot.unwrap_or(0)].as_slice(),
        }
    }

    /// Requantizers bringing an [`LayerSpec::Add`] step's two operands to
    /// the layer's output scale (`s_operand / s_out` each): applied raw
    /// (to `i32`), summed, then saturated once — the shared definition of
    /// the quantized residual join for oracle and driver.
    pub fn add_requantizers(&self, step: &PlanStep) -> (Requantizer, Requantizer) {
        let s_out = self.activation_scales[step.layer + 1];
        let ra = self.boundary_scale(step.src_layer) / s_out;
        let rb = self.boundary_scale(step.operand_layer) / s_out;
        (Requantizer::from_ratio(ra as f64), Requantizer::from_ratio(rb as f64))
    }

    /// Requantizer for a [`LayerSpec::GlobalAvgPool`] step over `n`
    /// spatial positions: the `1/n` mean divisor folds into the scale
    /// ratio, so the exact `i64` channel sum requantizes in one step.
    pub fn gap_requantizer(&self, step: &PlanStep, n: usize) -> Requantizer {
        let s_in = self.boundary_scale(step.src_layer);
        let s_out = self.activation_scales[step.layer + 1];
        Requantizer::from_ratio(s_in as f64 / (s_out as f64 * n as f64))
    }

    /// The activation scale at a plan step's input boundary (`None` = the
    /// network input).
    fn boundary_scale(&self, layer: Option<usize>) -> f32 {
        match layer {
            None => self.activation_scales[0],
            Some(j) => self.activation_scales[j + 1],
        }
    }

    /// Forward pass returning dequantized (approximate float) logits.
    pub fn forward_dequant(&self, input: &Tensor<f32>) -> Vec<f32> {
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        self.forward_dequant_into(input, &mut scratch, &mut out);
        out
    }

    /// [`QuantizedNetwork::forward_dequant`] through a caller-owned arena,
    /// writing the logits into a reused vector (fidelity sweeps call this
    /// per input without allocating on the quantized side).
    pub fn forward_dequant_into(&self, input: &Tensor<f32>, scratch: &mut Scratch, out: &mut Vec<f32>) {
        // The last non-softmax boundary scale applies to the logits.
        let scale = self
            .spec
            .layers
            .iter()
            .rposition(|l| !matches!(l, LayerSpec::Softmax))
            .map(|i| self.activation_scales[i + 1])
            .unwrap_or(1.0);
        let q = self.forward_quant_scratch(input, scratch);
        out.clear();
        out.extend(q.iter().map(|&v| v.to_i32() as f32 * scale));
    }

    /// Per-conv-layer weight density, in layer order.
    pub fn conv_densities(&self) -> Vec<f64> {
        self.conv.iter().map(|c| c.weights.density()).collect()
    }
}

/// Standard Gaussian via Box-Muller (keeps dependencies minimal and seeds
/// reproducible across `rand` versions).
fn gaussian(rng: &mut impl Rng) -> f32 {
    loop {
        let u1: f32 = rng.gen::<f32>();
        let u2: f32 = rng.gen::<f32>();
        if let Some(v) = box_muller(u1, u2) {
            return v;
        }
    }
}

/// One Box-Muller draw from two uniforms, or `None` when `u1` is too
/// small for `ln` (the draw is rejected and [`gaussian`] tries again).
#[inline]
fn box_muller(u1: f32, u2: f32) -> Option<f32> {
    (u1 > f32::EPSILON).then(|| (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos())
}

/// Keystream words one [`gaussian`] attempt reads (two `u64` uniforms).
const GROUP_WORDS: u128 = 4;

/// Slices shorter than this fill serially, so small layers spawn no
/// threads (every ResNet-18 layer, at most 147456 weights, stays serial).
const PAR_FILL_MIN: usize = 1 << 18;

/// The synthetic-weight source: standard Gaussians from one ChaCha8
/// keystream, the same sequence [`gaussian`] draws one at a time.
///
/// Each attempt reads one 4-word *group* of the stream and is rejected
/// exactly when its `u1` is at most `f32::EPSILON`, so an accepted
/// group's value depends only on its group index. [`GaussianStream::fill`]
/// exploits that: workers seek to disjoint group ranges and evaluate them
/// in parallel, then one pass drops the (rare) rejected groups and tops
/// the slice up from the end of the range. The result and the final
/// stream position equal the serial draws at any worker count.
struct GaussianStream {
    rng: ChaCha8Rng,
    threads: usize,
}

impl GaussianStream {
    fn new(seed: u64, threads: usize) -> Self {
        GaussianStream { rng: ChaCha8Rng::seed_from_u64(seed), threads: threads.max(1) }
    }

    /// The next value of the sequence.
    fn next(&mut self) -> f32 {
        gaussian(&mut self.rng)
    }

    /// Sets `out[i]` to the next `out.len()` values, each times `scale`.
    fn fill(&mut self, out: &mut [f32], scale: f32) {
        if self.threads == 1 || out.len() < PAR_FILL_MIN {
            for v in out.iter_mut() {
                *v = self.next() * scale;
            }
            return;
        }
        let start = self.rng.get_word_pos();
        let per = out.len().div_ceil(self.threads);
        // Slot `i` of `out` evaluates group `i` past `start`; the indices
        // of rejected groups come back in ascending order.
        let rejected: Vec<usize> = std::thread::scope(|s| {
            let workers: Vec<_> = out
                .chunks_mut(per)
                .enumerate()
                .map(|(t, chunk)| {
                    let mut rng = self.rng.clone();
                    s.spawn(move || {
                        let first = t * per;
                        rng.set_word_pos(start + first as u128 * GROUP_WORDS);
                        let mut rejected = Vec::new();
                        for (i, v) in chunk.iter_mut().enumerate() {
                            let u1: f32 = rng.gen::<f32>();
                            let u2: f32 = rng.gen::<f32>();
                            match box_muller(u1, u2) {
                                Some(g) => *v = g * scale,
                                None => rejected.push(first + i),
                            }
                        }
                        rejected
                    })
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().expect("gaussian fill worker panicked")).collect()
        });
        // Drop the rejected slots, keeping accepted values in order.
        let first = rejected.first().copied().unwrap_or(out.len());
        let mut kept = first;
        let mut skip = rejected.iter().peekable();
        for i in first..out.len() {
            if skip.next_if_eq(&&i).is_none() {
                out[kept] = out[i];
                kept += 1;
            }
        }
        self.rng.set_word_pos(start + out.len() as u128 * GROUP_WORDS);
        for v in &mut out[kept..] {
            *v = self.next() * scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{conv3x3, maxpool2x2};
    use zskip_quant::sparsity;
    use zskip_tensor::Shape;

    fn tiny_spec() -> NetworkSpec {
        NetworkSpec {
            name: "tiny".into(),
            input: Shape::new(3, 8, 8),
            layers: vec![
                conv3x3("c1", 3, 8),
                maxpool2x2("p1"),
                conv3x3("c2", 8, 16),
                maxpool2x2("p2"),
                LayerSpec::Fc { name: "fc".into(), in_features: 16 * 2 * 2, out_features: 10, relu: false },
                LayerSpec::Softmax,
            ],
        }
    }

    fn tiny_input(seed: u64) -> Tensor<f32> {
        Tensor::from_fn(3, 8, 8, |c, y, x| {
            (((c * 64 + y * 8 + x) as f32 + seed as f32) * 0.618).sin()
        })
    }

    #[test]
    fn synthetic_is_deterministic() {
        let cfg = SyntheticModelConfig { seed: 7, density: DensityProfile::dense(2) };
        let a = Network::synthetic(tiny_spec(), &cfg);
        let b = Network::synthetic(tiny_spec(), &cfg);
        assert_eq!(a, b);
        let c = Network::synthetic(tiny_spec(), &SyntheticModelConfig { seed: 8, ..cfg });
        assert_ne!(a, c);
    }

    #[test]
    fn parallel_fill_equals_serial_draws_across_a_rejected_group() {
        const SEED: u64 = 156;
        let n = PAR_FILL_MIN;
        // The first group of the seed's stream whose draw is rejected.
        let mut scan = ChaCha8Rng::seed_from_u64(SEED);
        let rejected = (0..1u128 << 22)
            .find(|_| {
                let u1: f32 = scan.gen::<f32>();
                let u2: f32 = scan.gen::<f32>();
                box_muller(u1, u2).is_none()
            })
            .expect("a rejected group within the first 4 Mi groups");
        // Start the fill so the rejected group is the first slot of the
        // second worker at 2 workers (and of the third at 4).
        let half = (n / 2) as u128;
        assert!(rejected >= half, "seed {SEED} rejects too early (group {rejected})");
        let start = (rejected - half) * GROUP_WORDS;
        let mut serial = ChaCha8Rng::seed_from_u64(SEED);
        serial.set_word_pos(start);
        let expect: Vec<u32> = (0..n).map(|_| (gaussian(&mut serial) * 0.5).to_bits()).collect();
        for threads in 1..=4 {
            let mut stream = GaussianStream::new(SEED, threads);
            stream.rng.set_word_pos(start);
            let mut got = vec![0f32; n];
            stream.fill(&mut got, 0.5);
            let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            assert!(got == expect, "{threads} workers diverge from the serial draws");
            assert_eq!(stream.rng.get_word_pos(), serial.get_word_pos(), "{threads} workers end elsewhere");
            assert_eq!(stream.next().to_bits(), gaussian(&mut serial.clone()).to_bits());
        }
    }

    #[test]
    fn synthetic_is_identical_at_every_thread_count() {
        // conv2 holds 294912 weights, enough for the parallel fill.
        let spec = NetworkSpec {
            name: "wide".into(),
            input: Shape::new(3, 4, 4),
            layers: vec![conv3x3("c1", 3, 128), conv3x3("c2", 128, 256)],
        };
        let cfg = SyntheticModelConfig { seed: 3, density: DensityProfile::uniform(2, 0.5) };
        let serial = Network::synthetic_with_threads(spec.clone(), &cfg, 1);
        for threads in 2..=4 {
            assert_eq!(Network::synthetic_with_threads(spec.clone(), &cfg, threads), serial, "{threads} workers");
        }
    }

    #[test]
    fn synthetic_respects_density_profile() {
        let cfg = SyntheticModelConfig { seed: 1, density: DensityProfile::uniform(2, 0.25) };
        let net = Network::synthetic(tiny_spec(), &cfg);
        for w in &net.conv_weights {
            let s = sparsity(&w.w);
            assert!((s - 0.75).abs() < 0.02, "sparsity {s}");
        }
    }

    #[test]
    fn forward_produces_distribution_after_softmax() {
        let net = Network::synthetic(tiny_spec(), &SyntheticModelConfig::default());
        let out = net.forward_f32(&tiny_input(0));
        assert_eq!(out.len(), 10);
        assert!((out.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(out.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn quantized_forward_agrees_with_float_argmax() {
        let net = Network::synthetic(tiny_spec(), &SyntheticModelConfig::default());
        let calib: Vec<Tensor<f32>> = (0..4).map(tiny_input).collect();
        let qnet = net.quantize(&calib);
        let mut agree = 0;
        let n = 8;
        for i in 0..n {
            let input = tiny_input(100 + i);
            let f = net.forward_f32(&input);
            let q = qnet.forward_dequant(&input);
            assert_eq!(q.len(), 10);
            if crate::fc::argmax(&f) == crate::fc::argmax(&q) {
                agree += 1;
            }
        }
        // 8-bit quantization should agree on most random inputs.
        assert!(agree >= n * 3 / 4, "agreement {agree}/{n}");
    }

    #[test]
    fn quantized_network_preserves_density() {
        let cfg = SyntheticModelConfig { seed: 3, density: DensityProfile::uniform(2, 0.3) };
        let net = Network::synthetic(tiny_spec(), &cfg);
        let qnet = net.quantize(&[tiny_input(0)]);
        for d in qnet.conv_densities() {
            // Quantization can only add zeros (small weights round to 0).
            assert!(d <= 0.32, "density {d}");
        }
    }

    #[test]
    fn scratch_forward_matches_allocating_forward_and_stops_growing() {
        let net = Network::synthetic(tiny_spec(), &SyntheticModelConfig::default());
        let qnet = net.quantize(&[tiny_input(0)]);
        let mut scratch = Scratch::new();
        for i in 0..4 {
            let input = tiny_input(200 + i);
            let fresh = qnet.forward_quant(&input);
            let reused = qnet.forward_quant_scratch(&input, &mut scratch).to_vec();
            assert_eq!(fresh, reused, "image {i}");
        }
        // Same-shaped images: only the first pass may grow the arena.
        assert_eq!(scratch.grow_events(), 1);
    }

    #[test]
    fn scratch_forward_is_tier_independent() {
        let net = Network::synthetic(tiny_spec(), &SyntheticModelConfig::default());
        let qnet = net.quantize(&[tiny_input(0)]);
        let input = tiny_input(42);
        let mut base = Scratch::with_tier(crate::simd::KernelTier::Scalar);
        let want = qnet.forward_quant_scratch(&input, &mut base).to_vec();
        for tier in crate::simd::KernelTier::supported() {
            let mut s = Scratch::with_tier(tier);
            assert_eq!(qnet.forward_quant_scratch(&input, &mut s), &want[..], "tier {tier}");
        }
    }

    /// A residual block with batch-norm, a projection shortcut, global
    /// average pooling, and an FC head — every new layer type at once.
    fn residual_spec() -> NetworkSpec {
        use crate::layer::{conv1x1, LayerRef};
        NetworkSpec {
            name: "res-tiny".into(),
            input: Shape::new(3, 8, 8),
            layers: vec![
                LayerSpec::Conv { name: "stem".into(), in_c: 3, out_c: 4, k: 3, stride: 1, pad: 1, relu: false },
                LayerSpec::BatchNorm { name: "stem_bn".into(), relu: true },
                LayerSpec::Conv { name: "c1".into(), in_c: 4, out_c: 4, k: 3, stride: 1, pad: 1, relu: false },
                LayerSpec::BatchNorm { name: "c1_bn".into(), relu: true },
                LayerSpec::Conv { name: "c2".into(), in_c: 4, out_c: 4, k: 3, stride: 1, pad: 1, relu: false },
                LayerSpec::BatchNorm { name: "c2_bn".into(), relu: false },
                LayerSpec::Add { name: "join".into(), from: LayerRef::Layer(1), relu: true },
                maxpool2x2("pool"),
                LayerSpec::Ref { name: "skip".into(), from: LayerRef::Layer(6) },
                conv1x1("proj", 4, 6),
                LayerSpec::BatchNorm { name: "proj_bn".into(), relu: false },
                LayerSpec::GlobalAvgPool { name: "gap".into() },
                LayerSpec::Fc { name: "fc".into(), in_features: 6, out_features: 5, relu: false },
                LayerSpec::Softmax,
            ],
        }
    }

    #[test]
    fn fold_batchnorm_matches_the_float_bn_oracle() {
        let net = Network::synthetic(residual_spec(), &SyntheticModelConfig { seed: 11, ..Default::default() });
        let folded = net.fold_batchnorm();
        assert!(!folded.spec.has_batchnorm());
        assert!(folded.bn_weights.is_empty());
        assert_eq!(folded.spec.layers.len(), net.spec.layers.len() - 4);
        for i in 0..4 {
            let input = tiny_input(300 + i);
            let a = net.forward_f32(&input);
            let b = folded.forward_f32(&input);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-4, "fold drifted: {x} vs {y}");
            }
        }
    }

    #[test]
    fn residual_quantized_forward_agrees_with_float_argmax() {
        let net = Network::synthetic(residual_spec(), &SyntheticModelConfig { seed: 5, ..Default::default() });
        let calib: Vec<Tensor<f32>> = (0..4).map(tiny_input).collect();
        let qnet = net.quantize(&calib);
        assert!(!qnet.spec.has_batchnorm(), "quantization folds BN away");
        assert_eq!(qnet.plan.slots, 3, "skip branch holds a third slot");
        let mut agree = 0;
        let n = 8;
        for i in 0..n {
            let input = tiny_input(400 + i);
            let f = net.forward_f32(&input);
            let q = qnet.forward_dequant(&input);
            if crate::fc::argmax(&f) == crate::fc::argmax(&q) {
                agree += 1;
            }
        }
        assert!(agree >= n * 3 / 4, "agreement {agree}/{n}");
    }

    #[test]
    fn residual_scratch_forward_is_warm_allocation_stable_and_tier_independent() {
        let net = Network::synthetic(residual_spec(), &SyntheticModelConfig::default());
        let qnet = net.quantize(&[tiny_input(0)]);
        let mut scratch = Scratch::with_tier(crate::simd::KernelTier::Scalar);
        let mut want = Vec::new();
        for i in 0..4 {
            let input = tiny_input(500 + i);
            let fresh = qnet.forward_quant(&input);
            let reused = qnet.forward_quant_scratch(&input, &mut scratch).to_vec();
            assert_eq!(fresh, reused, "image {i}");
            if i == 0 {
                want = fresh;
            }
        }
        assert_eq!(scratch.grow_events(), 1, "skip slots must reuse after warmup");
        let input = tiny_input(500);
        for tier in crate::simd::KernelTier::supported() {
            let mut s = Scratch::with_tier(tier);
            assert_eq!(qnet.forward_quant_scratch(&input, &mut s), &want[..], "tier {tier}");
        }
    }

    #[test]
    fn visit_sees_every_boundary() {
        let net = Network::synthetic(tiny_spec(), &SyntheticModelConfig::default());
        let mut seen = Vec::new();
        net.forward_f32_with(&tiny_input(0), |i, act| seen.push((i, act.shape())));
        assert_eq!(seen.len(), 7);
        assert_eq!(seen[0].1, Shape::new(3, 8, 8));
        assert_eq!(seen[6].1, Shape::new(10, 1, 1));
    }
}

#[cfg(test)]
mod fold_order_tests {
    use super::*;
    use crate::layer::conv3x3;
    use proptest::prelude::*;
    use zskip_tensor::Shape;

    fn bn_spec() -> NetworkSpec {
        NetworkSpec {
            name: "bn-prop".into(),
            input: Shape::new(2, 6, 6),
            layers: vec![
                LayerSpec::Conv { name: "c1".into(), in_c: 2, out_c: 3, k: 3, stride: 1, pad: 1, relu: false },
                LayerSpec::BatchNorm { name: "c1_bn".into(), relu: true },
                conv3x3("c2", 3, 3),
                LayerSpec::Add { name: "join".into(), from: LayerRef::Layer(1), relu: false },
            ],
        }
    }

    fn input(seed: u64) -> Tensor<f32> {
        Tensor::from_fn(2, 6, 6, |c, y, x| (((c * 36 + y * 6 + x) as f32 + seed as f32) * 0.41).sin())
    }

    proptest! {
        /// Pins the fold order: quantizing a BN-carrying network is
        /// bit-identical to folding batch-norm in f32 first and then
        /// quantizing, across random BN statistics and epsilons. Any
        /// future change that quantizes first and folds integer weights
        /// afterwards must reproduce this exactly.
        #[test]
        fn quantizing_with_bn_equals_folding_then_quantizing(
            seed in 0u64..500,
            gamma in proptest::collection::vec(0.2f32..3.0, 3),
            beta in proptest::collection::vec(-0.5f32..0.5, 3),
            mean in proptest::collection::vec(-0.5f32..0.5, 3),
            var in proptest::collection::vec(0.05f32..4.0, 3),
            eps in prop_oneof![Just(1e-5f32), Just(1e-3f32), Just(0.1f32)],
        ) {
            let mut net = Network::synthetic(
                bn_spec(),
                &SyntheticModelConfig { seed, ..Default::default() },
            );
            net.bn_weights = vec![BnWeights { gamma, beta, mean, var, eps }];
            let calib: Vec<Tensor<f32>> = (0..2).map(input).collect();
            let with_bn = net.quantize(&calib);
            let folded_first = net.fold_batchnorm().quantize(&calib);
            prop_assert_eq!(&with_bn, &folded_first);
            let x = input(seed + 1000);
            prop_assert_eq!(with_bn.forward_quant(&x), folded_first.forward_quant(&x));
        }
    }
}

#[cfg(test)]
mod ternary_tests {
    use super::*;
    use crate::layer::{conv3x3, maxpool2x2, NetworkSpec};
    use zskip_tensor::Shape;

    fn spec() -> NetworkSpec {
        NetworkSpec {
            name: "t".into(),
            input: Shape::new(3, 8, 8),
            layers: vec![
                conv3x3("c1", 3, 8),
                maxpool2x2("p1"),
                LayerSpec::Fc { name: "fc".into(), in_features: 8 * 4 * 4, out_features: 4, relu: false },
            ],
        }
    }

    fn input(seed: u64) -> Tensor<f32> {
        Tensor::from_fn(3, 8, 8, |c, y, x| (((c * 64 + y * 8 + x) as f32 + seed as f32) * 0.37).sin())
    }

    #[test]
    fn ternary_weights_are_three_valued_and_sparse() {
        let net = Network::synthetic(spec(), &SyntheticModelConfig::default());
        let q = net.quantize_ternary(&[input(0)]);
        for layer in &q.conv {
            for w in &layer.weights.w {
                assert!(w.to_i32().abs() <= 1);
            }
            let d = layer.weights.density();
            assert!((0.2..0.85).contains(&d), "density {d}");
        }
    }

    #[test]
    fn ternary_network_still_classifies_like_float() {
        let net = Network::synthetic(spec(), &SyntheticModelConfig::default());
        let calib: Vec<Tensor<f32>> = (0..3).map(input).collect();
        let q = net.quantize_ternary(&calib);
        // Ternary is lossier than 8-bit; demand majority agreement only.
        let mut agree = 0;
        let n = 10;
        for i in 0..n {
            let x = input(50 + i);
            let f = net.forward_f32(&x);
            let t = q.forward_dequant(&x);
            if crate::fc::argmax(&f) == crate::fc::argmax(&t) {
                agree += 1;
            }
        }
        assert!(agree * 2 >= n, "agreement {agree}/{n}");
    }

    #[test]
    fn ternary_is_sparser_than_eight_bit() {
        let net = Network::synthetic(spec(), &SyntheticModelConfig::default());
        let q8 = net.quantize(&[input(0)]);
        let qt = net.quantize_ternary(&[input(0)]);
        for (a, b) in q8.conv.iter().zip(&qt.conv) {
            assert!(b.weights.density() < a.weights.density());
        }
    }
}
