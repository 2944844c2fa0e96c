//! The set-up path's reference networks and bit-level digests of what
//! set-up produces.
//!
//! Set-up is `Network::synthetic` followed by `Network::quantize`. Any
//! speed-up of it must leave every output bit alone, so the digests here
//! cover every float weight, bias and batch-norm parameter of the
//! synthesized network and every scale, quantized weight, accumulator
//! bias and requantizer of the quantized one. `kernel_bench --check` and
//! the `setup_bit_identity` test compare them against the pinned
//! constants below.

use zskip_nn::eval::synthetic_inputs;
use zskip_nn::layer::{LayerSpec, NetworkSpec};
use zskip_nn::model::{Network, QuantizedNetwork, SyntheticModelConfig};
use zskip_nn::vgg16::vgg16_scaled_spec;
use zskip_quant::{DensityProfile, Fingerprint};

/// Weight seed of the reference networks (the CLI's default).
pub const WEIGHT_SEED: u64 = 1;
/// Calibration-input seed of the reference quantization (the CLI's).
pub const CALIB_SEED: u64 = 2;

// Digests of the reference set-up outputs, taken from the serial set-up
// path (the keystream read one word at a time, one `gaussian()` draw
// after another, calibration on the direct `conv2d_f32`). They pin the
// outputs, not the implementation: never regenerate them to make a
// check pass, since a mismatch means set-up changed an output bit.

/// [`network_digest`] of the synthesized [`vgg16_reference`] network.
pub const VGG16_NETWORK_DIGEST: u64 = 0x3edc_7783_43bb_578f;
/// [`quantized_digest`] of its [`quantize`] output.
pub const VGG16_QUANTIZED_DIGEST: u64 = 0x52af_1418_0906_9c84;
/// [`network_digest`] of the synthesized [`resnet18_reference`] network.
pub const RESNET18_NETWORK_DIGEST: u64 = 0x80e7_ea48_e9a4_7d99;
/// [`quantized_digest`] of its [`quantize`] output (batch-norm folded).
pub const RESNET18_QUANTIZED_DIGEST: u64 = 0xb6ec_47d6_7cb8_1df6;

/// VGG-16 at 32x32 with the deep-compression density profile.
pub fn vgg16_reference() -> (NetworkSpec, SyntheticModelConfig) {
    let density = DensityProfile::deep_compression_vgg16();
    (vgg16_scaled_spec(32), SyntheticModelConfig { seed: WEIGHT_SEED, density })
}

/// The in-repo ResNet-18 (with batch-norm) at a uniform 0.35 density.
pub fn resnet18_reference() -> (NetworkSpec, SyntheticModelConfig) {
    let spec = zskip_nn::resnet18_spec();
    let convs = spec.layers.iter().filter(|l| matches!(l, LayerSpec::Conv { .. })).count();
    (spec, SyntheticModelConfig { seed: WEIGHT_SEED, density: DensityProfile::uniform(convs, 0.35) })
}

/// Quantizes `net` on one calibration image from [`CALIB_SEED`].
pub fn quantize(net: &Network) -> QuantizedNetwork {
    net.quantize(&synthetic_inputs(CALIB_SEED, 1, net.spec.input))
}

fn f32s(fp: Fingerprint, vs: &[f32]) -> Fingerprint {
    vs.iter().fold(fp.u64(vs.len() as u64), |fp, v| fp.u64(u64::from(v.to_bits())))
}

/// 64-bit digest of every float parameter of `net`, bit for bit.
pub fn network_digest(net: &Network) -> u64 {
    let mut fp = Fingerprint::new();
    for w in &net.conv_weights {
        fp = fp.u64(w.out_c as u64).u64(w.in_c as u64).u64(w.k as u64);
        fp = f32s(f32s(fp, &w.w), &w.bias);
    }
    for w in &net.fc_weights {
        fp = fp.u64(w.out_features as u64).u64(w.in_features as u64);
        fp = f32s(f32s(fp, &w.w), &w.bias);
    }
    for bn in &net.bn_weights {
        fp = f32s(f32s(f32s(f32s(fp, &bn.gamma), &bn.beta), &bn.mean), &bn.var);
        fp = fp.u64(u64::from(bn.eps.to_bits()));
    }
    fp.finish()
}

/// 64-bit digest of a quantized network: activation scales, then every
/// conv and FC layer's quantized weights, accumulator bias, requantizer,
/// ReLU flag and scales.
pub fn quantized_digest(q: &QuantizedNetwork) -> u64 {
    let mut fp = f32s(Fingerprint::new(), &q.activation_scales).u64(u64::from(q.input_params.scale.to_bits()));
    for c in &q.conv {
        fp = fp.u64(c.layer_index as u64).u64(c.weights.fingerprint());
        fp = f32s(fp, &[c.in_scale, c.w_scale, c.out_scale]);
    }
    for f in &q.fc {
        let w: Vec<u8> = f.w.iter().map(|v| v.to_bits()).collect();
        fp = fp.u64(f.out_features as u64).u64(f.in_features as u64).bytes(&w).i64s(&f.bias_acc);
        fp = fp.u64(u64::from(f.requant.mult)).u64(u64::from(f.requant.shift)).u64(u64::from(f.relu));
    }
    fp.finish()
}
