//! Set-up (`Network::synthetic` + `Network::quantize`) is bit-identical
//! to the serial path the pinned digests in `zskip_bench::setup` were
//! taken from, on a BN-free and a batch-norm network.

use zskip_bench::setup::{
    network_digest, quantize, quantized_digest, resnet18_reference, vgg16_reference, RESNET18_NETWORK_DIGEST,
    RESNET18_QUANTIZED_DIGEST, VGG16_NETWORK_DIGEST, VGG16_QUANTIZED_DIGEST,
};
use zskip_nn::model::Network;

#[test]
fn vgg16_setup_is_bit_identical() {
    let (spec, config) = vgg16_reference();
    let net = Network::synthetic(spec, &config);
    assert_eq!(network_digest(&net), VGG16_NETWORK_DIGEST, "synthesized weights changed");
    assert_eq!(quantized_digest(&quantize(&net)), VGG16_QUANTIZED_DIGEST, "quantized network changed");
}

#[test]
fn resnet18_setup_is_bit_identical() {
    let (spec, config) = resnet18_reference();
    let net = Network::synthetic(spec, &config);
    assert!(!net.bn_weights.is_empty(), "the reference ResNet-18 carries batch-norm");
    assert_eq!(network_digest(&net), RESNET18_NETWORK_DIGEST, "synthesized weights changed");
    assert_eq!(quantized_digest(&quantize(&net)), RESNET18_QUANTIZED_DIGEST, "quantized network changed");
}
