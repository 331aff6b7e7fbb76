//! Every convolution the zoo builds is parity-gated, derived rather than
//! listed.
//!
//! The test walks the layers of every `zoo` constructor, descending into
//! residual bodies through their `LayerKind`s and parameters, and checks each
//! convolution's `forward_batch` at batch 1 and 8 against `im2col` +
//! `matmul_naive` + bias, bit for bit.  A new net or a new stage shape is
//! covered the moment the zoo builds it, whichever register-tile orientation
//! its geometry takes.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test helpers outside #[test] fns unwrap and call expect; a failure there fails the test"
)]

use ptolemy::nn::layer::Conv2d;
use ptolemy::nn::{zoo, Layer, LayerKind, Network};
use ptolemy::tensor::{im2col, Conv2dGeometry, Rng64, Tensor};

/// One convolution of a zoo net: its geometry and its weights.
struct Found {
    geometry: Conv2dGeometry,
    weight: Tensor,
}

/// Every convolution of `network` in layer order, residual bodies included.
fn convolutions(network: &Network) -> Vec<Found> {
    let mut found = Vec::new();
    for layer in network.layers() {
        let mut params = layer.params().into_iter();
        collect(&layer.kind(), &mut params, &mut found);
        assert!(
            params.next().is_none(),
            "{}: unread parameters",
            layer.name()
        );
    }
    found
}

/// Reads the parameters `kind` owns off `params` (a convolution and a dense
/// layer own a weight and a bias, a residual block its body's in order),
/// keeping every convolution's.
fn collect<'a>(
    kind: &LayerKind,
    params: &mut impl Iterator<Item = &'a Tensor>,
    found: &mut Vec<Found>,
) {
    match kind {
        LayerKind::Conv2d { geometry, .. } => {
            let weight = params.next().expect("a convolution's weight").clone();
            params.next().expect("a convolution's bias");
            found.push(Found {
                geometry: *geometry,
                weight,
            });
        }
        LayerKind::Dense { .. } => {
            params.nth(1).expect("a dense layer's weight and bias");
        }
        LayerKind::Residual { inner } => {
            for kind in inner {
                collect(kind, params, found);
            }
        }
        LayerKind::Activation | LayerKind::MaxPool | LayerKind::AvgPool | LayerKind::Reshape => {}
    }
}

fn random(len: usize, rng: &mut Rng64) -> Vec<f32> {
    (0..len).map(|_| rng.normal()).collect()
}

/// `conv`'s layer, rebuilt with the found weights and a random bias (the zoo
/// initialises every bias to zero, which would not exercise the bias add),
/// against `im2col` + `matmul_naive` + bias on every sample of a batch.
fn check(net: &str, index: usize, conv: &Found, rng: &mut Rng64) {
    let g = conv.geometry;
    let out_channels = conv.weight.dims()[0];
    let mut layer = Conv2d::new(
        g.in_channels,
        out_channels,
        g.in_h,
        g.in_w,
        g.kernel,
        g.stride,
        g.padding,
        rng,
    )
    .unwrap();
    let bias = random(out_channels, rng);
    {
        let mut params = layer.params_mut();
        params[0]
            .as_mut_slice()
            .copy_from_slice(conv.weight.as_slice());
        params[1].as_mut_slice().copy_from_slice(&bias);
    }
    for batch in [1, 8] {
        let samples = Tensor::from_vec(
            random(batch * g.in_channels * g.in_h * g.in_w, rng),
            &[batch, g.in_channels, g.in_h, g.in_w],
        )
        .unwrap();
        let fused = layer.forward_batch(&samples).unwrap();
        let mut expected = Vec::new();
        for b in 0..batch {
            let sample = samples.slice_batch(b).unwrap();
            let product = conv
                .weight
                .matmul_naive(&im2col(&sample, &g).unwrap())
                .unwrap();
            let patches = g.num_patches();
            expected.extend(
                product
                    .as_slice()
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (v + bias[i / patches]).to_bits()),
            );
        }
        let fused: Vec<u32> = fused.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            fused, expected,
            "{net} conv {index} ({out_channels} x {g:?}) at batch {batch}"
        );
    }
}

#[test]
fn every_zoo_conv_matches_naive_bit_for_bit() {
    let mut rng = Rng64::new(0x200);
    let nets: [(&str, Network); 6] = [
        ("conv_net", zoo::conv_net(10, &mut rng).unwrap()),
        ("resnet_mini", zoo::resnet_mini(10, &mut rng).unwrap()),
        ("vgg_mini", zoo::vgg_mini(10, &mut rng).unwrap()),
        ("lenet", zoo::lenet(3, 10, &mut rng).unwrap()),
        ("inception_mini", zoo::inception_mini(10, &mut rng).unwrap()),
        ("densenet_mini", zoo::densenet_mini(10, &mut rng).unwrap()),
    ];
    for (net, network) in &nets {
        let convs = convolutions(network);
        assert!(!convs.is_empty(), "{net} has no convolution");
        println!("{net}: {} convolutions", convs.len());
        for (index, conv) in convs.iter().enumerate() {
            check(net, index, conv, &mut rng);
        }
    }
}
