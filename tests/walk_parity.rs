//! The reverse walk's two kernels against their definitions.
//!
//! * **Partial sums.**  Every weight layer of the six zoo nets — found by
//!   walking the zoo, residual bodies included, as `tests/zoo_conv_parity.rs`
//!   does — hands over, for every output neuron of one sample, exactly the
//!   partial sums a naive loop writes down: a dense neuron's `x[i] * W[n][i]`
//!   for ascending `i`; a convolution's `x[tap] * w[k]` over `(c, ky, kx)`,
//!   padding skipped; a residual block's last body layer's terms, then the
//!   shortcut `x[n]`.  Values match bit for bit and every position maps back
//!   to exactly the input the loop read.
//! * **Ranking.**  [`Ranking`] is the stable descending sort — the earliest of
//!   equal values first, `-0.0 == 0.0` — on palettes built to break an
//!   8-lane arg-max: equal maxima in different lanes and in one lane, signed
//!   zeros, every length up to 40, all-equal values, and rankings that run
//!   past the scan into the sort.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test helpers outside #[test] fns unwrap, call expect and panic; a failure there fails the test"
)]

use std::cmp::Ordering;

use ptolemy::core::Ranking;
use ptolemy::nn::layer::{Conv2d, Dense};
use ptolemy::nn::{zoo, Layer, LayerKind, Network};
use ptolemy::tensor::{Rng64, Tensor};

/// `(input flat index, value bits)` of every partial sum of one neuron.
type Terms = Vec<(usize, u32)>;

/// The partial sums of output neuron `neuron` of a dense or convolution layer
/// of `kind` with flattened `weight`, written down from the definition.
fn naive(kind: &LayerKind, weight: &[f32], x: &[f32], neuron: usize) -> Terms {
    match kind {
        LayerKind::Dense { inputs, .. } => (0..*inputs)
            .map(|i| (i, (x[i] * weight[neuron * inputs + i]).to_bits()))
            .collect(),
        LayerKind::Conv2d { geometry: g, .. } => {
            let (k, patches) = (g.kernel, g.out_h * g.out_w);
            let (oc, pos) = (neuron / patches, neuron % patches);
            let (oy, ox) = (pos / g.out_w, pos % g.out_w);
            let row = &weight[oc * g.in_channels * k * k..];
            let mut terms = Vec::new();
            for c in 0..g.in_channels {
                for ky in 0..k {
                    for kx in 0..k {
                        let (y, xx) = (oy * g.stride + ky, ox * g.stride + kx);
                        let inside = (g.padding..g.in_h + g.padding).contains(&y)
                            && (g.padding..g.in_w + g.padding).contains(&xx);
                        if inside {
                            let idx = (c * g.in_h + y - g.padding) * g.in_w + xx - g.padding;
                            terms.push((idx, (x[idx] * row[(c * k + ky) * k + kx]).to_bits()));
                        }
                    }
                }
            }
            terms
        }
        other => panic!("{other:?} has no weights"),
    }
}

/// What `layer` hands over for every output neuron, as `(neuron, terms)`.
fn handed_over(
    layer: &dyn Layer,
    input: &Tensor,
    interior: Option<&Tensor>,
) -> Vec<(usize, Terms)> {
    let neurons: Vec<usize> = (0..layer.output_len()).collect();
    let mut seen = Vec::new();
    layer
        .partial_sums(
            input,
            interior,
            &neurons,
            &mut Vec::new(),
            &mut |n, values, sources| {
                assert_eq!(sources.len(), values.len(), "{}: positions", layer.name());
                let terms = values.iter().enumerate();
                seen.push((
                    n,
                    terms
                        .map(|(p, v)| (sources.input(p), v.to_bits()))
                        .collect(),
                ));
            },
        )
        .unwrap();
    assert_eq!(
        seen.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        neurons,
        "{}: neurons visited out of order",
        layer.name()
    );
    seen
}

/// A dense or convolution layer of `kind`, rebuilt standalone with `weight`.
fn rebuild(kind: &LayerKind, weight: &Tensor, rng: &mut Rng64) -> Box<dyn Layer> {
    match kind {
        LayerKind::Dense { outputs, .. } => {
            Box::new(Dense::from_parts(weight.clone(), Tensor::zeros(&[*outputs])).unwrap())
        }
        LayerKind::Conv2d {
            geometry: g,
            out_channels,
        } => {
            let mut conv = Conv2d::new(
                g.in_channels,
                *out_channels,
                g.in_h,
                g.in_w,
                g.kernel,
                g.stride,
                g.padding,
                rng,
            )
            .unwrap();
            *conv.params_mut()[0] = weight.clone();
            Box::new(conv)
        }
        other => panic!("{other:?} has no weights"),
    }
}

/// A post-ReLU-like input: a third zeros (so `±0` products), the rest normal.
fn activations(len: usize, rng: &mut Rng64) -> Vec<f32> {
    (0..len)
        .map(|i| if i % 3 == 0 { 0.0 } else { rng.normal() })
        .collect()
}

/// Checks every dense and convolution layer `kinds` describes — reading
/// their weights and biases off `params` — standalone against [`naive`],
/// returning how many it checked.
fn check_body<'a>(
    net: &str,
    kinds: &[LayerKind],
    params: &mut impl Iterator<Item = &'a Tensor>,
    rng: &mut Rng64,
) -> usize {
    let mut checked = 0;
    for kind in kinds {
        if !matches!(kind, LayerKind::Dense { .. } | LayerKind::Conv2d { .. }) {
            continue;
        }
        let weight = params.next().expect("a weight");
        params.next().expect("a bias");
        let layer = rebuild(kind, weight, rng);
        let x =
            Tensor::from_vec(activations(layer.input_len(), rng), &layer.input_shape()).unwrap();
        for (n, terms) in handed_over(layer.as_ref(), &x, None) {
            let expected = naive(kind, weight.as_slice(), x.as_slice(), n);
            assert_eq!(terms, expected, "{net} body {kind:?} neuron {n}");
        }
        checked += 1;
    }
    checked
}

#[test]
fn every_zoo_weight_layer_hands_over_its_definition() {
    let mut rng = Rng64::new(0x3A1C);
    let nets: [(&str, Network); 6] = [
        ("conv_net", zoo::conv_net(10, &mut rng).unwrap()),
        ("resnet_mini", zoo::resnet_mini(10, &mut rng).unwrap()),
        ("vgg_mini", zoo::vgg_mini(10, &mut rng).unwrap()),
        ("lenet", zoo::lenet(3, 10, &mut rng).unwrap()),
        ("inception_mini", zoo::inception_mini(10, &mut rng).unwrap()),
        ("densenet_mini", zoo::densenet_mini(10, &mut rng).unwrap()),
    ];
    for (net, network) in &nets {
        let len: usize = network.input_shape().iter().product();
        let input = Tensor::from_vec(
            (0..len).map(|_| rng.normal()).collect(),
            network.input_shape(),
        )
        .unwrap();
        // Each layer decomposes against the activations the network itself
        // produced, interiors included.
        let trace = network.forward_trace(&input).unwrap();
        let (mut layers, mut blocks, mut bodies) = (0, 0, 0);
        for (i, layer) in network.layers().enumerate() {
            let x = &trace.activations()[i];
            let kind = layer.kind();
            match &kind {
                LayerKind::Dense { .. } | LayerKind::Conv2d { .. } => {
                    let weight = layer.params()[0].as_slice();
                    for (n, terms) in handed_over(layer, x, None) {
                        let expected = naive(&kind, weight, x.as_slice(), n);
                        assert_eq!(terms, expected, "{net} layer {i} neuron {n}");
                    }
                    layers += 1;
                }
                LayerKind::Residual { inner } => {
                    // The last weight layer decomposes the interior (the
                    // block input for a one-layer body), the shortcut last.
                    let params = layer.params();
                    let last_weight = params[params.len() - 2].as_slice();
                    let last_kind = inner.last().unwrap();
                    let interior = trace.interior(i);
                    let last_input = interior.unwrap_or(x).as_slice();
                    let kept = handed_over(layer, x, interior);
                    for (n, terms) in &kept {
                        let mut expected = naive(last_kind, last_weight, last_input, *n);
                        expected.push((*n, x.as_slice()[*n].to_bits()));
                        assert_eq!(terms, &expected, "{net} block {i} neuron {n}");
                    }
                    // Recomputing the interior hands over the same terms.
                    assert_eq!(handed_over(layer, x, None), kept, "{net} block {i}");
                    bodies += check_body(net, inner, &mut params.into_iter(), &mut rng);
                    blocks += 1;
                }
                _ => assert!(layer
                    .partial_sums(x, None, &[0], &mut Vec::new(), &mut |_, _, _| {})
                    .is_err()),
            }
        }
        println!("{net}: {layers} layers, {blocks} residual blocks, {bodies} body layers");
        assert!(layers + blocks > 0, "{net} has no weight layer");
    }
}

/// `(position, value bits)` in the order of std's stable sort, descending.
fn stable_descending(values: &[f32]) -> Vec<(usize, u32)> {
    let mut sorted: Vec<(usize, f32)> = values.iter().copied().enumerate().collect();
    sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal));
    sorted.into_iter().map(|(p, v)| (p, v.to_bits())).collect()
}

fn ranked(values: &[f32], order: &mut Vec<u32>) -> Vec<(usize, u32)> {
    let mut scratch = values.to_vec();
    let ranking = Ranking::new(&mut scratch, order);
    ranking.map(|(p, v)| (p, v.to_bits())).collect()
}

#[test]
fn ranking_is_the_stable_descending_sort() {
    let mut order = Vec::new();
    let mut rng = Rng64::new(0x5EED);
    let palettes: [&[f32]; 4] = [
        &[-1.0, 2.0],
        &[-0.0, 0.0, -1.0],
        &[0.5, 0.5, -0.0, 0.0, 1.0, -3.0],
        &[1.0],
    ];
    for len in 0..=40 {
        // Two equal maxima, everywhere: in different lanes, and in one lane
        // (positions equal mod 8) at different chunks.
        for first in 0..len {
            for second in first + 1..len {
                let mut values = vec![-1.0f32; len];
                values[first] = 2.0;
                values[second] = 2.0;
                assert_eq!(ranked(&values, &mut order), stable_descending(&values));
                values[first] = 0.0;
                values[second] = -0.0;
                assert_eq!(ranked(&values, &mut order), stable_descending(&values));
            }
        }
        // Random draws from few values, so ties everywhere; the whole
        // ranking, so past the scan into the sort from length 9 on.
        for palette in palettes {
            for _ in 0..8 {
                let values: Vec<f32> = (0..len)
                    .map(|_| palette[rng.below(palette.len())])
                    .collect();
                let expected = stable_descending(&values);
                assert_eq!(ranked(&values, &mut order), expected, "{values:?}");
                // A prefix is the sort's prefix.
                let mut scratch = values.clone();
                let prefix: Vec<usize> = Ranking::new(&mut scratch, &mut order)
                    .take(len / 2)
                    .map(|(p, _)| p)
                    .collect();
                assert!(prefix
                    .iter()
                    .eq(expected.iter().map(|(p, _)| p).take(len / 2)));
            }
        }
    }
}
