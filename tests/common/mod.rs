#![allow(dead_code)]

//! Shared fixtures for the cross-crate integration tests: a small trained victim
//! network plus its dataset, sized so every test file stays fast.

use ptolemy::data::{DatasetConfig, SyntheticDataset};
use ptolemy::nn::{zoo, ForwardProvider, ForwardTrace, Network, TraceSink, TrainConfig, Trainer};
use ptolemy::tensor::{Rng64, Tensor};

/// A trained LeNet-class victim on a 4-class synthetic dataset.
pub fn trained_lenet(seed: u64) -> (Network, SyntheticDataset) {
    let dataset = SyntheticDataset::generate(DatasetConfig {
        name: "integration-small".into(),
        num_classes: 4,
        shape: vec![3, 8, 8],
        train_per_class: 20,
        test_per_class: 8,
        noise: 0.12,
        seed,
    })
    .expect("dataset");
    let mut network = zoo::lenet(3, dataset.num_classes(), &mut Rng64::new(seed)).expect("network");
    Trainer::new(TrainConfig {
        epochs: 40,
        batch_size: 8,
        learning_rate: 0.002,
        ..TrainConfig::default()
    })
    .fit(&mut network, dataset.train())
    .expect("training");
    (network, dataset)
}

/// Benign test inputs of a dataset.
pub fn benign_inputs(dataset: &SyntheticDataset) -> Vec<Tensor> {
    dataset.test().iter().map(|(x, _)| x.clone()).collect()
}

/// Correctly-classified labelled test samples.
pub fn correct_samples(network: &Network, dataset: &SyntheticDataset) -> Vec<(Tensor, usize)> {
    dataset
        .test()
        .iter()
        .filter(|(x, y)| network.predict(x).map(|p| p == *y).unwrap_or(false))
        .cloned()
        .collect()
}

/// A ResNet-class victim with its own predictions as labels, so every sample
/// counts as correctly classified without paying for training: parity suites
/// compare pipelines with each other, not with ground truth.  Returns the
/// network and `(input, predicted class)` samples.
pub fn self_labelled_resnet(seed: u64, samples: usize) -> (Network, Vec<(Tensor, usize)>) {
    let mut rng = Rng64::new(seed);
    let network = zoo::resnet_mini(4, &mut rng).expect("network");
    let labelled = (0..samples)
        .map(|_| {
            let data = (0..3 * 8 * 8).map(|_| rng.normal()).collect();
            let input = Tensor::from_vec(data, &[3, 8, 8]).expect("input");
            let label = network.predict(&input).expect("prediction");
            (input, label)
        })
        .collect();
    (network, labelled)
}

/// Every stacked boundary and interior of one fused forward pass — the
/// oracle the parity suites slice per sample.
#[derive(Default)]
pub struct Stacked {
    /// `[B] ++ shape` boundaries: the input, then every layer output.
    pub boundaries: Vec<Tensor>,
    /// `[B] ++ shape` interiors, in layer order.
    pub interiors: Vec<Tensor>,
}

impl Stacked {
    /// Records one fused pass of `provider` over `inputs`.
    pub fn record<P: ForwardProvider>(provider: &P, inputs: &[Tensor]) -> Self {
        let mut sink = Stacked::default();
        provider
            .forward_with_sink_batch(inputs, &mut sink)
            .expect("forward pass");
        sink
    }

    /// Sample `b`'s boundaries as a boundaries-only trace.
    pub fn trace(&self, b: usize) -> ForwardTrace {
        let activations = self
            .boundaries
            .iter()
            .map(|t| t.slice_batch(b).expect("sample in range"))
            .collect();
        ForwardTrace::from_activations(activations).expect("at least one layer")
    }

    /// Bytes of the recorded boundaries alone.
    pub fn boundary_bytes(&self) -> usize {
        self.boundaries.iter().map(|t| t.len() * 4).sum()
    }

    /// Bytes of everything recorded: boundaries and interiors.
    pub fn bytes(&self) -> usize {
        self.boundary_bytes() + self.interiors.iter().map(|t| t.len() * 4).sum::<usize>()
    }
}

impl TraceSink for Stacked {
    fn on_input(&mut self, input: &Tensor) {
        self.boundaries.push(input.clone());
    }

    fn on_interior(&mut self, _index: usize, interior: &Tensor) {
        self.interiors.push(interior.clone());
    }

    fn on_layer(&mut self, _index: usize, output: &Tensor) {
        self.boundaries.push(output.clone());
    }
}
