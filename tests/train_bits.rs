//! Pins the bits of everything the backward pass produces, on the two
//! networks and training configurations the end-to-end benchmark builds
//! (`conv_net` and `resnet_mini` at seed `0xF1C5`):
//!
//! * every trained parameter after [`Trainer::fit`];
//! * [`Network::input_gradient`] and [`Fgsm::perturb`] on 16 test inputs;
//! * one DeepFool, one CW-L2, one JSMA and one adaptive example on `conv_net`.
//!
//! The constants are FNV-1a hashes of the `f32` bit patterns.  A change to a
//! backward kernel, the trainer or an attack that moves a single bit fails
//! here; a rewrite that keeps the arithmetic keeps every hash.

#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] fns call expect; a failure there fails the test"
)]

use ptolemy::attacks::{
    AdaptiveAttack, AdaptiveConfig, Attack, CarliniWagnerL2, DeepFool, Fgsm, Jsma,
};
use ptolemy::data::{DatasetConfig, SyntheticDataset};
use ptolemy::nn::{zoo, Network, TrainConfig, Trainer};
use ptolemy::tensor::{Rng64, Tensor};

const SEED: u64 = 0xF1C5;

/// FNV-1a over the little-endian bits of `values`, continuing from `hash`.
fn fnv(mut hash: u64, values: &[f32]) -> u64 {
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The benchmark's two victims, trained as its fixture trains them.
fn trained(resnet: bool) -> (Network, SyntheticDataset) {
    let (name, classes, shape, train, test, epochs, lr, batch) = if resnet {
        ("synth-cifar-4", 4, vec![3, 8, 8], 10, 48, 12, 0.003, 4)
    } else {
        (
            "synth-imagenet-10",
            10,
            vec![3, 16, 16],
            20,
            28,
            10,
            0.006,
            8,
        )
    };
    let dataset = SyntheticDataset::generate(DatasetConfig {
        name: name.into(),
        num_classes: classes,
        shape,
        train_per_class: train,
        test_per_class: test,
        noise: 0.15,
        seed: SEED,
    })
    .expect("dataset");
    let mut rng = Rng64::new(SEED);
    let mut network = if resnet {
        zoo::resnet_mini(classes, &mut rng)
    } else {
        zoo::conv_net(classes, &mut rng)
    }
    .expect("network");
    Trainer::new(TrainConfig {
        epochs,
        batch_size: batch,
        learning_rate: lr,
        seed: SEED,
        ..TrainConfig::default()
    })
    .fit(&mut network, dataset.train())
    .expect("training");
    (network, dataset)
}

fn param_hash(network: &Network) -> u64 {
    network
        .layers()
        .flat_map(|layer| layer.params())
        .fold(FNV_OFFSET, |h, p| fnv(h, p.as_slice()))
}

/// Hashes of the input gradient and of the FGSM output on the first 16 test
/// inputs.
fn gradient_hashes(network: &Network, dataset: &SyntheticDataset) -> (u64, u64) {
    let fgsm = Fgsm::new(0.12);
    let (mut grads, mut adversarial) = (FNV_OFFSET, FNV_OFFSET);
    for (input, label) in dataset.test().iter().take(16) {
        let grad = network.input_gradient(input, *label).expect("gradient");
        grads = fnv(grads, grad.as_slice());
        let example = fgsm.perturb(network, input, *label).expect("fgsm");
        adversarial = fnv(adversarial, example.input.as_slice());
    }
    (grads, adversarial)
}

fn example_hash(attack: &dyn Attack, network: &Network, input: &Tensor, label: usize) -> u64 {
    let example = attack.perturb(network, input, label).expect("attack");
    fnv(FNV_OFFSET, example.input.as_slice())
}

#[test]
fn conv_net_training_and_attacks_keep_their_bits() {
    let (network, dataset) = trained(false);
    let (grads, fgsm) = gradient_hashes(&network, &dataset);
    let (input, label) = &dataset.test()[0];
    let adaptive = AdaptiveAttack::new(
        AdaptiveConfig {
            iterations: 4,
            num_targets: 2,
            ..AdaptiveConfig::default()
        },
        dataset.train().to_vec(),
    )
    .expect("adaptive attack");
    let got = [
        param_hash(&network),
        grads,
        fgsm,
        example_hash(&DeepFool::new(6, 0.02), &network, input, *label),
        example_hash(
            &CarliniWagnerL2::new(2.0, 0.05, 8, 0.0),
            &network,
            input,
            *label,
        ),
        example_hash(&Jsma::new(0.9, 6), &network, input, *label),
        example_hash(&adaptive, &network, input, *label),
    ];
    assert_eq!(
        got,
        [
            0xa229_f177_0c8d_b327,
            0x771c_3ab9_392a_7390,
            0x4896_d502_a9ee_918a,
            0x3a69_edc8_d128_ac99,
            0x59f2_6819_8673_6ffa,
            0x49e5_7149_4445_3424,
            0x653f_d04e_c7f7_2613,
        ],
        "conv_net hashes (params, input_gradient, FGSM, DeepFool, CW-L2, JSMA, adaptive): {got:#x?}"
    );
}

#[test]
fn resnet_training_and_attacks_keep_their_bits() {
    let (network, dataset) = trained(true);
    let (grads, fgsm) = gradient_hashes(&network, &dataset);
    let got = [param_hash(&network), grads, fgsm];
    assert_eq!(
        got,
        [
            0x75fd_7816_effe_c558,
            0x812f_e3f9_4c42_63ad,
            0xc00c_1f8f_a4e2_4b0f,
        ],
        "resnet_mini hashes (params, input_gradient, FGSM): {got:#x?}"
    );
}
