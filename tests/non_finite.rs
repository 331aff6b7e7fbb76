//! The fault matrix's "non-finite inputs mid-batch" row: a NaN or an infinity
//! in a network's input, or in any layer's output, is
//! `NnError::NonFinite { boundary }` — boundary 0 the input, `i + 1` layer
//! `i`'s output — on every surface that runs a forward pass: `detect`,
//! `detect_batch`, a served request (FwAb and BwCu f32 screens and their int8
//! screens), `Trainer::fit` and every white-box attack, on both e2e victims
//! (`conv_net`, `resnet_mini`).  The cases:
//!
//! * NaN, `+∞` and `−∞` pixels: rejected at the input, boundary 0;
//! * the same pixels in one sample of a batch of 8: that sample fails alone,
//!   the seven clean ones keep their single-input bits;
//! * `f32::MAX` pixels: finite, so the input passes, and the first conv
//!   overflows — boundary 1 on f32.  The int8 pass quantizes the finite input
//!   (each `f32::MAX` saturates to 127), so every one of its boundaries is
//!   finite and it serves the request;
//! * a residual body whose first conv meets `+∞ + −∞` on every output: the
//!   body's ReLU would turn the NaN into `0` and the block output would look
//!   ordinary, so the body checks its own layers and the block's output
//!   boundary reports it;
//! * a batch-summed weight gradient that overflows where no boundary does:
//!   `fit` stops before the step would write the infinity into a parameter.
//!
//! The networks are untrained and labelled with their own predictions: what
//! is pinned is where a value is rejected, not what a trained model decides.

use std::sync::Arc;

use ptolemy::attacks::{AdaptiveAttack, AdaptiveConfig, AttackError};
use ptolemy::core::{CoreError, DetectionEngine, Profiler};
use ptolemy::nn::layer::{Dense, Flatten, MaxPool2d};
use ptolemy::nn::{Layer, NnError, QuantizedNetwork};
use ptolemy::prelude::*;
use ptolemy::serve::ServeError;
use ptolemy::tensor::Rng64;

type Build = fn(usize, &mut Rng64) -> ptolemy::nn::Result<Network>;

const CLASSES: usize = 4;

/// One victim: its builder, the network, self-labelled samples, and a
/// calibrated FwAb and BwCu engine over it, each with an int8 view.
struct Victim {
    name: &'static str,
    build: Build,
    seed: u64,
    network: Arc<Network>,
    samples: Vec<(Tensor, usize)>,
    engines: Vec<(&'static str, Arc<DetectionEngine>)>,
}

impl Victim {
    fn new(name: &'static str, build: Build, seed: u64) -> Self {
        let network = Arc::new(build(CLASSES, &mut Rng64::new(seed)).unwrap());
        let mut rng = Rng64::new(seed ^ 0xDA7A);
        let len: usize = network.input_shape().iter().product();
        let samples: Vec<(Tensor, usize)> = (0..16)
            .map(|_| {
                let data = (0..len).map(|_| rng.normal()).collect();
                let input = Tensor::from_vec(data, network.input_shape()).unwrap();
                let label = network.predict(&input).unwrap();
                (input, label)
            })
            .collect();
        let inputs: Vec<Tensor> = samples.iter().map(|(x, _)| x.clone()).collect();
        let engines = [
            ("fw_ab", variants::fw_ab(&network, 0.05).unwrap()),
            ("bw_cu", variants::bw_cu(&network, 0.5).unwrap()),
        ]
        .into_iter()
        .map(|(program_name, program)| {
            let class_paths = Profiler::new(program.clone())
                .profile(&network, &samples)
                .unwrap();
            let engine = DetectionEngine::builder(network.clone(), program, class_paths)
                .calibrate(&inputs[..8], &inputs[8..])
                .quantized(&inputs)
                .build()
                .unwrap();
            (program_name, Arc::new(engine))
        })
        .collect();
        Victim {
            name,
            build,
            seed,
            network,
            samples,
            engines,
        }
    }

    /// A fresh copy of the untrained network, for a pass that mutates it.
    fn fresh(&self) -> Network {
        (self.build)(CLASSES, &mut Rng64::new(self.seed)).unwrap()
    }

    /// The first eight sample inputs.
    fn batch(&self) -> Vec<Tensor> {
        self.samples
            .iter()
            .take(8)
            .map(|(x, _)| x.clone())
            .collect()
    }
}

fn victims() -> [Victim; 2] {
    [
        Victim::new("conv_net", zoo::conv_net, 0xC0),
        Victim::new("resnet_mini", zoo::resnet_mini, 0x4E),
    ]
}

/// `input` with every fifth pixel replaced by `poison`: every receptive field
/// of the first conv covers one.
fn poisoned(input: &Tensor, poison: f32) -> Tensor {
    let mut input = input.clone();
    for pixel in input.as_mut_slice().iter_mut().step_by(5) {
        *pixel = poison;
    }
    input
}

/// The poisons and the boundary the f32 pass rejects each at.
const POISONS: [(f32, usize); 4] = [
    (f32::NAN, 0),
    (f32::INFINITY, 0),
    (f32::NEG_INFINITY, 0),
    (f32::MAX, 1),
];

fn non_finite(boundary: usize) -> CoreError {
    CoreError::Nn(NnError::NonFinite { boundary })
}

/// The white-box attacks, each configured small.
fn attacks(pool: Vec<(Tensor, usize)>) -> Vec<Box<dyn Attack>> {
    let adaptive = AdaptiveAttack::new(
        AdaptiveConfig {
            iterations: 2,
            num_targets: 2,
            ..AdaptiveConfig::default()
        },
        pool,
    )
    .unwrap();
    vec![
        Box::new(Fgsm::new(0.1)),
        Box::new(DeepFool::new(3, 0.02)),
        Box::new(CarliniWagnerL2::new(2.0, 0.05, 3, 0.0)),
        Box::new(Jsma::new(0.9, 3)),
        Box::new(adaptive),
    ]
}

/// Every attack fails on `input` with the non-finite error at `boundary`.
fn attacks_reject(network: &Network, pool: &[(Tensor, usize)], input: &Tensor, boundary: usize) {
    for attack in attacks(pool.to_vec()) {
        let result = attack.perturb(network, input, 0);
        assert_eq!(
            result.unwrap_err(),
            AttackError::Nn(NnError::NonFinite { boundary }),
            "{}",
            attack.name()
        );
    }
}

/// `detect`, `detect_batch` and the per-input batch surface, f32 and int8:
/// the poisoned sample (slot 3 of 8) fails alone with `expected` (`None`: it
/// is served), and every clean sample keeps its single-input bits.
fn check_direct(
    engine: &DetectionEngine,
    clean: &[Tensor],
    poisoned: &Tensor,
    expected: Option<usize>,
    int8: bool,
    context: &str,
) {
    let mut batch = clean.to_vec();
    batch[3] = poisoned.clone();
    let single = |x: &Tensor| {
        if int8 {
            engine.detect_quantized(x)
        } else {
            engine.detect(x)
        }
    };
    let results = match engine.quantized_network() {
        Some(qnet) if int8 => engine.detect_batch_on(qnet, &batch),
        _ => engine.detect_batch_with_paths(&batch),
    };
    for (at, (input, result)) in batch.iter().zip(&results).enumerate() {
        let alone = single(input);
        match (at, expected) {
            (3, Some(boundary)) => {
                assert_eq!(
                    alone.as_ref().unwrap_err(),
                    &non_finite(boundary),
                    "{context}"
                );
                assert_eq!(
                    result.as_ref().unwrap_err(),
                    &non_finite(boundary),
                    "{context}"
                );
            }
            _ => {
                let (batched, _) = result.as_ref().unwrap();
                let alone = alone.unwrap();
                assert_eq!(
                    batched.score.to_bits(),
                    alone.score.to_bits(),
                    "{context} slot {at}"
                );
                assert_eq!(batched, &alone, "{context} slot {at}");
            }
        }
    }
    if !int8 {
        let all_or_nothing = engine.detect_batch(&batch);
        match expected {
            Some(boundary) => assert_eq!(
                all_or_nothing.unwrap_err(),
                non_finite(boundary),
                "{context}"
            ),
            None => assert_eq!(all_or_nothing.unwrap().len(), 8, "{context}"),
        }
    }
}

/// Served requests: eight per case, the poisoned one in slot 3, each ticket
/// carrying exactly what the direct call gives its input; no worker panics.
fn check_served(
    engine: &Arc<DetectionEngine>,
    int8: bool,
    cases: &[(Vec<Tensor>, Option<usize>)],
    context: &str,
) {
    let mut builder = Server::builder(engine.clone()).workers(2);
    if int8 {
        builder = builder.quantized_screen(engine.quantized_network().unwrap().clone());
    }
    let server = builder.start().unwrap();
    let tickets: Vec<Vec<_>> = cases
        .iter()
        .map(|(batch, _)| {
            batch
                .iter()
                .map(|x| server.submit(x.clone()).unwrap())
                .collect()
        })
        .collect();
    let mut rejected = 0;
    for ((batch, expected), tickets) in cases.iter().zip(tickets) {
        for (at, (input, ticket)) in batch.iter().zip(tickets).enumerate() {
            let direct = if int8 {
                engine.detect_quantized(input)
            } else {
                engine.detect(input)
            };
            match (ticket.wait(), at, expected) {
                (Err(ServeError::Engine(served)), 3, Some(boundary)) => {
                    assert_eq!(served, non_finite(*boundary), "{context}");
                    assert_eq!(direct.unwrap_err(), served, "{context}");
                    rejected += 1;
                }
                (Ok(served), _, _) => {
                    assert!(at != 3 || expected.is_none(), "{context}: poison served");
                    assert_eq!(served.detection, direct.unwrap(), "{context} slot {at}");
                }
                (other, _, _) => panic!("{context} slot {at}: {other:?}"),
            }
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.worker_panics, 0, "{context}: {stats:?}");
    assert_eq!(stats.failed, rejected, "{context}: {stats:?}");
}

#[test]
fn non_finite_inputs_are_typed_errors_on_every_surface() {
    for victim in victims() {
        let clean = victim.batch();
        for (poison, boundary) in POISONS {
            let context = format!("{} poison {poison}", victim.name);
            let bad = poisoned(&clean[3], poison);

            // The forward pass itself, f32 and int8.
            let f32_error = NnError::NonFinite { boundary };
            assert_eq!(
                victim.network.forward(&bad).unwrap_err(),
                f32_error,
                "{context}"
            );
            let qnet = victim.engines[0].1.quantized_network().unwrap();
            let int8_expected = (boundary == 0).then_some(0);
            match int8_expected {
                Some(b) => assert_eq!(
                    qnet.forward(&bad).unwrap_err(),
                    NnError::NonFinite { boundary: b }
                ),
                None => assert!(qnet
                    .forward(&bad)
                    .unwrap()
                    .as_slice()
                    .iter()
                    .all(|v| v.is_finite())),
            }

            for (program, engine) in &victim.engines {
                let context = format!("{context} {program}");
                check_direct(engine, &clean, &bad, Some(boundary), false, &context);
                check_direct(
                    engine,
                    &clean,
                    &bad,
                    int8_expected,
                    true,
                    &format!("{context} int8"),
                );
            }

            // Training on a set holding the sample stops before any step.
            let mut network = victim.fresh();
            let mut samples = victim.samples[..8].to_vec();
            samples[3].0 = bad.clone();
            let trained = Trainer::new(TrainConfig {
                epochs: 1,
                batch_size: 8,
                ..TrainConfig::default()
            })
            .fit(&mut network, &samples);
            assert_eq!(trained.unwrap_err(), f32_error, "{context}: fit");

            attacks_reject(&victim.network, &victim.samples, &bad, boundary);
        }

        // Served: one batch of eight per poison, on every screen.
        for (program, engine) in &victim.engines {
            for int8 in [false, true] {
                let cases: Vec<(Vec<Tensor>, Option<usize>)> = POISONS
                    .iter()
                    .map(|&(poison, boundary)| {
                        let mut batch = clean.clone();
                        batch[3] = poisoned(&clean[3], poison);
                        let expected = if int8 {
                            (boundary == 0).then_some(0)
                        } else {
                            Some(boundary)
                        };
                        (batch, expected)
                    })
                    .collect();
                let context = format!("{} {program} int8={int8} served", victim.name);
                check_served(engine, int8, &cases, &context);
            }
        }
    }
}

/// `resnet_mini` with a large but finite stem bias and its first residual
/// body's first conv weighted `±f32::MAX`, alternating along the reduction:
/// every tap of that conv overflows, consecutive taps to opposite infinities,
/// so every output element is `+∞ + −∞` — NaN.  The body's ReLU would make
/// that `0`, the block output (layer 2, boundary 3) would be finite, and the
/// whole pass would look ordinary.  The parameters are written through
/// `apply_gradients` (each layer's `params_mut`): a step of `p - target` at
/// learning rate 1 lands on `target`.
fn laundering_resnet(seed: u64) -> Network {
    let mut network = zoo::resnet_mini(CLASSES, &mut Rng64::new(seed)).unwrap();
    let mut steps: Vec<Vec<Tensor>> = network
        .layers()
        .map(|layer| {
            layer
                .params()
                .iter()
                .map(|p| Tensor::zeros(p.dims()))
                .collect()
        })
        .collect();
    let to = |current: &Tensor, target: &dyn Fn(usize) -> f32| {
        let data = current
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, p)| p - target(i))
            .collect();
        Tensor::from_vec(data, current.dims()).unwrap()
    };
    let stem = network.layer(0).unwrap().params();
    steps[0][1] = to(stem[1], &|_| 100.0);
    let body = network.layer(2).unwrap().params();
    steps[2][0] = to(body[0], &|i| if i % 2 == 0 { f32::MAX } else { -f32::MAX });
    network.apply_gradients(&steps, 1.0).unwrap();
    network
}

#[test]
fn a_residual_body_cannot_launder_a_nan_through_its_relu() {
    let clean_victim = Victim::new("resnet_mini", zoo::resnet_mini, 0x4E);
    let network = Arc::new(laundering_resnet(clean_victim.seed));
    let clean = clean_victim.batch();
    let rejected = non_finite(3);

    assert_eq!(
        network.forward(&clean[0]).unwrap_err(),
        NnError::NonFinite { boundary: 3 }
    );
    // The int8 view runs the block in f32: calibrating it already fails.
    assert_eq!(
        QuantizedNetwork::quantize(network.clone(), &clean).unwrap_err(),
        NnError::NonFinite { boundary: 3 }
    );

    // Engines over the broken network, reusing the clean victim's class
    // paths and classifier (calibrating would run the broken pass).
    for (program, engine) in &clean_victim.engines {
        let broken = Arc::new(
            DetectionEngine::builder(
                network.clone(),
                engine.program().clone(),
                engine.class_paths().clone(),
            )
            .forest(engine.forest().unwrap().clone())
            .threshold(engine.threshold())
            .build()
            .unwrap(),
        );
        assert_eq!(broken.detect(&clean[0]).unwrap_err(), rejected, "{program}");
        assert_eq!(
            broken.detect_batch(&clean).unwrap_err(),
            rejected,
            "{program}"
        );
        for result in broken.detect_batch_with_paths(&clean) {
            assert_eq!(result.unwrap_err(), rejected, "{program}");
        }
        let server = Server::builder(broken.clone()).workers(2).start().unwrap();
        let tickets: Vec<_> = clean
            .iter()
            .map(|x| server.submit(x.clone()).unwrap())
            .collect();
        for ticket in tickets {
            assert!(matches!(ticket.wait(), Err(ServeError::Engine(e)) if e == rejected));
        }
        let stats = server.shutdown();
        assert_eq!((stats.worker_panics, stats.failed), (0, 8), "{program}");
    }

    let mut training = laundering_resnet(clean_victim.seed);
    let trained = Trainer::new(TrainConfig {
        epochs: 1,
        batch_size: 8,
        ..TrainConfig::default()
    })
    .fit(&mut training, &clean_victim.samples[..8]);
    assert_eq!(trained.unwrap_err(), NnError::NonFinite { boundary: 3 });

    attacks_reject(&network, &clean_victim.samples, &clean[0], 3);
}

/// The window `[1, NaN, 0, 0]` once named three different maxima: the
/// forward's `f32::max` fold took index 0, while the backward and the BwCu
/// walk routed to index 3 (the arg-max treats NaN as equal to everything).
/// Fed to a network as its input it is rejected at boundary 0 by the forward,
/// the backward and the BwCu extraction alike, so no pool ever routes a NaN.
#[test]
fn no_pool_ever_routes_a_nan() {
    let mut rng = Rng64::new(7);
    let network = Network::new(vec![
        Box::new(MaxPool2d::new(1, 2, 2, 2, 2).unwrap()) as Box<dyn Layer>,
        Box::new(Flatten::new(&[1, 1, 1])),
        Box::new(Dense::new(1, 2, &mut rng).unwrap()),
    ])
    .unwrap();
    let window = Tensor::from_vec(vec![1.0, f32::NAN, 0.0, 0.0], &[1, 2, 2]).unwrap();
    let rejected = NnError::NonFinite { boundary: 0 };
    assert_eq!(network.forward(&window).unwrap_err(), rejected);
    assert_eq!(network.forward_trace(&window).unwrap_err(), rejected);
    assert_eq!(network.input_gradient(&window, 0).unwrap_err(), rejected);
    let program = variants::bw_cu(&network, 0.5).unwrap();
    let walked = ptolemy::core::extract_path_streaming(&network, &program, &window);
    assert_eq!(walked.unwrap_err(), CoreError::Nn(rejected));
}

/// Finite boundaries and finite boundary gradients do not make a finite
/// step: eight samples at `1e38` give each a finite weight gradient, but their
/// batch sum overflows.  The trainer stops there, reporting the dense layer's
/// output boundary, and never writes the infinity into a parameter.
#[test]
fn training_never_writes_a_non_finite_parameter() {
    let mut rng = Rng64::new(1);
    let dense = Dense::new(1, 2, &mut rng).unwrap();
    let before: Vec<Vec<f32>> = dense
        .params()
        .iter()
        .map(|p| p.as_slice().to_vec())
        .collect();
    let mut network = Network::new(vec![Box::new(dense) as Box<dyn Layer>]).unwrap();
    let samples: Vec<(Tensor, usize)> = (0..8).map(|_| (Tensor::full(&[1], 1e38), 0)).collect();
    let logits = network.forward(&samples[0].0).unwrap();
    assert!(logits.as_slice().iter().all(|v| v.is_finite()));
    let trained = Trainer::new(TrainConfig {
        epochs: 1,
        batch_size: 8,
        ..TrainConfig::default()
    })
    .fit(&mut network, &samples);
    assert_eq!(trained.unwrap_err(), NnError::NonFinite { boundary: 1 });
    let after: Vec<Vec<f32>> = network
        .layer(0)
        .unwrap()
        .params()
        .iter()
        .map(|p| p.as_slice().to_vec())
        .collect();
    assert_eq!(after, before);
}
