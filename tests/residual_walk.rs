//! The reverse walk over residual blocks: parity, cost and hostile inputs.
//!
//! `tests/streaming.rs` and `tests/batch_fusion.rs` pin the pipelines on a
//! LeNet; this suite pins what only a ResNet exercises.  A residual block
//! decomposes its outputs against its *interior* (the last body layer's
//! input), and every pipeline gets that tensor a different way — the streaming
//! sink keeps the one the forward pass produced, a recorded trace carries it,
//! a fused batch slices it, a boundaries-only trace makes the block recompute
//! it — so all of them must agree bit for bit.  The counting-layer tests then
//! pin the cost: the walk of a streamed detect runs no layer forward at all.

#![allow(
    clippy::unwrap_used,
    clippy::panic,
    reason = "test helpers and proptest! bodies unwrap and panic; a failure there fails the test"
)]

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use ptolemy::core::{
    extract_path, extract_path_streaming, extract_paths_streaming_batch, variants, ActivationPath,
    CoreError, DetectionEngine, DetectionProgram, Profiler,
};
use ptolemy::nn::layer::{Conv2d, Dense, Flatten, ReLU, Residual};
use ptolemy::nn::{
    Decompositions, ForwardTrace, Layer, LayerKind, Network, NnError, Saved, TrainConfig, Trainer,
};
use ptolemy::prelude::{Attack, Fgsm, Tensor};
use ptolemy::tensor::parallel::with_forced_width;
use ptolemy::tensor::Rng64;

/// Every `variants::*` program — the backward ones decompose the blocks, the
/// forward ones ride along for the int8 parity case — each with an engine
/// profiled, calibrated and quantized on the network's own predictions.
fn engines(
    network: &Arc<Network>,
    samples: &[(Tensor, usize)],
) -> Vec<(&'static str, DetectionEngine)> {
    let benign: Vec<Tensor> = samples.iter().map(|(x, _)| x.clone()).collect();
    let attack = Fgsm::new(0.25);
    let adversarial: Vec<Tensor> = samples
        .iter()
        .map(|(x, y)| attack.perturb(network, x, *y).unwrap().input)
        .collect();
    let programs = vec![
        ("bw_cu", variants::bw_cu(network, 0.5).unwrap()),
        ("bw_ab", variants::bw_ab(network, 0.2).unwrap()),
        ("hybrid", variants::hybrid(network, 0.2, 0.5).unwrap()),
        (
            "bw_cu_early_termination",
            variants::bw_cu_early_termination(network, 0.5, 6).unwrap(),
        ),
        ("fw_ab", variants::fw_ab(network, 0.05).unwrap()),
        ("fw_cu", variants::fw_cu(network, 0.5).unwrap()),
        (
            "fw_ab_late_start",
            variants::fw_ab_late_start(network, 0.05, 2).unwrap(),
        ),
    ];
    programs
        .into_iter()
        .map(|(name, program)| {
            let class_paths = Profiler::new(program.clone())
                .profile(network, samples)
                .unwrap();
            let engine = DetectionEngine::builder(network.clone(), program, class_paths)
                .calibrate(&benign, &adversarial)
                .quantized(&benign)
                .build()
                .unwrap();
            (name, engine)
        })
        .collect()
}

struct Fixture {
    network: Arc<Network>,
    engines: Vec<(&'static str, DetectionEngine)>,
    inputs: Vec<Tensor>,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let (network, samples) = common::self_labelled_resnet(0x2E5, 24);
        let network = Arc::new(network);
        Fixture {
            engines: engines(&network, &samples),
            inputs: samples.into_iter().map(|(x, _)| x).collect(),
            network,
        }
    })
}

/// A batch of 1..=6 inputs mixing fixture draws with one arbitrary tensor.
fn batch(seed: u64, len: usize, scale: f32) -> Vec<Tensor> {
    let fx = fixture();
    let mut rng = Rng64::new(seed);
    let mut batch: Vec<Tensor> = (0..len.saturating_sub(1))
        .map(|_| fx.inputs[rng.below(fx.inputs.len())].clone())
        .collect();
    let data = (0..3 * 8 * 8).map(|_| scale * rng.normal()).collect();
    batch.push(Tensor::from_vec(data, &[3, 8, 8]).unwrap());
    batch
}

/// `trace` stripped to its boundaries: every residual block has to recompute
/// its interior.
fn boundaries_only(trace: &ForwardTrace) -> ForwardTrace {
    ForwardTrace::from_activations(trace.activations().to_vec()).unwrap()
}

fn materialized(
    network: &Network,
    program: &DetectionProgram,
    input: &Tensor,
) -> (usize, ActivationPath) {
    let trace = network.forward_trace(input).unwrap();
    let path = extract_path(network, &trace, program).unwrap();
    // Captured interior == recomputed interior.
    let recomputed = extract_path(network, &boundaries_only(&trace), program).unwrap();
    assert_eq!(
        path, recomputed,
        "recorded and recomputed interiors disagree"
    );
    (trace.predicted_class().unwrap(), path)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Streamed == materialized (recorded and recomputed interior) == slice
    /// `b` of the fused batch (streamed, and materialized from its sliced
    /// boundaries), at forced widths 1 and N: paths bit for bit.
    #[test]
    fn residual_extraction_agrees_across_every_pipeline(
        seed in 0u64..10_000,
        len in 1usize..=6,
        scale in 0.1f32..2.0,
    ) {
        let fx = fixture();
        let inputs = batch(seed, len, scale);
        let stacked = common::Stacked::record(fx.network.as_ref(), &inputs);
        for (name, engine) in &fx.engines {
            let program = engine.program();
            let fused = with_forced_width(1, || {
                extract_paths_streaming_batch(&fx.network, program, &inputs)
            })
            .unwrap();
            for width in [2usize, 3] {
                let fanned = with_forced_width(width, || {
                    extract_paths_streaming_batch(&fx.network, program, &inputs)
                })
                .unwrap();
                prop_assert!(
                    fanned.samples == fused.samples && fanned.footprint == fused.footprint,
                    "variant {}: width {} changed the streamed batch",
                    name,
                    width
                );
            }
            for (b, input) in inputs.iter().enumerate() {
                let (class, path) = materialized(&fx.network, program, input);
                let single = extract_path_streaming(&fx.network, program, input).unwrap();
                prop_assert!(
                    single.predicted_class == class && single.path == path,
                    "variant {}: streamed != materialized for sample {}",
                    name,
                    b
                );
                prop_assert!(
                    fused.samples[b] == (class, path.clone()),
                    "variant {}: streamed batch slice {} diverged",
                    name,
                    b
                );
                prop_assert!(
                    extract_path(&fx.network, &stacked.trace(b), program).unwrap() == path,
                    "variant {}: materialized batch slice {} diverged",
                    name,
                    b
                );
            }
            // The int8 provider's residual blocks run f32 and hand the sink
            // their interior, so the streamed int8 walk is the materialized
            // one over a boundaries-only trace of the same int8 boundaries
            // (which recomputes that interior).
            let qnet = engine.quantized_network().expect("quantized fixture");
            for (input, served) in inputs.iter().zip(engine.detect_batch_on(qnet, &inputs)) {
                let (detection, path) = served.unwrap();
                let trace = common::Stacked::record(qnet, std::slice::from_ref(input)).trace(0);
                prop_assert!(
                    detection.predicted_class == trace.predicted_class().unwrap()
                        && path == extract_path(&fx.network, &trace, program).unwrap(),
                    "variant {}: streamed int8 extraction diverged",
                    name
                );
            }
            // The sink really kept the interiors: it holds more than the
            // boundaries alone would, and is charged for it.
            if *name != "bw_cu_early_termination" {
                prop_assert!(stacked.bytes() > stacked.boundary_bytes());
                prop_assert!(fused.footprint.peak_streamed_bytes <= stacked.bytes());
                prop_assert_eq!(fused.footprint.materialized_bytes, stacked.bytes());
            }
        }
    }

    /// `detect`, `detect_batch` and `detect_batch_with_paths` serve the
    /// materialized pipeline's similarity and score bit for bit, at forced
    /// widths 1 and N.
    #[test]
    fn residual_detect_matches_materialized_scoring(
        seed in 0u64..10_000,
        len in 1usize..=6,
        scale in 0.1f32..2.0,
    ) {
        let fx = fixture();
        let inputs = batch(seed, len, scale);
        for (name, engine) in &fx.engines {
            for width in [1usize, 3] {
                let served = with_forced_width(width, || engine.detect_batch_with_paths(&inputs));
                for (input, served) in inputs.iter().zip(served) {
                    let (detection, served_path) = served.unwrap();
                    let (class, path) = materialized(&fx.network, engine.program(), input);
                    let similarity = path
                        .similarity(engine.class_paths().class_path(class).unwrap())
                        .unwrap();
                    let score = engine
                        .forest()
                        .expect("calibrated engine")
                        .predict_proba(&[similarity])
                        .unwrap();
                    prop_assert!(
                        served_path == path
                            && detection.predicted_class == class
                            && detection.similarity.to_bits() == similarity.to_bits()
                            && detection.score.to_bits() == score.to_bits(),
                        "variant {}: width {} verdict diverged",
                        name,
                        width
                    );
                    let single = engine.detect(input).unwrap();
                    prop_assert_eq!(single.score.to_bits(), detection.score.to_bits());
                    prop_assert_eq!(single.similarity.to_bits(), detection.similarity.to_bits());
                }
            }
        }
    }
}

/// A transparent wrapper that counts how many samples its inner layer ran
/// forward on (a fused batch of `B` counts `B`).
struct Counting {
    inner: Box<dyn Layer>,
    samples: Arc<AtomicUsize>,
}

impl Layer for Counting {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn output_shape(&self) -> Vec<usize> {
        self.inner.output_shape()
    }
    fn input_shape(&self) -> Vec<usize> {
        self.inner.input_shape()
    }
    fn forward_batch(&self, batch: &Tensor) -> Result<Tensor, NnError> {
        self.samples.fetch_add(batch.dims()[0], Ordering::SeqCst);
        self.inner.forward_batch(batch)
    }
    fn backward_batch(
        &self,
        saved: Saved<'_>,
        grad_output: &Tensor,
        param_grads: Option<&mut [Tensor]>,
        want_input: bool,
    ) -> Result<Option<Tensor>, NnError> {
        self.inner
            .backward_batch(saved, grad_output, param_grads, want_input)
    }
    fn params(&self) -> Vec<&Tensor> {
        self.inner.params()
    }
    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.inner.params_mut()
    }
    fn contributions_many(
        &self,
        input: &Tensor,
        interior: Option<&Tensor>,
        out_idxs: &[usize],
        out: &mut Decompositions,
    ) -> Result<(), NnError> {
        self.inner
            .contributions_many(input, interior, out_idxs, out)
    }
    fn static_routing(
        &self,
        out_idxs: &[usize],
        out: &mut Decompositions,
    ) -> Result<bool, NnError> {
        self.inner.static_routing(out_idxs, out)
    }
    fn kind(&self) -> LayerKind {
        self.inner.kind()
    }
}

/// Two residual blocks whose body layers (`conv → relu → conv`) each count
/// their forward samples: `counters[block][body layer]`.
fn counted_network(rng: &mut Rng64) -> (Network, Vec<Vec<Arc<AtomicUsize>>>) {
    let mut counters = Vec::new();
    let mut layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(3, 4, 6, 6, 3, 1, 1, rng).unwrap()),
        Box::new(ReLU::new(&[4, 6, 6])),
    ];
    for _ in 0..2 {
        let body: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new(4, 4, 6, 6, 3, 1, 1, rng).unwrap()),
            Box::new(ReLU::new(&[4, 6, 6])),
            Box::new(Conv2d::new(4, 4, 6, 6, 3, 1, 1, rng).unwrap()),
        ];
        let mut block_counters = Vec::new();
        let counted = body
            .into_iter()
            .map(|inner| {
                let samples = Arc::new(AtomicUsize::new(0));
                block_counters.push(samples.clone());
                Box::new(Counting { inner, samples }) as Box<dyn Layer>
            })
            .collect();
        counters.push(block_counters);
        layers.push(Box::new(Residual::new(counted, true).unwrap()));
    }
    layers.push(Box::new(Flatten::new(&[4, 6, 6])));
    layers.push(Box::new(Dense::new(144, 3, rng).unwrap()));
    (Network::new(layers).unwrap(), counters)
}

/// Reads and resets every counter: `[block][body layer]` samples since the
/// last call.
fn drain(counters: &[Vec<Arc<AtomicUsize>>]) -> Vec<Vec<usize>> {
    counters
        .iter()
        .map(|block| block.iter().map(|c| c.swap(0, Ordering::SeqCst)).collect())
        .collect()
}

/// The whole point of the tentpole, as a count: a streamed BwCu `detect` runs
/// every body layer exactly once per input — the forward pass — and the
/// reverse walk runs none; a recorded trace costs the same; only a
/// boundaries-only trace makes each block re-run its body *head* once per
/// block (never per neuron, never the last body layer).
#[test]
fn the_reverse_walk_runs_no_body_layer_forward() {
    let mut rng = Rng64::new(0xC0);
    let (network, counters) = counted_network(&mut rng);
    let network = Arc::new(network);
    let samples: Vec<(Tensor, usize)> = (0..12)
        .map(|_| {
            let data = (0..3 * 6 * 6).map(|_| rng.normal()).collect();
            let input = Tensor::from_vec(data, &[3, 6, 6]).unwrap();
            let label = network.predict(&input).unwrap();
            (input, label)
        })
        .collect();
    let inputs: Vec<Tensor> = samples.iter().map(|(x, _)| x.clone()).collect();
    let program = variants::bw_cu(&network, 0.9).unwrap();
    let class_paths = Profiler::new(program.clone())
        .profile(&network, &samples)
        .unwrap();
    let engine = DetectionEngine::builder(network.clone(), program.clone(), class_paths)
        .calibrate(&inputs[..6], &inputs[6..])
        .build()
        .unwrap();
    drain(&counters);
    let once = |n: usize| vec![vec![n; 3]; 2];

    // θ = 0.9 marks many neurons per block, so a per-neuron recompute would
    // show up as counts far above one.
    let (_, path) = engine.detect_with_path(&inputs[0]).unwrap();
    assert!(path.count_ones() > 20, "the walk must have work to do");
    assert_eq!(
        drain(&counters),
        once(1),
        "detect: one forward pass, nothing else"
    );

    engine.detect(&inputs[1]).unwrap();
    assert_eq!(drain(&counters), once(1));
    extract_path_streaming(&network, &program, &inputs[2]).unwrap();
    assert_eq!(drain(&counters), once(1));

    for width in [1usize, 2] {
        let served = with_forced_width(width, || engine.detect_batch(&inputs[..5])).unwrap();
        assert_eq!(served.len(), 5);
        assert_eq!(drain(&counters), once(5), "detect_batch at width {width}");
    }
    extract_paths_streaming_batch(&network, &program, &inputs[..4]).unwrap();
    assert_eq!(drain(&counters), once(4));

    // Materialized: recording the trace is the one pass; the walk reads the
    // interiors the trace recorded.
    let trace = network.forward_trace(&inputs[0]).unwrap();
    assert_eq!(drain(&counters), once(1));
    let recorded = extract_path(&network, &trace, &program).unwrap();
    assert_eq!(
        drain(&counters),
        once(0),
        "extract_path over a recorded trace"
    );

    // Boundaries only: conv → relu re-run once per block, the last body layer
    // never.
    let recomputed = extract_path(&network, &boundaries_only(&trace), &program).unwrap();
    assert_eq!(drain(&counters), vec![vec![1, 1, 0]; 2]);
    assert_eq!(recorded, recomputed);
    assert_eq!(recorded, path);
}

/// The backward pass re-runs nothing either: a residual block backpropagates
/// from the interior its forward pass recorded.  One training step over a
/// minibatch of four runs every body layer forward four times for the step
/// and four more for `fit`'s final-accuracy pass (a backward that re-ran the
/// body per sample would add four), and one `input_gradient` — the gradient
/// behind every white-box attack — runs it once.
#[test]
fn training_and_input_gradients_run_each_body_layer_once_per_sample() {
    let mut rng = Rng64::new(0xC1);
    let (mut network, counters) = counted_network(&mut rng);
    let samples: Vec<(Tensor, usize)> = (0..4)
        .map(|i| {
            let data = (0..3 * 6 * 6).map(|_| rng.normal()).collect();
            (Tensor::from_vec(data, &[3, 6, 6]).unwrap(), i % 3)
        })
        .collect();
    let once = |n: usize| vec![vec![n; 3]; 2];
    drain(&counters);

    let report = Trainer::new(TrainConfig {
        epochs: 1,
        batch_size: 4,
        ..TrainConfig::default()
    })
    .fit(&mut network, &samples)
    .unwrap();
    assert_eq!(report.epoch_losses.len(), 1);
    assert_eq!(
        drain(&counters),
        once(4 + 4),
        "one step: the fused forward pass, then the final-accuracy pass"
    );

    let (input, label) = &samples[0];
    network.input_gradient(input, *label).unwrap();
    assert_eq!(
        drain(&counters),
        once(1),
        "input_gradient: one forward pass"
    );
}

/// A single input is a batch of one, and a batch of one takes no per-input
/// retry: whatever the program (FwAb, BwCu) and the precision (f32, int8),
/// `detect` runs each body layer at most once — once for a clean input, once
/// for an all-NaN one, whose fused error *is* its error.  A retry would read
/// 2.  (The int8 stem rejects the NaN while quantizing it, before the first
/// block, so there the body never runs at all — and still not twice.)
#[test]
fn a_batch_of_one_runs_each_layer_once() {
    let mut rng = Rng64::new(0xB1);
    let (network, counters) = counted_network(&mut rng);
    let network = Arc::new(network);
    let inputs: Vec<Tensor> = (0..12)
        .map(|_| Tensor::from_vec((0..3 * 6 * 6).map(|_| rng.normal()).collect(), &[3, 6, 6]))
        .collect::<Result<_, _>>()
        .unwrap();
    let samples: Vec<(Tensor, usize)> = inputs
        .iter()
        .map(|x| (x.clone(), network.predict(x).unwrap()))
        .collect();
    let poisoned = Tensor::full(&[3, 6, 6], f32::NAN);
    let once = |n: usize| vec![vec![n; 3]; 2];
    for (name, program) in [
        ("fw_ab", variants::fw_ab(&network, 0.05).unwrap()),
        ("bw_cu", variants::bw_cu(&network, 0.5).unwrap()),
    ] {
        let class_paths = Profiler::new(program.clone())
            .profile(&network, &samples)
            .unwrap();
        let engine = DetectionEngine::builder(network.clone(), program, class_paths)
            .calibrate(&inputs[..6], &inputs[6..])
            .quantized(&inputs)
            .build()
            .unwrap();
        for int8 in [false, true] {
            let detect = |x: &Tensor| {
                if int8 {
                    engine.detect_quantized(x)
                } else {
                    engine.detect(x)
                }
            };
            let context = format!("{name} int8={int8}");
            drain(&counters);
            detect(&inputs[0]).unwrap();
            assert_eq!(drain(&counters), once(1), "{context}: clean input");

            // The driver rejects the NaN at the input boundary, before any
            // layer — body layers included — runs.
            let verdict = detect(&poisoned);
            assert!(rejected(&verdict, &context), "{context}: {verdict:?}");
            assert_eq!(drain(&counters), once(0), "{context}: NaN input");
        }
    }
}

/// `true` if `result` is the typed non-finite error at the input boundary,
/// `false` if it is a value; any other error fails the test (and a panic never
/// gets this far).
fn rejected<T: std::fmt::Debug>(result: &Result<T, CoreError>, context: &str) -> bool {
    match result {
        Ok(_) => false,
        Err(CoreError::Nn(NnError::NonFinite { boundary: 0 })) => true,
        Err(other) => panic!("{context}: unexpected error {other}"),
    }
}

/// One NaN pixel: ReLU's `max(0.0)` would swallow it downstream, so the
/// logits would stay finite and the walk could reach partial sums that are
/// NaN.  That once panicked inside std's sort ("does not correctly implement a
/// total order"), and later gave an ordinary verdict whenever the walk missed
/// the poisoned receptive fields.  Now the input boundary rejects it: every
/// seed is the typed error, for backward and forward programs alike, one input
/// at a time.
#[test]
fn a_nan_pixel_is_a_typed_error_never_a_panic() {
    let fx = fixture();
    let programs = [
        ("bw_cu", variants::bw_cu(&fx.network, 0.5).unwrap()),
        ("bw_ab", variants::bw_ab(&fx.network, 0.2).unwrap()),
        ("fw_cu", variants::fw_cu(&fx.network, 0.5).unwrap()),
        ("fw_ab", variants::fw_ab(&fx.network, 0.05).unwrap()),
    ];
    for (name, program) in &programs {
        let mut errors = 0;
        for seed in 0..40u64 {
            let mut rng = Rng64::new(seed);
            let mut poisoned = fx.inputs[rng.below(fx.inputs.len())].clone();
            let at = rng.below(poisoned.len());
            poisoned.as_mut_slice()[at] = f32::NAN;
            let context = format!("{name} seed {seed}");
            let streamed = extract_path_streaming(&fx.network, program, &poisoned);
            // The materialized pipeline never gets a trace to walk.
            let trace = fx.network.forward_trace(&poisoned).map_err(CoreError::from);
            assert!(rejected(&trace, &context), "{context}");
            errors += usize::from(rejected(&streamed, &context));
        }
        assert_eq!(errors, 40, "{name}");
    }

    // Through an engine the poisoned input fails alone: its batch neighbours
    // get exactly their single-input verdicts.
    for (name, engine) in &fx.engines {
        for seed in 0..10u64 {
            let mut rng = Rng64::new(seed);
            let mut poisoned = fx.inputs[0].clone();
            let at = rng.below(poisoned.len());
            poisoned.as_mut_slice()[at] = f32::NAN;
            let context = format!("{name} seed {seed}");
            let alone = rejected(&engine.detect(&poisoned), &context);
            assert!(alone, "{context}");
            let inputs = vec![fx.inputs[1].clone(), poisoned, fx.inputs[2].clone()];
            let served = engine.detect_batch_with_paths(&inputs);
            assert_eq!(rejected(&served[1], &context), alone, "{context}");
            assert_eq!(engine.detect_batch(&inputs).is_err(), alone, "{context}");
            for at in [0, 2] {
                let (detection, _) = served[at].as_ref().unwrap();
                let single = engine.detect(&inputs[at]).unwrap();
                assert_eq!(
                    detection.score.to_bits(),
                    single.score.to_bits(),
                    "{context}"
                );
            }
        }
    }
}
