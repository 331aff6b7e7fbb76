//! Benchmark fixtures: the trained victim networks, the detection engines bound
//! to them, and the seeded input pools the workloads draw requests from.
//!
//! The networks and engines are built from [`FIXTURE_SEED`] — they are the
//! program under test and stay the same on every run.  Only the input pool
//! (and, elsewhere, request order and arrival times) comes from `--seed`.

use std::collections::HashSet;
use std::sync::Arc;

use ptolemy_attacks::{Attack, Fgsm};
use ptolemy_core::{variants, Detection, DetectionEngine, DetectionProgram, Profiler};
use ptolemy_data::{DatasetConfig, SyntheticDataset};
use ptolemy_nn::{zoo, Network, TrainConfig, Trainer};
use ptolemy_obs::Clock;
use ptolemy_tensor::{Rng64, Tensor};

use crate::BenchResult;

/// Seed of everything that is part of the program under test: dataset
/// prototypes, training, profiling and calibration sets.
pub const FIXTURE_SEED: u64 = 0xF1C5;

/// L∞ budget of the FGSM perturbation (the standard attack suite's value).
const FGSM_EPSILON: f32 = 0.12;

/// Benign (and as many adversarial) inputs each engine is calibrated on.
const CALIBRATION_INPUTS: usize = 48;

/// Which victim network a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// `zoo::conv_net`: AlexNet-class, 3×16×16 inputs, 10 classes.
    Alexnet,
    /// `zoo::resnet_mini`: ResNet-class, 3×8×8 inputs, 4 classes.
    Resnet,
}

/// Host time spent in the set-up steps that later issues may move work into,
/// summed over everything one set-up ran.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// `Profiler::profile` time and the samples it aggregated.
    pub profile_ns: u64,
    /// Samples behind [`SetupTimes::profile_ns`].
    pub profile_samples: u64,
    /// `DetectionEngineBuilder::build` with `.calibrate(..)` (and
    /// `.quantized(..)` where the workload uses it).
    pub calibrate_ns: u64,
    /// `Fgsm::perturb` time and the inputs it perturbed.
    pub fgsm_ns: u64,
    /// Inputs behind [`SetupTimes::fgsm_ns`].
    pub fgsm_samples: u64,
}

/// A trained victim network with its dataset, calibration inputs and a
/// held-out evaluation set.
pub struct Fixture {
    /// The trained network, shared by every engine bound to it.
    pub network: Arc<Network>,
    /// The dataset it was trained on (prototypes generate the pools).
    pub dataset: SyntheticDataset,
    calibration_benign: Vec<Tensor>,
    calibration_adversarial: Vec<Tensor>,
    /// Held-out `(input, is adversarial)` pairs, disjoint from the
    /// calibration inputs: the escalation band, the path density the hardware
    /// model is run at and `detection_auc` are all measured on these, so they
    /// are properties of the engines and do not move with `--seed`.
    pub evaluation: Vec<(Tensor, bool)>,
}

impl Fixture {
    /// Generates the dataset, trains the network and perturbs the calibration
    /// and evaluation inputs.
    ///
    /// # Errors
    ///
    /// Propagates dataset, training and attack errors.
    pub fn build(net: Net, clock: &Clock, times: &mut SetupTimes) -> BenchResult<Fixture> {
        // Sized so one set-up trains in about a second: the victim only has
        // to classify its own prototypes well enough that most benign inputs
        // pass the correctly-classified filter.
        let (config, epochs, learning_rate, batch_size, evaluation_pairs) = match net {
            Net::Alexnet => (
                DatasetConfig {
                    name: "synth-imagenet-10".into(),
                    num_classes: 10,
                    shape: vec![3, 16, 16],
                    train_per_class: 20,
                    test_per_class: 28,
                    noise: 0.15,
                    seed: FIXTURE_SEED,
                },
                10,
                0.006,
                8,
                128,
            ),
            Net::Resnet => (
                DatasetConfig {
                    name: "synth-cifar-4".into(),
                    num_classes: 4,
                    shape: vec![3, 8, 8],
                    train_per_class: 10,
                    test_per_class: 48,
                    noise: 0.15,
                    seed: FIXTURE_SEED,
                },
                12,
                0.003,
                4,
                64,
            ),
        };
        let dataset = SyntheticDataset::generate(config)?;
        let mut rng = Rng64::new(FIXTURE_SEED);
        let mut network = match net {
            Net::Alexnet => zoo::conv_net(dataset.num_classes(), &mut rng)?,
            Net::Resnet => zoo::resnet_mini(dataset.num_classes(), &mut rng)?,
        };
        Trainer::new(TrainConfig {
            epochs,
            batch_size,
            learning_rate,
            seed: FIXTURE_SEED,
            ..TrainConfig::default()
        })
        .fit(&mut network, dataset.train())?;
        let network = Arc::new(network);

        // Correctly classified test inputs and their FGSM perturbations: the
        // first `CALIBRATION_INPUTS` pairs calibrate, the rest evaluate.
        let attack = Fgsm::new(FGSM_EPSILON);
        let wanted = CALIBRATION_INPUTS + evaluation_pairs;
        let mut pairs = Vec::with_capacity(wanted);
        for (input, label) in dataset.test() {
            if pairs.len() == wanted {
                break;
            }
            if network.predict(input)? != *label {
                continue;
            }
            let start_ns = clock.now_ns();
            let example = attack.perturb(&network, input, *label)?;
            times.fgsm_ns += clock.now_ns() - start_ns;
            times.fgsm_samples += 1;
            pairs.push((input.clone(), example.input));
        }
        if pairs.len() < wanted {
            return Err(format!(
                "only {} of {wanted} test inputs are correctly classified",
                pairs.len()
            )
            .into());
        }
        let evaluation = pairs
            .split_off(CALIBRATION_INPUTS)
            .into_iter()
            .flat_map(|(benign, adversarial)| [(benign, false), (adversarial, true)])
            .collect();
        let (calibration_benign, calibration_adversarial) = pairs.into_iter().unzip();
        Ok(Fixture {
            network,
            dataset,
            calibration_benign,
            calibration_adversarial,
            evaluation,
        })
    }

    /// The FwAb program with φ chosen as `Workbench::calibrate_phi` does: the
    /// candidate whose mean path density over eight test inputs is closest
    /// to 10 %.
    ///
    /// # Errors
    ///
    /// Propagates program-construction and extraction errors.
    pub fn fw_ab(&self) -> BenchResult<DetectionProgram> {
        let mut best = (0.01f32, f32::MAX);
        for phi in [0.01f32, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8] {
            let profiler = Profiler::new(variants::fw_ab(&self.network, phi)?);
            let mut total = 0.0f32;
            for (input, _) in self.dataset.test().iter().take(8) {
                total += profiler.extract(&self.network, input)?.1.density();
            }
            let density = total / 8.0;
            let miss = (density - 0.10).abs();
            if density > 0.0 && miss < best.1 {
                best = (phi, miss);
            }
        }
        Ok(variants::fw_ab(&self.network, best.0)?)
    }

    /// The BwCu program at θ = 0.5.
    ///
    /// # Errors
    ///
    /// Propagates program-construction errors.
    pub fn bw_cu(&self) -> BenchResult<DetectionProgram> {
        Ok(variants::bw_cu(&self.network, 0.5)?)
    }

    /// Profiles `program`'s canary paths on the training set and binds a
    /// calibrated engine (with an int8 network when `quantized`).
    ///
    /// # Errors
    ///
    /// Propagates profiling and engine-construction errors.
    pub fn engine(
        &self,
        program: DetectionProgram,
        quantized: bool,
        clock: &Clock,
        times: &mut SetupTimes,
    ) -> BenchResult<Arc<DetectionEngine>> {
        let start_ns = clock.now_ns();
        let class_paths =
            Profiler::new(program.clone()).profile(&self.network, self.dataset.train())?;
        let profiled_ns = clock.now_ns();
        times.profile_ns += profiled_ns - start_ns;
        times.profile_samples += self.dataset.train().len() as u64;
        let mut builder = DetectionEngine::builder(self.network.clone(), program, class_paths)
            .calibrate(&self.calibration_benign, &self.calibration_adversarial);
        if quantized {
            builder = builder.quantized(&self.calibration_benign);
        }
        let engine = builder.build()?;
        times.calibrate_ns += clock.now_ns() - profiled_ns;
        Ok(Arc::new(engine))
    }
}

/// How a pool's reference verdicts are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// `DetectionEngine::detect_with_path` (bit-for-bit `detect`).
    F32,
    /// `DetectionEngine::detect_quantized`.
    Int8,
}

/// The inputs a workload's requests are drawn from, with the primary
/// engine's direct verdict on each.
pub struct Pool {
    /// Alternating benign / FGSM-perturbed inputs.
    pub inputs: Vec<Tensor>,
    /// The primary engine's direct verdict per input — the reference a
    /// served verdict must equal bit for bit.
    pub verdicts: Vec<Detection>,
}

struct Candidate {
    input: Tensor,
    verdict: Detection,
    fingerprint: Option<u64>,
}

fn direct_verdict(
    engine: &DetectionEngine,
    precision: Precision,
    input: &Tensor,
) -> BenchResult<(Detection, Option<u64>)> {
    Ok(match precision {
        Precision::F32 => {
            let (verdict, path) = engine.detect_with_path(input)?;
            (verdict, Some(path.prefix_fingerprint(usize::MAX)))
        }
        Precision::Int8 => (engine.detect_quantized(input)?, None),
    })
}

/// One worker's half of the pool: `pairs` benign inputs drawn around the
/// class prototypes (kept only when the engine's network classifies them
/// correctly, as the detection test sets of the paper are) and their FGSM
/// perturbations.
fn pool_half(
    fixture: &Fixture,
    engine: &DetectionEngine,
    precision: Precision,
    seed: u64,
    pairs: usize,
    clock: &Clock,
) -> BenchResult<(Vec<Candidate>, SetupTimes)> {
    let attack = Fgsm::new(FGSM_EPSILON);
    let mut rng = Rng64::new(seed);
    let mut times = SetupTimes::default();
    let classes = fixture.dataset.num_classes();
    let noise = fixture.dataset.config().noise;
    let mut out = Vec::with_capacity(2 * pairs);
    let mut drawn = 0usize;
    while out.len() < 2 * pairs {
        if drawn >= 20 * pairs {
            return Err("the network misclassifies too many pool inputs".into());
        }
        let class = drawn % classes;
        drawn += 1;
        let prototype = fixture.dataset.prototype(class)?;
        let data: Vec<f32> = prototype
            .as_slice()
            .iter()
            .map(|v| (v + noise * rng.normal()).clamp(0.0, 1.0))
            .collect();
        let benign = Tensor::from_vec(data, prototype.dims())?;
        let (verdict, fingerprint) = direct_verdict(engine, precision, &benign)?;
        if verdict.predicted_class != class {
            continue;
        }
        let start_ns = clock.now_ns();
        let perturbed = attack.perturb(&fixture.network, &benign, class)?.input;
        times.fgsm_ns += clock.now_ns() - start_ns;
        times.fgsm_samples += 1;
        let (adversarial_verdict, adversarial_fingerprint) =
            direct_verdict(engine, precision, &perturbed)?;
        out.push(Candidate {
            input: benign,
            verdict,
            fingerprint,
        });
        out.push(Candidate {
            input: perturbed,
            verdict: adversarial_verdict,
            fingerprint: adversarial_fingerprint,
        });
    }
    Ok((out, times))
}

/// Runs `work` on each of the two arguments on its own scoped thread and
/// returns both results in argument order — the set-up's reference verdicts
/// and attacks are single-threaded engine calls, and the box has two cores.
/// (Errors cross the threads as strings: the boxed error type is not `Send`.)
///
/// # Errors
///
/// Returns the first worker's error.
pub fn on_two_threads<A: Send, R: Send>(
    arguments: [A; 2],
    work: impl Fn(A) -> Result<R, String> + Sync,
) -> BenchResult<Vec<R>> {
    let results = std::thread::scope(|scope| {
        let work = &work;
        let workers: Vec<_> = arguments
            .into_iter()
            .map(|argument| scope.spawn(move || work(argument)))
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("set-up worker panicked"))
            .collect::<Result<Vec<R>, String>>()
    })?;
    Ok(results)
}

impl Pool {
    /// Builds a pool of about `size` inputs from `seed` on two threads (two
    /// fixed random streams, so the pool does not depend on the core count).
    /// Inputs whose full activation path equals an earlier input's are
    /// dropped: the serving cache keys on that path, and the oracle needs a
    /// hit to identify one input.
    ///
    /// # Errors
    ///
    /// Propagates engine and attack errors.
    pub fn build(
        fixture: &Fixture,
        engine: &DetectionEngine,
        precision: Precision,
        seed: u64,
        size: usize,
        clock: &Clock,
        times: &mut SetupTimes,
    ) -> BenchResult<Pool> {
        let pairs = size / 4;
        let halves = on_two_threads([1u64, 2], |stream| {
            let stream_seed = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream);
            pool_half(fixture, engine, precision, stream_seed, pairs, clock)
                .map_err(|e| e.to_string())
        })?;
        let mut pool = Pool {
            inputs: Vec::with_capacity(size),
            verdicts: Vec::with_capacity(size),
        };
        let mut seen = HashSet::new();
        for (candidates, half_times) in halves {
            times.fgsm_ns += half_times.fgsm_ns;
            times.fgsm_samples += half_times.fgsm_samples;
            for candidate in candidates {
                if let Some(fingerprint) = candidate.fingerprint {
                    if !seen.insert(fingerprint) {
                        continue;
                    }
                }
                pool.inputs.push(candidate.input);
                pool.verdicts.push(candidate.verdict);
            }
        }
        Ok(pool)
    }

    /// Number of inputs.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }
}
