//! The batched serving API for Ptolemy detection.
//!
//! The paper's online phase is naturally a one-shot call that re-validates the
//! program/class-path pairing on every input.  That is fine for reproducing
//! figures and useless for serving: a deployment binds one network, one
//! [`DetectionProgram`] and one [`ClassPathSet`] at startup and then pushes
//! traffic through them for hours.  [`DetectionEngine`] is that session object:
//!
//! * **validate once** — the program/class-path fingerprint and the path
//!   layout are checked in [`DetectionEngineBuilder::build`], never per call;
//! * **configurable decision threshold** — the score cut-off the original
//!   one-shot API hard-coded to `0.5` is a builder knob;
//! * **one detect body, streamed and fused** — [`DetectionEngine::detect_batch`]
//!   runs one fused NCHW forward pass over the whole batch and extracts each
//!   input's [`ActivationPath`] **while the pass is still running**
//!   ([`crate::extract_paths_streaming_batch`]): forward programs mask each
//!   enabled layer's stacked output inline, the moment the layer finishes,
//!   and retain nothing; backward programs retain only the boundaries the
//!   reverse walk reads — peak activation memory drops from O(network) to the
//!   retained set.  A single input is the batch of one — [`DetectionEngine::detect`]
//!   and every other single-input entry point run the same body on
//!   `std::slice::from_ref(input)` — and every fused kernel computes sample
//!   `b` from `inputs[b]` alone in the per-input reduction order, so batch
//!   verdicts are **bit-for-bit identical** to single ones by construction;
//! * **precision is an argument** — the program, the canary paths, the
//!   classifier and the threshold never depend on what multiplied the
//!   activations, so there is one detect path:
//!   [`DetectionEngine::detect_batch_on`] takes the [`ForwardProvider`] that
//!   runs the forward pass (the engine's f32 network, or an int8
//!   [`QuantizedNetwork`] view of it) and everything downstream is shared.
//!
//! The engine computes verdicts; it does not price them.  A program's cost is
//! [`crate::software_cost`] (the paper's Sec. III-B op counts) or what
//! `ptolemy-compiler` + `ptolemy-accel` make of it, each at a measured
//! [`ActivationPath::density`].
//!
//! # Example
//!
//! ```
//! use ptolemy_core::{variants, DetectionEngine, Profiler};
//! use ptolemy_nn::{zoo, TrainConfig, Trainer};
//! use ptolemy_tensor::{Rng64, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = Rng64::new(0);
//! let mut net = zoo::mlp_net(&[8], 2, &mut rng)?;
//! let samples: Vec<(Tensor, usize)> = (0..20)
//!     .map(|i| (Tensor::full(&[8], (i % 2) as f32), i % 2))
//!     .collect();
//! Trainer::new(TrainConfig::default()).fit(&mut net, &samples)?;
//!
//! let program = variants::fw_ab(&net, 0.05)?;
//! let class_paths = Profiler::new(program.clone()).profile(&net, &samples)?;
//! let inputs: Vec<Tensor> = samples.iter().map(|(x, _)| x.clone()).collect();
//!
//! // Build once (fingerprint validated here), then serve batches.
//! let engine = DetectionEngine::builder(net, program, class_paths)
//!     .threshold(0.6)
//!     .calibrate(&inputs[..8], &inputs[8..16])
//!     .build()?;
//! let verdicts = engine.detect_batch(&inputs)?;
//! assert_eq!(verdicts.len(), inputs.len());
//! assert_eq!(verdicts[0], engine.detect(&inputs[0])?);
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use ptolemy_forest::{ForestConfig, RandomForest};
use ptolemy_nn::{ForwardProvider, Network, QuantizedNetwork};
use ptolemy_obs::{Counter, HistogramHandle, Registry};
use ptolemy_tensor::Tensor;

use ptolemy_tensor::parallel::par_map;

use crate::extraction::ExtractionPlan;
use crate::{ActivationPath, ClassPathSet, CoreError, DetectionProgram, Result};

/// The decision threshold the original one-shot detection API hard-coded.
pub const DEFAULT_THRESHOLD: f32 = 0.5;

/// Fused-pass chunk size for calibration: bounds the peak memory of one
/// streamed batch (backward programs still retain their planned stacked
/// boundaries for the whole chunk) while keeping the fused kernels'
/// amortisation.
const CALIBRATION_FUSED_CHUNK: usize = 64;

/// Result of detecting one input at inference time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Final verdict of the random-forest classifier.
    pub is_adversary: bool,
    /// Adversarial probability reported by the classifier (higher = more suspicious).
    pub score: f32,
    /// Path similarity `S` between the input's activation path and the canary path
    /// of its predicted class.
    pub similarity: f32,
    /// The class the DNN predicted for the input.
    pub predicted_class: usize,
}

/// Computes the `(predicted class, path similarity)` pair for one input — the
/// stateless primitive behind both the engine and ROC-style sweeps that score
/// raw similarities without fitting a classifier.
///
/// Unlike the engine's internal path this validates the program/class-path
/// fingerprint on every call, because nothing else guarantees the pairing.
///
/// # Errors
///
/// Returns [`CoreError::InvalidProgram`] if the class paths were not profiled
/// with `program`, and propagates extraction errors.
pub fn path_similarity(
    network: &Network,
    program: &DetectionProgram,
    class_paths: &ClassPathSet,
    input: &Tensor,
) -> Result<(usize, f32)> {
    if class_paths.program_fingerprint != program.fingerprint() {
        return Err(CoreError::InvalidProgram(format!(
            "class paths were profiled with '{}' but detection uses '{}'",
            class_paths.program_fingerprint,
            program.fingerprint()
        )));
    }
    let plan = ExtractionPlan::new(network, program)?;
    let (predicted, similarity, _) = only(trace_path_batch(
        network,
        &plan,
        class_paths,
        std::slice::from_ref(input),
    ))?;
    Ok((predicted, similarity))
}

/// The one scoring primitive: batched NCHW forward passes drive the
/// **streaming** extraction of every sample's path
/// ([`crate::extract_paths_streaming_batch`] — the batch splits into as many
/// contiguous sub-batches as its work buys idle cores, each one fused pass
/// with inline masking / reverse walks), and path-similarity scoring
/// completes each sample on the thread that extracted it.  Returns `(predicted
/// class, similarity, activation path)` per input; `plan` is the program
/// resolved against `provider`'s network — the engine's, bound at build time.
///
/// A single input is the batch of one, and its fused error *is* its error:
/// it runs one forward pass whatever happens.  When a larger batch's fused
/// pass fails (a mis-shaped input, or a non-finite value at one of its
/// boundaries — `NnError::NonFinite`), each input is retried as its own
/// batch of one ([`par_map`] at the same work gate), so the bad input fails
/// alone, with its exact error, while the rest still serve.
fn trace_path_batch<P: ForwardProvider>(
    provider: &P,
    plan: &ExtractionPlan,
    class_paths: &ClassPathSet,
    inputs: &[Tensor],
) -> Vec<Result<(usize, f32, ActivationPath)>> {
    if inputs.is_empty() {
        return Vec::new();
    }
    let finish = |predicted: usize, path: ActivationPath| -> Result<(usize, f32, ActivationPath)> {
        let similarity = path.similarity(class_paths.class_path(predicted)?)?;
        Ok((predicted, similarity, path))
    };
    match plan.stream_batch_with(provider, inputs, &finish) {
        Ok((samples, _footprint)) => samples.into_iter().map(Ok).collect(),
        Err(error) if inputs.len() == 1 => vec![Err(error)],
        Err(_) => {
            let singles: Vec<&[Tensor]> = inputs.chunks(1).collect();
            par_map(&singles, plan.forward_work(inputs.len()), |one| {
                trace_path_batch(provider, plan, class_paths, one)
            })
            .into_iter()
            .flatten()
            .collect()
        }
    }
}

/// The one result of a batch of one — how every single-input entry point
/// runs (there is no separate single-input pipeline).
fn only<T>(batch: Vec<Result<T>>) -> Result<T> {
    batch.into_iter().next().unwrap_or_else(|| {
        Err(CoreError::InvalidInput(
            "a batch of one returned no result".into(),
        ))
    })
}

/// The engine's hook into a [`Registry`]: pre-resolved handles for the two
/// detection stages (streamed trace+extraction vs classifier scoring) so the
/// hot path never touches the registry's name maps.
#[derive(Debug)]
struct EngineObs {
    registry: Arc<Registry>,
    trace_ns: HistogramHandle,
    score_ns: HistogramHandle,
    detections: Counter,
}

impl EngineObs {
    fn attach(registry: Arc<Registry>) -> EngineObs {
        EngineObs {
            trace_ns: registry.histogram("core.trace_ns"),
            score_ns: registry.histogram("core.score_ns"),
            detections: registry.counter("core.detections"),
            registry,
        }
    }
}

/// A detection session: network + program + class paths + classifier,
/// bound and validated once, then driven per input, per batch or per stream.
///
/// Built via [`DetectionEngine::builder`].  See the [module docs](self) for the
/// design rationale and an end-to-end example.
#[derive(Debug)]
pub struct DetectionEngine {
    network: Arc<Network>,
    program: DetectionProgram,
    /// `program` resolved against `network`, once, at build time.
    plan: ExtractionPlan,
    class_paths: ClassPathSet,
    forest: Option<RandomForest>,
    threshold: f32,
    quantized: Option<QuantizedNetwork>,
    obs: Option<EngineObs>,
}

impl DetectionEngine {
    /// Starts building an engine from the offline artifacts.
    ///
    /// `network` is shared, not copied: pass an owned [`Network`] or an
    /// existing `Arc<Network>`.
    pub fn builder(
        network: impl Into<Arc<Network>>,
        program: DetectionProgram,
        class_paths: ClassPathSet,
    ) -> DetectionEngineBuilder {
        DetectionEngineBuilder {
            network: network.into(),
            program,
            class_paths,
            forest: None,
            calibration: None,
            quantization: None,
            threshold: DEFAULT_THRESHOLD,
            registry: None,
        }
    }

    /// `(predicted class, path similarity)` of one input, skipping the per-call
    /// fingerprint check the stateless [`path_similarity`] function needs — the
    /// pairing was validated when the engine was built.
    ///
    /// # Errors
    ///
    /// Propagates extraction errors.
    pub fn path_similarity(&self, input: &Tensor) -> Result<(usize, f32)> {
        let (predicted, similarity, _) = only(trace_path_batch(
            self.network.as_ref(),
            &self.plan,
            &self.class_paths,
            std::slice::from_ref(input),
        ))?;
        Ok((predicted, similarity))
    }

    /// Detects whether one input is adversarial.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] if the engine was built without a
    /// classifier, `CoreError::Nn(NnError::NonFinite { .. })` if the input or
    /// an activation it produces holds a NaN or an infinity, and propagates
    /// extraction/classifier errors.
    pub fn detect(&self, input: &Tensor) -> Result<Detection> {
        Ok(self.detect_with_path(input)?.0)
    }

    /// Like [`DetectionEngine::detect`], additionally returning the extracted
    /// activation path — the hook serving layers use to key result caches on
    /// [`ActivationPath::prefix_fingerprint`] without re-running extraction.
    ///
    /// Both run the input as the batch of one of
    /// [`DetectionEngine::detect_batch_with_paths`], so the verdict is
    /// bit-for-bit identical to calling `detect` on the same input.
    ///
    /// # Errors
    ///
    /// See [`DetectionEngine::detect`].
    pub fn detect_with_path(&self, input: &Tensor) -> Result<(Detection, ActivationPath)> {
        only(self.detect_batch_with_paths(std::slice::from_ref(input)))
    }

    /// Detects a whole batch through **one streamed fused forward pass**: the
    /// inputs are stacked into a single NCHW batch, every layer executes its
    /// batched kernel (`im2col`/matmul across all inputs at once), and each
    /// input's activation path is extracted *as the pass runs* — stacked
    /// boundaries are masked and released eagerly instead of materialising
    /// the whole trace (see [`crate::extract_paths_streaming_batch`]).
    ///
    /// `detect_batch(xs)?[i]` is bit-for-bit identical to `detect(&xs[i])?`:
    /// `detect` is the batch of one, and every fused kernel computes sample
    /// `i` from `xs[i]` alone in the same per-element order.
    ///
    /// # Errors
    ///
    /// Returns the first per-input error, if any.
    pub fn detect_batch(&self, inputs: &[Tensor]) -> Result<Vec<Detection>> {
        self.detect_batch_with_paths(inputs)
            .into_iter()
            .map(|r| r.map(|(d, _)| d))
            .collect()
    }

    /// Like [`DetectionEngine::detect_batch`], additionally returning each
    /// input's extracted [`ActivationPath`] and keeping per-input error
    /// granularity (one mis-shaped input fails alone instead of failing the
    /// batch) — the hook serving layers use to run whole formed batches
    /// through the fused trace while still keying result caches on
    /// [`ActivationPath::prefix_fingerprint`].
    pub fn detect_batch_with_paths(
        &self,
        inputs: &[Tensor],
    ) -> Vec<Result<(Detection, ActivationPath)>> {
        self.detect_batch_on(self.network.as_ref(), inputs)
    }

    /// [`DetectionEngine::detect_batch_with_paths`] with the forward pass run
    /// by `provider`: the engine's own network (what every f32 entry point
    /// passes) or an int8 [`QuantizedNetwork`] view of it — the engine's own
    /// ([`DetectionEngine::quantized_network`]) or the one a serving layer's
    /// builder validated.  Extraction, similarity, classifier and threshold are
    /// the same code whatever the provider.
    ///
    /// `provider` must run *this engine's* network instance — the verdict
    /// compares the extracted path against this engine's canary paths, which
    /// only makes sense for the same weights — so any other is rejected per
    /// input, never silently scored.
    ///
    /// Results through an int8 provider are *not* bit-parity pinned against
    /// f32: rounding perturbs activations, so class, path and verdict may
    /// differ — by design; the `quantized_detect` benchmark measures how
    /// often.  The int8 pass itself is exactly deterministic (i32
    /// accumulation), and sample `b` of a batch is bit-for-bit the batch of
    /// one.
    pub fn detect_batch_on<P: ForwardProvider>(
        &self,
        provider: &P,
        inputs: &[Tensor],
    ) -> Vec<Result<(Detection, ActivationPath)>> {
        if !std::ptr::eq(provider.network(), self.network.as_ref()) {
            let foreign = CoreError::InvalidInput(
                "the forward provider runs a different network instance than this engine serves"
                    .into(),
            );
            return inputs.iter().map(|_| Err(foreign.clone())).collect();
        }
        self.staged(
            inputs.len(),
            || trace_path_batch(provider, &self.plan, &self.class_paths, inputs),
            |traced| traced.into_iter().map(|r| self.judge(r)).collect(),
        )
    }

    /// Adversarial probability of one input.
    ///
    /// # Errors
    ///
    /// See [`DetectionEngine::detect`].
    pub fn score(&self, input: &Tensor) -> Result<f32> {
        Ok(self.detect(input)?.score)
    }

    /// The single scoring step shared by every entry point — the source of
    /// their bit-for-bit parity: one traced `(class, similarity, path)` in, the
    /// classifier's verdict out.
    fn judge(
        &self,
        traced: Result<(usize, f32, ActivationPath)>,
    ) -> Result<(Detection, ActivationPath)> {
        let (predicted_class, similarity, path) = traced?;
        let forest = self.forest.as_ref().ok_or_else(|| {
            CoreError::InvalidInput(
                "engine was built without a classifier; add .forest(..) or .calibrate(..)".into(),
            )
        })?;
        let score = forest.predict_proba(&[similarity])?;
        let detection = Detection {
            is_adversary: score >= self.threshold,
            score,
            similarity,
            predicted_class,
        };
        Ok((detection, path))
    }

    /// The one timed detect body: `trace` (streamed forward pass, extraction
    /// and similarity) then `score` (the classifier), each recorded into its
    /// stage histogram when a registry is attached and enabled, plus `inputs`
    /// detections counted.
    fn staged<T, U>(
        &self,
        inputs: usize,
        trace: impl FnOnce() -> T,
        score: impl FnOnce(T) -> U,
    ) -> U {
        let Some(obs) = self.obs.as_ref().filter(|o| o.registry.enabled()) else {
            // The disabled path costs one relaxed atomic load.
            return score(trace());
        };
        let clock = obs.registry.clock();
        let start = clock.now_ns();
        let traced = trace();
        let mid = clock.now_ns();
        obs.trace_ns.record(mid.saturating_sub(start));
        let scored = score(traced);
        obs.score_ns.record(clock.now_ns().saturating_sub(mid));
        obs.detections.add(inputs as u64);
        scored
    }

    /// The network this engine serves.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The extraction program this engine runs.
    pub fn program(&self) -> &DetectionProgram {
        &self.program
    }

    /// The canary class paths this engine compares against.
    pub fn class_paths(&self) -> &ClassPathSet {
        &self.class_paths
    }

    /// The build-time program/class-path fingerprint of this engine (the one
    /// [`DetectionEngineBuilder::build`] validated; identical to
    /// `self.program().fingerprint()` and
    /// `self.class_paths().program_fingerprint`).
    ///
    /// Serving layers use it to tell engines apart — a result cache must not be
    /// shared between engines with different fingerprints, and a router can
    /// verify at construction that its tiers were built from compatible
    /// artifacts.
    pub fn fingerprint(&self) -> &str {
        // The builder verified this equals `self.program.fingerprint()`.
        &self.class_paths.program_fingerprint
    }

    /// The fitted classifier, if the engine has one.
    pub fn forest(&self) -> Option<&RandomForest> {
        self.forest.as_ref()
    }

    /// The decision threshold applied to classifier scores.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// The int8 quantized network, when the engine was built with
    /// [`DetectionEngineBuilder::quantized`].
    pub fn quantized_network(&self) -> Option<&QuantizedNetwork> {
        self.quantized.as_ref()
    }

    /// Detects whether one input is adversarial with the forward pass on the
    /// engine's own **int8 quantized** network — [`DetectionEngine::detect`]
    /// with the other provider, bit-for-bit what
    /// [`DetectionEngine::detect_batch_on`] (whose docs carry the accuracy
    /// contract) returns for the input in any batch.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] if the engine was built without
    /// [`DetectionEngineBuilder::quantized`] or without a classifier,
    /// `CoreError::Nn(NnError::NonFinite { .. })` if a boundary of the int8
    /// pass holds a NaN or an infinity, and propagates extraction and
    /// classifier errors.
    pub fn detect_quantized(&self, input: &Tensor) -> Result<Detection> {
        let qnet = self.quantized.as_ref().ok_or_else(|| {
            CoreError::InvalidInput(
                "engine was built without a quantized network; add .quantized(..)".into(),
            )
        })?;
        Ok(only(self.detect_batch_on(qnet, std::slice::from_ref(input)))?.0)
    }
}

/// Builder for [`DetectionEngine`]; all validation happens in
/// [`DetectionEngineBuilder::build`].
#[derive(Debug)]
pub struct DetectionEngineBuilder {
    network: Arc<Network>,
    program: DetectionProgram,
    class_paths: ClassPathSet,
    forest: Option<RandomForest>,
    calibration: Option<(Vec<Tensor>, Vec<Tensor>)>,
    quantization: Option<Vec<Tensor>>,
    threshold: f32,
    registry: Option<Arc<Registry>>,
}

impl DetectionEngineBuilder {
    /// Sets the decision threshold (default [`DEFAULT_THRESHOLD`]): inputs with
    /// classifier score `>= threshold` are flagged adversarial.
    pub fn threshold(mut self, threshold: f32) -> Self {
        self.threshold = threshold;
        self
    }

    /// Supplies an already-fitted classifier (takes precedence over
    /// [`DetectionEngineBuilder::calibrate`]).
    pub fn forest(mut self, forest: RandomForest) -> Self {
        self.forest = Some(forest);
        self
    }

    /// Attaches a metrics registry: the engine records its per-detection
    /// stage breakdown — `core.trace_ns` (streamed forward pass + path
    /// extraction + similarity) and `core.score_ns` (classifier scoring) —
    /// plus a `core.detections` counter into it whenever
    /// [`ptolemy_obs::Registry::enabled`] holds.  Without a registry (the
    /// default) the engine does no timing at all.
    pub fn registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Supplies benign and adversarial calibration inputs; `build` fits the
    /// classifier from their path similarities (one feature per input, matching
    /// the paper's lightweight classification module, Sec. III-B).
    pub fn calibrate(mut self, benign: &[Tensor], adversarial: &[Tensor]) -> Self {
        self.calibration = Some((benign.to_vec(), adversarial.to_vec()));
        self
    }

    /// Opts the engine into the int8 quantized inference path: `build` runs
    /// the f32 network over `calibration` to fix per-layer activation scales,
    /// quantizes the weights, and attaches a [`QuantizedNetwork`] served via
    /// [`DetectionEngine::detect_quantized`] (and handed out by
    /// [`DetectionEngine::quantized_network`] for
    /// [`DetectionEngine::detect_batch_on`]).  The f32 entry points are
    /// unaffected.
    pub fn quantized(mut self, calibration: &[Tensor]) -> Self {
        self.quantization = Some(calibration.to_vec());
        self
    }

    /// Finalises the engine: validates the threshold, the program/class-path
    /// fingerprint and the path layout, and fits the classifier (the paper's
    /// 100 trees of depth 12, [`ForestConfig::default`]) if calibration sets
    /// were supplied.
    ///
    /// Engines built with neither [`DetectionEngineBuilder::forest`] nor
    /// [`DetectionEngineBuilder::calibrate`] serve raw path similarities only;
    /// their `detect*` methods return an error.
    ///
    /// A *shard* of a canary set ([`ClassPathSet::shard`]) builds exactly like
    /// the complete set — shards keep the full positional structure, so every
    /// validation here applies unchanged — but the resulting engine refuses
    /// (with [`CoreError::InvalidInput`]) to score inputs whose predicted
    /// class the shard does not own.  Because of that, shard engines should be
    /// given the complete engine's fitted classifier via
    /// [`DetectionEngineBuilder::forest`] (and its threshold) rather than
    /// re-calibrated: calibration inputs predicting non-owned classes would
    /// error, and bit-for-bit parity with the complete engine requires the
    /// identical forest anyway.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidProgram`] on a fingerprint or layout
    /// mismatch and [`CoreError::InvalidInput`] on empty calibration sets.
    pub fn build(self) -> Result<DetectionEngine> {
        if !self.threshold.is_finite() || !(0.0..=1.0).contains(&self.threshold) {
            return Err(CoreError::InvalidProgram(format!(
                "decision threshold {} outside [0, 1]",
                self.threshold
            )));
        }
        if self.class_paths.program_fingerprint != self.program.fingerprint() {
            return Err(CoreError::InvalidProgram(format!(
                "class paths were profiled with '{}' but the engine binds '{}'",
                self.class_paths.program_fingerprint,
                self.program.fingerprint()
            )));
        }
        // The fingerprint pins the program, not the network: class paths
        // profiled on a different network can carry the same fingerprint with
        // different mask layouts or class counts.  Check the structure here so
        // serving never fails per call.
        let plan = ExtractionPlan::new(&self.network, &self.program)?;
        let layout = plan.layout();
        if self.class_paths.num_classes() != self.network.num_classes() {
            return Err(CoreError::InvalidProgram(format!(
                "class paths cover {} classes but the network predicts {}",
                self.class_paths.num_classes(),
                self.network.num_classes()
            )));
        }
        for class_path in &self.class_paths.class_paths {
            let segments = class_path.path().segments();
            let mismatched = segments.len() != layout.len()
                || segments
                    .iter()
                    .zip(layout)
                    .any(|(seg, (layer, len))| seg.layer != *layer || seg.mask.len() != *len);
            if mismatched {
                return Err(CoreError::InvalidProgram(format!(
                    "canary path of class {} does not match the engine's path \
                     layout (were the class paths profiled on a different network?)",
                    class_path.class
                )));
            }
        }

        let forest = match (self.forest, self.calibration) {
            (Some(forest), _) => Some(forest),
            (None, Some((benign, adversarial))) => {
                if benign.is_empty() || adversarial.is_empty() {
                    return Err(CoreError::InvalidInput(
                        "calibration requires both benign and adversarial inputs".into(),
                    ));
                }
                let network = &self.network;
                let class_paths = &self.class_paths;
                let mut features = Vec::with_capacity(benign.len() + adversarial.len());
                let mut labels = Vec::with_capacity(benign.len() + adversarial.len());
                for (inputs, is_adversarial) in [(&benign, false), (&adversarial, true)] {
                    // Calibration runs through the same fused batch trace as
                    // serving, so the fitted forest sees bit-identical
                    // similarities either way.  Chunked: a fused trace holds
                    // every layer's stacked activations at once, so fusing an
                    // arbitrarily large calibration set in one shot would make
                    // peak memory O(set size × total activations).
                    for chunk in inputs.chunks(CALIBRATION_FUSED_CHUNK) {
                        let similarities =
                            trace_path_batch(network.as_ref(), &plan, class_paths, chunk);
                        for similarity in similarities {
                            features.push(vec![similarity.map(|(_, s, _)| s)?]);
                            labels.push(is_adversarial);
                        }
                    }
                }
                Some(RandomForest::fit(
                    &features,
                    &labels,
                    &ForestConfig::default(),
                )?)
            }
            (None, None) => None,
        };

        let quantized = match self.quantization {
            Some(calibration) => {
                if calibration.is_empty() {
                    return Err(CoreError::InvalidInput(
                        "quantization requires at least one calibration input".into(),
                    ));
                }
                Some(QuantizedNetwork::quantize(
                    self.network.clone(),
                    &calibration,
                )?)
            }
            None => None,
        };

        Ok(DetectionEngine {
            network: self.network,
            program: self.program,
            plan,
            class_paths: self.class_paths,
            forest,
            threshold: self.threshold,
            quantized,
            obs: self.registry.map(EngineObs::attach),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{variants, Profiler};
    use ptolemy_nn::{zoo, TrainConfig, Trainer};
    use ptolemy_tensor::Rng64;

    /// `(network, training samples, benign inputs, adversarial inputs)`.
    type Setup = (Network, Vec<(Tensor, usize)>, Vec<Tensor>, Vec<Tensor>);

    fn setup() -> Setup {
        let mut rng = Rng64::new(23);
        let prototypes: Vec<Vec<f32>> = vec![
            (0..8).map(|d| if d < 4 { 1.0 } else { 0.0 }).collect(),
            (0..8).map(|d| if d < 4 { 0.0 } else { 1.0 }).collect(),
        ];
        let mut samples = Vec::new();
        for (class, prototype) in prototypes.iter().enumerate() {
            for _ in 0..25 {
                let data: Vec<f32> = prototype.iter().map(|v| v + 0.08 * rng.normal()).collect();
                samples.push((Tensor::from_vec(data, &[8]).unwrap(), class));
            }
        }
        let mut net = zoo::mlp_net(&[8], 2, &mut rng).unwrap();
        Trainer::new(TrainConfig {
            epochs: 25,
            ..TrainConfig::default()
        })
        .fit(&mut net, &samples)
        .unwrap();

        let benign: Vec<Tensor> = samples.iter().take(20).map(|(x, _)| x.clone()).collect();
        let mut adversarial = Vec::new();
        for (x, y) in samples.iter().take(20) {
            let other = 1 - *y;
            let data: Vec<f32> = x
                .as_slice()
                .iter()
                .zip(&prototypes[other])
                .map(|(a, b)| a + 1.2 * b)
                .collect();
            adversarial.push(Tensor::from_vec(data, &[8]).unwrap());
        }
        (net, samples, benign, adversarial)
    }

    #[test]
    fn engine_detects_and_batches_consistently() {
        let (net, samples, benign, adversarial) = setup();
        let program = variants::bw_cu(&net, 0.5).unwrap();
        let class_paths = Profiler::new(program.clone())
            .profile(&net, &samples)
            .unwrap();
        let engine = DetectionEngine::builder(net, program, class_paths)
            .calibrate(&benign, &adversarial)
            .build()
            .unwrap();

        assert_eq!(engine.fingerprint(), engine.program().fingerprint());
        assert_eq!(
            engine.fingerprint(),
            engine.class_paths().program_fingerprint
        );

        let all: Vec<Tensor> = benign.iter().chain(&adversarial).cloned().collect();
        let batch = engine.detect_batch(&all).unwrap();
        assert_eq!(batch.len(), all.len());
        for (input, batched) in all.iter().zip(&batch) {
            assert_eq!(*batched, engine.detect(input).unwrap());
            // detect_with_path shares the detect code path bit-for-bit and
            // returns a path whose prefix fingerprint is stable.
            let (traced, path) = engine.detect_with_path(input).unwrap();
            assert_eq!(traced.score.to_bits(), batched.score.to_bits());
            assert_eq!(traced.similarity.to_bits(), batched.similarity.to_bits());
            assert!(path.count_ones() > 0);
            assert_eq!(
                path.prefix_fingerprint(2),
                engine
                    .detect_with_path(input)
                    .unwrap()
                    .1
                    .prefix_fingerprint(2)
            );
        }

        // `score` is the verdict's score.
        let score = engine.score(&all[0]).unwrap();
        assert_eq!(score.to_bits(), batch[0].score.to_bits());
    }

    #[test]
    fn quantized_mode_detects_deterministically_and_mostly_agrees_with_f32() {
        let (net, samples, benign, adversarial) = setup();
        let program = variants::bw_cu(&net, 0.5).unwrap();
        let class_paths = Profiler::new(program.clone())
            .profile(&net, &samples)
            .unwrap();
        let engine = DetectionEngine::builder(net, program, class_paths)
            .calibrate(&benign, &adversarial)
            .quantized(&benign)
            .build()
            .unwrap();

        let qnet = engine.quantized_network().expect("quantized network");
        assert!(qnet.num_quantized_layers() >= 2);

        let mut verdict_agree = 0;
        for input in benign.iter().chain(&adversarial) {
            let f = engine.detect(input).unwrap();
            let q = engine.detect_quantized(input).unwrap();
            // The quantized path is exactly deterministic.
            let q2 = engine.detect_quantized(input).unwrap();
            assert_eq!(q.score.to_bits(), q2.score.to_bits());
            assert_eq!(q.similarity.to_bits(), q2.similarity.to_bits());
            if q.is_adversary == f.is_adversary {
                verdict_agree += 1;
            }
        }
        // int8 rounding may flip a handful of verdicts, never most of them.
        let total = benign.len() + adversarial.len();
        assert!(
            verdict_agree * 10 >= total * 8,
            "only {verdict_agree}/{total} verdicts agree"
        );
    }

    #[test]
    fn batched_quantized_detection_is_bit_identical_to_single() {
        let (net, samples, benign, adversarial) = setup();
        let program = variants::bw_cu(&net, 0.5).unwrap();
        let class_paths = Profiler::new(program.clone())
            .profile(&net, &samples)
            .unwrap();
        let engine = DetectionEngine::builder(net, program, class_paths)
            .calibrate(&benign, &adversarial)
            .quantized(&benign)
            .build()
            .unwrap();

        let qnet = engine.quantized_network().expect("quantized network");
        let all: Vec<Tensor> = benign.iter().chain(&adversarial).cloned().collect();
        let batch = engine.detect_batch_on(qnet, &all);
        assert_eq!(batch.len(), all.len());
        for (input, traced) in all.iter().zip(batch) {
            let single = engine.detect_quantized(input).unwrap();
            let (batched, path) = traced.unwrap();
            assert_eq!(single.score.to_bits(), batched.score.to_bits());
            assert_eq!(single.similarity.to_bits(), batched.similarity.to_bits());
            assert_eq!(single, batched);
            assert!(path.count_ones() > 0);
        }

        // A mis-shaped input fails alone; the rest of the batch still serves.
        let mut mixed = all[..3].to_vec();
        mixed.push(Tensor::zeros(&[3]));
        let results = engine.detect_batch_on(qnet, &mixed);
        assert!(results[..3].iter().all(Result::is_ok));
        assert!(results[3].is_err());

        // A provider over a different network instance — int8 or f32 — is
        // rejected per input, never silently scored.
        let (other_net, _, other_benign, _) = setup();
        let other_net = Arc::new(other_net);
        let foreign = QuantizedNetwork::quantize(other_net.clone(), &other_benign[..4]).unwrap();
        for rejected in [
            engine.detect_batch_on(&foreign, &all[..2]),
            engine.detect_batch_on(other_net.as_ref(), &all[..2]),
        ] {
            assert_eq!(rejected.len(), 2);
            assert!(rejected
                .iter()
                .all(|r| matches!(r, Err(CoreError::InvalidInput(_)))));
        }
    }

    /// Quantizing a NaN yields 0, which used to launder an all-NaN input into
    /// an ordinary verdict on forward programs; the int8 pass rejects it at
    /// the input boundary for either direction, exactly as `detect` does.
    #[test]
    fn quantized_detection_rejects_nan_like_f32() {
        let rejected = |r: &Result<Detection>| {
            matches!(
                r,
                Err(CoreError::Nn(ptolemy_nn::NnError::NonFinite {
                    boundary: 0
                }))
            )
        };
        let (net, samples, benign, adversarial) = setup();
        let net = Arc::new(net);
        for program in [
            variants::fw_ab(&net, 0.3).unwrap(),
            variants::bw_cu(&net, 0.5).unwrap(),
        ] {
            let class_paths = Profiler::new(program.clone())
                .profile(&net, &samples)
                .unwrap();
            let engine = DetectionEngine::builder(net.clone(), program, class_paths)
                .calibrate(&benign, &adversarial)
                .quantized(&benign)
                .build()
                .unwrap();
            let poisoned = Tensor::full(&[8], f32::NAN);
            for verdict in [engine.detect(&poisoned), engine.detect_quantized(&poisoned)] {
                assert!(rejected(&verdict), "{verdict:?}");
            }
            // In a batch it fails alone.
            let qnet = engine.quantized_network().unwrap();
            let served = engine.detect_batch_on(qnet, &[benign[0].clone(), poisoned]);
            let (clean, _) = served[0].as_ref().unwrap();
            assert_eq!(*clean, engine.detect_quantized(&benign[0]).unwrap());
            assert!(rejected(&served[1].clone().map(|(d, _)| d)));
        }
    }

    #[test]
    fn quantized_mode_requires_calibration_inputs_and_opt_in() {
        let (net, samples, benign, adversarial) = setup();
        let program = variants::bw_cu(&net, 0.5).unwrap();
        let class_paths = Profiler::new(program.clone())
            .profile(&net, &samples)
            .unwrap();
        let net = Arc::new(net);
        let err = DetectionEngine::builder(Arc::clone(&net), program.clone(), class_paths.clone())
            .quantized(&[])
            .build();
        assert!(err.is_err());
        let engine = DetectionEngine::builder(net, program, class_paths)
            .calibrate(&benign, &adversarial)
            .build()
            .unwrap();
        assert!(engine.quantized_network().is_none());
        assert!(engine.detect_quantized(&benign[0]).is_err());
    }

    #[test]
    fn registry_records_stage_breakdown_and_the_gate_silences_it() {
        let (net, samples, benign, adversarial) = setup();
        let program = variants::bw_cu(&net, 0.5).unwrap();
        let class_paths = Profiler::new(program.clone())
            .profile(&net, &samples)
            .unwrap();
        let registry = Arc::new(Registry::new("core-test"));
        let engine = DetectionEngine::builder(net, program, class_paths)
            .calibrate(&benign, &adversarial)
            .registry(Arc::clone(&registry))
            .build()
            .unwrap();

        // Calibration happens before the engine exists, so nothing yet.
        assert_eq!(registry.counter("core.detections").get(), 0);

        let baseline = engine.detect(&benign[0]).unwrap();
        engine.detect_batch(&benign[..3]).unwrap();
        assert_eq!(registry.counter("core.detections").get(), 4);
        let trace = registry.histogram("core.trace_ns").snapshot();
        let score = registry.histogram("core.score_ns").snapshot();
        // One per detect call plus one per batch call.
        assert_eq!(trace.count(), 2);
        assert_eq!(score.count(), 2);

        // Disabling the registry stops recording without changing verdicts.
        registry.set_enabled(false);
        let silent = engine.detect(&benign[0]).unwrap();
        assert_eq!(silent, baseline);
        assert_eq!(registry.counter("core.detections").get(), 4);
        assert_eq!(registry.histogram("core.trace_ns").snapshot().count(), 2);
    }

    #[test]
    fn threshold_knob_changes_the_verdict_not_the_score() {
        let (net, samples, benign, adversarial) = setup();
        let program = variants::bw_cu(&net, 0.5).unwrap();
        let class_paths = Profiler::new(program.clone())
            .profile(&net, &samples)
            .unwrap();
        let net = Arc::new(net);

        let strict = DetectionEngine::builder(net.clone(), program.clone(), class_paths.clone())
            .calibrate(&benign, &adversarial)
            .threshold(0.0)
            .build()
            .unwrap();
        let lenient = DetectionEngine::builder(net, program, class_paths)
            .calibrate(&benign, &adversarial)
            .threshold(1.0)
            .build()
            .unwrap();
        assert_eq!(strict.threshold(), 0.0);

        for input in benign.iter().chain(&adversarial) {
            let s = strict.detect(input).unwrap();
            let l = lenient.detect(input).unwrap();
            // Same forest fit (same calibration, deterministic) -> same score.
            assert!((s.score - l.score).abs() < 1e-6);
            // Threshold 0.0 flags everything; 1.0 only flags certain scores.
            assert!(s.is_adversary);
            assert_eq!(l.is_adversary, l.score >= 1.0);
        }
    }

    #[test]
    fn build_rejects_mismatched_fingerprints_and_bad_thresholds() {
        let (net, samples, benign, adversarial) = setup();
        let program = variants::bw_cu(&net, 0.5).unwrap();
        let class_paths = Profiler::new(program.clone())
            .profile(&net, &samples)
            .unwrap();
        let other = variants::bw_cu(&net, 0.9).unwrap();
        let net = Arc::new(net);

        let err = DetectionEngine::builder(net.clone(), other, class_paths.clone())
            .calibrate(&benign, &adversarial)
            .build();
        assert!(matches!(err, Err(CoreError::InvalidProgram(_))));

        let err = DetectionEngine::builder(net.clone(), program.clone(), class_paths.clone())
            .threshold(1.5)
            .build();
        assert!(matches!(err, Err(CoreError::InvalidProgram(_))));

        let err = DetectionEngine::builder(net, program, class_paths)
            .calibrate(&benign, &[])
            .build();
        assert!(matches!(err, Err(CoreError::InvalidInput(_))));
    }

    #[test]
    fn forestless_engine_serves_similarities_but_not_verdicts() {
        let (net, samples, benign, _) = setup();
        let program = variants::fw_ab(&net, 0.3).unwrap();
        let class_paths = Profiler::new(program.clone())
            .profile(&net, &samples)
            .unwrap();
        let engine = DetectionEngine::builder(net, program, class_paths)
            .build()
            .unwrap();
        assert!(engine.forest().is_none());
        let (class, similarity) = engine.path_similarity(&benign[0]).unwrap();
        assert!(class < 2);
        assert!((0.0..=1.0).contains(&similarity));
        assert!(matches!(
            engine.detect(&benign[0]),
            Err(CoreError::InvalidInput(_))
        ));
    }

    #[test]
    fn stateless_path_similarity_still_checks_fingerprints() {
        let (net, samples, benign, _) = setup();
        let program = variants::bw_cu(&net, 0.5).unwrap();
        let class_paths = Profiler::new(program.clone())
            .profile(&net, &samples)
            .unwrap();
        let (class, s) = path_similarity(&net, &program, &class_paths, &benign[0]).unwrap();
        assert!(class < 2);
        assert!((0.0..=1.0).contains(&s));
        let other = variants::bw_cu(&net, 0.9).unwrap();
        assert!(path_similarity(&net, &other, &class_paths, &benign[0]).is_err());
    }
}
