//! Beyond the paper — int8 quantized detection: the f32 detection pipeline vs
//! the same engine running its forward passes through the int8
//! [`ptolemy_nn::QuantizedNetwork`].
//!
//! Quantization is the one kernel change in this workspace that is **not**
//! bit-parity-pinned: per-layer symmetric scales round activations and
//! weights to 8 bits, so logits (and occasionally verdicts near the decision
//! boundary) may move.  Its contract is therefore statistical, and this
//! experiment is where that contract is enforced: verdict/class agreement
//! with the f32 path and the detection-AUC delta are **hard gates** (the
//! whole pipeline is seeded and the int8 accumulation is exact i32, so these
//! numbers are machine-independent).  Forward latency is not timed here: the
//! end-to-end benchmark's `nn.forward_ns` / `nn.forward_int8_ns` probes read
//! it.

use ptolemy_attacks::Fgsm;
use ptolemy_core::{variants, DetectionEngine};

use crate::{fmt3, BenchResult, BenchScale, Table, Workbench};

/// Minimum fraction of inputs on which the quantized verdict must agree with
/// the f32 verdict.
const MIN_VERDICT_AGREEMENT: f64 = 0.75;
/// Minimum fraction of inputs on which the predicted class must agree.
const MIN_CLASS_AGREEMENT: f64 = 0.85;
/// Maximum tolerated drop in detection AUC (1 - similarity scores).
const MAX_AUC_DROP: f64 = 0.15;

/// Runs the experiment.
///
/// # Errors
///
/// Propagates workbench, engine, quantization and detection errors.
pub fn run(scale: BenchScale) -> BenchResult<Vec<Table>> {
    let wb = Workbench::lenet_small(scale)?;
    let program = variants::bw_cu(&wb.network, 0.5)?;
    let class_paths = wb.profile(&program)?;
    let benign = wb.benign_inputs(8.max(wb.scale.attack_samples()));
    let adversarial = wb.adversarial_inputs(&Fgsm::new(0.25), benign.len())?;
    let engine = DetectionEngine::builder(wb.network.clone(), program, class_paths)
        .calibrate(&benign, &adversarial)
        .quantized(&benign)
        .build()?;

    let mut table = Table::new(
        "Quantized detection — f32 pipeline vs int8 QuantizedNetwork forward \
         passes inside the same engine",
    )
    .header(["measure", "f32", "int8", "delta"]);

    // Agreement + AUC over the full benign/adversarial evaluation set.
    let mut verdict_agree = 0usize;
    let mut class_agree = 0usize;
    let mut f32_scores = Vec::new();
    let mut int8_scores = Vec::new();
    let mut labels = Vec::new();
    for (inputs, is_adv) in [(&benign, false), (&adversarial, true)] {
        for input in inputs.iter() {
            let full = engine.detect(input)?;
            let quant = engine.detect_quantized(input)?;
            verdict_agree += usize::from(full.is_adversary == quant.is_adversary);
            class_agree += usize::from(full.predicted_class == quant.predicted_class);
            // ROC scores: higher = more suspicious, so 1 - path similarity.
            f32_scores.push(1.0 - engine.path_similarity(input)?.1);
            int8_scores.push(1.0 - quant.similarity);
            labels.push(is_adv);
        }
    }
    let total = labels.len();
    let verdict_rate = verdict_agree as f64 / total as f64;
    let class_rate = class_agree as f64 / total as f64;
    let auc_f32 = f64::from(ptolemy_forest::auc(&f32_scores, &labels)?);
    let auc_int8 = f64::from(ptolemy_forest::auc(&int8_scores, &labels)?);
    let auc_drop = auc_f32 - auc_int8;
    let qnet = engine
        .quantized_network()
        .ok_or("engine built without a quantized network")?;

    // Determinism: the int8 path accumulates in exact i32, so repeated
    // detections must be bit-identical (this is what makes the agreement and
    // AUC gates above stable enough to gate on).
    let deterministic = benign.iter().chain(&adversarial).all(|input| {
        match (
            engine.detect_quantized(input),
            engine.detect_quantized(input),
        ) {
            (Ok(x), Ok(y)) => {
                x.score.to_bits() == y.score.to_bits()
                    && x.similarity.to_bits() == y.similarity.to_bits()
                    && x.predicted_class == y.predicted_class
            }
            _ => false,
        }
    });

    table.row([
        "verdict agreement".to_string(),
        "1.000".to_string(),
        fmt3(verdict_rate as f32),
        fmt3((1.0 - verdict_rate) as f32),
    ]);
    table.row([
        "class agreement".to_string(),
        "1.000".to_string(),
        fmt3(class_rate as f32),
        fmt3((1.0 - class_rate) as f32),
    ]);
    table.row([
        "detection AUC".to_string(),
        fmt3(auc_f32 as f32),
        fmt3(auc_int8 as f32),
        fmt3(auc_drop as f32),
    ]);

    table.metric("verdict_agreement_permille", (verdict_rate * 1000.0) as u64);
    table.metric("class_agreement_permille", (class_rate * 1000.0) as u64);
    table.metric("auc_f32_milli", (auc_f32 * 1000.0) as u64);
    table.metric("auc_int8_milli", (auc_int8 * 1000.0) as u64);
    table.metric("quantized_layers", qnet.num_quantized_layers() as u64);

    table.note(format!(
        "{total} evaluation inputs ({} benign, {} adversarial)",
        benign.len(),
        adversarial.len()
    ));
    table.check(
        "quantized detection is bit-deterministic across repeated calls",
        deterministic,
    );
    table.check(
        "int8 verdicts agree with f32 on >= 75% of inputs",
        verdict_rate >= MIN_VERDICT_AGREEMENT,
    );
    table.check(
        "int8 predicted classes agree with f32 on >= 85% of inputs",
        class_rate >= MIN_CLASS_AGREEMENT,
    );
    table.check(
        "int8 detection AUC within 0.15 of the f32 pipeline",
        auc_drop <= MAX_AUC_DROP,
    );
    Ok(vec![table])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantized_path_holds_its_statistical_contract() {
        let tables = run(BenchScale::Quick).unwrap();
        assert_eq!(tables.len(), 1);
        let rendered = tables[0].to_string();
        for gate in [
            "repeated calls: holds",
            ">= 75% of inputs: holds",
            ">= 85% of inputs: holds",
            "f32 pipeline: holds",
        ] {
            assert!(rendered.contains(gate), "gate `{gate}` failed:\n{rendered}");
        }
    }
}
