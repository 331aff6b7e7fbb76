//! Beyond the paper — batch fusion: the pre-fusion per-input `par_map`
//! forward-trace loop (run at the workspace's work gate, so on one thread at
//! these batch sizes) vs one fused NCHW batched im2col/matmul trace
//! (`Network::forward_trace_batch`), across batch sizes.
//!
//! The fused trace stacks B inputs into one `[B, C, H, W]` tensor and runs
//! each layer's batched kernel once — the convolution weight rows stream over
//! `B·patches` im2col columns instead of being re-read per input, and every
//! per-layer allocation is amortised B-fold.  Each output element keeps the
//! per-input reduction order, so the fused trace is bit-for-bit identical to
//! the per-input path (checked here, not assumed).
//!
//! Shape to check: the fused trace beats the per-input loop from batch size
//! ~4 (the acceptance bar), and fused `detect_batch` verdicts are bit-for-bit
//! identical to single-input `detect`.

use ptolemy_attacks::Fgsm;
use ptolemy_core::{par_map, variants, DetectionEngine};
use ptolemy_obs::Clock;
use ptolemy_tensor::Tensor;

use crate::{fmt3, BenchResult, BenchScale, Table, Workbench};

/// Batch sizes compared (the acceptance bar reads the `>= 4` rows).
const BATCH_SIZES: [usize; 4] = [1, 2, 4, 8];

fn repetitions(scale: BenchScale) -> usize {
    match scale {
        BenchScale::Quick => 60,
        BenchScale::Full => 400,
    }
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates workbench, engine and trace errors.
pub fn run(scale: BenchScale) -> BenchResult<Vec<Table>> {
    let wb = Workbench::lenet_small(scale)?;
    let network = &wb.network;
    let unique = wb.benign_inputs(8.max(wb.scale.attack_samples()));
    let reps = repetitions(scale);

    let mut table = Table::new(
        "Batch fusion — per-input par_map forward-trace loop vs one fused \
         NCHW im2col/matmul trace",
    )
    .header([
        "batch size",
        "per-input (ms/batch)",
        "fused (ms/batch)",
        "speedup",
        "bit parity",
    ]);

    let clock = Clock::monotonic();
    let mut fused_wins_at_4 = true;
    let mut parity_everywhere = true;
    // Fold every logit into a checksum so the optimiser cannot elide the
    // timed work.
    let mut checksum = 0.0f64;

    for &batch_size in &BATCH_SIZES {
        let inputs: Vec<Tensor> = (0..batch_size)
            .map(|i| unique[i % unique.len()].clone())
            .collect();

        // What the engine hands the work gate for a batch: its forward MACs.
        let work = network.total_macs() as usize * batch_size;

        // Warm both paths once (page in weights, fault in allocations).
        let warm = par_map(&inputs, work, |x| network.forward_trace(x));
        for trace in &warm {
            checksum += f64::from(trace.as_ref().map(|t| t.logits().sum()).unwrap_or(0.0));
        }
        checksum += f64::from(network.forward_trace_batch(&inputs)?.logits(0)?.sum());

        // The pre-fusion detect_batch inner loop: one independent trace per
        // input.
        let start_ns = clock.now_ns();
        for _ in 0..reps {
            let traces = par_map(&inputs, work, |x| network.forward_trace(x));
            for trace in traces {
                checksum += f64::from(trace?.logits().sum());
            }
        }
        let per_input_ms = clock.now_ns().saturating_sub(start_ns) as f64 / 1e6 / reps as f64;

        // The fused path: one stacked trace for the whole batch.
        let start_ns = clock.now_ns();
        for _ in 0..reps {
            let batch_trace = network.forward_trace_batch(&inputs)?;
            checksum += f64::from(batch_trace.logits(0)?.sum());
        }
        let fused_ms = clock.now_ns().saturating_sub(start_ns) as f64 / 1e6 / reps as f64;

        // Parity: every sliced layer activation matches the per-input trace
        // bit for bit.
        let batch_trace = network.forward_trace_batch(&inputs)?;
        let mut parity = true;
        for (b, input) in inputs.iter().enumerate() {
            let single = network.forward_trace(input)?;
            let sliced = batch_trace.trace(b)?;
            for layer in 0..single.num_layers() {
                let same = sliced
                    .output(layer)
                    .as_slice()
                    .iter()
                    .zip(single.output(layer).as_slice())
                    .all(|(f, s)| f.to_bits() == s.to_bits());
                parity &= same;
            }
        }
        parity_everywhere &= parity;

        let speedup = per_input_ms / fused_ms.max(1e-9);
        if batch_size >= 4 && speedup < 1.0 {
            fused_wins_at_4 = false;
        }
        table.metric(
            format!("per_input_b{batch_size}_us"),
            (per_input_ms * 1000.0) as u64,
        );
        table.metric(
            format!("fused_b{batch_size}_us"),
            (fused_ms * 1000.0) as u64,
        );
        table.row([
            batch_size.to_string(),
            fmt3(per_input_ms as f32),
            fmt3(fused_ms as f32),
            format!("{speedup:.3}x"),
            if parity { "bit-for-bit" } else { "DIVERGED" }.to_string(),
        ]);
    }

    // End-to-end: fused detect_batch equals per-input detect on a calibrated
    // engine (deterministic — this is the serving-facing guarantee).
    let program = variants::bw_cu(network, 0.5)?;
    let class_paths = wb.profile(&program)?;
    let adversarial = wb.adversarial_inputs(&Fgsm::new(0.25), unique.len())?;
    let engine = DetectionEngine::builder(wb.network.clone(), program, class_paths)
        .calibrate(&unique, &adversarial)
        .build()?;
    let verdicts = engine.detect_batch(&unique)?;
    let detect_parity = unique.iter().zip(&verdicts).all(|(input, batched)| {
        engine.detect(input).is_ok_and(|single| {
            single.score.to_bits() == batched.score.to_bits()
                && single.similarity.to_bits() == batched.similarity.to_bits()
                && single.predicted_class == batched.predicted_class
        })
    });
    parity_everywhere &= detect_parity;

    table.note(format!(
        "{reps} repetitions per cell; {} unique inputs; checksum {checksum:.3}",
        unique.len()
    ));
    table.check(
        "fused trace is bit-for-bit identical to the per-input path (traces \
         and detect_batch)",
        parity_everywhere,
    );
    table.timing_check(
        "fused trace beats the per-input par_map loop at batch size >= 4",
        fused_wins_at_4,
    );
    Ok(vec![table])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_trace_is_bit_identical_and_competitive() {
        let tables = run(BenchScale::Quick).unwrap();
        assert_eq!(tables.len(), 1);
        let rendered = tables[0].to_string();
        // Deterministic check: fusion must never change a single bit,
        // whatever the machine.
        assert!(
            rendered.contains("detect_batch): holds"),
            "bit parity shape check failed:\n{rendered}"
        );
        // The throughput comparison is wall-clock and can lose on a heavily
        // oversubscribed test runner (unoptimized profile, timeshared cores),
        // so in the test it is advisory; the release-built experiment binary
        // is where the acceptance number is read.
        if rendered.contains("size >= 4: below expectation") {
            eprintln!(
                "warning: fused trace slower than the per-input loop in this \
                 environment (timing-dependent):\n{rendered}"
            );
        }
    }
}
