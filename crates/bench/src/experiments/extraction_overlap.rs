//! Beyond the paper — streaming extraction: the materialized
//! trace-then-extract pipeline (PR 3) vs the streaming pipeline that extracts
//! while the forward pass runs and never materializes the trace — compared on
//! end-to-end detect time and on resident activation bytes.
//!
//! The streaming pipeline plugs the extractor into the forward pass as a
//! `TraceSink`: forward programs mask each enabled layer's output inline the
//! moment the layer finishes and retain nothing; backward programs retain
//! only the boundaries the reverse walk reads.  Everything runs on the
//! calling thread (the overlap worker this experiment was named after lost to
//! its own spawn cost and is gone).  Both pipelines are bit-for-bit identical
//! — checked here per batch size, not assumed.
//!
//! Shapes to check: streamed end-to-end detection is no slower than the
//! materialized pipeline from batch size ~4 (the acceptance bar), and the
//! streamed peak resident activation bytes are **strictly below** what the
//! materialized trace holds (zero for forward programs).

use ptolemy_attacks::Fgsm;
use ptolemy_core::{
    extract_path, extract_paths_streaming_batch, par_map, variants, CoreError, Detection,
    DetectionEngine, DetectionProgram,
};
use ptolemy_tensor::Tensor;

use crate::workbench::interleaved_best_ms;
use crate::{fmt3, BenchResult, BenchScale, Table, Workbench};

/// Batch sizes compared (the acceptance bar reads the `>= 4` rows).
const BATCH_SIZES: [usize; 4] = [1, 2, 4, 8];

fn repetitions(scale: BenchScale) -> usize {
    match scale {
        BenchScale::Quick => 40,
        BenchScale::Full => 300,
    }
}

/// The PR 3 pipeline this experiment retires from the hot path: materialize
/// one fused batch trace, then extract each sample's path from the slices.
fn materialized_detect_batch(
    engine: &DetectionEngine,
    inputs: &[Tensor],
) -> BenchResult<Vec<Detection>> {
    let network = engine.network();
    let batch_trace = network.forward_trace_batch(inputs)?;
    let indices: Vec<usize> = (0..inputs.len()).collect();
    let work = network.total_macs() as usize * inputs.len();
    let scored = par_map(&indices, work, |&b| -> Result<(usize, f32), CoreError> {
        let trace = batch_trace.trace(b).map_err(CoreError::from)?;
        let predicted = trace.predicted_class().map_err(CoreError::from)?;
        let path = extract_path(network, &trace, engine.program())?;
        let similarity = path.similarity(engine.class_paths().class_path(predicted)?)?;
        Ok((predicted, similarity))
    });
    let forest = engine.forest().expect("calibrated engine");
    scored
        .into_iter()
        .map(|r| {
            let (predicted_class, similarity) = r?;
            let score = forest.predict_proba(&[similarity])?;
            Ok(Detection {
                is_adversary: score >= engine.threshold(),
                score,
                similarity,
                predicted_class,
            })
        })
        .collect()
}

/// The three acceptance shapes, accumulated across every table and batch size.
struct ShapeChecks {
    latency_ok_at_4: bool,
    parity_everywhere: bool,
    memory_always_lower: bool,
}

fn program_table(
    wb: &Workbench,
    label: &str,
    program: DetectionProgram,
    reps: usize,
    unique: &[Tensor],
    adversarial: &[Tensor],
    checks: &mut ShapeChecks,
) -> BenchResult<Table> {
    let class_paths = wb.profile(&program)?;
    let engine = DetectionEngine::builder(wb.network.clone(), program, class_paths)
        .calibrate(unique, adversarial)
        .build()?;

    let mut table = Table::new(format!(
        "Streaming extraction ({label}) — materialized trace-then-extract vs \
         extraction streamed inline with the forward pass"
    ))
    .header([
        "batch size",
        "materialized (ms/batch)",
        "streamed (ms/batch)",
        "speedup",
        "peak bytes (mat)",
        "peak bytes (streamed)",
        "bit parity",
    ]);

    let mut checksum = 0.0f64;
    for &batch_size in &BATCH_SIZES {
        let inputs: Vec<Tensor> = (0..batch_size)
            .map(|i| unique[i % unique.len()].clone())
            .collect();

        // Warm both paths (page in weights, fault in allocations).
        let warm = materialized_detect_batch(&engine, &inputs)?;
        checksum += f64::from(warm[0].score);
        checksum += f64::from(engine.detect_batch(&inputs)?[0].score);

        // Interleaved rounds, fastest round each: the two pipelines run the
        // same arithmetic, so only scheduling noise separates them.
        let mut sinks = [0.0f64; 2];
        let [materialized_sink, streamed_sink] = &mut sinks;
        let [materialized_ms, streamed_ms] = interleaved_best_ms(
            reps,
            [
                &mut || {
                    let verdicts = materialized_detect_batch(&engine, &inputs)?;
                    *materialized_sink += f64::from(verdicts[0].similarity);
                    Ok(())
                },
                &mut || {
                    let verdicts = engine.detect_batch(&inputs)?;
                    *streamed_sink += f64::from(verdicts[0].similarity);
                    Ok(())
                },
            ],
        )?;
        checksum += sinks.iter().sum::<f64>();

        // Parity: streamed verdicts equal the materialized pipeline's bit for
        // bit (the serving-facing guarantee of the refactor).
        let materialized = materialized_detect_batch(&engine, &inputs)?;
        let streamed = engine.detect_batch(&inputs)?;
        let parity = materialized.iter().zip(&streamed).all(|(m, s)| {
            m.score.to_bits() == s.score.to_bits()
                && m.similarity.to_bits() == s.similarity.to_bits()
                && m.is_adversary == s.is_adversary
                && m.predicted_class == s.predicted_class
        });
        checks.parity_everywhere &= parity;

        // Peak resident activation bytes: streamed footprint vs what the
        // materialized fused trace actually held.
        let footprint =
            extract_paths_streaming_batch(engine.network(), engine.program(), &inputs)?.footprint;
        let trace_bytes = engine
            .network()
            .forward_trace_batch(&inputs)?
            .activation_bytes();
        checks.memory_always_lower &= footprint.peak_streamed_bytes < trace_bytes;

        let speedup = materialized_ms / streamed_ms.max(1e-9);
        // The two pipelines execute identical arithmetic, so "no worse" is a
        // scheduling claim; allow 5% of wall-clock noise before flagging it.
        if batch_size >= 4 && speedup < 0.95 {
            checks.latency_ok_at_4 = false;
        }
        let prefix = label
            .split(',')
            .next()
            .unwrap_or(label)
            .to_ascii_lowercase();
        table.metric(
            format!("{prefix}_materialized_b{batch_size}_us"),
            (materialized_ms * 1000.0) as u64,
        );
        table.metric(
            format!("{prefix}_streamed_b{batch_size}_us"),
            (streamed_ms * 1000.0) as u64,
        );
        table.metric(
            format!("{prefix}_peak_streamed_b{batch_size}_bytes"),
            footprint.peak_streamed_bytes as u64,
        );
        table.row([
            batch_size.to_string(),
            fmt3(materialized_ms as f32),
            fmt3(streamed_ms as f32),
            format!("{speedup:.3}x"),
            trace_bytes.to_string(),
            footprint.peak_streamed_bytes.to_string(),
            if parity { "bit-for-bit" } else { "DIVERGED" }.to_string(),
        ]);
    }
    table.note(format!(
        "{reps} repetitions per cell; checksum {checksum:.3}"
    ));
    Ok(table)
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates workbench, engine and extraction errors.
pub fn run(scale: BenchScale) -> BenchResult<Vec<Table>> {
    let wb = Workbench::lenet_small(scale)?;
    let unique = wb.benign_inputs(8.max(wb.scale.attack_samples()));
    let adversarial = wb.adversarial_inputs(&Fgsm::new(0.25), unique.len())?;
    let reps = repetitions(scale);

    let mut checks = ShapeChecks {
        latency_ok_at_4: true,
        parity_everywhere: true,
        memory_always_lower: true,
    };

    // The forward program masks in flight and retains nothing; the backward
    // program exercises the retention plan.
    let fw = program_table(
        &wb,
        "FwAb, forward program",
        variants::fw_ab(&wb.network, 0.05)?,
        reps,
        &unique,
        &adversarial,
        &mut checks,
    )?;
    let bw = program_table(
        &wb,
        "BwCu, backward program",
        variants::bw_cu(&wb.network, 0.5)?,
        reps,
        &unique,
        &adversarial,
        &mut checks,
    )?;

    let mut summary = Table::new("Streaming extraction — shape checks");
    summary.check(
        "streamed detection is bit-for-bit identical to the materialized \
         pipeline",
        checks.parity_everywhere,
    );
    summary.check(
        "streamed peak resident activation bytes strictly below the \
         materialized trace at every batch size",
        checks.memory_always_lower,
    );
    summary.timing_check(
        "streamed end-to-end detect latency no worse than materialized \
         (within 5% timing noise) at batch size >= 4",
        checks.latency_ok_at_4,
    );
    Ok(vec![fw, bw, summary])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_pipeline_is_bit_identical_and_lighter() {
        let tables = run(BenchScale::Quick).unwrap();
        assert_eq!(tables.len(), 3);
        let summary = tables[2].to_string();
        // Deterministic checks: parity and the memory win must hold on any
        // machine.
        assert!(
            summary.contains("materialized pipeline: holds"),
            "bit parity shape check failed:\n{summary}"
        );
        assert!(
            summary.contains("every batch size: holds"),
            "peak-memory shape check failed:\n{summary}"
        );
        // The latency comparison is wall-clock and can lose on a heavily
        // oversubscribed test runner (unoptimized profile, timeshared cores),
        // so in the test it is advisory; the release-built experiment binary
        // is where the acceptance number is read.
        if summary.contains("size >= 4: below expectation") {
            eprintln!(
                "warning: streamed pipeline slower than materialized in this \
                 environment (timing-dependent):\n{summary}"
            );
        }
    }
}
