//! Beyond the paper — observability overhead: the serving runtime with no
//! instrumentation vs a `ptolemy_obs::Registry` attached-but-disabled vs
//! fully enabled, on the same tiered workload.
//!
//! The serving runtime's per-stage instrumentation sits behind one relaxed
//! atomic load (`Registry::enabled`): when the registry is disabled — or not
//! attached at all — the hot path does no clock reads, no histogram inserts
//! and no timeline bookkeeping.  This experiment is the acceptance harness
//! for that claim.
//!
//! Shapes to check: verdicts are bit-for-bit identical across all three
//! modes (instrumentation must never touch results); the enabled registry
//! actually records every stage; and — advisory, wall-clock — the
//! attached-but-disabled throughput stays within 3% of the uninstrumented
//! baseline.

use std::sync::Arc;

use ptolemy_attacks::Fgsm;
use ptolemy_core::{variants, DetectionEngine};
use ptolemy_obs::json::JsonValue;
use ptolemy_obs::{Clock, Registry};
use ptolemy_serve::{Served, Server, ServerBuilder, Ticket};
use ptolemy_tensor::Tensor;

use crate::{fmt3, BenchResult, BenchScale, Table, Workbench};

/// Escalation band: screening scores in this range re-score on the BwCu tier.
const BAND: (f32, f32) = (0.3, 0.7);

/// How many times each unique input repeats in the served stream.
const DUPLICATION: usize = 6;

/// Timing rounds per mode: interleaved fastest-of rounds, so a scheduler
/// hiccup landing on one mode cannot flip the comparison.
const TIMING_ROUNDS: usize = 5;

/// The disabled-instrumentation acceptance bar: attached-but-disabled
/// throughput must stay within this fraction of the uninstrumented baseline.
const OVERHEAD_TOLERANCE: f64 = 0.03;

/// One instrumentation mode under measurement.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ObsMode {
    /// No registry attached — the pre-obs server shape.
    Uninstrumented,
    /// Registry attached with `set_enabled(false)` — the production default
    /// when metrics are off.
    AttachedDisabled,
    /// Registry attached and enabled — full per-stage recording.
    Enabled,
}

impl ObsMode {
    fn label(self) -> &'static str {
        match self {
            ObsMode::Uninstrumented => "uninstrumented",
            ObsMode::AttachedDisabled => "attached, disabled",
            ObsMode::Enabled => "attached, enabled",
        }
    }
}

const MODES: [ObsMode; 3] = [
    ObsMode::Uninstrumented,
    ObsMode::AttachedDisabled,
    ObsMode::Enabled,
];

fn server(
    screen: &Arc<DetectionEngine>,
    expensive: &Arc<DetectionEngine>,
    mode: ObsMode,
    queue: usize,
) -> BenchResult<(Server, Option<Arc<Registry>>)> {
    let mut builder: ServerBuilder = Server::builder(screen.clone())
        .escalate(expensive.clone(), BAND.0, BAND.1)
        .workers(2)
        .queue_capacity(queue)
        .max_batch(8);
    let registry = match mode {
        ObsMode::Uninstrumented => None,
        ObsMode::AttachedDisabled | ObsMode::Enabled => {
            let registry = Arc::new(Registry::new("bench.obs_overhead"));
            registry.set_enabled(mode == ObsMode::Enabled);
            builder = builder.instrument(registry.clone());
            Some(registry)
        }
    };
    Ok((builder.start()?, registry))
}

fn serve_all(server: &Server, workload: &[Tensor]) -> BenchResult<Vec<Served>> {
    let tickets: Vec<Ticket> = workload
        .iter()
        .map(|input| server.submit(input.clone()))
        .collect::<Result<_, _>>()?;
    Ok(tickets
        .into_iter()
        .map(Ticket::wait)
        .collect::<Result<_, _>>()?)
}

/// Sum of recorded stage-histogram counts in a registry snapshot.
fn recorded_samples(registry: &Registry) -> u64 {
    let snapshot = registry.snapshot();
    let Some(JsonValue::Object(histograms)) = snapshot.get("histograms").cloned() else {
        return 0;
    };
    histograms
        .iter()
        .filter_map(|(_, h)| h.get("total").and_then(JsonValue::as_u64))
        .sum()
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates workbench, engine and server errors.
pub fn run(scale: BenchScale) -> BenchResult<Vec<Table>> {
    let wb = Workbench::lenet_small(scale)?;
    let phi = wb.calibrate_phi(true)?;
    let screen_program = variants::fw_ab(&wb.network, phi)?;
    let expensive_program = variants::bw_cu(&wb.network, 0.5)?;
    let screen_paths = wb.profile(&screen_program)?;
    let expensive_paths = wb.profile(&expensive_program)?;

    let limit = wb.scale.attack_samples();
    let benign = wb.benign_inputs(limit);
    let adversarial = wb.adversarial_inputs(&Fgsm::new(0.25), limit)?;

    let screen = Arc::new(
        DetectionEngine::builder(wb.network.clone(), screen_program, screen_paths)
            .calibrate(&benign, &adversarial)
            .build()?,
    );
    let expensive = Arc::new(
        DetectionEngine::builder(wb.network.clone(), expensive_program, expensive_paths)
            .calibrate(&benign, &adversarial)
            .build()?,
    );

    let mut workload = Vec::new();
    for _ in 0..DUPLICATION {
        for (b, a) in benign.iter().zip(&adversarial) {
            workload.push(b.clone());
            workload.push(a.clone());
        }
    }

    let mut table = Table::new(
        "Observability overhead — serving throughput with no registry vs \
         attached-but-disabled vs enabled (FwAb screen, BwCu escalation)",
    )
    .header([
        "instrumentation",
        "throughput (inputs/s)",
        "vs uninstrumented",
        "stage samples recorded",
    ]);

    // Interleave the modes across timing rounds; keep each mode's fastest.
    let clock = Clock::monotonic();
    let mut best_ms = [f64::INFINITY; MODES.len()];
    for _ in 0..TIMING_ROUNDS {
        for (index, &mode) in MODES.iter().enumerate() {
            let (server, _) = server(&screen, &expensive, mode, workload.len())?;
            let start_ns = clock.now_ns();
            serve_all(&server, &workload)?;
            let pass_ms = clock.now_ns().saturating_sub(start_ns) as f64 / 1e6;
            best_ms[index] = best_ms[index].min(pass_ms);
            server.shutdown();
        }
    }

    // Fresh untimed passes per mode: parity baselines and recorded-sample
    // counts (deterministic, whatever the machine).
    let mut verdicts: Vec<Vec<Served>> = Vec::new();
    let mut samples = [0u64; MODES.len()];
    for (index, &mode) in MODES.iter().enumerate() {
        let (server, registry) = server(&screen, &expensive, mode, workload.len())?;
        verdicts.push(serve_all(&server, &workload)?);
        server.shutdown();
        samples[index] = registry.as_deref().map_or(0, recorded_samples);
    }
    let parity = verdicts[1..].iter().all(|served| {
        served.iter().zip(&verdicts[0]).all(|(a, b)| {
            a.detection.score.to_bits() == b.detection.score.to_bits()
                && a.detection.similarity.to_bits() == b.detection.similarity.to_bits()
                && a.detection.is_adversary == b.detection.is_adversary
                && a.detection.predicted_class == b.detection.predicted_class
        })
    });

    let mut throughputs = [0.0f64; MODES.len()];
    for (index, &mode) in MODES.iter().enumerate() {
        throughputs[index] = workload.len() as f64 / (best_ms[index] / 1000.0).max(1e-9);
        table.metric(
            format!("{} throughput_milli", mode.label()),
            (throughputs[index] * 1000.0) as u64,
        );
        table.row([
            mode.label().to_string(),
            fmt3(throughputs[index] as f32),
            format!("{:.3}x", throughputs[index] / throughputs[0].max(1e-9)),
            samples[index].to_string(),
        ]);
    }

    table.note(format!(
        "{} inputs per pass, fastest of {TIMING_ROUNDS} interleaved rounds per mode; \
         disabled-instrumentation tolerance {:.0}%",
        workload.len(),
        OVERHEAD_TOLERANCE * 100.0,
    ));
    table.check(
        "verdicts bit-for-bit identical across instrumentation modes",
        parity,
    );
    table.check(
        "enabled registry records stage samples and the disabled registry \
         records none",
        samples[2] > 0 && samples[1] == 0 && samples[0] == 0,
    );
    table.timing_check(
        "attached-but-disabled throughput within 3% of uninstrumented",
        throughputs[1] >= throughputs[0] * (1.0 - OVERHEAD_TOLERANCE),
    );
    Ok(vec![table])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instrumentation_never_changes_verdicts_and_only_enabled_records() {
        let tables = run(BenchScale::Quick).unwrap();
        assert_eq!(tables.len(), 1);
        let rendered = tables[0].to_string();
        // Deterministic checks: parity and the enabled/disabled recording
        // split must hold on any machine.
        assert!(
            rendered.contains("across instrumentation modes: holds"),
            "instrumentation parity shape check failed:\n{rendered}"
        );
        assert!(
            rendered.contains("records none: holds"),
            "recording gate shape check failed:\n{rendered}"
        );
        // The 3% overhead bar is wall-clock and advisory in tests; the
        // release-built experiment binary is where the acceptance number is
        // read.
        if rendered.contains("of uninstrumented: below expectation") {
            eprintln!(
                "warning: disabled instrumentation above the overhead budget \
                 in this environment (timing-dependent):\n{rendered}"
            );
        }
    }
}
