//! Beyond the paper — int8 quantized serving: the two-tier server with its
//! screening tier in f32 vs the same server screening on the int8
//! [`ptolemy_nn::QuantizedNetwork`] (`ServerBuilder::quantized_screen`), with
//! the escalation tier staying f32 in both modes.
//!
//! This is the serving-level enforcement of the int8 statistical contract
//! that `quantized_detect` pins at the engine level: both modes route through
//! the **same escalation band**, so requests the cheap tier is unsure about
//! re-score on the exact f32 tier either way, and the only divergence left is
//! screen-tier verdicts near the decision boundary.  Verdict agreement
//! between the two modes is a **hard gate** (the pipeline is seeded and the
//! int8 pass accumulates in exact i32, so the number is machine-independent).
//! Nothing here is timed: serving throughput is the e2e benchmark's
//! `serve_closed_f32` / `serve_closed_int8` workloads.

use std::sync::Arc;

use ptolemy_attacks::Fgsm;
use ptolemy_core::{variants, Detection, DetectionEngine};
use ptolemy_serve::{ServeStats, Server, Ticket};

use crate::{fmt3, BenchResult, BenchScale, Table, Workbench};

/// Escalation band shared by both modes: screening scores in this range
/// re-score on the BwCu tier, so the escalation rate is matched by
/// construction (up to screen-score movement at the band edges).
const BAND: (f32, f32) = (0.3, 0.7);

/// Minimum fraction of inputs on which the int8-screened server's verdict
/// must agree with the f32-screened server's verdict.
const MIN_VERDICT_AGREEMENT: f64 = 0.75;

/// Serves `workload` through `server`, returning the verdicts in submission
/// order and the shutdown stats snapshot.
fn serve_all(
    server: Server,
    workload: &[ptolemy_tensor::Tensor],
) -> BenchResult<(Vec<Detection>, ServeStats)> {
    let tickets: Vec<Ticket> = workload
        .iter()
        .map(|input| server.submit(input.clone()))
        .collect::<Result<_, _>>()?;
    let mut verdicts = Vec::with_capacity(tickets.len());
    for ticket in tickets {
        verdicts.push(ticket.wait()?.detection);
    }
    Ok((verdicts, server.shutdown()))
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
            .quantized(&benign)
            .build()?,
    );
    let expensive = Arc::new(
        DetectionEngine::builder(wb.network.clone(), expensive_program, expensive_paths)
            .calibrate(&benign, &adversarial)
            .build()?,
    );
    let qnet = screen
        .quantized_network()
        .ok_or("screen engine built without a quantized network")?
        .clone();

    // Mixed stream, interleaved; no cache in either server, so every request
    // is freshly screened and the mode comparison is clean.
    let mut workload = Vec::new();
    for (b, a) in benign.iter().zip(&adversarial) {
        workload.push(b.clone());
        workload.push(a.clone());
    }

    let f32_server = Server::builder(screen.clone())
        .escalate(expensive.clone(), BAND.0, BAND.1)
        .workers(4)
        .queue_capacity(workload.len().max(1))
        .start()?;
    let (f32_verdicts, f32_stats) = serve_all(f32_server, &workload)?;

    let int8_server = Server::builder(screen.clone())
        .quantized_screen(qnet)
        .escalate(expensive.clone(), BAND.0, BAND.1)
        .workers(4)
        .queue_capacity(workload.len().max(1))
        .start()?;
    let (int8_verdicts, int8_stats) = serve_all(int8_server, &workload)?;

    let total = workload.len();
    let verdict_agree = f32_verdicts
        .iter()
        .zip(&int8_verdicts)
        .filter(|(a, b)| a.is_adversary == b.is_adversary)
        .count();
    let class_agree = f32_verdicts
        .iter()
        .zip(&int8_verdicts)
        .filter(|(a, b)| a.predicted_class == b.predicted_class)
        .count();
    let verdict_rate = verdict_agree as f64 / total as f64;
    let class_rate = class_agree as f64 / total as f64;

    let mut table = Table::new(
        "Quantized serving — f32 screen vs int8 screen (quantized_screen), \
         both escalating to the same f32 BwCu tier",
    )
    .header(["measure", "f32 screen", "int8 screen", "delta"]);
    table.row([
        "escalated".to_string(),
        f32_stats.escalated.to_string(),
        int8_stats.escalated.to_string(),
        format!(
            "{:+}",
            int8_stats.escalated as i64 - f32_stats.escalated as i64
        ),
    ]);
    table.row([
        "int8 screens".to_string(),
        f32_stats.int8_screens.to_string(),
        int8_stats.int8_screens.to_string(),
        "-".to_string(),
    ]);
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

    table.metric("verdict_agreement_permille", (verdict_rate * 1000.0) as u64);
    table.metric("class_agreement_permille", (class_rate * 1000.0) as u64);
    table.metric("f32_escalated", f32_stats.escalated);
    table.metric("int8_escalated", int8_stats.escalated);
    table.metric("int8_screens", int8_stats.int8_screens);

    table.note(format!(
        "workload: {total} inputs ({} benign, {} adversarial); escalation band \
         [{}, {}] in both modes; no result cache",
        benign.len(),
        adversarial.len(),
        BAND.0,
        BAND.1,
    ));
    table.check(
        "every request through the quantized server screened on int8 (and none \
         on the f32 server)",
        int8_stats.int8_screens == total as u64 && f32_stats.int8_screens == 0,
    );
    table.check(
        "served int8-screen verdicts agree with the f32-screen server on >= 75% \
         of inputs",
        verdict_rate >= MIN_VERDICT_AGREEMENT,
    );
    table.check(
        "both modes completed every request without failures",
        f32_stats.failed == 0
            && int8_stats.failed == 0
            && f32_stats.completed == total as u64
            && int8_stats.completed == total as u64,
    );
    Ok(vec![table])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantized_serving_holds_its_agreement_contract() {
        let tables = run(BenchScale::Quick).unwrap();
        assert_eq!(tables.len(), 1);
        let rendered = tables[0].to_string();
        for gate in [
            "on the f32 server): holds",
            ">= 75% of inputs: holds",
            "without failures: holds",
        ] {
            assert!(rendered.contains(gate), "gate `{gate}` failed:\n{rendered}");
        }
        assert_eq!(tables[0].checks().len(), 3);
    }
}
