//! Beyond the paper — sharded, pipelined tier-2 escalation: the PR 2 serving
//! runtime's single escalation engine vs class-path shards
//! (`ClassPathSet::shard`) with the tier-2 sliver pipelined against the next
//! batch's screening.
//!
//! The workload forces every input through tier 2 (escalate-all band, cache
//! off), and both modes run the server's one tier-2 path — the sliver is
//! handed to the worker's bounded overlap thread, so tier-2 extraction of
//! batch *k* runs concurrently with tier-1 screening of batch *k+1* (inline
//! only when that thread already has one sliver running and one waiting) —
//! so the comparison isolates what sharding itself costs:
//!
//! * **unsharded** — one escalation engine holds every class's canary path;
//! * **sharded** — the sliver splits across two shard engines by screened
//!   class, one fused pass per shard.
//!
//! (The inline-only tier 2 this experiment used to time as a third mode lost
//! to the pipelined one by a quarter and is gone from the server.)
//!
//! Shapes to check: in both modes served verdicts are **bit-for-bit** the
//! unsharded escalation engine's direct verdicts (checked per mode, not
//! assumed); escalations spread across the shards; and sharded tier-2
//! throughput is no worse than unsharded (within wall-clock noise — the
//! modes execute identical arithmetic, sharding only regroups it).

use std::sync::Arc;

use ptolemy_attacks::Fgsm;
use ptolemy_core::{variants, DetectionEngine};
use ptolemy_obs::Clock;
use ptolemy_serve::{Served, Server, ServerBuilder, Ticket};
use ptolemy_tensor::Tensor;

use crate::{fmt3, BenchResult, BenchScale, Table, Workbench};

/// Shard counts exercised by the shard-routing table.
const SHARD_COUNTS: [usize; 2] = [2, 4];

/// Timing rounds per mode: interleaved fastest-of rounds, so a scheduler
/// hiccup landing on one mode cannot flip the comparison.
const TIMING_ROUNDS: usize = 5;

fn duplication(scale: BenchScale) -> usize {
    match scale {
        BenchScale::Quick => 4,
        BenchScale::Full => 16,
    }
}

/// One serving mode under measurement.
struct Mode {
    label: &'static str,
    shards: usize,
}

const MODES: [Mode; 2] = [
    Mode {
        label: "unsharded (1 engine)",
        shards: 1,
    },
    Mode {
        label: "sharded (2 engines)",
        shards: 2,
    },
];

/// Escalation shard engines over `full`'s canary set, forest and threshold.
fn shard_engines(
    network: &Arc<ptolemy_nn::Network>,
    full: &DetectionEngine,
    n: usize,
) -> BenchResult<Vec<Arc<DetectionEngine>>> {
    full.class_paths()
        .shard(n)?
        .into_iter()
        .map(|paths| {
            Ok(Arc::new(
                DetectionEngine::builder(network.clone(), full.program().clone(), paths)
                    .forest(full.forest().expect("calibrated engine").clone())
                    .threshold(full.threshold())
                    .build()?,
            ))
        })
        .collect()
}

fn server(
    screen: &Arc<DetectionEngine>,
    shards: Vec<Arc<DetectionEngine>>,
    queue: usize,
) -> BenchResult<Server> {
    // One worker and small batches: the pipeline (worker screens
    // batch k+1 while the overlap thread escalates batch k) is then the only
    // source of concurrency between the tiers, which is what this experiment
    // measures.
    let builder: ServerBuilder = Server::builder(screen.clone())
        .escalate_sharded(shards, 0.0, 1.0) // everything escalates
        .workers(1)
        .queue_capacity(queue)
        .max_batch(4);
    Ok(builder.start()?)
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

/// Runs the experiment.
///
/// # Errors
///
/// Propagates workbench, engine and server errors.
pub fn run(scale: BenchScale) -> BenchResult<Vec<Table>> {
    let wb = Workbench::lenet_small(scale)?;
    let screen_program = variants::fw_ab(&wb.network, 0.05)?;
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
    let full = Arc::new(
        DetectionEngine::builder(wb.network.clone(), expensive_program, expensive_paths)
            .calibrate(&benign, &adversarial)
            .build()?,
    );

    let mut workload = Vec::new();
    for _ in 0..duplication(scale) {
        for (b, a) in benign.iter().zip(&adversarial) {
            workload.push(b.clone());
            workload.push(a.clone());
        }
    }

    // Direct tier-2 verdicts: the parity baseline every mode must reproduce.
    let direct: Vec<_> = workload
        .iter()
        .map(|input| full.detect(input))
        .collect::<Result<_, _>>()?;

    let mut table = Table::new(
        "Sharded tier-2 escalation — FwAb screen, BwCu escalation, \
         escalate-all band (1 worker, batch cap 4)",
    )
    .header([
        "tier-2 mode",
        "throughput (inputs/s)",
        "vs unsharded",
        "escalated",
        "pipelined/serial batches",
        "bit parity",
    ]);

    let mut parity_everywhere = true;
    let mut throughputs = [0.0f64; MODES.len()];
    // Interleave the modes across timing rounds; keep each mode's fastest.
    let clock = Clock::monotonic();
    let mut best_ms = [f64::INFINITY; MODES.len()];
    for _ in 0..TIMING_ROUNDS {
        for (index, mode) in MODES.iter().enumerate() {
            let shards = shard_engines(&wb.network, &full, mode.shards)?;
            let server = server(&screen, shards, workload.len())?;
            let start_ns = clock.now_ns();
            serve_all(&server, &workload)?;
            let pass_ms = clock.now_ns().saturating_sub(start_ns) as f64 / 1e6;
            best_ms[index] = best_ms[index].min(pass_ms);
            server.shutdown();
        }
    }
    for (index, mode) in MODES.iter().enumerate() {
        // A fresh (untimed) pass per mode for parity and the counters.
        let shards = shard_engines(&wb.network, &full, mode.shards)?;
        let server = server(&screen, shards, workload.len())?;
        let served = serve_all(&server, &workload)?;
        let stats = server.shutdown();

        let parity = served.iter().zip(&direct).all(|(served, direct)| {
            served.detection.score.to_bits() == direct.score.to_bits()
                && served.detection.similarity.to_bits() == direct.similarity.to_bits()
                && served.detection.is_adversary == direct.is_adversary
                && served.detection.predicted_class == direct.predicted_class
        });
        parity_everywhere &= parity;

        let throughput = workload.len() as f64 / (best_ms[index] / 1000.0).max(1e-9);
        throughputs[index] = throughput;
        table.metric(
            format!("{} throughput_milli", mode.label),
            (throughput * 1000.0) as u64,
        );
        table.row([
            mode.label.to_string(),
            fmt3(throughput as f32),
            format!("{:.3}x", throughput / throughputs[0].max(1e-9)),
            stats.escalated.to_string(),
            format!("{}/{}", stats.pipelined_batches, stats.serial_batches),
            if parity { "bit-for-bit" } else { "DIVERGED" }.to_string(),
        ]);
    }
    // The acceptance bar: sharded tier-2 throughput no worse than unsharded,
    // within 5% of wall-clock noise.
    let sharded_ok = throughputs[1] >= 0.95 * throughputs[0];
    table.note(format!(
        "{} inputs per pass, fastest of {TIMING_ROUNDS} interleaved rounds per mode; \
         {} core(s) — both modes overlap tier 2 with the next batch's screen, \
         which needs a second core to show",
        workload.len(),
        ptolemy_nn::available_parallelism(),
    ));

    // Shard routing: escalations spread across shards by screened class.
    let mut routing = Table::new("Shard routing — escalations per tier-2 shard").header([
        "shards",
        "per-shard escalations",
        "sum == escalated",
    ]);
    let mut routing_ok = true;
    for &n in &SHARD_COUNTS {
        let shards = shard_engines(&wb.network, &full, n)?;
        let server = server(&screen, shards, workload.len())?;
        serve_all(&server, &workload)?;
        let stats = server.shutdown();
        let spread = stats.shard_escalations.iter().filter(|&&c| c > 0).count();
        routing_ok &= stats.shard_escalations.iter().sum::<u64>() == stats.escalated;
        // With 4 classes in the workload every 2-shard split must use both
        // shards; a 4-shard split uses as many as the workload's classes.
        routing_ok &= spread >= 2;
        routing.row([
            n.to_string(),
            format!("{:?}", stats.shard_escalations),
            (stats.shard_escalations.iter().sum::<u64>() == stats.escalated).to_string(),
        ]);
    }

    let mut summary = Table::new("Sharded escalation — shape checks");
    summary.check(
        "served verdicts bit-for-bit identical to the unsharded escalation \
         engine in every mode",
        parity_everywhere,
    );
    summary.check(
        "escalations route across shards and sum to the tier-2 total",
        routing_ok,
    );
    summary.timing_check(
        "sharded tier-2 throughput no worse than unsharded (within 5% timing \
         noise)",
        sharded_ok,
    );
    Ok(vec![table, routing, summary])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_pipeline_is_bit_identical_and_routes_across_shards() {
        let tables = run(BenchScale::Quick).unwrap();
        assert_eq!(tables.len(), 3);
        let summary = tables[2].to_string();
        // Deterministic checks: parity and shard routing must hold on any
        // machine.
        assert!(
            summary.contains("in every mode: holds"),
            "bit parity shape check failed:\n{summary}"
        );
        assert!(
            summary.contains("tier-2 total: holds"),
            "shard routing shape check failed:\n{summary}"
        );
        // The throughput comparison is wall-clock and can lose on a heavily
        // oversubscribed test runner; in the test it is advisory, the
        // release-built experiment binary is where the acceptance number is
        // read.
        if summary.contains("timing noise): below expectation") {
            eprintln!(
                "warning: sharded tier-2 slower than unsharded in this \
                 environment (timing-dependent):\n{summary}"
            );
        }
    }
}
