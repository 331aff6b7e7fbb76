//! Beyond the paper — serving-runtime throughput: a direct single-engine
//! `detect` loop vs the `ptolemy-serve` `Server` (multi-worker queue,
//! work-conserving batching, FwAb→BwCu tiered routing, path-prefix result cache), varying the
//! worker count.
//!
//! The workload repeats every input `DUPLICATION` times, interleaved — the
//! retry/replay redundancy real traffic exhibits — so the path-prefix cache
//! has duplicates to hit.
//!
//! Shape to check: served throughput overtakes the direct loop once enough
//! workers are attached (the acceptance bar is ≥ 4), and the stats snapshot
//! reports nonzero tier-2 escalations and cache hits on this workload.
//!
//! A second table names the miss path's residual: a traced server screens a
//! batch of one in 2–2.6× what `detect` costs, so the candidate causes are
//! timed apart on one warm thread (`miss_path_residual`).

use std::sync::Arc;
use std::time::Duration;

use ptolemy_attacks::Fgsm;
use ptolemy_core::{variants, DetectionEngine};
use ptolemy_obs::Clock;
use ptolemy_serve::{CacheConfig, Server, ServerBuilder, Ticket};
use ptolemy_tensor::{Tensor, ThreadClaim};

use crate::workbench::interleaved_best_ms;
use crate::{fmt3, BenchResult, BenchScale, Table, Workbench};

/// Escalation band: screening scores in this range re-score on the BwCu tier.
const BAND: (f32, f32) = (0.3, 0.7);

/// How many times each unique input repeats in the served stream.
const DUPLICATION: usize = 10;

fn throughput(count: usize, elapsed: Duration) -> f64 {
    count as f64 / elapsed.as_secs_f64().max(1e-9)
}

/// Calls per kernel in [`miss_path_residual`].
const RESIDUAL_REPS: usize = 2_000;

/// One screen of one input on one warm thread, timed two ways: `detect`
/// itself — the fused entry point on a batch of one, exactly what a worker
/// calls, so `detect_batch_with_paths(&[x])` needs no row of its own — and
/// that batch of one inside a [`ThreadClaim`] (what a worker holds while it
/// screens).  Whatever the server's `screen` stage still costs above the last
/// row is the worker itself — a thread that was parked a moment ago.
fn miss_path_residual(screen: &DetectionEngine, input: &Tensor) -> BenchResult<Table> {
    let batch = std::slice::from_ref(input);
    let fused = || -> BenchResult<f64> {
        let (verdict, _) = screen.detect_batch_with_paths(batch).remove(0)?;
        Ok(f64::from(verdict.similarity))
    };
    // Warm both, then time them interleaved.
    let mut sinks = [f64::from(screen.detect(input)?.similarity), fused()?];
    let [single_sink, claimed_sink] = &mut sinks;
    let [single_ms, claimed_ms] = interleaved_best_ms(
        RESIDUAL_REPS,
        [
            &mut || {
                *single_sink += f64::from(screen.detect(input)?.similarity);
                Ok(())
            },
            &mut || {
                let _busy = ThreadClaim::acquire();
                *claimed_sink += fused()?;
                Ok(())
            },
        ],
    )?;
    let sink: f64 = sinks.iter().sum();

    let mut table =
        Table::new("Miss-path residual — one FwAb screen of one input on a warm thread").header([
            "call",
            "ns / call",
            "vs detect",
        ]);
    for (call, key, ms) in [
        ("detect(x)", "detect_single_ns", single_ms),
        (
            "detect_batch_with_paths(&[x]) under a ThreadClaim",
            "detect_batch_of_one_claimed_ns",
            claimed_ms,
        ),
    ] {
        table.metric(key, (ms * 1e6) as u64);
        table.row([
            call.to_string(),
            format!("{:.0}", ms * 1e6),
            format!("{:.2}x", ms / single_ms),
        ]);
    }
    table.note(format!(
        "fastest of 5 interleaved rounds, {RESIDUAL_REPS} calls per row (checksum {sink:.3})"
    ));
    Ok(table)
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

    // Mixed stream with duplicates, interleaved.
    let mut workload = Vec::new();
    for _ in 0..DUPLICATION {
        for (b, a) in benign.iter().zip(&adversarial) {
            workload.push(b.clone());
            workload.push(a.clone());
        }
    }

    // Baseline: the sequential single-engine detect loop every pre-serve
    // caller hand-rolled.
    let clock = Clock::monotonic();
    let start_ns = clock.now_ns();
    for input in &workload {
        screen.detect(input)?;
    }
    let direct = throughput(
        workload.len(),
        Duration::from_nanos(clock.now_ns().saturating_sub(start_ns)),
    );

    let mut total_escalated = 0u64;
    let mut total_cache_hits = 0u64;
    let mut table = Table::new(
        "Serving throughput — direct FwAb detect loop vs ptolemy-serve \
         (FwAb screen → BwCu escalation, path-prefix cache)",
    )
    .header([
        "configuration",
        "throughput (inputs/s)",
        "vs direct",
        "escalated",
        "cache hit rate",
        "p50 ms",
        "p99 ms",
    ]);
    table.metric("direct_throughput_milli", (direct * 1000.0) as u64);
    table.row([
        "direct detect loop".to_string(),
        fmt3(direct as f32),
        "1.000x".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]);

    let mut four_worker_speedup = 0.0f64;
    let mut saw_escalations = false;
    let mut saw_cache_hits = false;
    for workers in [1, 2, 4, 8] {
        let builder: ServerBuilder = Server::builder(screen.clone())
            .escalate(expensive.clone(), BAND.0, BAND.1)
            .workers(workers)
            .queue_capacity(workload.len().max(1))
            .max_batch(16)
            .cache(CacheConfig::default());
        let server = builder.start()?;

        let start_ns = clock.now_ns();
        let tickets: Vec<Ticket> = workload
            .iter()
            .map(|input| server.submit(input.clone()))
            .collect::<Result<_, _>>()?;
        for ticket in tickets {
            ticket.wait()?;
        }
        let served = throughput(
            workload.len(),
            Duration::from_nanos(clock.now_ns().saturating_sub(start_ns)),
        );
        let stats = server.shutdown();
        let speedup = served / direct;
        if workers >= 4 {
            four_worker_speedup = four_worker_speedup.max(speedup);
        }
        saw_escalations |= stats.escalated > 0;
        saw_cache_hits |= stats.cache_hits > 0;
        total_escalated += stats.escalated;
        total_cache_hits += stats.cache_hits;
        table.metric(
            format!("served_{workers}w_throughput_milli"),
            (served * 1000.0) as u64,
        );

        table.row([
            format!("served: {workers} workers"),
            fmt3(served as f32),
            format!("{speedup:.3}x"),
            stats.escalated.to_string(),
            format!("{:.2}", stats.cache_hit_rate()),
            format!("{:.2}", stats.p50_latency_ms),
            format!("{:.2}", stats.p99_latency_ms),
        ]);
    }

    table.note(format!(
        "workload: {} inputs ({} unique, {DUPLICATION}x duplication); escalation band [{}, {}]",
        workload.len(),
        workload.len() / DUPLICATION,
        BAND.0,
        BAND.1
    ));
    table.metric("total_escalated", total_escalated);
    table.metric("total_cache_hits", total_cache_hits);
    table.timing_check(
        "served throughput >= direct loop at >= 4 workers",
        four_worker_speedup >= 1.0,
    );
    table.check(
        "tiered routing escalates and the cache hits on duplicates",
        saw_escalations && saw_cache_hits,
    );
    Ok(vec![table, miss_path_residual(&screen, &benign[0])?])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_beats_the_direct_loop_with_enough_workers() {
        let tables = run(BenchScale::Quick).unwrap();
        assert_eq!(tables.len(), 2);
        let rendered = tables[0].to_string();
        // Deterministic check: tiered routing escalates and the cache hits on
        // the duplicated workload, whatever the machine.
        assert!(
            rendered.contains("cache hits on duplicates: holds"),
            "routing/cache shape check failed:\n{rendered}"
        );
        // The throughput comparison is wall-clock and can lose on a heavily
        // oversubscribed test runner (unoptimized profile, timeshared cores),
        // so in the test it is advisory; the release-built experiment binary
        // is where the acceptance number is read.
        if rendered.contains("at >= 4 workers: below expectation") {
            eprintln!(
                "warning: served throughput below the direct loop in this \
                 environment (timing-dependent):\n{rendered}"
            );
        }
        assert_eq!(tables[0].checks().len(), 1);
        assert_eq!(tables[0].advisory_checks().len(), 1);
        assert!(!tables[0].metrics().is_empty());
        // The residual table is timing only: two rows, two metrics.
        assert_eq!(tables[1].metrics().len(), 2);
        assert!(tables[1].checks().is_empty());
    }
}
