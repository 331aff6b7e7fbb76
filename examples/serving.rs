//! Serving demo: build a cheap FwAb screening engine and an expensive BwCu
//! escalation engine, split the escalation canary set across **shard**
//! engines, start a multi-worker `Server` with sharded tiered routing,
//! cross-batch tier-2 pipelining and the persistent path-prefix result cache,
//! feed it a mixed benign/adversarial stream with duplicates, and print the
//! `ServeStats` snapshot (tier + per-shard counts, pipelined/serial batches,
//! cache hit rate and persistence counters, queue-to-result latency
//! percentiles) plus the full observability snapshot — per-stage latency
//! histograms and counters from the attached `ptolemy_obs::Registry`,
//! rendered as JSON by `Server::metrics_json`.
//!
//! ```text
//! cargo run --release --example serving
//! ```

#![allow(
    clippy::expect_used,
    reason = "example code: a missing forest is a setup bug"
)]

use std::sync::Arc;

use ptolemy::prelude::*;
use ptolemy::tensor::Rng64;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Victim model on a 10-class CIFAR-style synthetic dataset.
    let dataset = SyntheticDataset::synth_cifar10(30, 10, 7)?;
    let mut rng = Rng64::new(7);
    let mut network = zoo::lenet(3, dataset.num_classes(), &mut rng)?;
    let report = Trainer::new(TrainConfig {
        epochs: 40,
        batch_size: 8,
        learning_rate: 0.002,
        ..TrainConfig::default()
    })
    .fit(&mut network, dataset.train())?;
    println!(
        "victim trained: clean accuracy {:.2}",
        report.final_accuracy
    );
    let network = Arc::new(network);

    // 2. Offline phase, twice: profile class paths for the cheap screening
    //    program (forward extraction, absolute threshold — overlappable with
    //    inference) and for the expensive escalation program (backward
    //    extraction, cumulative threshold — the most accurate variant).
    let screen_program = variants::fw_ab(&network, 0.05)?;
    let expensive_program = variants::bw_cu(&network, 0.5)?;
    let screen_paths = Profiler::new(screen_program.clone()).profile(&network, dataset.train())?;
    let expensive_paths =
        Profiler::new(expensive_program.clone()).profile(&network, dataset.train())?;

    // 3. Calibration sets: benign test inputs and FGSM adversarial samples.
    let attack = Fgsm::new(0.25);
    let benign: Vec<_> = dataset.test().iter().map(|(x, _)| x.clone()).collect();
    let adversarial: Vec<_> = dataset
        .test()
        .iter()
        .map(|(x, y)| attack.perturb(&network, x, *y).map(|e| e.input))
        .collect::<Result<Vec<_>, _>>()?;
    let half = benign.len() / 2;

    // 4. Bind both tier engines once (fingerprints validated here).  The
    //    screen engine is shared (Arc) because step 10 restarts a second server
    //    around it to demonstrate cache persistence.
    let screen = Arc::new(
        DetectionEngine::builder(network.clone(), screen_program, screen_paths)
            .calibrate(&benign[..half], &adversarial[..half])
            .build()?,
    );
    let expensive = DetectionEngine::builder(network.clone(), expensive_program, expensive_paths)
        .calibrate(&benign[..half], &adversarial[..half])
        .build()?;
    println!(
        "tier-1 screen:  {}\ntier-2 escalate: {}",
        screen.fingerprint(),
        expensive.fingerprint()
    );

    // 5. Shard the escalation tier: the 10-class canary set splits across 3
    //    shard engines, each owning a third of the classes' canary memory.
    //    Shards reuse the complete engine's fitted forest and threshold —
    //    bit-for-bit parity with the unsharded engine requires the identical
    //    classifier — and serve the SAME network instance as the screen tier
    //    (sharded routing relies on both tiers predicting the same class).
    let shards = expensive
        .class_paths()
        .shard(3)?
        .into_iter()
        .map(|shard_paths| {
            Ok(Arc::new(
                DetectionEngine::builder(network.clone(), expensive.program().clone(), shard_paths)
                    .forest(expensive.forest().expect("calibrated").clone())
                    .threshold(expensive.threshold())
                    .build()?,
            ))
        })
        .collect::<Result<Vec<_>, ptolemy::core::CoreError>>()?;
    for (index, shard) in shards.iter().enumerate() {
        println!(
            "  shard {index}: owns classes {:?}",
            shard.class_paths().shard_classes().unwrap_or(&[])
        );
    }

    // 6. Start the serving runtime: 4 workers, a work-conserving cut of at
    //    most `max_batch` (16 here) requests per batch, scores in
    //    [0.35, 0.65] escalate to the shard owning the screened class (tier-2
    //    slivers pipelined against the next batch's screening — the default),
    //    near-duplicate results served from the path-prefix cache, the cache
    //    persisted across restarts, and every stage timed into a metrics
    //    registry.
    let registry = Arc::new(Registry::new("example.serving"));
    let cache_path = std::env::temp_dir().join("ptolemy-serving-example-cache.json");
    let _ = std::fs::remove_file(&cache_path); // fresh demo run
    let cache_config = CacheConfig {
        persist_path: Some(cache_path.clone()),
        ..CacheConfig::default()
    };
    let start_server = |screen: &Arc<DetectionEngine>,
                        shards: &[Arc<DetectionEngine>]|
     -> Result<Server, ServeError> {
        Server::builder(screen.clone())
            .escalate_sharded(shards.to_vec(), 0.35, 0.65)
            .workers(4)
            .queue_capacity(512)
            .max_batch(16)
            .cache(cache_config.clone())
            .instrument(registry.clone())
            .start()
    };
    let server = start_server(&screen, &shards)?;

    // 7. A mixed stream with duplicates: every held-out input is submitted
    //    three times (interleaved), the way retried or replayed traffic repeats
    //    in production.
    let mut stream = Vec::new();
    for _ in 0..3 {
        for (b, a) in benign[half..].iter().zip(&adversarial[half..]) {
            stream.push((b.clone(), false));
            stream.push((a.clone(), true));
        }
    }
    let tickets: Vec<(Ticket, bool)> = stream
        .into_iter()
        .map(|(input, is_adv)| Ok((server.submit(input)?, is_adv)))
        .collect::<Result<_, ServeError>>()?;

    let mut correct = 0usize;
    let mut total = 0usize;
    for (ticket, expected) in tickets {
        let served = ticket.wait()?;
        if served.detection.is_adversary == expected {
            correct += 1;
        }
        total += 1;
    }
    println!(
        "stream served: detection accuracy {:.2} ({correct}/{total})",
        correct as f32 / total as f32
    );

    // 8. The observability snapshot: per-stage latency histograms (queue wait,
    //    batch forming, screen inference, escalation, cache probes) and
    //    counters, rendered as the same JSON the periodic snapshot thread and
    //    the BENCH_*.json trajectory use.
    println!("\nmetrics snapshot ({})", registry.name());
    println!("{}", server.metrics_json().to_json());

    // 9. The counters the serving layer exposes.
    let stats = server.shutdown();
    println!("\nServeStats");
    println!("  submitted           {}", stats.submitted);
    println!("  completed           {}", stats.completed);
    println!("  tier-1 (screen)     {}", stats.screen_served);
    println!(
        "  tier-2 (escalated)  {} across shards {:?}",
        stats.escalated, stats.shard_escalations
    );
    println!(
        "  tier-2 pipelining   {} pipelined / {} serial batches",
        stats.pipelined_batches, stats.serial_batches
    );
    println!(
        "  cache hits/misses   {}/{} (hit rate {:.2})",
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_hit_rate()
    );
    println!(
        "  cache persistence   {} loaded, {} rejected, {} persisted to {}",
        stats.cache_entries_loaded,
        stats.cache_load_rejected,
        stats.cache_entries_persisted,
        cache_path.display()
    );
    println!(
        "  batches             {} (mean {:.1}, max {})",
        stats.batches, stats.mean_batch, stats.max_batch
    );
    println!(
        "  queue-to-result     p50 {:.2} ms / p99 {:.2} ms",
        stats.p50_latency_ms, stats.p99_latency_ms
    );

    if stats.escalated == 0 {
        println!("note: no input landed in the uncertainty band on this run");
    }

    // 10. Restart: a second server over the same engines reloads the persisted
    //    cache (the fingerprint in the file matches), so replayed traffic hits
    //    immediately — the point of persistence.
    let server = start_server(&screen, &shards)?;
    let restarted = server.stats();
    let replays: Vec<Ticket> = benign[half..]
        .iter()
        .map(|input| server.submit(input.clone()))
        .collect::<Result<_, ServeError>>()?;
    for ticket in replays {
        ticket.wait()?;
    }
    let final_stats = server.shutdown();
    println!("\nAfter restart (same engines, same cache file)");
    println!(
        "  cache persistence   {} loaded, {} rejected",
        restarted.cache_entries_loaded, restarted.cache_load_rejected
    );
    println!(
        "  replayed held-out benign inputs: {} hits / {} misses",
        final_stats.cache_hits, final_stats.cache_misses
    );
    let _ = std::fs::remove_file(&cache_path); // keep the demo tidy
    Ok(())
}
