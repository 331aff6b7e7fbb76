//! Beyond the paper — overload survival: the two-tier server under a
//! deterministic seeded workload (`ptolemy_data::workload`) swept across
//! offered loads, with per-request deadlines, admission control and
//! mixed-criticality degradation.
//!
//! Two capacities are probed first: the small-batch closed-loop rate
//! (`WORKERS` in flight, so every cut is a batch of about one) and the
//! fully-fused submit-all rate, which fusing cap-sized batches pushes about
//! half again higher.  The workload
//! generator offers Poisson traffic at multiples of the small-batch rate for
//! the inert low end of the sweep and multiples of the fused rate for the
//! genuinely-overloaded high end (loads between the two are absorbed by
//! batch fusion and never build a backlog).  At
//! each offered load the same trace replays twice — once with admission
//! control + EDF deadlines only, once with degradation added — so the
//! goodput (completions inside their deadline) comparison is paired.  Hard
//! gates: the overload machinery is **inert at 0.5× capacity** (zero shed,
//! zero degraded verdicts), degradation **engages at 4× the fused rate** and
//! its goodput there — summed over three seed-varied paired trials, so one
//! replay's scheduling noise cannot flip the comparison — is **no worse**
//! than the undegraded run's, and every
//! degraded verdict is **bit-for-bit** the screen engine's direct `detect`
//! result (degradation sheds tier-2 work, never tier-1 correctness).  The
//! latency percentiles and the uncontrolled-baseline contrast are recorded
//! as metrics, not checked.

use std::sync::Arc;
use std::time::Duration;

use ptolemy_attacks::Fgsm;
use ptolemy_core::{variants, DetectionEngine};
use ptolemy_data::{Arrivals, WorkloadSpec, WorkloadTrace};
use ptolemy_obs::Clock;
use ptolemy_serve::{
    AdmissionPolicy, DegradePolicy, ServeError, ServeStats, Server, ShedReason, Ticket,
};
use ptolemy_tensor::Tensor;

use crate::{fmt3, BenchResult, BenchScale, Table, Workbench};

/// Worker threads in every server under test.
const WORKERS: usize = 2;

/// Queue capacity: deep enough that the underloaded point rides out OS
/// scheduling stalls without dropping (the inertness gate), while sustained
/// overload still fills it to the degradation watermark within a few
/// milliseconds.
const QUEUE_CAPACITY: usize = 64;

/// Offered loads: multiples of the small-batch (windowed) capacity for the
/// inert low end, multiples of the fully-fused (submit-all) capacity for the
/// genuinely-overloaded high end — batches grow as the queue deepens and
/// fusion raises the server's capacity with them, so only loads beyond the
/// *fused* rate actually overwhelm it.
const OFFERED: [(&str, f64, Capacity); 4] = [
    ("0.5", 0.5, Capacity::SmallBatch),
    ("1.0", 1.0, Capacity::SmallBatch),
    ("2.0 (fused)", 2.0, Capacity::Fused),
    ("4.0 (fused)", 4.0, Capacity::Fused),
];

/// Which probed capacity an offered-load point is a multiple of.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Capacity {
    /// The windowed closed-loop probe (`WORKERS` in flight, batch ≈ 1).
    SmallBatch,
    /// The submit-all probe (every request queued up front, batches fuse).
    Fused,
}

/// Degradation watermarks: enter at half the queue, recover at 1/8th.
const DEGRADE: DegradePolicy = DegradePolicy {
    high_watermark: 0.5,
    low_watermark: 0.125,
};

/// Deadline budget as a multiple of each class's nominal period — generous,
/// so the underloaded point never sheds on scheduling noise and admission
/// control passes most overload traffic through to the bounded queue, where
/// the faster drain of a degraded server buys real extra goodput (with very
/// tight deadlines admission sheds nearly everything at the door in both
/// runs and the comparison collapses to a tie).
const DEADLINE_FACTOR: f64 = 64.0;

/// Outcome of one open-loop trace replay.
struct Replay {
    stats: ServeStats,
    /// Submissions rejected at the door (admission shed + full queue).
    dropped: u64,
    /// Tickets that resolved as expired in the queue.
    expired: u64,
    /// Served verdicts flagged degraded.
    degraded: u64,
    /// Degraded verdicts whose bits diverged from the screen engine's direct
    /// `detect` result (must stay 0).
    degraded_mismatches: u64,
    /// p99 queue-to-result latency, milliseconds.
    p99_ms: f64,
}

impl Replay {
    /// Completions that made their deadline.
    fn goodput(&self) -> u64 {
        self.stats
            .completed
            .saturating_sub(self.stats.deadline_misses)
    }

    /// Everything shed by overload protection instead of served.
    fn shed(&self) -> u64 {
        self.dropped + self.expired
    }
}

/// Replays `trace` against `server` open-loop: each event is submitted at
/// its nominal arrival time with its deadline budget; a full queue or an
/// admission rejection drops the request instead of blocking (open-loop
/// traffic does not wait politely).
fn replay(
    server: Server,
    screen: &DetectionEngine,
    trace: &WorkloadTrace,
    pool: &[Tensor],
) -> BenchResult<Replay> {
    let clock = Clock::monotonic();
    let start_ns = clock.now_ns();
    let mut tickets: Vec<(usize, Ticket)> = Vec::with_capacity(trace.len());
    let mut dropped = 0u64;
    for (index, event) in trace.events().iter().enumerate() {
        let target_ns = start_ns + event.arrival_ns;
        let now_ns = clock.now_ns();
        if now_ns < target_ns {
            std::thread::sleep(Duration::from_nanos(target_ns - now_ns));
        }
        let input = pool[index % pool.len()].clone();
        match server.try_submit_with_deadline(input, Duration::from_nanos(event.deadline_ns)) {
            Ok(ticket) => tickets.push((index, ticket)),
            Err(ServeError::Shed(ShedReason::Admission)) | Err(ServeError::QueueFull) => {
                dropped += 1;
            }
            Err(e) => return Err(e.into()),
        }
    }
    let mut expired = 0u64;
    let mut degraded = 0u64;
    let mut degraded_mismatches = 0u64;
    for (index, ticket) in tickets {
        match ticket.wait() {
            Ok(served) => {
                if served.degraded {
                    degraded += 1;
                    let expected = screen.detect(&pool[index % pool.len()])?;
                    let same = served.detection.score.to_bits() == expected.score.to_bits()
                        && served.detection.is_adversary == expected.is_adversary
                        && served.detection.predicted_class == expected.predicted_class;
                    if !same {
                        degraded_mismatches += 1;
                    }
                }
            }
            Err(ServeError::Shed(ShedReason::DeadlineExpired)) => expired += 1,
            Err(e) => return Err(e.into()),
        }
    }
    let stats = server.shutdown();
    let p99_ms = stats.p99_latency_ms;
    Ok(Replay {
        stats,
        dropped,
        expired,
        degraded,
        degraded_mismatches,
        p99_ms,
    })
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates workbench, engine, workload and server errors.
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

    let mut pool = Vec::new();
    for (b, a) in benign.iter().zip(&adversarial) {
        pool.push(b.clone());
        pool.push(a.clone());
    }

    // Uncertainty band spanning the middle half of the pool's screening
    // scores: escalation pressure is guaranteed, so degradation has real
    // tier-2 work to shed.
    let mut scores: Vec<f32> = pool
        .iter()
        .map(|x| screen.detect(x).map(|d| d.score))
        .collect::<Result<_, _>>()?;
    scores.sort_by(f32::total_cmp);
    let band = (scores[scores.len() / 4], scores[scores.len() * 3 / 4]);

    let build = |admission: bool, degrade: bool| -> BenchResult<Server> {
        let mut builder = Server::builder(screen.clone())
            .escalate(expensive.clone(), band.0, band.1)
            .workers(WORKERS)
            .queue_capacity(QUEUE_CAPACITY);
        if admission {
            builder = builder.admission(AdmissionPolicy::default());
        }
        if degrade {
            builder = builder.degradation(DEGRADE);
        }
        Ok(builder.start()?)
    };

    // Closed-loop capacity probe with `WORKERS` requests in flight — the
    // same small-batch regime the open-loop replay runs in (a submit-all
    // probe would measure the fully-fused batch throughput and overstate the
    // open-loop capacity several-fold).  The measured per-request service
    // time calibrates the workload generator.
    let clock = Clock::monotonic();
    let probe = Server::builder(screen.clone())
        .escalate(expensive.clone(), band.0, band.1)
        .workers(WORKERS)
        .queue_capacity(pool.len().max(1))
        .start()?;
    let probe_start_ns = clock.now_ns();
    let mut window: std::collections::VecDeque<Ticket> = std::collections::VecDeque::new();
    for x in &pool {
        if window.len() >= WORKERS {
            if let Some(ticket) = window.pop_front() {
                ticket.wait()?;
            }
        }
        window.push_back(probe.submit(x.clone())?);
    }
    for ticket in window {
        ticket.wait()?;
    }
    let probe_ns = clock.now_ns().saturating_sub(probe_start_ns).max(1);
    probe.shutdown();
    let per_request_ns =
        (probe_ns.saturating_mul(WORKERS as u64) / pool.len().max(1) as u64).max(1);
    let capacity_rps = pool.len() as f64 / (probe_ns as f64 / 1e9);

    // Fused capacity probe: everything queued up front, so every cut is a
    // cap-sized fused batch.  This is the server's true saturation throughput
    // — above the small-batch rate — and the rate an offered load must exceed
    // to genuinely overwhelm it.
    let probe = Server::builder(screen.clone())
        .escalate(expensive.clone(), band.0, band.1)
        .workers(WORKERS)
        .queue_capacity(pool.len().max(1))
        .start()?;
    let fused_start_ns = clock.now_ns();
    let fused_tickets: Vec<Ticket> = pool
        .iter()
        .map(|x| probe.submit(x.clone()))
        .collect::<Result<_, _>>()?;
    for ticket in fused_tickets {
        ticket.wait()?;
    }
    let fused_ns = clock.now_ns().saturating_sub(fused_start_ns).max(1);
    probe.shutdown();
    let fused_capacity_rps = pool.len() as f64 / (fused_ns as f64 / 1e9);

    // Translate "mult × capacity" into the generator's utilization knob:
    // rate = utilization / mean_service, so utilization = rate × service.
    let utilization_of = |mult: f64, relative_to: Capacity| -> f64 {
        match relative_to {
            Capacity::SmallBatch => mult * WORKERS as f64,
            Capacity::Fused => mult * fused_capacity_rps * per_request_ns as f64 / 1e9,
        }
    };

    // Long enough that the overloaded points build a backlog deeper than the
    // deadline budget — a short burst drains before any deadline bites.
    let requests = limit * 12;
    let mut table = Table::new(
        "Overload survival — goodput vs offered load, admission + EDF deadlines \
         with and without mixed-criticality degradation",
    )
    .header([
        "offered (x capacity)",
        "goodput (no degrade)",
        "goodput (degrade)",
        "shed (degrade)",
        "degraded served",
        "p99 ms (no degrade)",
        "p99 ms (degrade)",
    ]);

    let mut results: Vec<(&str, Replay, Replay)> = Vec::new();
    for (point, &(label, mult, relative_to)) in OFFERED.iter().enumerate() {
        let spec = WorkloadSpec {
            seed: 0x0BE5 + point as u64,
            requests,
            classes: 3,
            total_utilization: utilization_of(mult, relative_to),
            mean_service_ns: per_request_ns,
            weibull_shape: 1.5,
            deadline_factor: DEADLINE_FACTOR,
            arrivals: Arrivals::Poisson,
        };
        let trace = spec.generate()?;
        let undegraded = replay(build(true, false)?, &screen, &trace, &pool)?;
        let degraded = replay(build(true, true)?, &screen, &trace, &pool)?;
        table.row([
            label.to_string(),
            undegraded.goodput().to_string(),
            degraded.goodput().to_string(),
            degraded.shed().to_string(),
            degraded.degraded.to_string(),
            fmt3(undegraded.p99_ms as f32),
            fmt3(degraded.p99_ms as f32),
        ]);
        results.push((label, undegraded, degraded));
    }

    // The goodput gate sits on the 4.0x-fused point, where the gap between
    // screen-only and two-tier service capacity is structural.  (At 2.0x the
    // undegraded server meets every deadline too — open-loop arrivals fuse
    // larger batches than the capacity probe did, and a backward tier-2 detect
    // costs little more than its forward pass — so the comparison there is a
    // tie decided by scheduling noise.)  One open-loop replay's goodput still
    // jitters, so the gate sums three seed-varied paired trials: the
    // displayed row plus two more.
    const GATED: usize = 3;
    let (_, gated_mult, gated_relative_to) = OFFERED[GATED];
    let mut extra_trials: Vec<(Replay, Replay)> = Vec::new();
    for trial in 0..2u64 {
        let spec = WorkloadSpec {
            seed: 0x1BE5 + trial,
            requests,
            classes: 3,
            total_utilization: utilization_of(gated_mult, gated_relative_to),
            mean_service_ns: per_request_ns,
            weibull_shape: 1.5,
            deadline_factor: DEADLINE_FACTOR,
            arrivals: Arrivals::Poisson,
        };
        let trace = spec.generate()?;
        let undegraded = replay(build(true, false)?, &screen, &trace, &pool)?;
        let degraded = replay(build(true, true)?, &screen, &trace, &pool)?;
        extra_trials.push((undegraded, degraded));
    }
    let gate_trials: Vec<(&Replay, &Replay)> =
        std::iter::once((&results[GATED].1, &results[GATED].2))
            .chain(extra_trials.iter().map(|(a, b)| (a, b)))
            .collect();
    let gate_plain_goodput: u64 = gate_trials.iter().map(|(a, _)| a.goodput()).sum();
    let gate_degraded_goodput: u64 = gate_trials.iter().map(|(_, b)| b.goodput()).sum();
    let gate_degraded_served: u64 = gate_trials.iter().map(|(_, b)| b.degraded).sum();
    let gate_degrade_entered: u64 = gate_trials
        .iter()
        .map(|(_, b)| b.stats.degrade_entered)
        .sum();
    let gate_shed: u64 = gate_trials.iter().map(|(_, b)| b.shed()).sum();

    // Uncontrolled contrast: no deadlines, no admission, no degradation —
    // the gated overload trace just piles onto the bounded queue with
    // blocking submissions, and latency eats the whole backlog.
    let overload_spec = WorkloadSpec {
        seed: 0x0BE5 + GATED as u64,
        requests,
        classes: 3,
        total_utilization: utilization_of(gated_mult, gated_relative_to),
        mean_service_ns: per_request_ns,
        weibull_shape: 1.5,
        deadline_factor: DEADLINE_FACTOR,
        arrivals: Arrivals::Poisson,
    };
    let overload_trace = overload_spec.generate()?;
    let uncontrolled = Server::builder(screen.clone())
        .escalate(expensive.clone(), band.0, band.1)
        .workers(WORKERS)
        .queue_capacity(QUEUE_CAPACITY)
        .start()?;
    let uc_start_ns = clock.now_ns();
    let mut uc_tickets = Vec::with_capacity(overload_trace.len());
    for (index, event) in overload_trace.events().iter().enumerate() {
        let target_ns = uc_start_ns + event.arrival_ns;
        let now_ns = clock.now_ns();
        if now_ns < target_ns {
            std::thread::sleep(Duration::from_nanos(target_ns - now_ns));
        }
        uc_tickets.push(uncontrolled.submit(pool[index % pool.len()].clone())?);
    }
    for ticket in uc_tickets {
        ticket.wait()?;
    }
    let uncontrolled_stats = uncontrolled.shutdown();
    table.row([
        "4.0 (uncontrolled)".to_string(),
        "-".to_string(),
        "-".to_string(),
        "0".to_string(),
        "0".to_string(),
        fmt3(uncontrolled_stats.p99_latency_ms as f32),
        "-".to_string(),
    ]);

    let (_, under_plain, under_guarded) = &results[0];
    let gated_degraded_p99_ms = results[GATED].2.p99_ms;

    table.metric("capacity_rps_milli", (capacity_rps * 1000.0) as u64);
    table.metric(
        "fused_capacity_rps_milli",
        (fused_capacity_rps * 1000.0) as u64,
    );
    table.metric("offered_requests", requests as u64);
    table.metric("underload_shed", under_guarded.shed());
    table.metric("underload_degraded_served", under_guarded.degraded);
    table.metric("overload_goodput_without_degradation", gate_plain_goodput);
    table.metric("overload_goodput_with_degradation", gate_degraded_goodput);
    table.metric("overload_degraded_served", gate_degraded_served);
    table.metric("overload_shed_with_degradation", gate_shed);
    table.metric(
        "uncontrolled_p99_micros",
        (uncontrolled_stats.p99_latency_ms * 1000.0) as u64,
    );
    table.metric(
        "degraded_p99_micros",
        (gated_degraded_p99_ms * 1000.0) as u64,
    );

    table.note(format!(
        "probed capacity {:.0} req/s small-batch ({} ns/request, {WORKERS} workers), \
         {:.0} req/s fused; {} requests per offered-load point, Poisson arrivals, UUniFast \
         over 3 classes, Weibull(1.5) sizes, deadlines {DEADLINE_FACTOR}x each class period; \
         band [{:.3}, {:.3}]; queue {QUEUE_CAPACITY}, degrade watermarks {}/{}; \
         goodput gate sums 3 paired trials at 4.0x fused",
        capacity_rps,
        per_request_ns,
        fused_capacity_rps,
        requests,
        band.0,
        band.1,
        DEGRADE.high_watermark,
        DEGRADE.low_watermark,
    ));

    table.check(
        "overload protection is inert at 0.5x capacity: zero shed, zero degraded verdicts",
        under_guarded.shed() == 0
            && under_guarded.degraded == 0
            && under_plain.shed() == 0
            && under_guarded.stats.degrade_entered == 0,
    );
    table.check(
        "degradation engages under 4x overload",
        gate_degraded_served >= 1 && gate_degrade_entered >= 1,
    );
    table.check(
        "goodput with degradation >= goodput without, at 4x overload summed over 3 paired trials",
        gate_degraded_goodput >= gate_plain_goodput,
    );
    table.check(
        "every degraded verdict is bit-for-bit the screen engine's direct detect",
        results
            .iter()
            .map(|(_, a, b)| (a, b))
            .chain(extra_trials.iter().map(|(a, b)| (a, b)))
            .all(|(a, b)| a.degraded_mismatches == 0 && b.degraded_mismatches == 0),
    );
    table.check(
        "every admitted request resolves: completions + expiries account for every ticket",
        results
            .iter()
            .map(|(_, a, b)| (a, b))
            .chain(extra_trials.iter().map(|(a, b)| (a, b)))
            .all(|(a, b)| {
                a.stats.completed + a.expired + a.dropped == requests as u64
                    && b.stats.completed + b.expired + b.dropped == requests as u64
            }),
    );
    Ok(vec![table])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_survival_holds_its_gates() {
        let tables = run(BenchScale::Quick).unwrap();
        assert_eq!(tables.len(), 1);
        let rendered = tables[0].to_string();
        for gate in [
            "zero degraded verdicts: holds",
            "engages under 4x overload: holds",
            "summed over 3 paired trials: holds",
            "direct detect: holds",
            "every ticket: holds",
        ] {
            assert!(rendered.contains(gate), "gate `{gate}` failed:\n{rendered}");
        }
        assert_eq!(tables[0].checks().len(), 5);
    }
}
