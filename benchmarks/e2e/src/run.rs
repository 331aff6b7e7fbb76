//! One workload, end to end: set-up, the timed phase in equal segments, the
//! traced pass, and the metrics both produce.

use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

use ptolemy_accel::{HardwareConfig, Simulator};
use ptolemy_compiler::{Compiler, OptimizationFlags};
use ptolemy_core::DetectionEngine;
use ptolemy_data::{Arrivals, WorkloadSpec};
use ptolemy_forest::auc;
use ptolemy_isa::Instruction;
use ptolemy_nn::QuantizedNetwork;
use ptolemy_obs::{Clock, Registry};
use ptolemy_serve::{
    AdmissionPolicy, CacheConfig, DegradePolicy, ServeError, ServeStats, Served, Server,
    ShedReason, Ticket,
};
use ptolemy_tensor::Rng64;

use crate::fixture::{Fixture, Net, Pool, Precision, SetupTimes};
use crate::layers::{self, Metrics};
use crate::openloop::{self, Sent};
use crate::oracle::{choose_band, Checksum, Oracle};
use crate::sampler::{cyclic_scan, interleave, Zipf};
use crate::spans::SpanLog;
use crate::stats::{best, median, median_u64, percentile, spread_share};
use crate::workloads::{Load, Workload, CACHE_CAPACITY, CLOSED_IN_FLIGHT};
use crate::BenchResult;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of the input pool, request order and arrival times.
    pub seed: u64,
    /// Nominal length of the timed phase.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub traced: bool,
    /// Equal segments the timed phase is cut into (about a second each).
    pub segments: usize,
    /// Full set-ups to run; `setup_s` is the fastest.
    pub setups: usize,
}

/// Where `trace_<workload>.jsonl` (and the default result file) go, relative
/// to the directory the run starts in.
pub const OUT_DIR: &str = "target/e2e";

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Every served verdict matched its reference and tickets were conserved.
    pub correct: bool,
    /// Requests attempted in the timed phase (and the traced segment).
    pub attempted: u64,
    /// Requests that failed, were refused, shed, missed their deadline or got
    /// a wrong verdict.
    pub failed: u64,
    /// End-to-end metrics.
    pub end_to_end: Metrics,
    /// Per-layer metrics (empty unless traced).
    pub per_layer: Metrics,
    /// Checksum of every served verdict's bits, in request order.
    pub checksum: u64,
    /// Human-readable notes (band, shares, invalid segments).
    pub notes: Vec<String>,
}

/// Open-loop segments whose generator lag p95 exceeds this are invalid: the
/// box, not the system, set their latency.
const MAX_LAG_P95_NS: u64 = 1_000_000;

/// Outstanding tickets the open-loop collector checks per sweep.  Tickets
/// resolve close to submission order, so the ready ones are at the front.
const COLLECTOR_SWEEP: usize = 64;

/// `Network::forward` calls timed before each segment for
/// `bench.inference_overhead_ratio`.
const FORWARD_PROBES: usize = 64;

/// A run stops starting new segments once the timed phase has lasted this
/// many times `--seconds` (request counts are fixed, so a slowed box would
/// otherwise stretch the run), but never before [`MIN_SEGMENTS`] have run.
const TIME_CAP: f64 = 1.1;

/// Fewest segments a run is cut into and reports from.
pub const MIN_SEGMENTS: usize = 5;

/// One in this many requests of a traced direct segment is also executed
/// decomposed.
const DECOMPOSE_EVERY: usize = 16;

/// Most warm-up requests a closed-loop workload runs (an eighth of a
/// segment otherwise; the open-loop ones warm up by filling the cache).
const WARM_UP_REQUESTS: usize = 256;

/// Probe requests run for a serving workload (whose engines the harness
/// never calls during the segments).
const SERVE_PROBE_REQUESTS: usize = 128;

struct Modelled {
    latency_factor: f64,
    energy_factor: f64,
    compile_ns: f64,
    simulate_ns: f64,
    static_instructions: f64,
    isa_instructions: f64,
    total_cycles: f64,
    inference_cycles: f64,
    extra_dram_bytes: f64,
    extra_dram_space_bytes: f64,
}

struct SegmentPlan {
    /// Pool index of each request.
    indices: Vec<usize>,
    /// Due-time offsets from the segment start (open loop only).
    arrivals_ns: Vec<u64>,
}

struct Setup {
    fixture: Fixture,
    primary: Arc<DetectionEngine>,
    pool: Pool,
    oracle: Oracle,
    server: Option<Server>,
    registry: Option<Arc<Registry>>,
    /// Serving counters after warm-up: the timed phase's counters are the
    /// shutdown snapshot minus these.
    warm_stats: ServeStats,
    plans: Vec<SegmentPlan>,
    modelled: Modelled,
    evaluation: Evaluation,
    times: SetupTimes,
}

fn mix(seed: u64, tag: u64) -> u64 {
    let mut rng = Rng64::new(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.next_u64()
}

/// Arrival offsets of one open-loop segment: a `ptolemy_data::workload` trace
/// of `requests` events at `rate_rps`, rescaled to last exactly
/// `requests / rate_rps` so every seed offers the same mean rate.  Bursty
/// traces are redrawn (seeds derived from `seed`) until one lasts within 8 %
/// of that, because Pareto sojourns make the raw length heavy-tailed and the
/// rescale must not turn a long trace's bursts into overload.
fn arrivals(
    seed: u64,
    requests: usize,
    rate_rps: f64,
    bursty: Option<(f64, u64)>,
) -> BenchResult<Vec<u64>> {
    let target_ns = requests as f64 / rate_rps * 1e9;
    let mut best: Option<(f64, Vec<u64>)> = None;
    for attempt in 0..64u64 {
        let spec = WorkloadSpec {
            seed: mix(seed, attempt),
            requests,
            classes: 1,
            total_utilization: 1.0,
            mean_service_ns: (1e9 / rate_rps) as u64,
            arrivals: match bursty {
                Some((burstiness, mean_burst_ns)) => Arrivals::Bursty {
                    burstiness,
                    mean_burst_ns,
                },
                None => Arrivals::Poisson,
            },
            ..WorkloadSpec::default()
        };
        let trace = spec.generate()?;
        let offsets: Vec<u64> = trace.events().iter().map(|e| e.arrival_ns).collect();
        let miss = (trace.duration_ns() as f64 / target_ns - 1.0).abs();
        if best.as_ref().map_or(true, |(m, _)| miss < *m) {
            best = Some((miss, offsets));
        }
        if bursty.is_none() || miss <= 0.08 {
            break;
        }
    }
    let (_, offsets) = best.ok_or("no arrival trace generated")?;
    let scale = target_ns / offsets.last().copied().unwrap_or(1).max(1) as f64;
    Ok(offsets
        .into_iter()
        .map(|ns| (ns as f64 * scale) as u64)
        .collect())
}

fn modelled(
    fixture: &Fixture,
    engine: &DetectionEngine,
    density: f64,
    clock: &Clock,
) -> BenchResult<Modelled> {
    let compiler = Compiler::new(OptimizationFlags::default());
    let simulator = Simulator::new(HardwareConfig::default())?;
    let mut compile_ns = Vec::new();
    let mut simulate_ns = Vec::new();
    let mut last = None;
    for _ in 0..5 {
        let t0 = clock.now_ns();
        let compiled = compiler.compile(&fixture.network, engine.program())?;
        let t1 = clock.now_ns();
        let report = simulator.simulate(&fixture.network, &compiled, density as f32)?;
        let t2 = clock.now_ns();
        compile_ns.push(t1 - t0);
        simulate_ns.push(t2 - t1);
        last = Some((compiled, report));
    }
    let (compiled, report) = last.ok_or("no simulation ran")?;
    // Instructions that survive the ISA's own encode → decode round trip.
    let isa_instructions = compiled
        .isa
        .encode()
        .into_iter()
        .filter(|&word| Instruction::decode(word).is_ok())
        .count();
    Ok(Modelled {
        latency_factor: report.latency_factor(),
        energy_factor: report.energy_factor(),
        compile_ns: median_u64(&compile_ns),
        simulate_ns: median_u64(&simulate_ns),
        static_instructions: compiled.static_instruction_count() as f64,
        isa_instructions: isa_instructions as f64,
        total_cycles: report.total_cycles as f64,
        inference_cycles: report.inference_cycles as f64,
        extra_dram_bytes: report.extra_dram_traffic_bytes as f64,
        extra_dram_space_bytes: report.extra_dram_space_bytes as f64,
    })
}

/// What the held-out evaluation set says about the engines: where the
/// escalation band goes, how dense the primary program's paths are, and how
/// well the whole pipeline separates benign from adversarial inputs.
struct Evaluation {
    /// The run of screening scores holding about a fifth of the evaluation
    /// set (`None` without a tier 2).
    band: Option<(f32, f32)>,
    /// Mean activation-path density of the primary program.
    density: f64,
    /// AUC of the final scores: tier 2's for in-band inputs, else the screen's.
    auc: f64,
}

fn evaluate(
    fixture: &Fixture,
    primary: &DetectionEngine,
    escalate: Option<&DetectionEngine>,
    precision: Precision,
) -> BenchResult<Evaluation> {
    let mut density = 0.0f64;
    let mut screen = Vec::with_capacity(fixture.evaluation.len());
    for (input, _) in &fixture.evaluation {
        let (verdict, path) = primary.detect_with_path(input)?;
        density += f64::from(path.density());
        screen.push(match precision {
            Precision::F32 => verdict,
            Precision::Int8 => primary.detect_quantized(input)?,
        });
    }
    let scores: Vec<f32> = screen.iter().map(|v| v.score).collect();
    let band = escalate.map(|_| choose_band(&scores, 0.2));
    let mut final_scores = Vec::with_capacity(screen.len());
    for ((input, _), verdict) in fixture.evaluation.iter().zip(&screen) {
        let in_band = band.is_some_and(|(low, high)| verdict.score >= low && verdict.score <= high);
        final_scores.push(match escalate {
            Some(escalate) if in_band => escalate.detect(input)?.score,
            _ => verdict.score,
        });
    }
    let labels: Vec<bool> = fixture.evaluation.iter().map(|(_, adv)| *adv).collect();
    Ok(Evaluation {
        band,
        density: density / fixture.evaluation.len() as f64,
        auc: f64::from(auc(&final_scores, &labels)?),
    })
}

/// Everything between process start and the first timed request: dataset,
/// training, profiling, attacks, calibration, the reference-verdict table,
/// arrival traces, server start and warm-up.
fn set_up(options: &Options, clock: &Clock) -> BenchResult<Setup> {
    let workload = options.workload;
    let mut times = SetupTimes::default();
    let fixture = Fixture::build(workload.net, clock, &mut times)?;

    let int8 = matches!(workload.load, Load::ServeClosed { int8: true });
    let primary_program = match (workload.net, workload.load) {
        (Net::Resnet, Load::Direct) => fixture.bw_cu()?,
        _ => fixture.fw_ab()?,
    };
    let primary = fixture.engine(primary_program, int8, clock, &mut times)?;
    let escalate = match workload.load {
        Load::Direct => None,
        _ => Some(fixture.engine(fixture.bw_cu()?, false, clock, &mut times)?),
    };
    let precision = if int8 {
        Precision::Int8
    } else {
        Precision::F32
    };
    let evaluation = evaluate(&fixture, &primary, escalate.as_deref(), precision)?;
    let pool = Pool::build(
        &fixture,
        &primary,
        precision,
        options.seed,
        workload.pool_size,
        clock,
        &mut times,
    )?;
    if !matches!(workload.load, Load::Direct) && pool.len() <= CACHE_CAPACITY {
        return Err(format!(
            "pool of {} does not exceed the cache capacity {CACHE_CAPACITY}",
            pool.len()
        )
        .into());
    }
    let oracle = match (&escalate, evaluation.band) {
        (Some(escalate), Some(band)) => {
            Oracle::tiered(pool.verdicts.clone(), &pool.inputs, escalate, band)?
        }
        _ => Oracle::single(pool.verdicts.clone()),
    };
    let modelled = modelled(&fixture, &primary, evaluation.density, clock)?;

    // Request order and arrival times of every segment (one extra for the
    // traced pass), and of the warm-up.
    let segments = options.segments + usize::from(options.traced);
    let total = (workload.nominal_rps * options.seconds).round() as usize;
    let per_segment = (total / options.segments).max(1);
    let mut index_rng = Rng64::new(mix(options.seed, 0x1D));
    let (warm_up, sequences): (Vec<usize>, Vec<Vec<usize>>) = match workload.load {
        Load::ServeOpen { zipf: true, .. } => {
            let zipf = Zipf::new(pool.len(), 1.0, &mut index_rng);
            let mut draw = |n: usize| (0..n).map(|_| zipf.sample(&mut index_rng)).collect();
            (
                draw(CACHE_CAPACITY),
                (0..segments).map(|_| draw(per_segment)).collect(),
            )
        }
        Load::ServeOpen { zipf: false, .. } => (
            // Fill the cache, then keep scanning from where the fill ended.
            cyclic_scan(0, CACHE_CAPACITY, pool.len()),
            (0..segments)
                .map(|s| cyclic_scan(CACHE_CAPACITY + s * per_segment, per_segment, pool.len()))
                .collect(),
        ),
        Load::ServeClosed { .. } | Load::Direct => {
            // The pool cycled, with every fifth request an input that
            // escalates: the tier-2 share of the load is the same for every
            // seed, whatever share of the seed's pool is in the band.
            let (in_band, out_of_band): (Vec<usize>, Vec<usize>) =
                (0..pool.len()).partition(|&i| oracle.escalates(i));
            let warm_up = (per_segment / 8).clamp(16, WARM_UP_REQUESTS);
            let cycle = |start, count| interleave(start, count, 5, &in_band, &out_of_band);
            (
                cycle(0, warm_up),
                (0..segments)
                    .map(|s| cycle(warm_up + s * per_segment, per_segment))
                    .collect(),
            )
        }
    };
    let mut plans = Vec::with_capacity(segments);
    for (segment, indices) in sequences.into_iter().enumerate() {
        let arrivals_ns = match workload.load {
            Load::ServeOpen {
                rate_rps, bursty, ..
            } => arrivals(
                mix(options.seed, 0xA0 + segment as u64),
                per_segment,
                rate_rps,
                bursty,
            )?,
            _ => Vec::new(),
        };
        plans.push(SegmentPlan {
            indices,
            arrivals_ns,
        });
    }

    let registry = options
        .traced
        .then(|| Arc::new(Registry::new("e2e")))
        .filter(|_| escalate.is_some());
    let server = match (&escalate, workload.load) {
        (Some(escalate), load) => {
            let band = oracle.band().ok_or("tiered oracle without a band")?;
            let mut builder = Server::builder(primary.clone())
                .escalate(escalate.clone(), band.0, band.1)
                .workers(2);
            if let Load::ServeOpen {
                overload_policies,
                queue_capacity,
                ..
            } = load
            {
                builder = builder.queue_capacity(queue_capacity).cache(CacheConfig {
                    capacity: CACHE_CAPACITY,
                    prefix_segments: usize::MAX,
                    persist_path: None,
                });
                if overload_policies {
                    builder = builder
                        .admission(AdmissionPolicy::default())
                        .degradation(DegradePolicy::default());
                }
            }
            if int8 {
                let qnet = primary
                    .quantized_network()
                    .ok_or("int8 workload without a quantized network")?
                    .clone();
                builder = builder.quantized_screen(qnet);
            }
            if let Some(registry) = &registry {
                // Attached but gated off: only the traced segment records.
                registry.set_enabled(false);
                builder = builder.instrument(registry.clone());
            }
            Some(builder.start()?)
        }
        (None, _) => None,
    };

    // Warm-up: caches fill and lazy set-up finishes before timing.
    let mut setup = Setup {
        fixture,
        primary,
        pool,
        oracle,
        server,
        registry,
        warm_stats: ServeStats::default(),
        plans,
        modelled,
        evaluation,
        times,
    };
    let warm_plan = SegmentPlan {
        indices: warm_up,
        arrivals_ns: Vec::new(),
    };
    let warm = match setup.server {
        Some(_) => closed_segment(&setup, &warm_plan, clock)?,
        None => direct_segment(&setup, &warm_plan, clock, None)?,
    };
    if warm.failures() > 0 {
        return Err(format!("{} warm-up requests failed", warm.failures()).into());
    }
    if let Some(server) = &setup.server {
        setup.warm_stats = server.stats();
    }
    Ok(setup)
}

/// When one served request was due (open loop) or submitted, and answered.
struct Record {
    start_ns: u64,
    submit_start_ns: u64,
    submit_end_ns: u64,
    done_ns: u64,
}

#[derive(Default)]
struct SegmentResult {
    wall_ns: u64,
    /// Latency of every request that got a correct verdict.
    latencies_ns: Vec<u64>,
    attempted: u64,
    wrong: u64,
    /// Refused at the door: admission shed or full queue.
    refused: u64,
    /// Accepted, then dropped in the queue past their deadline.
    expired: u64,
    /// Engine errors and cancelled tickets.
    errors: u64,
    lags_ns: Vec<u64>,
    checksum: Checksum,
    /// Every request that was answered, for `serve.submit_ns` /
    /// `serve.wait_ns` and the traced segment's spans.
    records: Vec<Record>,
}

impl SegmentResult {
    fn failures(&self) -> u64 {
        self.wrong + self.refused + self.expired + self.errors
    }

    fn account(
        &mut self,
        oracle: &Oracle,
        index: usize,
        result: Result<Served, ServeError>,
        latency_ns: u64,
    ) {
        match result {
            Ok(served) if oracle.check_served(index, &served) => {
                self.latencies_ns.push(latency_ns);
                self.checksum.add(index, &served.detection);
            }
            Ok(_) => self.wrong += 1,
            Err(ServeError::Shed(ShedReason::DeadlineExpired)) => self.expired += 1,
            Err(_) => self.errors += 1,
        }
    }

    fn throughput_rps(&self) -> f64 {
        self.latencies_ns.len() as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    fn lag_p95_ns(&self) -> u64 {
        let mut lags = self.lags_ns.clone();
        lags.sort_unstable();
        percentile(&lags, 0.95)
    }
}

/// Closed loop, one thread: `detect` on each planned input in turn.  With a
/// span log, every call is wrapped in a span and one request in
/// [`DECOMPOSE_EVERY`] is also executed decomposed.
fn direct_segment(
    setup: &Setup,
    plan: &SegmentPlan,
    clock: &Clock,
    mut log: Option<&mut SpanLog>,
) -> BenchResult<SegmentResult> {
    let mut out = SegmentResult::default();
    let engine = &setup.primary;
    let start_ns = clock.now_ns();
    for (request, &index) in plan.indices.iter().enumerate() {
        let input = &setup.pool.inputs[index];
        let id = request as u64;
        let t0 = clock.now_ns();
        let (verdict, latency_ns) = match &mut log {
            // The decomposed request runs twice; its latency is the whole
            // `detect` call's alone.
            Some(log) if request % DECOMPOSE_EVERY == 0 => {
                layers::probe_request(engine, input, id, clock, log)?
            }
            Some(log) => {
                let verdict = engine.detect(input)?;
                let t1 = clock.now_ns();
                let root = log.push("request", t0, t1, None, id);
                log.push("core.detect", t0, t1, Some(root), id);
                (verdict, t1 - t0)
            }
            None => {
                let verdict = engine.detect(input)?;
                (verdict, clock.now_ns() - t0)
            }
        };
        out.attempted += 1;
        if setup.oracle.check_direct(index, &verdict) {
            out.latencies_ns.push(latency_ns);
            out.checksum.add(index, &verdict);
        } else {
            out.wrong += 1;
        }
    }
    out.wall_ns = clock.now_ns() - start_ns;
    Ok(out)
}

/// Closed loop against the server: one generator keeping
/// [`CLOSED_IN_FLIGHT`] requests in flight, waiting on the oldest.
fn closed_segment(setup: &Setup, plan: &SegmentPlan, clock: &Clock) -> BenchResult<SegmentResult> {
    let server = setup.server.as_ref().ok_or("no server")?;
    let mut out = SegmentResult::default();
    let mut window: VecDeque<(usize, u64, u64, Ticket)> = VecDeque::new();
    let start_ns = clock.now_ns();
    let finish = |out: &mut SegmentResult, (index, t0, t1, ticket): (usize, u64, u64, Ticket)| {
        let result = ticket.wait();
        let done_ns = clock.now_ns();
        out.records.push(Record {
            start_ns: t0,
            submit_start_ns: t0,
            submit_end_ns: t1,
            done_ns,
        });
        out.account(&setup.oracle, index, result, done_ns - t0);
    };
    for &index in &plan.indices {
        if window.len() >= CLOSED_IN_FLIGHT {
            if let Some(oldest) = window.pop_front() {
                finish(&mut out, oldest);
            }
        }
        let t0 = clock.now_ns();
        let ticket = server.submit(setup.pool.inputs[index].clone())?;
        window.push_back((index, t0, clock.now_ns(), ticket));
        out.attempted += 1;
    }
    for entry in window {
        finish(&mut out, entry);
    }
    out.wall_ns = clock.now_ns() - start_ns;
    Ok(out)
}

/// Resolves tickets as they become ready, stamping each with the time it was
/// seen ready.  Sleeps 50 µs between sweeps, so a completion is seen at most
/// about 0.1 ms late.
fn collect(
    tickets: Receiver<(usize, Ticket)>,
    clock: &Clock,
) -> Vec<(usize, u64, Result<Served, ServeError>)> {
    let mut outstanding: VecDeque<(usize, Ticket)> = VecDeque::new();
    let mut resolved = Vec::new();
    let mut open = true;
    loop {
        while open {
            match tickets.try_recv() {
                Ok(entry) => outstanding.push_back(entry),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => open = false,
            }
        }
        if outstanding.is_empty() {
            if !open {
                return resolved;
            }
            match tickets.recv() {
                Ok(entry) => outstanding.push_back(entry),
                Err(_) => open = false,
            }
            continue;
        }
        let mut progressed = false;
        let mut at = 0;
        while at < outstanding.len().min(COLLECTOR_SWEEP) {
            if outstanding[at].1.is_ready() {
                if let Some((request, ticket)) = outstanding.remove(at) {
                    resolved.push((request, clock.now_ns(), ticket.wait()));
                    progressed = true;
                }
            } else {
                at += 1;
            }
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

/// Open loop against the server: submit each request at its due time with its
/// deadline, never wait for replies, time from due.
fn open_segment(
    setup: &Setup,
    plan: &SegmentPlan,
    deadline: Duration,
    clock: &Clock,
) -> BenchResult<SegmentResult> {
    let server = setup.server.as_ref().ok_or("no server")?;
    let mut out = SegmentResult::default();
    let (tx, rx) = sync_channel::<(usize, Ticket)>(plan.indices.len().max(1));
    let mut refused = 0u64;
    let mut fatal: Option<ServeError> = None;
    let start_ns = clock.now_ns();
    let (sent, resolved): (Vec<Sent>, _) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || collect(rx, clock));
        let sent = openloop::replay(
            clock,
            &plan.arrivals_ns,
            |ns| std::thread::sleep(Duration::from_nanos(ns)),
            |request| {
                let input = setup.pool.inputs[plan.indices[request]].clone();
                match server.try_submit_with_deadline(input, deadline) {
                    Ok(ticket) => {
                        // The channel holds every request of the segment.
                        let _ = tx.send((request, ticket));
                    }
                    Err(ServeError::Shed(ShedReason::Admission)) | Err(ServeError::QueueFull) => {
                        refused += 1;
                    }
                    Err(e) => fatal = Some(e),
                }
            },
        );
        drop(tx);
        (sent, collector.join().expect("collector panicked"))
    });
    if let Some(e) = fatal {
        return Err(e.into());
    }
    out.attempted = sent.len() as u64;
    out.refused = refused;
    let mut end_ns = sent.last().map_or(start_ns, |s| s.submit_end_ns);
    // Verdicts in request order, so the checksum does not depend on the
    // order tickets happened to resolve in.
    let mut resolved = resolved;
    resolved.sort_by_key(|(request, _, _)| *request);
    for (request, done_ns, result) in resolved {
        let timing = &sent[request];
        end_ns = end_ns.max(done_ns);
        out.records.push(Record {
            start_ns: timing.due_ns,
            submit_start_ns: timing.submit_start_ns,
            submit_end_ns: timing.submit_end_ns,
            done_ns,
        });
        out.account(
            &setup.oracle,
            plan.indices[request],
            result,
            done_ns.saturating_sub(timing.due_ns),
        );
    }
    out.lags_ns = sent.iter().map(Sent::lag_ns).collect();
    out.wall_ns = end_ns - start_ns;
    Ok(out)
}

fn run_segment(
    setup: &Setup,
    workload: &Workload,
    plan: &SegmentPlan,
    clock: &Clock,
    log: Option<&mut SpanLog>,
) -> BenchResult<SegmentResult> {
    let mut segment = match workload.load {
        Load::Direct => direct_segment(setup, plan, clock, log),
        Load::ServeClosed { .. } => closed_segment(setup, plan, clock),
        Load::ServeOpen { deadline_ms, .. } => {
            open_segment(setup, plan, Duration::from_millis(deadline_ms), clock)
        }
    }?;
    // Sorted once here; every percentile below indexes into it.
    segment.latencies_ns.sort_unstable();
    Ok(segment)
}

/// Median `Network::forward` time over the first inputs of `plan`.
fn forward_probe(setup: &Setup, plan: &SegmentPlan, clock: &Clock) -> BenchResult<f64> {
    let mut samples = Vec::with_capacity(FORWARD_PROBES);
    for &index in plan.indices.iter().take(FORWARD_PROBES) {
        let start_ns = clock.now_ns();
        std::hint::black_box(setup.fixture.network.forward(&setup.pool.inputs[index])?);
        samples.push(clock.now_ns() - start_ns);
    }
    Ok(median_u64(&samples))
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Latency percentile of a segment [`run_segment`] returned, microseconds.
fn latency_us(segment: &SegmentResult, q: f64) -> f64 {
    percentile(&segment.latencies_ns, q) as f64 / 1e3
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Runs one workload and returns its metrics.
///
/// # Errors
///
/// Propagates set-up, engine and server errors (a run that cannot produce
/// numbers); wrong verdicts and refused requests are reported in the
/// [`Outcome`], not as errors.
pub fn run(options: &Options) -> BenchResult<Outcome> {
    let clock = Clock::monotonic();
    let workload = options.workload;

    // Set up `setups` times from scratch and keep the last; `setup_s` is the
    // fastest, like every host-time metric: a neighbour only slows a set-up.
    let mut setup_s = Vec::with_capacity(options.setups);
    let mut setup = None;
    for _ in 0..options.setups.max(1) {
        // Dropping a set-up shuts its server down and joins the workers.
        drop(setup.take());
        let start_ns = clock.now_ns();
        setup = Some(set_up(options, &clock)?);
        setup_s.push((clock.now_ns() - start_ns) as f64 / 1e9);
    }
    let mut setup = setup.ok_or("no set-up ran")?;
    let mut notes = vec![format!("set-ups took {setup_s:.3?} s")];
    if let Some((low, high)) = setup.oracle.band() {
        notes.push(format!(
            "escalation band [{low}, {high}] holds {:.1} % of the {}-input pool",
            100.0 * setup.oracle.in_band_share(),
            setup.pool.len()
        ));
    }

    // Per-layer probes run before the timed phase, on an idle machine.
    let mut per_layer = Metrics::new();
    let mut log = SpanLog::default();
    if options.traced {
        let probe_inputs = &setup.pool.inputs[..setup.pool.len().min(256)];
        let owned_qnet;
        let qnet = match setup.primary.quantized_network() {
            Some(qnet) => qnet,
            None => {
                owned_qnet = QuantizedNetwork::quantize(
                    setup.fixture.network.clone(),
                    &probe_inputs[..probe_inputs.len().min(48)],
                )?;
                &owned_qnet
            }
        };
        per_layer.extend(layers::tensor_probe(&setup.fixture.network, &clock)?);
        per_layer.extend(layers::nn_probe(
            &setup.fixture.network,
            qnet,
            probe_inputs,
            &clock,
        )?);
        per_layer.extend(layers::cache_probe(CACHE_CAPACITY, &clock));
        per_layer.extend(layers::obs_data_probe(&clock)?);
        if setup.server.is_some() {
            for (request, input) in probe_inputs.iter().take(SERVE_PROBE_REQUESTS).enumerate() {
                let id = (1u64 << 32) + request as u64;
                layers::probe_request(&setup.primary, input, id, &clock, &mut log)?;
            }
        }
    }

    // The timed phase: equal segments, a forward probe before each.
    let mut segments = Vec::with_capacity(options.segments);
    let mut forward_ns = Vec::with_capacity(options.segments);
    let timed_start_ns = clock.now_ns();
    let time_cap_ns = (options.seconds * TIME_CAP * 1e9) as u64;
    for plan in setup.plans.iter().take(options.segments) {
        if segments.len() >= MIN_SEGMENTS && clock.now_ns() - timed_start_ns > time_cap_ns {
            notes.push(format!(
                "stopped after {} of {} segments: the timed phase passed {TIME_CAP} x --seconds",
                segments.len(),
                options.segments
            ));
            break;
        }
        forward_ns.push(forward_probe(&setup, plan, &clock)?);
        segments.push(run_segment(&setup, workload, plan, &clock, None)?);
    }

    // The traced pass: one more segment with spans (and the server's stage
    // histograms) on.
    let mut traced_segment = None;
    if options.traced {
        if let Some(registry) = &setup.registry {
            registry.set_enabled(true);
        }
        let plan = &setup.plans[options.segments];
        let segment = run_segment(&setup, workload, plan, &clock, Some(&mut log))?;
        if let Some(registry) = &setup.registry {
            registry.set_enabled(false);
        }
        for (request, record) in segment.records.iter().enumerate() {
            let id = request as u64;
            let root = log.push("request", record.start_ns, record.done_ns, None, id);
            log.push(
                "serve.submit",
                record.submit_start_ns,
                record.submit_end_ns,
                Some(root),
                id,
            );
            log.push(
                "serve.wait",
                record.submit_end_ns,
                record.done_ns,
                Some(root),
                id,
            );
        }
        traced_segment = Some(segment);
    }
    let final_stats = setup.server.take().map(Server::shutdown);

    // Which segments count: an open-loop segment whose generator ran late
    // measured the box, not the system, and is left out of the medians.  When
    // most of a run was late there is nothing better to report than all of
    // it; `bench.invalid_segments` says so.
    let on_time: Vec<&SegmentResult> = segments
        .iter()
        .filter(|s| s.lag_p95_ns() <= MAX_LAG_P95_NS)
        .collect();
    let invalid = segments.len() - on_time.len();
    if invalid > 0 {
        notes.push(format!(
            "{invalid} segment(s) invalid: generator lag p95 above 1 ms"
        ));
    }
    let valid: Vec<&SegmentResult> = if 2 * on_time.len() > segments.len() {
        on_time
    } else {
        segments.iter().collect()
    };
    let over =
        |f: &dyn Fn(&SegmentResult) -> f64| -> Vec<f64> { valid.iter().map(|s| f(s)).collect() };
    let throughput = over(&|s| s.throughput_rps());
    let p50 = over(&|s| latency_us(s, 0.50));
    let p95 = over(&|s| latency_us(s, 0.95));
    let p99 = over(&|s| latency_us(s, 0.99));
    let list = |values: &[f64]| -> String {
        let items: Vec<String> = values.iter().map(|v| format!("{v:.0}")).collect();
        items.join(" ")
    };
    notes.push(format!(
        "per segment: throughput_rps [{}], latency_p50_us [{}], latency_p95_us [{}], \
         forward_ns [{}]",
        list(&throughput),
        list(&p50),
        list(&p95),
        list(&forward_ns)
    ));
    // Host-time metrics are the best segment's: what the program does when
    // the neighbours leave it alone.  The medians are `bench.median_*`.
    let throughput_rps = best(&throughput, false);
    let latency_p50_us = best(&p50, true);
    let forward_us = median(&forward_ns) / 1e3;

    // Counts over everything timed, the traced segment included.
    let all = || segments.iter().chain(traced_segment.iter());
    let attempted: u64 = all().map(|s| s.attempted).sum();
    let mut failed: u64 = all().map(SegmentResult::failures).sum();
    let wrong: u64 = all().map(|s| s.wrong).sum();
    let mut checksum = Checksum::default();
    all().for_each(|s| checksum.merge(s.checksum));

    // Ticket conservation, from the server's own counters over the timed
    // phase: every attempt was refused at the door or accepted, and every
    // accepted ticket completed, expired or failed.
    let mut conserved = true;
    let mut timed = ServeStats::default();
    if let Some(stats) = &final_stats {
        let warm = &setup.warm_stats;
        timed = ServeStats {
            submitted: stats.submitted - warm.submitted,
            completed: stats.completed - warm.completed,
            failed: stats.failed - warm.failed,
            escalated: stats.escalated - warm.escalated,
            shed_admission: stats.shed_admission - warm.shed_admission,
            shed_expired: stats.shed_expired - warm.shed_expired,
            deadline_misses: stats.deadline_misses - warm.deadline_misses,
            degraded_served: stats.degraded_served - warm.degraded_served,
            degrade_entered: stats.degrade_entered - warm.degrade_entered,
            pipelined_batches: stats.pipelined_batches - warm.pipelined_batches,
            serial_batches: stats.serial_batches - warm.serial_batches,
            cache_hits: stats.cache_hits - warm.cache_hits,
            cache_misses: stats.cache_misses - warm.cache_misses,
            batches: stats.batches - warm.batches,
            worker_panics: stats.worker_panics - warm.worker_panics,
            max_batch: stats.max_batch,
            ..ServeStats::default()
        };
        let refused: u64 = all().map(|s| s.refused).sum();
        let expired: u64 = all().map(|s| s.expired).sum();
        let errors: u64 = all().map(|s| s.errors).sum();
        let served_ok: u64 = all().map(|s| s.latencies_ns.len() as u64 + s.wrong).sum();
        conserved = attempted == timed.submitted + refused
            && timed.submitted == timed.completed + timed.failed
            && timed.completed == served_ok
            && timed.failed == expired + errors;
        if !conserved {
            notes.push(format!(
                "ticket conservation broken: attempted {attempted}, refused {refused}, \
                 server submitted {} completed {} failed {}, client ok {served_ok} \
                 expired {expired} errors {errors}",
                timed.submitted, timed.completed, timed.failed
            ));
        }
        // A verdict that arrived after its deadline missed it.
        failed += timed.deadline_misses;
    }

    if failed > 0 {
        let sum = |f: &dyn Fn(&SegmentResult) -> u64| -> u64 { all().map(f).sum() };
        notes.push(format!(
            "failed {failed} of {attempted}: {wrong} wrong verdicts, {} refused at the door, \
             {} expired in the queue, {} errors, {} deadline misses",
            sum(&|s| s.refused),
            sum(&|s| s.expired),
            sum(&|s| s.errors),
            timed.deadline_misses
        ));
    }

    let end_to_end: Metrics = vec![
        ("setup_s", best(&setup_s, true)),
        ("throughput_rps", throughput_rps),
        ("latency_p50_us", latency_p50_us),
        ("detection_auc", setup.evaluation.auc),
        ("modelled_latency_factor", setup.modelled.latency_factor),
        ("modelled_energy_factor", setup.modelled.energy_factor),
    ];

    if let Some(traced) = &traced_segment {
        per_layer.extend(layers::core_probe(
            &setup.primary,
            &setup.pool.inputs[..setup.pool.len().min(256)],
            &log,
            &clock,
        )?);
        let times = &setup.times;
        let m = &setup.modelled;
        per_layer.extend([
            ("core.path_density_milli", 1e3 * setup.evaluation.density),
            (
                "core.profile_per_sample_ns",
                times.profile_ns as f64 / times.profile_samples.max(1) as f64,
            ),
            ("core.calibrate_ns", times.calibrate_ns as f64),
            (
                "attacks.fgsm_per_sample_ns",
                times.fgsm_ns as f64 / times.fgsm_samples.max(1) as f64,
            ),
            ("compiler.compile_ns", m.compile_ns),
            ("compiler.static_instructions", m.static_instructions),
            ("isa.instructions", m.isa_instructions),
            ("accel.simulate_ns", m.simulate_ns),
            ("accel.sim_total_cycles", m.total_cycles),
            ("accel.sim_inference_cycles", m.inference_cycles),
            ("accel.sim_extra_dram_bytes", m.extra_dram_bytes),
            ("accel.sim_extra_dram_space_bytes", m.extra_dram_space_bytes),
        ]);

        // serve.*: call timing from outside over the untraced segments,
        // counters from ServeStats over the timed phase, stage histograms
        // from the registry (traced segment only).
        let records = |f: &dyn Fn(&Record) -> u64| -> Vec<u64> {
            valid.iter().flat_map(|s| s.records.iter().map(f)).collect()
        };
        let stage_p50 = |name: &str| -> f64 {
            setup
                .registry
                .as_ref()
                .and_then(|r| r.histogram(name).snapshot().percentile(0.5))
                .map_or(0.0, |ns| ns as f64)
        };
        let screen_p50 = stage_p50("serve.screen_ns").max(stage_p50("serve.screen_int8_ns"));
        let resolved = timed.completed.max(1);
        per_layer.extend([
            (
                "serve.submit_ns",
                median_u64(&records(&|r| r.submit_end_ns - r.submit_start_ns)),
            ),
            (
                "serve.wait_ns",
                median_u64(&records(&|r| r.done_ns.saturating_sub(r.submit_end_ns))),
            ),
            (
                "serve.queueing_ns",
                if final_stats.is_some() {
                    1e3 * latency_us(traced, 0.50) - screen_p50
                } else {
                    0.0
                },
            ),
            ("serve.batches", timed.batches as f64),
            (
                "serve.mean_batch_milli",
                1e3 * share(timed.completed + timed.failed, timed.batches),
            ),
            ("serve.max_batch", timed.max_batch as f64),
            ("serve.escalated_share", share(timed.escalated, resolved)),
            (
                "serve.cache_hit_share",
                share(timed.cache_hits, timed.cache_hits + timed.cache_misses),
            ),
            ("serve.shed_admission", timed.shed_admission as f64),
            ("serve.shed_expired", timed.shed_expired as f64),
            ("serve.deadline_misses", timed.deadline_misses as f64),
            (
                "serve.degraded_share",
                share(timed.degraded_served, resolved),
            ),
            ("serve.degrade_entered", timed.degrade_entered as f64),
            (
                "serve.pipelined_batch_share",
                share(
                    timed.pipelined_batches,
                    timed.pipelined_batches + timed.serial_batches,
                ),
            ),
            ("serve.worker_panics", timed.worker_panics as f64),
            ("serve.failed", timed.failed as f64),
            (
                "serve.stage.queue_wait_p50_ns",
                stage_p50("serve.queue_wait_ns"),
            ),
            (
                "serve.stage.batch_form_p50_ns",
                stage_p50("serve.batch_form_ns"),
            ),
            (
                "serve.stage.cache_lookup_p50_ns",
                stage_p50("serve.cache_lookup_ns"),
            ),
            ("serve.stage.screen_p50_ns", screen_p50),
            (
                "serve.stage.escalate_p50_ns",
                stage_p50("serve.escalate[0]_ns"),
            ),
            ("serve.stage.overlap_p50_ns", stage_p50("serve.overlap_ns")),
        ]);

        let lags = {
            let mut lags: Vec<u64> = valid
                .iter()
                .flat_map(|s| s.lags_ns.iter().copied())
                .collect();
            lags.sort_unstable();
            lags
        };
        per_layer.extend([
            ("bench.latency_p95_us", best(&p95, true)),
            ("bench.latency_p99_us", best(&p99, true)),
            ("bench.median_throughput_rps", median(&throughput)),
            ("bench.median_latency_p50_us", median(&p50)),
            ("bench.median_latency_p95_us", median(&p95)),
            (
                "bench.generator_lag_p95_us",
                percentile(&lags, 0.95) as f64 / 1e3,
            ),
            (
                "bench.generator_lag_max_us",
                lags.last().copied().unwrap_or(0) as f64 / 1e3,
            ),
            (
                "bench.segment_spread_share",
                spread_share(&throughput).max(spread_share(&p50)),
            ),
            (
                "bench.trace_overhead_share",
                (throughput_rps - traced.throughput_rps()) / throughput_rps,
            ),
            (
                "bench.samples",
                valid.iter().map(|s| s.latencies_ns.len()).sum::<usize>() as f64,
            ),
            ("bench.failed_share", share(failed, attempted)),
            ("bench.invalid_segments", invalid as f64),
            ("bench.peak_rss_mib", peak_rss_mib()),
            (
                "bench.inference_overhead_ratio",
                latency_p50_us / forward_us,
            ),
        ]);

        std::fs::create_dir_all(OUT_DIR)?;
        let path = format!("{OUT_DIR}/trace_{}.jsonl", workload.name);
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        log.write_jsonl(&mut file)?;
        std::io::Write::flush(&mut file)?;
        notes.push(format!("{} spans written to {}", log.spans().len(), path));
        let mut names: Vec<&str> = log.spans().iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let durations = log.durations_of(name);
            notes.push(format!(
                "span {name}: {} spans, median {:.0} ns, median self time {:.0} ns",
                durations.len(),
                median_u64(&durations),
                median_u64(&log.self_times_of(name)),
            ));
        }
    }

    Ok(Outcome {
        correct: wrong == 0 && conserved,
        attempted,
        failed,
        end_to_end,
        per_layer,
        checksum: checksum.value(),
        notes,
    })
}
