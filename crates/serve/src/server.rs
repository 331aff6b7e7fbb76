//! The multi-worker serving runtime: bounded submission queue, work-conserving
//! batch cut, two-tier router (optionally sharded across escalation engines, with
//! tier-2 work pipelined against the next batch's screening) and the
//! persistent path-prefix result cache.  The decisions live elsewhere — the
//! queue policy in `queue.rs`, what a batch's requests resolve to in
//! `stage.rs`; this file is the threaded shell that locks, reads the clock,
//! calls the engines and acts on what those return.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ptolemy_core::{Detection, DetectionEngine};
use ptolemy_nn::QuantizedNetwork;
use ptolemy_obs::json::JsonValue;
use ptolemy_obs::{Clock, HistogramHandle, Registry, Stage, Timeline};
use ptolemy_tensor::{Tensor, ThreadClaim};

use crate::admission::{AdmissionPolicy, DegradePolicy};
use crate::cache::{self, CacheConfig, CacheLoad, CachedVerdict, LruCache};
use crate::error::{Result, ServeError};
use crate::queue::{DegradeTransition, Next, QueueModel};
use crate::stage::{self, Answers, EscalationGroup, Routing};
use crate::stats::{ServeStats, StatsInner};
use crate::sync::{self, lock};

/// Which engine produced a served verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The tier-1 screening engine answered directly.
    Screen,
    /// The screening score fell in the uncertainty band and the tier-2
    /// escalation engine re-scored the input.
    Escalated,
}

/// A resolved serving request: the verdict plus its provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Served {
    /// The detection verdict.
    pub detection: Detection,
    /// The tier whose engine produced the verdict (for a cache hit: the tier
    /// that produced the cached verdict).
    pub tier: Tier,
    /// `true` if the verdict was resolved from the path-prefix cache instead of
    /// being re-scored.
    pub cache_hit: bool,
    /// `true` if this in-band request would have escalated to tier 2 but was
    /// answered by the screening verdict because the server was in degraded
    /// (screen-tier-only) overload mode ([`crate::DegradePolicy`]).  Always
    /// `false` without a degradation policy, for confident screen verdicts,
    /// for escalated verdicts, and for cache hits.
    pub degraded: bool,
}

#[derive(Debug)]
pub(crate) struct TicketSlot {
    result: Mutex<Option<Result<Served>>>,
    ready: Condvar,
}

impl TicketSlot {
    /// A slot holding `result`: `None` for a queued request, `Some` for one
    /// answered inside `submit` — its ticket is born resolved.
    pub(crate) fn new(result: Option<Result<Served>>) -> Arc<TicketSlot> {
        Arc::new(TicketSlot {
            result: Mutex::new(result),
            ready: Condvar::new(),
        })
    }
}

/// A handle to one submitted request; resolves to a [`Served`] verdict.
///
/// Tickets resolve in whatever order batches complete, but each ticket always
/// resolves to the result of *its own* input — a submitter that waits on its
/// tickets in submission order observes its results in submission order.
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<TicketSlot>,
}

impl Ticket {
    /// Blocks until the server resolves this request.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Engine`] if the detection engine failed on this
    /// input.
    pub fn wait(self) -> Result<Served> {
        let mut guard = lock(&self.slot.result);
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            guard = sync::wait(&self.slot.ready, guard);
        }
    }

    /// `true` once the server has resolved this request ([`Ticket::wait`] will
    /// not block).
    pub fn is_ready(&self) -> bool {
        lock(&self.slot.result).is_some()
    }
}

pub(crate) struct Request {
    pub(crate) input: Tensor,
    pub(crate) flight: InFlight,
}

/// Everything about a request but its input tensor (which moves into the
/// fused-batch buffer): what resolution still needs.
pub(crate) struct InFlight {
    pub(crate) slot: Arc<TicketSlot>,
    /// Enqueue time on the server's clock ([`Shared::now_ns`]).
    pub(crate) submitted_ns: u64,
    /// Absolute completion deadline on the server's clock
    /// ([`Server::submit_with_deadline`]); `None` for deadline-less
    /// submissions, which sort after every deadline-carrying request.  Drives
    /// the expiry drop in [`stage::probe_stage`] and the deadline-miss accounting.
    pub(crate) deadline_ns: Option<u64>,
    /// Exact-input cache key ([`Shared::input_key`]), hashed once by the
    /// submitter; `None` with the cache off.
    pub(crate) input_key: Option<u64>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The single FNV-1a round shared by every cache key in this module — the
/// exact-input fast path and the path-prefix cache must hash identically for
/// the `input_keys → cache` mapping to stay meaningful.
fn fnv1a_u64(seed: u64, values: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = seed;
    for value in values {
        hash ^= value;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// How many of the most recent per-batch [`Timeline`]s the server retains for
/// [`Server::metrics_json`].  A bounded ring: old batches age out, memory
/// stays O(1) however long the server runs.
const TIMELINE_RING: usize = 32;

/// The serving runtime's attachment to a [`ptolemy_obs::Registry`]: stage
/// histograms resolved once at startup (the hot path never touches the
/// registry's name maps) plus a bounded ring of recent per-batch timelines.
///
/// Counters that already exist in [`StatsInner`] are *not* duplicated here —
/// the snapshot renders them straight from the stats plane.
struct ServeObs {
    registry: Arc<Registry>,
    queue_wait_ns: HistogramHandle,
    batch_form_ns: HistogramHandle,
    cache_lookup_ns: HistogramHandle,
    screen_ns: HistogramHandle,
    /// Which screening pass `screen_ns` times: [`Stage::Screen`], or
    /// [`Stage::ScreenInt8`] under the quantized screen.
    screen_stage: Stage,
    /// One histogram per escalation shard, indexed like `Shared::escalate`.
    escalate_ns: Vec<HistogramHandle>,
    /// Occupancy of the cross-batch overlap thread: how long each pipelined
    /// tier-2 sliver kept it busy.
    overlap_ns: HistogramHandle,
    timelines: Mutex<VecDeque<Timeline>>,
}

impl ServeObs {
    /// `int8_screen` selects the screening histogram name (and matches the
    /// [`Stage::ScreenInt8`] timeline events the workers will record), so a
    /// registry snapshot unambiguously says which inference path the screen
    /// tier ran.
    fn attach(registry: Arc<Registry>, shards: usize, int8_screen: bool) -> ServeObs {
        let (screen_hist, screen_stage) = if int8_screen {
            ("serve.screen_int8_ns", Stage::ScreenInt8)
        } else {
            ("serve.screen_ns", Stage::Screen)
        };
        ServeObs {
            queue_wait_ns: registry.histogram("serve.queue_wait_ns"),
            batch_form_ns: registry.histogram("serve.batch_form_ns"),
            cache_lookup_ns: registry.histogram("serve.cache_lookup_ns"),
            screen_ns: registry.histogram(screen_hist),
            screen_stage,
            escalate_ns: (0..shards)
                .map(|shard| {
                    registry.histogram(&format!(
                        "serve.{}_ns",
                        Stage::Escalate(shard as u32).label()
                    ))
                })
                .collect(),
            overlap_ns: registry.histogram("serve.overlap_ns"),
            timelines: Mutex::new(VecDeque::with_capacity(TIMELINE_RING)),
            registry,
        }
    }

    /// Records one stage interval of a batch: into the stage's histogram (a
    /// stage without one only marks the timeline) and into the batch's
    /// timeline, when it has one.
    fn stage(&self, timeline: &mut Option<Timeline>, stage: Stage, start_ns: u64, end_ns: u64) {
        let hist = match stage {
            Stage::BatchForm => Some(&self.batch_form_ns),
            Stage::CacheLookup => Some(&self.cache_lookup_ns),
            Stage::Screen | Stage::ScreenInt8 => Some(&self.screen_ns),
            Stage::Escalate(shard) => self.escalate_ns.get(shard as usize),
            Stage::Overlap => Some(&self.overlap_ns),
            Stage::QueueWait | Stage::Shed | Stage::Degraded => None,
        };
        if let Some(hist) = hist {
            hist.record(end_ns.saturating_sub(start_ns));
        }
        if let Some(timeline) = timeline {
            timeline.record(stage, start_ns, end_ns);
        }
    }

    /// Pushes a finished per-batch timeline into the bounded ring.
    fn retain_timeline(&self, timeline: Option<Timeline>) {
        let Some(timeline) = timeline else { return };
        let mut ring = lock(&self.timelines);
        if ring.len() == TIMELINE_RING {
            ring.pop_front();
        }
        ring.push_back(timeline);
    }
}

struct Shared {
    /// The queue policy ([`QueueModel`]): every admission, ordering, cut and
    /// degradation decision is the model's; the code holding this lock only
    /// acts on what it returns (count, notify, resolve).
    state: Mutex<QueueModel<Request>>,
    /// Signals workers that requests arrived (or shutdown began).
    not_empty: Condvar,
    /// Signals blocked submitters that queue space freed up.
    not_full: Condvar,
    /// Wakes the metrics monitor thread early on shutdown.  Dedicated: the
    /// monitor must never steal an enqueue's `not_empty.notify_one` from a
    /// worker.
    monitor_wake: Condvar,
    screen: Arc<DetectionEngine>,
    /// The int8 quantized screening network
    /// ([`ServerBuilder::quantized_screen`]): when set, tier-1 screening runs
    /// the blocked-i8-GEMM quantized inference path instead of f32.
    /// Escalation always re-scores in f32 — the quantized tier is the cheap
    /// first look, never the final word on an uncertain input.
    quantized: Option<Arc<QuantizedNetwork>>,
    /// Tier-2 escalation engines: empty without tiered routing, one entry for
    /// a single escalation engine, several for sharded escalation.
    escalate: Vec<Arc<DetectionEngine>>,
    /// `owner_of[class]` is the index (into `escalate`) of the shard owning
    /// that class's canary path; empty iff `escalate` is empty.
    owner_of: Vec<usize>,
    /// Screening scores in `[band.0, band.1]` escalate to tier 2.
    band: (f32, f32),
    /// EMA of per-request service time (screen and escalation passes), the
    /// denominator of the admission wait estimate; present iff admission
    /// control ([`ServerBuilder::admission`]) is.  0 = unseeded: admission
    /// is inert until the first timed batch (and stays inert under manual
    /// clocks, keeping deterministic tests deterministic).
    service_ema_ns: Option<AtomicU64>,
    cache: Option<Mutex<LruCache<CachedVerdict>>>,
    /// Exact-duplicate fast path: maps an input fingerprint to the path-prefix
    /// key its screening extraction produced, so a byte-identical repeat skips
    /// even the screen extraction.  Near-duplicates (different bytes, same
    /// early-layer path) still match through the path-prefix key itself.
    input_keys: Option<Mutex<LruCache<u64>>>,
    /// Hash seed derived from [`Shared::cache_fingerprint`], so cache keys
    /// from engines with different build-time fingerprints never collide.
    cache_seed: u64,
    /// The fingerprint the result cache is keyed and persisted under: the
    /// screen engine's build-time fingerprint, suffixed with `+int8` when the
    /// quantized screen is on.  Int8 and f32 screening extract different
    /// paths from the same input, so their verdicts must never alias — in
    /// memory (the seed) or on disk (persisted caches only reload under the
    /// identical mode).
    cache_fingerprint: String,
    prefix_segments: usize,
    /// Where to persist the result cache on shutdown, if configured.
    persist_path: Option<PathBuf>,
    stats: Mutex<StatsInner>,
    /// The registry attachment ([`ServerBuilder::instrument`]); `None` leaves
    /// the serving path entirely uninstrumented.
    obs: Option<ServeObs>,
    /// Clock for queue-wait/latency bookkeeping when no registry is attached
    /// (with one attached, its clock is used so manual-clock tests stay
    /// deterministic end to end).
    fallback_clock: Clock,
    /// Where the periodic snapshot thread writes metrics JSON, if configured.
    snapshot_path: Option<PathBuf>,
}

impl Shared {
    /// The server's clock reading: the attached registry's clock when
    /// instrumented (so a [`Clock::manual`] registry makes every serve timing
    /// deterministic), the private monotonic clock otherwise.
    fn now_ns(&self) -> u64 {
        match &self.obs {
            Some(obs) => obs.registry.clock().now_ns(),
            None => self.fallback_clock.now_ns(),
        }
    }

    /// The stage-timing attachment, `None` when absent **or gated off** — the
    /// disabled path costs one relaxed atomic load.
    fn stage_obs(&self) -> Option<&ServeObs> {
        self.obs.as_ref().filter(|obs| obs.registry.enabled())
    }

    fn cache_key(&self, path: &ptolemy_core::ActivationPath) -> u64 {
        // One extra FNV round folds the engine-fingerprint seed into the
        // path-prefix fingerprint.
        fnv1a_u64(
            self.cache_seed,
            [path.prefix_fingerprint(self.prefix_segments)],
        )
    }

    /// The exact-input fingerprint: FNV-1a over the shape and every element's
    /// bit pattern.  It runs inside `submit`, so the elements go through four
    /// interleaved lanes — one serial chain waits out a multiply per element
    /// (≈ 1 µs for a 3×16×16 input, against ≈ 0.3 µs this way).
    fn input_key(&self, input: &Tensor) -> u64 {
        let mut lanes = [self.cache_seed; 4];
        let mut chunks = input.as_slice().chunks_exact(lanes.len());
        for chunk in &mut chunks {
            for (lane, value) in lanes.iter_mut().zip(chunk) {
                *lane = (*lane ^ u64::from(value.to_bits())).wrapping_mul(FNV_PRIME);
            }
        }
        let tail = chunks.remainder().iter().map(|v| u64::from(v.to_bits()));
        let dims = input.dims().iter().map(|d| *d as u64);
        fnv1a_u64(self.cache_seed, dims.chain(lanes).chain(tail))
    }

    /// The exact-input probe: input fingerprint → path-prefix key → cached
    /// verdict.  One body for both callers — `submit` on the submitting
    /// thread, and a worker's [`stage::probe_stage`].  Takes `input_keys`, releases
    /// it, then takes `cache`; never called with `state` held.
    fn probe(&self, input_key: u64) -> Option<Served> {
        let (input_keys, cache) = (self.input_keys.as_ref()?, self.cache.as_ref()?);
        let path_key = lock(input_keys).get(input_key).copied()?;
        lock(cache).get(path_key).copied().map(CachedVerdict::hit)
    }
}

/// The serving runtime: N worker threads draining a bounded submission queue
/// through one or two [`DetectionEngine`]s.
///
/// Built with [`Server::builder`].  Dropping the server (or calling
/// [`Server::shutdown`]) stops accepting work, drains every queued request and
/// joins the workers — no ticket is left unresolved.
///
/// # Example
///
/// See the crate-level docs ([`crate`]) and `examples/serving.rs`.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// The periodic metrics-snapshot thread ([`ServerBuilder::snapshot_to`]).
    monitor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.workers.len())
            .field("screen", &self.shared.screen.fingerprint())
            .field(
                "escalate",
                &self
                    .shared
                    .escalate
                    .iter()
                    .map(|shard| shard.fingerprint())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Server {
    /// Starts building a server around a tier-1 screening engine.
    pub fn builder(screen: impl Into<Arc<DetectionEngine>>) -> ServerBuilder {
        ServerBuilder {
            screen: screen.into(),
            quantized: None,
            escalate: Vec::new(),
            band: (0.0, 0.0),
            workers: 2,
            queue_capacity: 256,
            max_batch: 8,
            admission: None,
            degrade: None,
            cache: None,
            tiering_requested: false,
            registry: None,
            snapshot: None,
        }
    }

    /// Submits one input, blocking while the submission queue is full
    /// (backpressure).
    ///
    /// With the cache on, every submission path first probes the exact-input
    /// cache on the calling thread.  A byte-identical repeat of a cached input
    /// comes back as an already-ready [`Ticket`] ([`Served::cache_hit`],
    /// counted in [`ServeStats::cache_hits_at_submit`]): it occupies no queue
    /// slot and wakes no worker, so it is served even while the queue is full
    /// ([`Server::try_submit`] does not see [`ServeError::QueueFull`]) or
    /// admission control would shed ([`Server::submit_with_deadline`] does
    /// not see [`ServeError::Shed`]).  Only shutdown refuses it.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ShuttingDown`] once shutdown has begun.
    pub fn submit(&self, input: Tensor) -> Result<Ticket> {
        self.submit_opt(input, None, true)
    }

    /// Submits one input with a completion deadline, blocking while the
    /// submission queue is full.  The deadline is measured from this call, so
    /// time spent blocked on backpressure consumes budget.
    ///
    /// Deadline-carrying requests are queued in **earliest-deadline-first**
    /// order (ahead of deadline-less requests, FIFO among equal deadlines);
    /// a request whose deadline expires before a worker reaches it is
    /// dropped at batch formation and its ticket resolves as
    /// [`ServeError::Shed`].  Completions past the deadline still resolve
    /// normally but count in [`ServeStats::deadline_misses`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ShuttingDown`] once shutdown has begun, and
    /// [`ServeError::Shed`] when admission control
    /// ([`ServerBuilder::admission`]) predicts the deadline cannot be met at
    /// the current queue depth (a cached input needs no estimate and is never
    /// shed, see [`Server::submit`]).
    pub fn submit_with_deadline(&self, input: Tensor, deadline: Duration) -> Result<Ticket> {
        self.submit_opt(input, Some(deadline), true)
    }

    /// Submits one input without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::QueueFull`] if the queue is at capacity (unless
    /// the input is answered from the cache, see [`Server::submit`]) and
    /// [`ServeError::ShuttingDown`] once shutdown has begun.
    pub fn try_submit(&self, input: Tensor) -> Result<Ticket> {
        self.submit_opt(input, None, false)
    }

    /// Submits one input with a completion deadline, without blocking — the
    /// non-blocking sibling of [`Server::submit_with_deadline`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::QueueFull`] if the queue is at capacity,
    /// [`ServeError::ShuttingDown`] once shutdown has begun, and
    /// [`ServeError::Shed`] when admission control predicts a miss — the
    /// first and last never for a cached input, see [`Server::submit`].
    pub fn try_submit_with_deadline(&self, input: Tensor, deadline: Duration) -> Result<Ticket> {
        self.submit_opt(input, Some(deadline), false)
    }

    /// The one submission path: probe the exact-input cache on this thread;
    /// on a miss lock, ask the model, act on its answer.
    fn submit_opt(
        &self,
        input: Tensor,
        deadline: Option<Duration>,
        block_while_full: bool,
    ) -> Result<Ticket> {
        let shared = &*self.shared;
        // An absolute reading on the server's clock, taken at the submission
        // call: time spent blocked on backpressure consumes budget.
        let deadline_ns = deadline.map(|d| {
            let budget_ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
            shared.now_ns().saturating_add(budget_ns)
        });
        // The input is hashed once, here, where it is at hand anyway.  A hit
        // is counted under one stats lock and returns a ticket born resolved:
        // no queue slot, no admission estimate, no worker.  `ShuttingDown`
        // still wins; `state` is held for that check alone.
        let mut input_key = None;
        if shared.cache.is_some() {
            let start_ns = shared.now_ns();
            let key = shared.input_key(&input);
            input_key = Some(key);
            let hit = shared.probe(key);
            let now_ns = shared.now_ns();
            if let Some(obs) = shared.stage_obs() {
                obs.cache_lookup_ns.record(now_ns.saturating_sub(start_ns));
            }
            if let Some(served) = hit {
                if lock(&shared.state).is_shut_down() {
                    return Err(ServeError::ShuttingDown);
                }
                let mut stats = lock(&shared.stats);
                stats.counters.submitted += 1;
                stats.counters.completed += 1;
                stats.counters.cache_hits += 1;
                stats.counters.cache_hits_at_submit += 1;
                stats.counters.deadline_misses +=
                    u64::from(deadline_ns.is_some_and(|deadline| now_ns > deadline));
                stats.latency_ns.record(now_ns.saturating_sub(start_ns));
                drop(stats);
                let slot = TicketSlot::new(Some(Ok(served)));
                return Ok(Ticket { slot });
            }
        }
        let mut state = lock(&shared.state);
        let submitted_ns = loop {
            let now_ns = shared.now_ns();
            let ema_ns = shared
                .service_ema_ns
                .as_ref()
                .map_or(0, |ema| ema.load(Ordering::Relaxed));
            match state.admit(now_ns, ema_ns, deadline_ns) {
                Ok(()) => break now_ns,
                Err(ServeError::QueueFull) if block_while_full => {
                    state = sync::wait(&shared.not_full, state);
                }
                Err(refused) => {
                    if matches!(refused, ServeError::Shed(_)) {
                        lock(&shared.stats).counters.shed_admission += 1;
                    }
                    return Err(refused);
                }
            }
        };
        let slot = TicketSlot::new(None);
        let transition = state.push(
            deadline_ns,
            Request {
                input,
                flight: InFlight {
                    slot: slot.clone(),
                    submitted_ns,
                    deadline_ns,
                    input_key,
                },
            },
        );
        // One stats lock, taken under the state lock the edge was decided
        // under (see [`count_transition`]).
        let mut stats = lock(&shared.stats);
        stats.counters.submitted += 1;
        count_transition(&mut stats.counters, transition);
        drop(stats);
        drop(state);
        shared.not_empty.notify_one();
        Ok(Ticket { slot })
    }

    /// Number of requests currently queued (not yet picked up by a worker).
    pub fn pending(&self) -> usize {
        lock(&self.shared.state).len()
    }

    /// A point-in-time snapshot of the serving counters.
    pub fn stats(&self) -> ServeStats {
        // Copy the counters out under the lock; sort/percentile work happens
        // outside it so a polling monitor never stalls the workers.
        let copied = lock(&self.shared.stats).clone();
        copied.snapshot()
    }

    /// The full metrics plane as one JSON value: the [`ServeStats`] counters,
    /// the all-time latency histogram, the attached registry's snapshot (when
    /// [`ServerBuilder::instrument`] was used) and the most recent per-batch
    /// stage timelines.
    ///
    /// Latencies are exported in integer nanoseconds/microseconds — the
    /// workspace JSON dialect is integer-only, and nanoseconds are exact.
    pub fn metrics_json(&self) -> JsonValue {
        metrics_json_of(&self.shared)
    }

    /// The tier-1 screening engine.
    pub fn screen_engine(&self) -> &DetectionEngine {
        &self.shared.screen
    }

    /// Stops accepting submissions, drains every queued request, joins the
    /// workers, flushes the persistent cache (if configured) and returns the
    /// final counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        if self.workers.is_empty() {
            return; // already shut down (shutdown() ran; this is the Drop)
        }
        lock(&self.shared.state).shut_down();
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        self.shared.monitor_wake.notify_all();
        for worker in self.workers.drain(..) {
            // A panicked worker already resolved nothing further; the
            // remaining workers drain the queue, so don't propagate here.
            let _ = worker.join();
        }
        if let Some(monitor) = self.monitor.take() {
            let _ = monitor.join();
        }
        // Every worker is joined, so this final snapshot sees the complete
        // run — a post-mortem reader gets the closing state, not whatever the
        // last periodic tick happened to capture.
        if let Some(path) = &self.shared.snapshot_path {
            write_snapshot(&self.shared, path);
        }
        // With every worker joined the cache is quiescent: flush it to disk.
        // A failed write leaves the counter at 0 rather than failing shutdown.
        if let (Some(cache), Some(path)) = (&self.shared.cache, &self.shared.persist_path) {
            let written = cache::persist(
                path,
                &self.shared.cache_fingerprint,
                self.shared.prefix_segments,
                &lock(cache),
            );
            if let Ok(written) = written {
                lock(&self.shared.stats).counters.cache_entries_persisted = written as u64;
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Renders the metrics snapshot for [`Server::metrics_json`] and the periodic
/// snapshot thread.  Integer-only (the workspace JSON dialect): exact
/// nanoseconds where the source is exact, the counters as
/// [`ServeStats::into_json`] scales them.
fn metrics_json_of(shared: &Shared) -> JsonValue {
    let stats = lock(&shared.stats).clone();
    let mut fields = vec![
        ("stats".into(), stats.snapshot().into_json()),
        ("latency_ns".into(), stats.latency_ns.to_json()),
    ];
    if let Some(obs) = &shared.obs {
        fields.push(("registry".into(), obs.registry.snapshot()));
        let timelines = lock(&obs.timelines).iter().map(Timeline::to_json).collect();
        fields.push(("timelines".into(), JsonValue::Array(timelines)));
    }
    JsonValue::Object(fields)
}

/// Writes one metrics snapshot to `path` (atomically: temp file + rename, so
/// a reader never sees a torn snapshot).  Failures are swallowed — the
/// metrics plane must never take serving down.
fn write_snapshot(shared: &Shared, path: &std::path::Path) {
    let text = metrics_json_of(shared).to_json();
    let tmp = path.with_extension("tmp");
    if std::fs::write(&tmp, text).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

/// One worker: take whatever is queued (up to `max_batch`), screen it
/// **fused**, hand the tier-2 sliver to the worker's bounded overlap thread (so
/// escalation extraction of batch *k* runs concurrently with screening of
/// batch *k+1*), repeat until shutdown drains the queue.
fn worker_loop(shared: &Shared) {
    // The overlap thread is fed through a bounded rendezvous
    // (sync_channel(1)) so at most one tier-2 sliver waits
    // while one executes — tier-2 work can lag the screen by a batch, never
    // pile up unboundedly.  When the channel is full the sliver runs inline
    // (counted as a serial batch), which keeps the worker making progress even
    // when tier 2 is the bottleneck.
    #[expect(
        clippy::disallowed_methods,
        reason = "the serving runtime's long-lived service threads: each worker's escalator starts here"
    )]
    std::thread::scope(|scope| {
        let escalator = (!shared.escalate.is_empty()).then(|| {
            let (tx, rx) = std::sync::mpsc::sync_channel::<EscalationJob>(1);
            scope.spawn(move || {
                while let Ok(job) = rx.recv() {
                    // Busy only while a sliver executes: see the worker's claim.
                    let _busy = ThreadClaim::acquire();
                    run_escalations_caught(shared, job, true);
                }
            });
            tx
        });
        while let Some(formed) = next_batch(shared) {
            // While this worker holds a batch it occupies a core: the engines'
            // fork-joins count it, so a saturated server fans nothing out
            // while a lone busy worker still borrows the idle cores.
            let _busy = ThreadClaim::acquire();
            let flights = formed.requests.iter().map(|request| &request.flight);
            let slots: Vec<_> = flights.map(|flight| flight.slot.clone()).collect();
            let tx = escalator.as_ref();
            let inline = run_caught(shared, &slots, || screen_batch(shared, formed, tx));
            if let Some(job) = inline.flatten() {
                run_escalations_caught(shared, job, false);
            }
        }
        // Leaving the closure drops the sender, so the overlap thread drains
        // its last sliver and exits; the scope joins it before this worker
        // reports itself done.
    });
}

/// Counts a degraded-mode edge the model reported.  Callers still hold the
/// state lock the edge was decided under, so every snapshot of the two
/// counters reads `entered - exited` as 0 or 1.
fn count_transition(counters: &mut ServeStats, transition: Option<DegradeTransition>) {
    match transition {
        Some(DegradeTransition::Entered) => counters.degrade_entered += 1,
        Some(DegradeTransition::Exited) => counters.degrade_exited += 1,
        None => {}
    }
}

/// Feeds the per-request service-time EMA behind the admission estimate with
/// one timed pass over `requests` inputs.  Skipped without admission control,
/// and a zero per-request cost (manual clocks) leaves the EMA unseeded — so
/// admission stays inert in deterministic-clock tests.
fn observe_service(shared: &Shared, elapsed_ns: u64, requests: usize) {
    let Some(ema) = &shared.service_ema_ns else {
        return;
    };
    let per_request_ns = elapsed_ns.checked_div(requests as u64).unwrap_or(0);
    if per_request_ns == 0 {
        return;
    }
    let current = ema.load(Ordering::Relaxed);
    let next = if current == 0 {
        per_request_ns
    } else {
        current.saturating_mul(3).saturating_add(per_request_ns) / 4
    };
    ema.store(next, Ordering::Relaxed);
}

/// Runs one leg of a batch — its screen, or its tier-2 sliver.  If an engine
/// panics in it, the panic is counted and every ticket of `slots` still
/// unresolved resolves as canceled instead of stranding its waiter — counted
/// and resolved under one stats lock, so a waiter that wakes finds its own
/// failure in [`Server::stats`] — and the calling thread lives on for the
/// rest of the queue.
fn run_caught<T>(shared: &Shared, slots: &[Arc<TicketSlot>], leg: impl FnOnce() -> T) -> Option<T> {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(leg));
    if outcome.is_err() {
        let mut stats = lock(&shared.stats);
        stats.counters.worker_panics += 1;
        for slot in slots {
            let canceled = "a worker panicked while serving this request".into();
            let newly = resolve(slot, Err(ServeError::Canceled(canceled)));
            stats.counters.failed += u64::from(newly);
        }
    }
    outcome.ok()
}

/// Folds a stage's delta into the stats under one lock and only **then**
/// resolves its tickets: callers read [`Server::stats`] right after
/// [`Ticket::wait`] and must find their own request counted.  Returns the
/// number of batches cut so far, which names a batch whose first stage this
/// settles.
fn settle(shared: &Shared, answers: Answers) -> u64 {
    let batches = {
        let mut stats = lock(&shared.stats);
        stats.fold(&answers.delta);
        stats.counters.batches
    };
    for (slot, outcome) in answers.tickets {
        resolve(&slot, outcome);
    }
    batches
}

/// Writes `result` into the ticket slot unless it was already resolved, waking
/// the waiter.  Returns whether this call resolved the ticket.
fn resolve(slot: &TicketSlot, result: Result<Served>) -> bool {
    let mut guard = lock(&slot.result);
    if guard.is_some() {
        return false;
    }
    *guard = Some(result);
    drop(guard);
    slot.ready.notify_all();
    true
}

/// A batch cut by [`next_batch`]: the requests plus the clock readings the
/// instrumentation needs (when it is on) to account batch-forming time.
struct FormedBatch {
    requests: Vec<Request>,
    /// When the worker saw the non-empty queue it cut this batch from.
    form_start_ns: u64,
    /// When the batch was cut.  Nothing waits to be batched, so
    /// `cut_ns - form_start_ns` is the cost of the cut itself.
    cut_ns: u64,
    /// Whether degraded (screen-tier-only) mode was in effect at the cut —
    /// the whole batch routes in the mode it was cut under.
    degraded: bool,
}

/// Takes the next batch for a free worker: whatever is queued, up to the
/// model's `max_batch`, at once — the worker sleeps only on an empty queue.
/// Returns `None` when the queue is drained and the server is shutting down.
fn next_batch(shared: &Shared) -> Option<FormedBatch> {
    let mut state = lock(&shared.state);
    loop {
        let form_start_ns = shared.now_ns();
        match state.cut() {
            Next::Batch {
                items,
                degraded,
                transition,
            } => {
                if transition.is_some() {
                    count_transition(&mut lock(&shared.stats).counters, transition);
                }
                drop(state);
                shared.not_full.notify_all();
                return Some(FormedBatch {
                    requests: items,
                    form_start_ns,
                    cut_ns: shared.now_ns(),
                    degraded,
                });
            }
            Next::Sleep => state = sync::wait(&shared.not_empty, state),
            Next::Exit => return None,
        }
    }
}

/// The tier-2 sliver of one screened batch: the shard groups
/// [`stage::route_stage`] formed, and the batch's stage timeline, carried
/// through so the escalation passes (wherever they run) append their events
/// before it is retained.
struct EscalationJob {
    groups: Vec<EscalationGroup>,
    timeline: Option<Timeline>,
}

/// [`run_escalations`] under [`run_caught`]: every ticket of the sliver
/// resolves even if an engine panics mid-pass.
fn run_escalations_caught(shared: &Shared, job: EscalationJob, overlapped: bool) {
    let requests = job.groups.iter().flat_map(|group| &group.requests);
    let slots: Vec<_> = requests.map(|(flight, _)| flight.slot.clone()).collect();
    run_caught(shared, &slots, || run_escalations(shared, job, overlapped));
}

/// One fused tier-2 pass per shard group, each answered by
/// [`stage::escalated_stage`].  Grouping per shard changes only which fused
/// batch an input rides in, and the fused kernels preserve per-input
/// arithmetic — so the union of shard verdicts is bit-for-bit what the
/// unsharded escalation engine returns.  `overlapped`: the job runs on the
/// overlap thread, so its execution time also counts as that thread's
/// occupancy.
fn run_escalations(shared: &Shared, job: EscalationJob, overlapped: bool) {
    let mut timeline = job.timeline;
    let obs = shared.stage_obs();
    let job_start_ns = shared.now_ns();
    for group in job.groups {
        let stage = Stage::Escalate(group.shard as u32);
        // Timed unconditionally: the admission EMA charges escalated requests
        // their tier-2 cost whether or not a registry is attached.
        let start_ns = shared.now_ns();
        let verdicts = shared.escalate[group.shard].detect_batch_with_paths(&group.inputs);
        let end_ns = shared.now_ns();
        observe_service(shared, end_ns.saturating_sub(start_ns), verdicts.len());
        let mut cache = shared.cache.as_ref().map(lock);
        let answers = stage::escalated_stage(group, verdicts, end_ns, cache.as_deref_mut());
        drop(cache);
        settle(shared, answers);
        if let Some(obs) = obs {
            obs.stage(&mut timeline, stage, start_ns, end_ns);
        }
    }
    if let Some(obs) = obs {
        if overlapped {
            obs.stage(&mut timeline, Stage::Overlap, job_start_ns, shared.now_ns());
        }
        obs.retain_timeline(timeline);
    }
}

/// Serves one formed batch up to its tier-2 sliver, which it hands to the
/// overlap thread behind `escalator` — or returns, for the caller to run
/// inline, when the rendezvous is full:
///
/// 1. [`stage::probe_stage`]: expired requests are shed, and byte-identical
///    repeats whose verdict landed after `submit` probed resolve straight
///    from the cache, skipping even the screening extraction;
/// 2. one streamed fused tier-1 pass over the whole remainder
///    ([`DetectionEngine::detect_batch_on`] with whichever forward provider
///    [`ServerBuilder::start`] validated, the screen's f32 network or its
///    int8 view — a single batched forward pass whose paths are extracted
///    in-flight, stacked activations released eagerly instead of
///    materialising a trace);
/// 3. [`stage::route_stage`]: per-request path-prefix cache lookup and
///    uncertainty-band routing — each in-band request joins the group of the
///    escalation shard that owns its screened class.
///
/// Each stage's answers are settled ([`settle`]) before the next leg starts.
///
/// With the cache disabled the results are bit-for-bit what direct engine
/// calls produce: `screen.detect(input)` when the score is outside the
/// uncertainty band, `escalate.detect(input)` on the owning shard when inside
/// — the fused kernels preserve the per-input reduction order, so batching
/// (and sharding, and pipelining) changes scheduling, never arithmetic.  With
/// the int8 quantized screen on, the tier-1 reference is
/// `screen.detect_quantized(input)` instead (exactly deterministic, but a
/// *statistical* stand-in for f32 — see
/// [`ServerBuilder::quantized_screen`]); escalation still re-scores in f32.
fn screen_batch(
    shared: &Shared,
    formed: FormedBatch,
    escalator: Option<&SyncSender<EscalationJob>>,
) -> Option<EscalationJob> {
    let (form_start_ns, cut_ns) = (formed.form_start_ns, formed.cut_ns);
    // Per-batch stage timeline + queue-wait/batch-form histograms, only when
    // a registry is attached and enabled.
    let obs = shared.stage_obs();
    let earliest_ns = obs.map(|obs| {
        let submitted = formed.requests.iter().map(|r| r.flight.submitted_ns);
        for submitted_ns in submitted.clone() {
            obs.queue_wait_ns
                .record(cut_ns.saturating_sub(submitted_ns));
        }
        submitted.min().unwrap_or(form_start_ns)
    });

    let probe_ns = shared.now_ns();
    let probed = stage::probe_stage(formed.requests, probe_ns, |key| shared.probe(key));
    let shed = probed.answers.delta.shed_expired > 0;
    let batch_index = settle(shared, probed.answers);
    let mut timeline = earliest_ns.map(|earliest_ns| {
        let origin_ns = earliest_ns.min(form_start_ns);
        let mut timeline = Timeline::new(&format!("batch-{batch_index}"), origin_ns);
        timeline.record(Stage::QueueWait, earliest_ns, cut_ns);
        timeline
    });
    if let Some(obs) = obs {
        obs.stage(&mut timeline, Stage::BatchForm, form_start_ns, cut_ns);
        let probed_ns = shared.now_ns();
        if shed {
            obs.stage(&mut timeline, Stage::Shed, probe_ns, probed_ns);
        }
        if shared.cache.is_some() {
            obs.stage(&mut timeline, Stage::CacheLookup, probe_ns, probed_ns);
        }
    }
    let (pending, inputs) = (probed.pending, probed.inputs);
    if pending.is_empty() {
        if let Some(obs) = obs {
            obs.retain_timeline(timeline);
        }
        return None;
    }

    // One fused screening trace over everything the probe missed — the int8
    // quantized pass when the builder enabled it, f32 otherwise.  Timed
    // unconditionally: the admission EMA needs the per-request cost whether
    // or not a registry is attached.
    let screen_start_ns = shared.now_ns();
    let screened = match &shared.quantized {
        Some(qnet) => shared.screen.detect_batch_on(qnet.as_ref(), &inputs),
        None => shared.screen.detect_batch_with_paths(&inputs),
    };
    let screen_end_ns = shared.now_ns();
    let screen_ns = screen_end_ns.saturating_sub(screen_start_ns);
    observe_service(shared, screen_ns, inputs.len());
    let int8_screens = u64::from(shared.quantized.is_some()) * inputs.len() as u64;
    if let Some(obs) = obs {
        obs.stage(
            &mut timeline,
            obs.screen_stage,
            screen_start_ns,
            screen_end_ns,
        );
    }

    // Each LRU is held once for the whole batch, `input_keys` before `cache`,
    // and released before the fold.
    let routing = Routing {
        band: shared.band,
        owner_of: &shared.owner_of,
        shards: shared.escalate.len(),
        degraded: formed.degraded,
        path_key: &|path| shared.cache_key(path),
    };
    let mut input_keys = shared.input_keys.as_ref().map(lock);
    let mut cache = shared.cache.as_ref().map(lock);
    let caches = input_keys.as_deref_mut().zip(cache.as_deref_mut());
    let mut routed = stage::route_stage(pending, inputs, screened, screen_end_ns, &routing, caches);
    drop((input_keys, cache));

    // The sliver is offered to the overlap thread before the fold, so how the
    // hand-off went is counted with the batch; a refused one runs inline, but
    // only after this batch's own answers are out.
    let sliver = !routed.groups.is_empty();
    let job = sliver.then(|| EscalationJob {
        groups: routed.groups,
        timeline: timeline.take(),
    });
    let inline = match (job, escalator) {
        (Some(job), Some(tx)) => tx.try_send(job).err().map(|refused| match refused {
            TrySendError::Full(job) | TrySendError::Disconnected(job) => job,
        }),
        (job, _) => job,
    };
    let delta = &mut routed.answers.delta;
    delta.int8_screens = int8_screens;
    delta.serial_batches = u64::from(inline.is_some());
    delta.pipelined_batches = u64::from(sliver && inline.is_none());
    let degraded_served = delta.degraded_served > 0;
    settle(shared, routed.answers);
    if let Some(obs) = obs {
        if degraded_served {
            obs.stage(
                &mut timeline,
                Stage::Degraded,
                screen_end_ns,
                shared.now_ns(),
            );
        }
        obs.retain_timeline(timeline);
    }
    inline
}

/// Builder for [`Server`]; all validation happens in [`ServerBuilder::start`].
#[derive(Debug)]
pub struct ServerBuilder {
    screen: Arc<DetectionEngine>,
    quantized: Option<Arc<QuantizedNetwork>>,
    escalate: Vec<Arc<DetectionEngine>>,
    band: (f32, f32),
    workers: usize,
    queue_capacity: usize,
    max_batch: usize,
    admission: Option<AdmissionPolicy>,
    degrade: Option<DegradePolicy>,
    cache: Option<CacheConfig>,
    /// `escalate`/`escalate_sharded` was called: an empty engine list must
    /// then fail loudly instead of silently serving tier-1 only.
    tiering_requested: bool,
    registry: Option<Arc<Registry>>,
    snapshot: Option<(PathBuf, Duration)>,
}

impl ServerBuilder {
    /// Adds a tier-2 escalation engine: inputs whose screening score lands in
    /// the closed uncertainty band `[low, high]` are re-scored by `engine`.
    ///
    /// The screening engine decides cheaply on confident scores; only the
    /// uncertain sliver pays for the expensive engine — the standard tiered
    /// pattern for suspicious-minority workloads.
    pub fn escalate(
        mut self,
        engine: impl Into<Arc<DetectionEngine>>,
        low: f32,
        high: f32,
    ) -> Self {
        self.escalate = vec![engine.into()];
        self.band = (low, high);
        self.tiering_requested = true;
        self
    }

    /// Adds a **sharded** tier-2: `shards` are escalation engines built from
    /// [`ptolemy_core::ClassPathSet::shard`] partitions of one canary set, and
    /// each in-band input is re-scored by the shard owning its screened class.
    /// A many-class model's canary memory and tier-2 extraction work split
    /// across the shards, while the union of shard verdicts stays bit-for-bit
    /// identical to the unsharded escalation engine.
    ///
    /// [`ServerBuilder::start`] validates the pairing via
    /// [`ptolemy_core::DetectionEngine::fingerprint`]: every shard must bind
    /// the same escalation program, share one decision threshold and one
    /// classifier-equipped configuration, serve the *same network instance* as
    /// the screening engine (class routing relies on both tiers predicting the
    /// identical class), and together the shards must own every class exactly
    /// once.
    ///
    /// # Example
    ///
    /// Shard engines reuse the complete escalation engine's fitted forest and
    /// threshold — parity requires the identical classifier:
    ///
    /// ```
    /// use std::sync::Arc;
    /// use ptolemy_core::{variants, DetectionEngine, Profiler};
    /// use ptolemy_nn::{zoo, Network, TrainConfig, Trainer};
    /// use ptolemy_serve::Server;
    /// use ptolemy_tensor::{Rng64, Tensor};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut rng = Rng64::new(0);
    /// let mut net = zoo::mlp_net(&[8], 2, &mut rng)?;
    /// let samples: Vec<(Tensor, usize)> = (0..20)
    ///     .map(|i| (Tensor::full(&[8], (i % 2) as f32), i % 2))
    ///     .collect();
    /// Trainer::new(TrainConfig::default()).fit(&mut net, &samples)?;
    /// let network = Arc::new(net); // ONE instance shared by every tier
    /// let inputs: Vec<Tensor> = samples.iter().map(|(x, _)| x.clone()).collect();
    ///
    /// let build = |program: ptolemy_core::DetectionProgram| {
    ///     let paths = Profiler::new(program.clone()).profile(&network, &samples)?;
    ///     DetectionEngine::builder(network.clone(), program, paths)
    ///         .calibrate(&inputs[..8], &inputs[8..16])
    ///         .build()
    /// };
    /// let screen = build(variants::fw_ab(&network, 0.05)?)?;
    /// let full = build(variants::bw_cu(&network, 0.5)?)?;
    ///
    /// // Partition the complete canary set across two shard engines.
    /// let shards = full
    ///     .class_paths()
    ///     .shard(2)?
    ///     .into_iter()
    ///     .map(|shard_paths| {
    ///         Ok(Arc::new(
    ///             DetectionEngine::builder(network.clone(), full.program().clone(), shard_paths)
    ///                 .forest(full.forest().expect("calibrated").clone())
    ///                 .threshold(full.threshold())
    ///                 .build()?,
    ///         ))
    ///     })
    ///     .collect::<Result<Vec<_>, ptolemy_core::CoreError>>()?;
    ///
    /// let server = Server::builder(screen)
    ///     .escalate_sharded(shards, 0.25, 0.75)
    ///     .workers(2)
    ///     .start()?;
    /// let served = server.submit(inputs[0].clone())?.wait()?;
    /// assert!((0.0..=1.0).contains(&served.detection.score));
    /// let stats = server.shutdown();
    /// assert_eq!(stats.shard_escalations.len(), 2);
    /// # Ok(())
    /// # }
    /// ```
    pub fn escalate_sharded(
        mut self,
        shards: Vec<Arc<DetectionEngine>>,
        low: f32,
        high: f32,
    ) -> Self {
        self.escalate = shards;
        self.band = (low, high);
        self.tiering_requested = true;
        self
    }

    /// Runs the tier-1 screening pass on the **int8 quantized** inference
    /// path: one fused blocked-i8-GEMM forward per batch
    /// ([`ptolemy_core::DetectionEngine::detect_batch_on`] with the int8
    /// provider) instead of the f32 kernels.  `calibration` is the
    /// [`QuantizedNetwork`] calibrated from the screening engine's own
    /// network — typically `screen.quantized_network()` when the engine was
    /// built with `DetectionEngineBuilder::quantized`, or a
    /// `QuantizedNetwork::quantize` result over the same `Arc<Network>`.
    ///
    /// # Contract: statistical, not bit parity
    ///
    /// Every other serving mode is pinned bit-for-bit to direct engine calls.
    /// The quantized screen is the one deliberate exception: int8 rounding
    /// perturbs activations, so screened verdicts are a *statistical* proxy
    /// for f32 — the `quantized_serve` bench experiment gates the verdict
    /// agreement rate.  What is still guaranteed:
    ///
    /// * **Determinism** — i32 accumulation is exact, so serving a given
    ///   input always yields the identical verdict, across runs, batch
    ///   shapes and thread counts (served verdicts equal
    ///   `screen.detect_quantized(input)` bit-for-bit when nothing
    ///   escalates).
    /// * **f32 escalation** — in-band inputs re-score on the f32 escalation
    ///   tier, so uncertain verdicts are never decided by the quantized
    ///   approximation.
    /// * **No cache aliasing** — cache keys (and persisted cache files) are
    ///   seeded with an `+int8`-suffixed fingerprint, so int8 and f32
    ///   verdicts never answer for each other.
    ///
    /// [`ServerBuilder::start`] rejects a `calibration` network that was not
    /// calibrated from the screening engine's network instance with
    /// [`ServeError::TierMismatch`].
    pub fn quantized_screen(mut self, calibration: impl Into<Arc<QuantizedNetwork>>) -> Self {
        self.quantized = Some(calibration.into());
        self
    }

    /// Sets the number of worker threads (default 2).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the submission-queue capacity (default 256).  [`Server::submit`]
    /// blocks and [`Server::try_submit`] errors while the queue is full.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Enables deadline admission control (disabled by default).  With a
    /// policy set, [`Server::submit_with_deadline`] estimates the request's
    /// completion time from the queue depth and a service-time EMA, and sheds
    /// the submission with [`ServeError::Shed`] when the estimate overshoots
    /// the deadline.  Submissions without a deadline are never shed, so plain
    /// [`Server::submit`] traffic is unaffected.
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = Some(policy);
        self
    }

    /// Enables mixed-criticality degradation (disabled by default).  While
    /// the queue depth sits at or above the policy's high watermark, in-band
    /// requests take the tier-1 screening verdict instead of escalating
    /// (flagged via [`Served::degraded`], never cached); the server recovers
    /// once the queue drains to the low watermark.  See [`DegradePolicy`].
    pub fn degradation(mut self, policy: DegradePolicy) -> Self {
        self.degrade = Some(policy);
        self
    }

    /// Sets the most requests one batch takes (default 8).  The cut is
    /// work-conserving: a free worker takes `min(queued, max_batch)` at once
    /// and sleeps only on an empty queue, and each batch executes **fused**
    /// (one batched forward pass), so batches grow exactly when every worker
    /// is busy and requests accumulate behind them.
    ///
    /// The default is measured, not modelled — on the e2e benchmark's
    /// `serve_closed_f32` workload (AlexNet-class net, 2 workers, 32 requests
    /// in flight, cache off; 8 s runs, 4 alternating pairs) a cap of 8 reads
    /// 26.6–28.7k rps at p50 1.11–1.17 ms, while a cap of 32 loses every
    /// pair (20.6–21.3k rps, p50 1.53–1.61 ms); `serve_steady_zipf` and
    /// `serve_burst_scan` do not move with it.  See `docs/ARCHITECTURE.md`.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Enables the path-prefix result cache (disabled by default; disabled
    /// serving is bit-for-bit identical to direct engine calls).
    pub fn cache(mut self, config: CacheConfig) -> Self {
        self.cache = Some(config);
        self
    }

    /// Attaches a [`ptolemy_obs::Registry`]: the server records per-stage
    /// latency histograms (queue wait, batch forming, cache lookup, screen,
    /// per-shard escalation, overlap-thread occupancy) and retains the most
    /// recent per-batch stage [`Timeline`]s for [`Server::metrics_json`].
    ///
    /// All of it is gated on [`Registry::enabled`] — attached-but-disabled
    /// serving costs one relaxed atomic load per stage and records no stage
    /// sample (`disabled_registry_gates_stage_instrumentation_but_not_stats`),
    /// and no registry mode changes a verdict
    /// (`uninstrumented_and_gated_servers_agree_with_instrumented_verdicts`).
    /// The server also times queue-to-result latency on the registry's
    /// clock, so a [`ptolemy_obs::Clock::manual`] registry makes every serve
    /// timing deterministic under test.
    pub fn instrument(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Writes the [`Server::metrics_json`] snapshot to `path` every
    /// `interval` (atomic temp-file + rename), plus one final snapshot at
    /// shutdown after the workers drain.  The monitor thread is joined by
    /// [`Server::shutdown`]/`Drop`.
    pub fn snapshot_to(mut self, path: impl Into<PathBuf>, interval: Duration) -> Self {
        self.snapshot = Some((path.into(), interval));
        self
    }

    /// Validates the configuration and tier pairing, loads the persisted
    /// result cache (if configured and written by an identical engine), spawns
    /// the workers and returns the running server.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::TierMismatch`] if the tier engines cannot serve
    /// together (the typed rejection carries both build-time fingerprints) and
    /// [`ServeError::InvalidConfig`] for bad knobs.  Sharded escalation
    /// additionally requires every shard to bind the same program fingerprint,
    /// threshold and network instance as its peers (and the network instance
    /// of the screening tier), and the shards to own every class exactly once.
    pub fn start(self) -> Result<Server> {
        if self.workers == 0 {
            return Err(ServeError::InvalidConfig(
                "a server needs at least one worker".into(),
            ));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig(
                "queue capacity must be at least 1".into(),
            ));
        }
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig(
                "max_batch must be at least 1".into(),
            ));
        }
        if let Some(degrade) = &self.degrade {
            degrade.validate().map_err(ServeError::InvalidConfig)?;
        }
        if let Some((_, interval)) = &self.snapshot {
            if interval.is_zero() {
                return Err(ServeError::InvalidConfig(
                    "metrics snapshot interval must be non-zero".into(),
                ));
            }
        }
        if let Some(cache) = &self.cache {
            if cache.capacity == 0 {
                return Err(ServeError::InvalidConfig(
                    "cache capacity must be at least 1".into(),
                ));
            }
            if cache.prefix_segments == 0 {
                return Err(ServeError::InvalidConfig(
                    "cache prefix must cover at least one path segment".into(),
                ));
            }
        }
        let mismatch = |escalate: &DetectionEngine, reason: String| ServeError::TierMismatch {
            screen: self.screen.fingerprint().to_string(),
            escalate: escalate.fingerprint().to_string(),
            reason,
        };
        if self.screen.forest().is_none() {
            return Err(ServeError::InvalidConfig(
                "the screening engine has no classifier (build it with .calibrate(..) or \
                 .forest(..))"
                    .into(),
            ));
        }
        if self.tiering_requested && self.escalate.is_empty() {
            return Err(ServeError::InvalidConfig(
                "escalate_sharded requires at least one escalation shard".into(),
            ));
        }
        if let Some(qnet) = &self.quantized {
            // The quantized screen scores against the screen engine's canary
            // paths; a qnet calibrated from any other network instance would
            // be comparing apples to oranges.  Same ptr-eq discipline as the
            // sharded-escalation network check below.
            if !std::ptr::eq(qnet.network().as_ref(), self.screen.network()) {
                return Err(ServeError::TierMismatch {
                    screen: self.screen.fingerprint().to_string(),
                    escalate: "int8 quantized screen".into(),
                    reason: "the quantized screen network was calibrated from a different \
                             network instance than the screening engine serves"
                        .into(),
                });
            }
        }
        let screen_classes = self.screen.class_paths().num_classes();
        let mut owner_of: Vec<usize> = Vec::new();
        if !self.escalate.is_empty() {
            if !self.band.0.is_finite()
                || !self.band.1.is_finite()
                || self.band.0 > self.band.1
                || self.band.0 < 0.0
                || self.band.1 > 1.0
            {
                return Err(ServeError::InvalidConfig(format!(
                    "escalation band [{}, {}] must satisfy 0 <= low <= high <= 1",
                    self.band.0, self.band.1
                )));
            }
            for escalate in &self.escalate {
                if escalate.forest().is_none() {
                    return Err(mismatch(
                        escalate,
                        "the escalation engine has no classifier".into(),
                    ));
                }
                let escalate_classes = escalate.class_paths().num_classes();
                if screen_classes != escalate_classes {
                    return Err(mismatch(
                        escalate,
                        format!(
                            "tier class counts differ ({screen_classes} vs {escalate_classes}); \
                             the tiers were profiled on different tasks"
                        ),
                    ));
                }
            }
            // Sharded escalation pins stronger invariants: routing by the
            // *screened* class is only correct when every tier runs the same
            // network instance (so both tiers predict the identical class),
            // and bit-for-bit parity with the unsharded engine needs one
            // program and one decision threshold across the shards.
            let sharded =
                self.escalate.len() > 1 || self.escalate[0].class_paths().shard_classes().is_some();
            if sharded {
                let first = &self.escalate[0];
                for shard in &self.escalate {
                    if shard.fingerprint() != first.fingerprint() {
                        return Err(mismatch(
                            shard,
                            format!(
                                "escalation shards bind different programs ('{}' vs '{}')",
                                first.fingerprint(),
                                shard.fingerprint()
                            ),
                        ));
                    }
                    if shard.threshold().to_bits() != first.threshold().to_bits() {
                        return Err(mismatch(
                            shard,
                            format!(
                                "escalation shards bind different decision thresholds ({} vs {})",
                                first.threshold(),
                                shard.threshold()
                            ),
                        ));
                    }
                    if !std::ptr::eq(self.screen.network(), shard.network()) {
                        return Err(mismatch(
                            shard,
                            "sharded escalation requires every tier to serve the same \
                             network instance (class routing relies on both tiers \
                             predicting the identical class)"
                                .into(),
                        ));
                    }
                }
            }
            // Every class must be owned by exactly one shard (an unsharded
            // single engine owns them all).
            owner_of = vec![usize::MAX; screen_classes];
            for (index, shard) in self.escalate.iter().enumerate() {
                for class in shard.class_paths().owned_classes() {
                    if class >= screen_classes || owner_of[class] != usize::MAX {
                        return Err(mismatch(
                            shard,
                            format!("class {class} is claimed by more than one escalation shard"),
                        ));
                    }
                    owner_of[class] = index;
                }
            }
            if let Some(unowned) = owner_of.iter().position(|&owner| owner == usize::MAX) {
                return Err(mismatch(
                    &self.escalate[0],
                    format!("class {unowned} is owned by no escalation shard"),
                ));
            }
        }

        // Int8 and f32 screening produce different paths and verdicts for the
        // same input, so both the in-memory key seed and the persisted-cache
        // identity carry the mode: a cache written under one mode is never
        // consulted under the other.
        let cache_fingerprint = if self.quantized.is_some() {
            format!("{}+int8", self.screen.fingerprint())
        } else {
            self.screen.fingerprint().to_string()
        };
        let cache_seed = fnv1a(cache_fingerprint.as_bytes());
        // Build the result cache, reloading a persisted file only when it was
        // written under this screening engine's fingerprint (mode-suffixed)
        // and prefix depth.
        let mut stats = StatsInner::default();
        stats.counters.shard_escalations = vec![0; self.escalate.len()];
        let (cache, input_keys, prefix_segments, persist_path) = match &self.cache {
            None => (None, None, 0, None),
            Some(config) => {
                let mut cache = LruCache::new(config.capacity);
                if let Some(path) = &config.persist_path {
                    match cache::load_persisted(path, &cache_fingerprint, config.prefix_segments) {
                        CacheLoad::Missing => {}
                        CacheLoad::Rejected => stats.counters.cache_load_rejected = 1,
                        CacheLoad::Loaded(entries) => {
                            // Entries are most-recently-used first; insert in
                            // reverse so the restored cache replays the saved
                            // recency (and eviction) order.
                            for (key, verdict) in entries.into_iter().rev() {
                                cache.insert(key, verdict);
                            }
                            stats.counters.cache_entries_loaded = cache.len() as u64;
                        }
                    }
                }
                (
                    Some(Mutex::new(cache)),
                    Some(Mutex::new(LruCache::new(config.capacity))),
                    config.prefix_segments,
                    config.persist_path.clone(),
                )
            }
        };
        let shards = self.escalate.len();
        let int8_screen = self.quantized.is_some();
        let obs = self
            .registry
            .map(|registry| ServeObs::attach(registry, shards, int8_screen));
        let (snapshot_path, snapshot_interval) = match self.snapshot {
            Some((path, interval)) => (Some(path), Some(interval)),
            None => (None, None),
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueModel::new(
                self.queue_capacity,
                self.workers,
                self.max_batch,
                self.admission,
                self.degrade,
            )),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            monitor_wake: Condvar::new(),
            screen: self.screen,
            quantized: self.quantized,
            escalate: self.escalate,
            owner_of,
            band: self.band,
            service_ema_ns: self.admission.map(|_| AtomicU64::new(0)),
            cache,
            input_keys,
            cache_seed,
            cache_fingerprint,
            prefix_segments,
            persist_path,
            stats: Mutex::new(stats),
            obs,
            fallback_clock: Clock::monotonic(),
            snapshot_path,
        });
        #[expect(
            clippy::disallowed_methods,
            reason = "the serving runtime's long-lived service threads: the workers start here"
        )]
        let workers = (0..self.workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("ptolemy-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(|e| ServeError::InvalidConfig(format!("failed to spawn worker: {e}")))
            })
            .collect::<Result<Vec<_>>>()?;
        #[expect(
            clippy::disallowed_methods,
            reason = "the serving runtime's long-lived service threads: the metrics monitor starts here"
        )]
        let monitor = match snapshot_interval {
            Some(interval) => {
                let shared = shared.clone();
                Some(
                    std::thread::Builder::new()
                        .name("ptolemy-serve-metrics".into())
                        .spawn(move || monitor_loop(&shared, interval))
                        .map_err(|e| {
                            ServeError::InvalidConfig(format!(
                                "failed to spawn metrics monitor: {e}"
                            ))
                        })?,
                )
            }
            None => None,
        };
        Ok(Server {
            shared,
            workers,
            monitor,
        })
    }
}

/// The periodic metrics-snapshot thread: writes [`Server::metrics_json`] to
/// the configured path every `interval` until shutdown.  Waits on its own
/// `monitor_wake` condvar (never the workers' `not_empty`, whose
/// `notify_one` wake-ups must reach a worker), so timeouts re-check the
/// deadline and the shutdown broadcast ends the loop promptly.
fn monitor_loop(shared: &Shared, interval: Duration) {
    let Some(path) = shared.snapshot_path.as_deref() else {
        return;
    };
    let interval_ns = u64::try_from(interval.as_nanos()).unwrap_or(u64::MAX);
    let mut deadline_ns = shared.now_ns().saturating_add(interval_ns);
    let mut state = lock(&shared.state);
    loop {
        if state.is_shut_down() {
            return; // stop_and_join writes the final snapshot after the join
        }
        let now_ns = shared.now_ns();
        if now_ns >= deadline_ns {
            drop(state);
            write_snapshot(shared, path);
            deadline_ns = shared.now_ns().saturating_add(interval_ns);
            state = lock(&shared.state);
            continue;
        }
        let (guard, _timeout) = sync::wait_timeout(
            &shared.monitor_wake,
            state,
            Duration::from_nanos(deadline_ns - now_ns),
        );
        state = guard;
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_u64(FNV_OFFSET, bytes.iter().map(|b| u64::from(*b)))
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests use unbounded channels to plug a worker and read the wall clock to bound a poll"
)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    use ptolemy_core::{variants, DetectionEngineBuilder, Profiler};
    use ptolemy_nn::layer::{Dense, ReLU};
    use ptolemy_nn::{zoo, Decompositions, Layer, LayerKind, Network, Saved};
    use ptolemy_nn::{TrainConfig, Trainer};
    use ptolemy_tensor::Rng64;

    /// A trained 2-class MLP with benign/adversarial calibration inputs (the
    /// same synthetic setup the core engine tests use).
    struct Fixture {
        network: Arc<ptolemy_nn::Network>,
        samples: Vec<(Tensor, usize)>,
        benign: Vec<Tensor>,
        adversarial: Vec<Tensor>,
    }

    fn fixture(classes: usize) -> Fixture {
        fixture_on(classes, |dims, rng| {
            zoo::mlp_net(&[dims], classes, rng).unwrap()
        })
    }

    /// [`fixture`] on a network whose first layer is a [`HookedLayer`]: every
    /// forward pass — single or fused, with or without interiors — runs `hook`
    /// first.  Same architecture as `zoo::mlp_net`, trained through the
    /// wrapper.
    fn hooked_fixture(classes: usize, hook: Hook) -> Fixture {
        fixture_on(classes, |dims, rng| {
            let first = Box::new(Dense::new(dims, 64, rng).unwrap());
            let layers: Vec<Box<dyn Layer>> = vec![
                Box::new(HookedLayer { inner: first, hook }),
                Box::new(ReLU::new(&[64])),
                Box::new(Dense::new(64, 32, rng).unwrap()),
                Box::new(ReLU::new(&[32])),
                Box::new(Dense::new(32, classes, rng).unwrap()),
            ];
            Network::new(layers).unwrap()
        })
    }

    fn fixture_on(classes: usize, build: impl FnOnce(usize, &mut Rng64) -> Network) -> Fixture {
        let dims = 8;
        let mut rng = Rng64::new(23 + classes as u64);
        let prototypes: Vec<Vec<f32>> = (0..classes)
            .map(|c| {
                (0..dims)
                    .map(|d| if d % classes == c { 1.0 } else { 0.0 })
                    .collect()
            })
            .collect();
        let mut samples = Vec::new();
        for (class, prototype) in prototypes.iter().enumerate() {
            for _ in 0..25 {
                let data: Vec<f32> = prototype.iter().map(|v| v + 0.08 * rng.normal()).collect();
                samples.push((Tensor::from_vec(data, &[dims]).unwrap(), class));
            }
        }
        let mut net = build(dims, &mut rng);
        Trainer::new(TrainConfig {
            epochs: 25,
            ..TrainConfig::default()
        })
        .fit(&mut net, &samples)
        .unwrap();

        let benign: Vec<Tensor> = samples.iter().take(20).map(|(x, _)| x.clone()).collect();
        let mut adversarial = Vec::new();
        for (x, y) in samples.iter().take(20) {
            let other = (*y + 1) % classes;
            let data: Vec<f32> = x
                .as_slice()
                .iter()
                .zip(&prototypes[other])
                .map(|(a, b)| a + 1.2 * b)
                .collect();
            adversarial.push(Tensor::from_vec(data, &[dims]).unwrap());
        }
        Fixture {
            network: Arc::new(net),
            samples,
            benign,
            adversarial,
        }
    }

    type Hook = Arc<dyn Fn() + Send + Sync>;

    /// The fault-injection point of these tests, outside the server: a
    /// [`Layer`] that delegates every method to the layer it wraps and runs
    /// `hook` before each of its two forward kernels (`forward` is the
    /// provided batch of one over `forward_batch`).  Unsharded
    /// `escalate` does not require the tiers to share a network instance, so
    /// a hooked network can sit in tier 2 alone.
    struct HookedLayer {
        inner: Box<dyn Layer>,
        hook: Hook,
    }

    impl Layer for HookedLayer {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn output_shape(&self) -> Vec<usize> {
            self.inner.output_shape()
        }
        fn input_shape(&self) -> Vec<usize> {
            self.inner.input_shape()
        }
        fn forward_batch(&self, batch: &Tensor) -> ptolemy_nn::Result<Tensor> {
            (self.hook)();
            self.inner.forward_batch(batch)
        }
        fn forward_batch_interior(
            &self,
            batch: &Tensor,
        ) -> ptolemy_nn::Result<(Tensor, Option<Tensor>)> {
            (self.hook)();
            self.inner.forward_batch_interior(batch)
        }
        fn backward_batch(
            &self,
            saved: Saved<'_>,
            grad_output: &Tensor,
            param_grads: Option<&mut [Tensor]>,
            want_input: bool,
        ) -> ptolemy_nn::Result<Option<Tensor>> {
            self.inner
                .backward_batch(saved, grad_output, param_grads, want_input)
        }
        fn params(&self) -> Vec<&Tensor> {
            self.inner.params()
        }
        fn params_mut(&mut self) -> Vec<&mut Tensor> {
            self.inner.params_mut()
        }
        fn contributions_many(
            &self,
            input: &Tensor,
            interior: Option<&Tensor>,
            out_idxs: &[usize],
            out: &mut Decompositions,
        ) -> ptolemy_nn::Result<()> {
            self.inner
                .contributions_many(input, interior, out_idxs, out)
        }
        fn static_routing(
            &self,
            out_idxs: &[usize],
            out: &mut Decompositions,
        ) -> ptolemy_nn::Result<bool> {
            self.inner.static_routing(out_idxs, out)
        }
        fn kind(&self) -> LayerKind {
            self.inner.kind()
        }
        fn output_len(&self) -> usize {
            self.inner.output_len()
        }
        fn input_len(&self) -> usize {
            self.inner.input_len()
        }
        fn interior_len(&self) -> usize {
            self.inner.interior_len()
        }
    }

    /// A one-shot fault a test arms and the next hooked forward pass runs —
    /// a panic, or a block on a channel — consuming it.
    #[derive(Default)]
    struct Fault(Mutex<Option<Box<dyn FnOnce() + Send>>>);

    impl Fault {
        fn arm(&self, fault: impl FnOnce() + Send + 'static) {
            *lock(&self.0) = Some(Box::new(fault));
        }

        /// The hook a [`hooked_fixture`] network runs: nothing unless armed.
        fn hook(self: &Arc<Self>) -> Hook {
            let this = self.clone();
            Arc::new(move || {
                let armed = lock(&this.0).take();
                if let Some(fault) = armed {
                    fault();
                }
            })
        }
    }

    fn engine(fx: &Fixture, program: ptolemy_core::DetectionProgram) -> DetectionEngineBuilder {
        let class_paths = Profiler::new(program.clone())
            .profile(&fx.network, &fx.samples)
            .unwrap();
        DetectionEngine::builder(fx.network.clone(), program, class_paths)
            .calibrate(&fx.benign, &fx.adversarial)
    }

    /// Asserts that no thread claim outlives the servers that took it.  The
    /// claim count is process-wide and other tests' workers claim themselves
    /// while they hold a batch, so this waits for a quiet instant: live
    /// servers release their claims between batches, a leaked claim never
    /// goes away.
    fn assert_thread_claims_drain() {
        let clock = Clock::monotonic();
        let give_up_ns = clock.now_ns() + 60_000_000_000;
        while ptolemy_tensor::parallel::claimed_threads() != 0 {
            assert!(
                clock.now_ns() < give_up_ns,
                "a thread claim leaked: {} still held",
                ptolemy_tensor::parallel::claimed_threads()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn tiered(fx: &Fixture) -> (Arc<DetectionEngine>, Arc<DetectionEngine>) {
        let screen = engine(fx, variants::fw_ab(&fx.network, 0.3).unwrap())
            .build()
            .unwrap();
        let expensive = engine(fx, variants::bw_cu(&fx.network, 0.5).unwrap())
            .build()
            .unwrap();
        (Arc::new(screen), Arc::new(expensive))
    }

    #[test]
    fn served_verdicts_match_direct_detection_without_cache() {
        let fx = fixture(2);
        let (screen, expensive) = tiered(&fx);
        let server = Server::builder(screen.clone())
            .escalate(expensive.clone(), 0.25, 0.75)
            .workers(3)
            .start()
            .unwrap();

        let inputs: Vec<Tensor> = fx.benign.iter().chain(&fx.adversarial).cloned().collect();
        let tickets: Vec<Ticket> = inputs
            .iter()
            .map(|x| server.submit(x.clone()).unwrap())
            .collect();
        for (input, ticket) in inputs.iter().zip(tickets) {
            let served = ticket.wait().unwrap();
            assert!(!served.cache_hit);
            // Routing is decided by the screen score; the verdict must be
            // bit-for-bit what the routed engine returns directly.
            let screen_score = screen.detect(input).unwrap().score;
            let expected_tier = if (0.25..=0.75).contains(&screen_score) {
                Tier::Escalated
            } else {
                Tier::Screen
            };
            assert_eq!(served.tier, expected_tier);
            let direct = match served.tier {
                Tier::Screen => screen.detect(input).unwrap(),
                Tier::Escalated => expensive.detect(input).unwrap(),
            };
            assert_eq!(served.detection, direct);
            assert_eq!(served.detection.score.to_bits(), direct.score.to_bits());
            assert_eq!(
                served.detection.similarity.to_bits(),
                direct.similarity.to_bits()
            );
        }

        let stats = server.shutdown();
        assert_eq!(stats.submitted, inputs.len() as u64);
        assert_eq!(stats.completed, inputs.len() as u64);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.screen_served + stats.escalated, inputs.len() as u64);
        assert_eq!(stats.cache_hits + stats.cache_misses, 0);
        assert!(stats.batches > 0);
        assert!(stats.p99_latency_ms >= stats.p50_latency_ms);
        // Workers and escalators gave their cores back.
        assert_thread_claims_drain();
    }

    #[test]
    fn quantized_screen_serves_bit_identical_int8_verdicts() {
        let fx = fixture(2);
        let screen = Arc::new(
            engine(&fx, variants::fw_ab(&fx.network, 0.3).unwrap())
                .quantized(&fx.benign)
                .build()
                .unwrap(),
        );
        let qnet = screen.quantized_network().unwrap().clone();
        let server = Server::builder(screen.clone())
            .quantized_screen(qnet)
            .workers(2)
            .start()
            .unwrap();

        let inputs: Vec<Tensor> = fx.benign.iter().chain(&fx.adversarial).cloned().collect();
        let tickets: Vec<Ticket> = inputs
            .iter()
            .map(|x| server.submit(x.clone()).unwrap())
            .collect();
        for (input, ticket) in inputs.iter().zip(tickets) {
            let served = ticket.wait().unwrap();
            assert!(!served.cache_hit);
            // No escalation tier: every verdict is the direct int8 one,
            // bit for bit (the int8 pass is exactly deterministic).
            assert_eq!(served.tier, Tier::Screen);
            let direct = screen.detect_quantized(input).unwrap();
            assert_eq!(served.detection, direct);
            assert_eq!(served.detection.score.to_bits(), direct.score.to_bits());
            assert_eq!(
                served.detection.similarity.to_bits(),
                direct.similarity.to_bits()
            );
        }

        let stats = server.shutdown();
        assert_eq!(stats.completed, inputs.len() as u64);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.screen_served, inputs.len() as u64);
        // Every freshly-screened request went through the int8 path.
        assert_eq!(stats.int8_screens, inputs.len() as u64);
    }

    #[test]
    fn quantized_screen_escalations_rescore_in_f32() {
        let fx = fixture(2);
        let screen = Arc::new(
            engine(&fx, variants::fw_ab(&fx.network, 0.3).unwrap())
                .quantized(&fx.benign)
                .build()
                .unwrap(),
        );
        let expensive = Arc::new(
            engine(&fx, variants::bw_cu(&fx.network, 0.5).unwrap())
                .build()
                .unwrap(),
        );
        let qnet = screen.quantized_network().unwrap().clone();
        let server = Server::builder(screen.clone())
            .quantized_screen(qnet)
            .escalate(expensive.clone(), 0.25, 0.75)
            .workers(2)
            .start()
            .unwrap();

        let inputs: Vec<Tensor> = fx.benign.iter().chain(&fx.adversarial).cloned().collect();
        let tickets: Vec<Ticket> = inputs
            .iter()
            .map(|x| server.submit(x.clone()).unwrap())
            .collect();
        let mut escalated = 0u64;
        for (input, ticket) in inputs.iter().zip(tickets) {
            let served = ticket.wait().unwrap();
            // Routing is decided by the *int8* screen score; escalated
            // requests are re-scored by the f32 tier-2 engine.
            let screen_score = screen.detect_quantized(input).unwrap().score;
            let expected_tier = if (0.25..=0.75).contains(&screen_score) {
                Tier::Escalated
            } else {
                Tier::Screen
            };
            assert_eq!(served.tier, expected_tier);
            let direct = match served.tier {
                Tier::Screen => screen.detect_quantized(input).unwrap(),
                Tier::Escalated => {
                    escalated += 1;
                    expensive.detect(input).unwrap()
                }
            };
            assert_eq!(served.detection.score.to_bits(), direct.score.to_bits());
        }

        let stats = server.shutdown();
        assert_eq!(stats.escalated, escalated);
        // int8_screens counts every freshly-screened request, whether it was
        // then screen-served or escalated.
        assert_eq!(stats.int8_screens, inputs.len() as u64);
        assert_eq!(stats.screen_served + stats.escalated, inputs.len() as u64);
    }

    #[test]
    fn quantized_screen_calibrated_elsewhere_is_rejected() {
        let fx = fixture(2);
        let (screen, _) = tiered(&fx);
        // Same architecture, same calibration recipe — but a different
        // network *instance*, so its quantized weights describe a network
        // this screen engine does not serve.
        let foreign = fixture(2);
        let qnet = ptolemy_nn::QuantizedNetwork::quantize(foreign.network.clone(), &foreign.benign)
            .unwrap();
        let err = Server::builder(screen.clone())
            .quantized_screen(qnet)
            .start()
            .unwrap_err();
        match err {
            ServeError::TierMismatch {
                screen: s,
                escalate,
                reason,
            } => {
                assert_eq!(s, screen.fingerprint());
                assert_eq!(escalate, "int8 quantized screen");
                assert!(reason.contains("different network instance"), "{reason}");
            }
            other => panic!("expected TierMismatch, got {other:?}"),
        }
    }

    #[test]
    fn int8_and_f32_verdict_caches_never_alias() {
        let path = std::env::temp_dir().join(format!(
            "ptolemy-serve-int8-cache-{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let fx = fixture(2);
        let screen = Arc::new(
            engine(&fx, variants::fw_ab(&fx.network, 0.3).unwrap())
                .quantized(&fx.benign)
                .build()
                .unwrap(),
        );
        let config = CacheConfig {
            capacity: 64,
            prefix_segments: usize::MAX,
            persist_path: Some(path.clone()),
        };

        // Populate and flush a cache under the int8 screen.
        let server = Server::builder(screen.clone())
            .quantized_screen(screen.quantized_network().unwrap().clone())
            .workers(1)
            .cache(config.clone())
            .start()
            .unwrap();
        let first = server.submit(fx.benign[0].clone()).unwrap().wait().unwrap();
        assert!(!first.cache_hit);
        let stats = server.shutdown();
        assert!(stats.cache_entries_persisted >= 1);

        // Back in int8 mode the file replays bit for bit.
        let server = Server::builder(screen.clone())
            .quantized_screen(screen.quantized_network().unwrap().clone())
            .workers(1)
            .cache(config.clone())
            .start()
            .unwrap();
        assert!(server.stats().cache_entries_loaded >= 1);
        let replayed = server.submit(fx.benign[0].clone()).unwrap().wait().unwrap();
        assert!(replayed.cache_hit);
        assert_eq!(
            replayed.detection.score.to_bits(),
            first.detection.score.to_bits()
        );
        // The persisted file holds path-prefix keys only, so that replay was
        // screened; the next repeat is answered inside `submit`, same bits.
        let again = server.submit(fx.benign[0].clone()).unwrap();
        assert!(again.is_ready());
        assert_eq!(again.wait().unwrap(), replayed);
        let stats = server.shutdown();
        assert_eq!((stats.cache_hits, stats.cache_hits_at_submit), (2, 1));

        // The *same* engine in f32 mode must reject the int8-fingerprinted
        // file: an int8 verdict may disagree with the f32 one for the same
        // input, so replaying it would silently cross tiers.  (Checked last —
        // every shutdown re-persists under its own fingerprint.)
        let server = Server::builder(screen.clone())
            .workers(1)
            .cache(config)
            .start()
            .unwrap();
        let stats = server.stats();
        assert_eq!(stats.cache_load_rejected, 1);
        assert_eq!(stats.cache_entries_loaded, 0);
        drop(server);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn input_keys_tell_shape_order_and_tail_apart() {
        let fx = fixture(2);
        let (screen, _) = tiered(&fx);
        let server = Server::builder(screen).workers(1).start().unwrap();
        let key = |data: &[f32], dims: &[usize]| {
            let input = Tensor::from_vec(data.to_vec(), dims).unwrap();
            server.shared.input_key(&input)
        };
        // Ten elements: two full rounds of the four lanes and a tail of two.
        let base: Vec<f32> = (0..10).map(|i| i as f32).collect();
        assert_eq!(key(&base, &[10]), key(&base, &[10]));
        assert_ne!(key(&base, &[10]), key(&base, &[2, 5]));
        // Swaps within a round, across rounds of one lane, within the tail
        // and between a lane and the tail all change the key.
        for (i, j) in [(0, 1), (0, 4), (8, 9), (3, 9)] {
            let mut swapped = base.clone();
            swapped.swap(i, j);
            assert_ne!(key(&base, &[10]), key(&swapped, &[10]), "swap {i} {j}");
        }
        // Bit patterns, not values: -0.0 is not 0.0.
        let mut negated = base.clone();
        negated[0] = -0.0;
        assert_ne!(key(&base, &[10]), key(&negated, &[10]));
    }

    #[test]
    fn duplicate_inputs_hit_the_path_prefix_cache() {
        let fx = fixture(2);
        let (screen, expensive) = tiered(&fx);
        let server = Server::builder(screen)
            .escalate(expensive, 0.0, 1.0) // everything escalates on a miss
            .workers(1)
            .cache(CacheConfig {
                capacity: 64,
                prefix_segments: usize::MAX, // exact-duplicate matching
                persist_path: None,
            })
            .start()
            .unwrap();

        // Serve the same input twice, waiting in between so the second lookup
        // deterministically sees the first verdict.
        let first = server.submit(fx.benign[0].clone()).unwrap().wait().unwrap();
        assert!(!first.cache_hit);
        assert_eq!(first.tier, Tier::Escalated);
        let second = server.submit(fx.benign[0].clone()).unwrap();
        assert!(second.is_ready(), "a repeat is answered inside submit");
        let second = second.wait().unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.detection, first.detection);
        assert_eq!(second.tier, first.tier);

        let stats = server.shutdown();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_hits_at_submit, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.cache_misses, 1);
        assert!((stats.cache_hit_rate() - 0.5).abs() < 1e-12);
        // The cached request skipped tier-2 re-scoring entirely.
        assert_eq!(stats.escalated, 1);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn mismatched_tier_engines_are_rejected_with_fingerprints() {
        let two = fixture(2);
        let three = fixture(3);
        let (screen, _) = tiered(&two);
        let other_task = Arc::new(
            engine(&three, variants::bw_cu(&three.network, 0.5).unwrap())
                .build()
                .unwrap(),
        );
        let err = Server::builder(screen.clone())
            .escalate(other_task.clone(), 0.3, 0.7)
            .start()
            .unwrap_err();
        match err {
            ServeError::TierMismatch {
                screen: s,
                escalate: e,
                reason,
            } => {
                assert_eq!(s, screen.fingerprint());
                assert_eq!(e, other_task.fingerprint());
                assert!(reason.contains("class counts"), "{reason}");
            }
            other => panic!("expected TierMismatch, got {other:?}"),
        }

        // An escalation engine that cannot produce verdicts is also mismatched.
        let program = variants::bw_cu(&two.network, 0.5).unwrap();
        let class_paths = Profiler::new(program.clone())
            .profile(&two.network, &two.samples)
            .unwrap();
        let forestless = DetectionEngine::builder(two.network.clone(), program, class_paths)
            .build()
            .unwrap();
        assert!(matches!(
            Server::builder(screen)
                .escalate(forestless, 0.3, 0.7)
                .start(),
            Err(ServeError::TierMismatch { .. })
        ));
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let fx = fixture(2);
        let (screen, expensive) = tiered(&fx);
        assert!(matches!(
            Server::builder(screen.clone()).workers(0).start(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            Server::builder(screen.clone()).queue_capacity(0).start(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            Server::builder(screen.clone()).max_batch(0).start(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            Server::builder(screen.clone())
                .cache(CacheConfig {
                    capacity: 0,
                    prefix_segments: 2,
                    persist_path: None,
                })
                .start(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            Server::builder(screen.clone())
                .cache(CacheConfig {
                    capacity: 8,
                    prefix_segments: 0,
                    persist_path: None,
                })
                .start(),
            Err(ServeError::InvalidConfig(_))
        ));
        // An empty shard list must not silently degrade to tier-1-only
        // serving (the band would go unvalidated and nothing would escalate).
        assert!(matches!(
            Server::builder(screen.clone())
                .escalate_sharded(Vec::new(), 0.3, 0.7)
                .start(),
            Err(ServeError::InvalidConfig(_))
        ));
        // Inverted or out-of-range escalation bands.
        assert!(matches!(
            Server::builder(screen.clone())
                .escalate(expensive.clone(), 0.8, 0.2)
                .start(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(matches!(
            Server::builder(screen.clone())
                .escalate(expensive, -0.1, 1.2)
                .start(),
            Err(ServeError::InvalidConfig(_))
        ));
        // A screening engine without a classifier cannot serve verdicts.
        let program = variants::fw_ab(&fx.network, 0.3).unwrap();
        let class_paths = Profiler::new(program.clone())
            .profile(&fx.network, &fx.samples)
            .unwrap();
        let forestless = DetectionEngine::builder(fx.network.clone(), program, class_paths)
            .build()
            .unwrap();
        assert!(matches!(
            Server::builder(forestless).start(),
            Err(ServeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn engine_errors_resolve_tickets_instead_of_stranding_them() {
        let fx = fixture(2);
        let (screen, _) = tiered(&fx);
        let server = Server::builder(screen).workers(1).start().unwrap();
        // Wrong input shape for the 8-dim MLP: the engine errors, the ticket
        // still resolves, and the failure is counted.
        let bad = Tensor::full(&[3], 0.5);
        let err = server.submit(bad).unwrap().wait().unwrap_err();
        assert!(matches!(err, ServeError::Engine(_)));
        let ok = server.submit(fx.benign[0].clone()).unwrap().wait();
        assert!(ok.is_ok(), "the worker must survive a failed request");
        let stats = server.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
    }

    /// Parks a worker inside the hooked layer of a **plug** request: arms
    /// `fault` to signal "entered" and then block, submits `input`, and
    /// returns once the pass that took it is inside the hook.  On a
    /// one-worker server whose screen network is hooked, the queue is then
    /// empty and stays untouched — whatever is submitted next queues
    /// deterministically — until the returned sender is used or dropped.
    fn plug(server: &Server, fault: &Fault, input: &Tensor) -> (Ticket, mpsc::Sender<()>) {
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        fault.arm(move || {
            entered_tx.send(()).unwrap();
            let _ = release_rx.recv();
        });
        let ticket = server.submit(input.clone()).unwrap();
        entered.recv().unwrap();
        (ticket, release)
    }

    #[test]
    fn bounded_queue_applies_backpressure_and_drains_on_shutdown() {
        let fault = Arc::new(Fault::default());
        let fx = hooked_fixture(2, fault.hook());
        let (screen, _) = tiered(&fx);
        let server = Server::builder(screen)
            .workers(1)
            .queue_capacity(2)
            .start()
            .unwrap();

        // The single worker is held inside the plug's screen, so the queue
        // deterministically fills up.
        let (plugged, release) = plug(&server, &fault, &fx.benign[3]);
        let t1 = server.try_submit(fx.benign[0].clone()).unwrap();
        let t2 = server.try_submit(fx.benign[1].clone()).unwrap();
        assert!(matches!(
            server.try_submit(fx.benign[2].clone()),
            Err(ServeError::QueueFull)
        ));
        assert_eq!(server.pending(), 2);
        assert!(!t1.is_ready());

        // Released, the worker takes everything queued in one cut; shutdown
        // drains before it joins, so every ticket resolves.
        drop(release);
        let stats = server.shutdown();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.completed, 3);
        assert!(plugged.is_ready() && t1.is_ready() && t2.is_ready());
        t1.wait().unwrap();
        t2.wait().unwrap();
        assert_eq!(stats.batches, 2, "the plug, then both queued requests");
        assert_eq!(stats.max_batch, 2);
        assert_eq!(stats.mean_batch, 1.5);
    }

    /// The cap is the number in the builder, and a backlog really fills it:
    /// 20 requests queued behind a plugged worker leave in cuts of 8, 8 and 4.
    #[test]
    fn a_backlog_is_cut_in_max_batch_sized_batches() {
        let fault = Arc::new(Fault::default());
        let fx = hooked_fixture(2, fault.hook());
        let (screen, _) = tiered(&fx);
        let server = Server::builder(screen).workers(1).start().unwrap();

        let (plugged, release) = plug(&server, &fault, &fx.benign[0]);
        let queued: Vec<Ticket> = fx.samples[..20]
            .iter()
            .map(|(x, _)| server.submit(x.clone()).unwrap())
            .collect();
        assert_eq!(server.pending(), 20);
        drop(release);
        plugged.wait().unwrap();
        for ticket in queued {
            ticket.wait().unwrap();
        }
        let stats = server.shutdown();
        assert_eq!((stats.batches, stats.max_batch), (4, 8), "{stats:?}");
        assert_eq!((stats.completed, stats.failed), (21, 0));
    }

    /// The behaviour decision of the submit-side probe: a hit occupies no
    /// queue slot and needs no admission estimate, so it is served where an
    /// uncached input is refused.
    #[test]
    fn a_cached_input_is_answered_at_submit_past_a_full_queue_and_admission() {
        use crate::error::ShedReason;

        let fault = Arc::new(Fault::default());
        let fx = hooked_fixture(2, fault.hook());
        let (screen, _) = tiered(&fx);
        let server = Server::builder(screen)
            .workers(1)
            .queue_capacity(2)
            .admission(AdmissionPolicy::default())
            .cache(CacheConfig {
                capacity: 64,
                prefix_segments: usize::MAX,
                persist_path: None,
            })
            .start()
            .unwrap();

        // The first batch serves (and caches) the first input and seeds the
        // service-time EMA; the plug then holds the worker with the queue
        // empty.
        let first = server.submit(fx.benign[0].clone()).unwrap().wait().unwrap();
        assert!(!first.cache_hit);
        let (plugged, release) = plug(&server, &fault, &fx.benign[4]);
        let doomed = Duration::from_nanos(1);

        // Admission: one request queued ahead dooms a 1 ns deadline — for an
        // uncached input.  The cached one is answered without an estimate.
        let t1 = server.try_submit(fx.benign[1].clone()).unwrap();
        assert!(matches!(
            server.try_submit_with_deadline(fx.benign[2].clone(), doomed),
            Err(ServeError::Shed(ShedReason::Admission))
        ));
        let hit = server
            .try_submit_with_deadline(fx.benign[0].clone(), doomed)
            .unwrap();
        assert!(hit.is_ready());
        assert_eq!(server.stats().shed_admission, 1);

        // A full queue: the uncached input is refused, the cached one served —
        // by `try_submit` and by a `submit` that would otherwise block forever.
        let t2 = server.try_submit(fx.benign[2].clone()).unwrap();
        assert!(matches!(
            server.try_submit(fx.benign[3].clone()),
            Err(ServeError::QueueFull)
        ));
        let hit = server.try_submit(fx.benign[0].clone()).unwrap();
        assert!(hit.is_ready());
        let served = hit.wait().unwrap();
        assert!(served.cache_hit && !served.degraded);
        assert_eq!(served.tier, first.tier);
        assert_eq!(served.detection, first.detection);
        assert!(server.submit(fx.benign[0].clone()).unwrap().is_ready());
        assert_eq!(server.pending(), 2);
        assert!(!plugged.is_ready() && !t1.is_ready() && !t2.is_ready());

        let stats = server.stats();
        assert_eq!(stats.shed_admission, 1);
        assert_eq!((stats.cache_hits, stats.cache_hits_at_submit), (3, 3));
        assert_eq!((stats.submitted, stats.completed), (7, 4));
        assert_eq!(stats.batches, 2, "a hit cuts no batch");

        drop(release);
        let stats = server.shutdown();
        assert!(plugged.is_ready() && t1.is_ready() && t2.is_ready());
        assert_eq!((stats.submitted, stats.completed, stats.failed), (7, 7, 0));
        assert_eq!(stats.cache_hits_at_submit, 3);
        assert_eq!(
            (stats.batches, stats.max_batch),
            (3, 2),
            "the first input, the plug, then both queued requests"
        );
    }

    /// Escalation shards built from `full`'s canary set, forest and threshold
    /// — the recipe [`ServerBuilder::escalate_sharded`] documents.
    fn shard_engines(
        fx: &Fixture,
        full: &Arc<DetectionEngine>,
        n: usize,
    ) -> Vec<Arc<DetectionEngine>> {
        full.class_paths()
            .shard(n)
            .unwrap()
            .into_iter()
            .map(|paths| {
                Arc::new(
                    DetectionEngine::builder(fx.network.clone(), full.program().clone(), paths)
                        .forest(full.forest().unwrap().clone())
                        .threshold(full.threshold())
                        .build()
                        .unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn sharded_escalation_matches_direct_detection_and_counts_per_shard() {
        let fx = fixture(3);
        let (screen, expensive) = tiered(&fx);
        let shards = shard_engines(&fx, &expensive, 2);
        let server = Server::builder(screen)
            .escalate_sharded(shards, 0.0, 1.0) // everything escalates
            .workers(1)
            .start()
            .unwrap();

        let inputs: Vec<Tensor> = fx.benign.iter().chain(&fx.adversarial).cloned().collect();
        for input in &inputs {
            let served = server.submit(input.clone()).unwrap().wait().unwrap();
            assert_eq!(served.tier, Tier::Escalated);
            // The union of shard verdicts is bit-for-bit the unsharded
            // escalation engine's verdict.
            let direct = expensive.detect(input).unwrap();
            assert_eq!(served.detection, direct);
            assert_eq!(served.detection.score.to_bits(), direct.score.to_bits());
            assert_eq!(
                served.detection.similarity.to_bits(),
                direct.similarity.to_bits()
            );
        }

        let stats = server.shutdown();
        assert_eq!(stats.escalated, inputs.len() as u64);
        assert_eq!(stats.shard_escalations.len(), 2);
        assert_eq!(stats.shard_escalations.iter().sum::<u64>(), stats.escalated);
        // Three screened classes over two shards: routing uses both.
        assert!(
            stats.shard_escalations.iter().all(|&c| c > 0),
            "{:?}",
            stats.shard_escalations
        );
        // Every batch had an escalation sliver, handled exactly once each.
        assert_eq!(
            stats.pipelined_batches + stats.serial_batches,
            stats.batches
        );
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn invalid_shard_configurations_are_rejected_with_fingerprints() {
        let fx = fixture(3);
        let (screen, expensive) = tiered(&fx);
        let set = expensive.class_paths();
        let shard_from = |paths: ptolemy_core::ClassPathSet, threshold: f32| {
            Arc::new(
                DetectionEngine::builder(fx.network.clone(), expensive.program().clone(), paths)
                    .forest(expensive.forest().unwrap().clone())
                    .threshold(threshold)
                    .build()
                    .unwrap(),
            )
        };
        let reason_of = |err: ServeError| match err {
            ServeError::TierMismatch { reason, .. } => reason,
            other => panic!("expected TierMismatch, got {other:?}"),
        };

        // Overlapping ownership: class 1 claimed twice.
        let overlapping = vec![
            shard_from(set.subset(&[0, 1]).unwrap(), expensive.threshold()),
            shard_from(set.subset(&[1, 2]).unwrap(), expensive.threshold()),
        ];
        let reason = reason_of(
            Server::builder(screen.clone())
                .escalate_sharded(overlapping, 0.3, 0.7)
                .start()
                .unwrap_err(),
        );
        assert!(reason.contains("more than one"), "{reason}");

        // Missing ownership: nobody owns class 1.
        let gappy = vec![
            shard_from(set.subset(&[0]).unwrap(), expensive.threshold()),
            shard_from(set.subset(&[2]).unwrap(), expensive.threshold()),
        ];
        let reason = reason_of(
            Server::builder(screen.clone())
                .escalate_sharded(gappy, 0.3, 0.7)
                .start()
                .unwrap_err(),
        );
        assert!(reason.contains("no escalation shard"), "{reason}");

        // Diverging decision thresholds across shards.
        let skewed = vec![
            shard_from(set.subset(&[0, 1]).unwrap(), expensive.threshold()),
            shard_from(set.subset(&[2]).unwrap(), 0.25),
        ];
        let reason = reason_of(
            Server::builder(screen.clone())
                .escalate_sharded(skewed, 0.3, 0.7)
                .start()
                .unwrap_err(),
        );
        assert!(reason.contains("thresholds"), "{reason}");

        // Shards serving a different network instance than the screen tier:
        // class routing would compare tier-1 and tier-2 predictions of
        // different models, so the pairing is rejected even though the
        // fingerprints, class counts and thresholds all line up.
        let other = fixture(3);
        let (_, other_expensive) = tiered(&other);
        let foreign = other_expensive
            .class_paths()
            .shard(2)
            .unwrap()
            .into_iter()
            .map(|paths| {
                Arc::new(
                    DetectionEngine::builder(
                        other.network.clone(),
                        other_expensive.program().clone(),
                        paths,
                    )
                    .forest(other_expensive.forest().unwrap().clone())
                    .threshold(other_expensive.threshold())
                    .build()
                    .unwrap(),
                )
            })
            .collect();
        let reason = reason_of(
            Server::builder(screen)
                .escalate_sharded(foreign, 0.3, 0.7)
                .start()
                .unwrap_err(),
        );
        assert!(reason.contains("network instance"), "{reason}");
    }

    #[test]
    fn persisted_cache_reloads_for_the_same_engine_and_rejects_others() {
        let path =
            std::env::temp_dir().join(format!("ptolemy-serve-unit-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let fx = fixture(2);
        let (screen, expensive) = tiered(&fx);
        let config = CacheConfig {
            capacity: 64,
            prefix_segments: usize::MAX,
            persist_path: Some(path.clone()),
        };

        // First run: populate and flush the cache.
        let server = Server::builder(screen.clone())
            .workers(1)
            .cache(config.clone())
            .start()
            .unwrap();
        let first = server.submit(fx.benign[0].clone()).unwrap().wait().unwrap();
        assert!(!first.cache_hit);
        let second = server.submit(fx.benign[0].clone()).unwrap().wait().unwrap();
        assert!(second.cache_hit);
        let stats = server.shutdown();
        assert_eq!(stats.cache_entries_loaded, 0);
        assert_eq!(stats.cache_load_rejected, 0);
        assert!(stats.cache_entries_persisted >= 1);

        // Restart with the identical engine: the first lookup is already a
        // hit, replaying the pre-restart verdict bit for bit.
        let server = Server::builder(screen.clone())
            .workers(1)
            .cache(config.clone())
            .start()
            .unwrap();
        assert_eq!(
            server.stats().cache_entries_loaded,
            stats.cache_entries_persisted
        );
        let replayed = server.submit(fx.benign[0].clone()).unwrap().wait().unwrap();
        assert!(replayed.cache_hit);
        assert_eq!(replayed.detection, first.detection);
        assert_eq!(
            replayed.detection.score.to_bits(),
            first.detection.score.to_bits()
        );
        drop(server);

        // A different screening engine must ignore the file.
        let server = Server::builder(expensive)
            .workers(1)
            .cache(config)
            .start()
            .unwrap();
        let stats = server.stats();
        assert_eq!(stats.cache_load_rejected, 1);
        assert_eq!(stats.cache_entries_loaded, 0);
        let cold = server.submit(fx.benign[0].clone()).unwrap().wait().unwrap();
        assert!(!cold.cache_hit);
        drop(server);
        let _ = std::fs::remove_file(&path);
    }
    #[test]
    fn panicking_screen_worker_degrades_and_drains() {
        let fault = Arc::new(Fault::default());
        let fx = hooked_fixture(2, fault.hook());
        let (screen, _) = tiered(&fx);
        let server = Server::builder(screen).workers(1).start().unwrap();

        // Armed: the next screening pass panics inside the engine, mid-batch.
        fault.arm(|| panic!("injected screening panic"));
        let err = server
            .submit(fx.benign[0].clone())
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(matches!(err, ServeError::Canceled(_)), "{err:?}");
        // Counted before the waiter woke, like every other resolution.
        let stats = server.stats();
        assert_eq!((stats.failed, stats.worker_panics), (1, 1), "{stats:?}");
        assert_eq!(stats.submitted, stats.completed + stats.failed);

        // The sole worker survived the panic and still drains the queue.
        let served = server.submit(fx.benign[1].clone()).unwrap().wait().unwrap();
        assert_eq!(served.tier, Tier::Screen);
        let stats = server.shutdown();
        assert_eq!(stats.worker_panics, 1, "{stats:?}");
        assert_thread_claims_drain();
        assert_eq!((stats.failed, stats.completed), (1, 1), "{stats:?}");
    }

    /// A plain screen engine and a tier-2 engine on a network hooked to
    /// `fault`, plus inputs (valid for both — same shape).
    fn hooked_tier2(
        fault: &Arc<Fault>,
    ) -> (Arc<DetectionEngine>, Arc<DetectionEngine>, Vec<Tensor>) {
        let plain = fixture(2);
        let hooked = hooked_fixture(2, fault.hook());
        (tiered(&plain).0, tiered(&hooked).1, plain.adversarial)
    }

    #[test]
    fn panic_on_pipelined_escalation_thread_degrades_and_drains() {
        let fault = Arc::new(Fault::default());
        let (screen, expensive, inputs) = hooked_tier2(&fault);
        // Band [0, 1] covers every calibrated score, so requests escalate;
        // the panic fires on the per-worker overlap thread, proving the
        // recovery path holds off the worker thread too.
        let server = Server::builder(screen)
            .escalate(expensive, 0.0, 1.0)
            .workers(1)
            .start()
            .unwrap();

        fault.arm(|| panic!("injected escalation panic"));
        let err = server
            .submit(inputs[0].clone())
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(matches!(err, ServeError::Canceled(_)), "{err:?}");
        let stats = server.stats();
        assert_eq!((stats.failed, stats.worker_panics), (1, 1), "{stats:?}");
        assert_eq!(stats.submitted, stats.completed + stats.failed);

        let served = server.submit(inputs[1].clone()).unwrap().wait().unwrap();
        assert_eq!(served.tier, Tier::Escalated);
        let stats = server.shutdown();
        assert_eq!(stats.worker_panics, 1, "{stats:?}");
        assert_eq!((stats.pipelined_batches, stats.serial_batches), (2, 0));
        assert_thread_claims_drain();
    }

    /// The one way a sliver runs inline: the overlap thread is busy *and* one
    /// sliver already waits in the rendezvous.  One worker, one request per
    /// batch, escalate-all band: request 1 parks the overlap thread inside
    /// tier 2, request 2's sliver fills the channel, request 3's runs on the
    /// worker — where, in the second run, it panics.
    #[test]
    fn a_full_rendezvous_runs_the_sliver_inline_and_is_counted() {
        for panic_inline in [false, true] {
            let fault = Arc::new(Fault::default());
            let (screen, expensive, inputs) = hooked_tier2(&fault);
            let server = Server::builder(screen)
                .escalate(expensive.clone(), 0.0, 1.0)
                .workers(1)
                .max_batch(1)
                .start()
                .unwrap();

            let (first, release) = plug(&server, &fault, &inputs[0]);
            // The overlap thread now sits inside tier 2 with the rendezvous
            // empty, and stays there: the next tier-2 pass is the inline one.
            if panic_inline {
                fault.arm(|| panic!("injected inline escalation panic"));
            }
            let second = server.submit(inputs[1].clone()).unwrap();
            let third = server.submit(inputs[2].clone()).unwrap().wait();
            assert!(!first.is_ready() && !second.is_ready());
            let stats = server.stats();
            assert_eq!((stats.pipelined_batches, stats.serial_batches), (2, 1));
            assert_eq!(stats.worker_panics, u64::from(panic_inline), "{stats:?}");
            assert_eq!(stats.failed, u64::from(panic_inline), "{stats:?}");
            assert_eq!(stats.submitted, stats.completed + stats.failed + 2);

            release.send(()).unwrap();
            let mut served = vec![first.wait().unwrap(), second.wait().unwrap()];
            match third {
                Ok(third) if !panic_inline => served.push(third),
                Err(ServeError::Canceled(_)) if panic_inline => {
                    // The worker survived; the next sliver is handed off again.
                    served.push(server.submit(inputs[2].clone()).unwrap().wait().unwrap());
                }
                other => panic!("unexpected third outcome {other:?}"),
            }
            for (served, input) in served.iter().zip(&inputs) {
                assert_eq!(served.tier, Tier::Escalated);
                let direct = expensive.detect(input).unwrap();
                assert_eq!(served.detection.score.to_bits(), direct.score.to_bits());
                assert_eq!(
                    served.detection.similarity.to_bits(),
                    direct.similarity.to_bits()
                );
                assert_eq!(served.detection, direct);
            }
            let stats = server.shutdown();
            let handed_off = 2 + u64::from(panic_inline);
            assert_eq!(
                (stats.pipelined_batches, stats.serial_batches),
                (handed_off, 1)
            );
            assert_eq!(stats.completed, 3);
            assert_thread_claims_drain();
        }
    }

    /// Parses a named stage histogram out of a metrics snapshot.
    fn stage_hist(metrics: &JsonValue, name: &str) -> ptolemy_obs::Histogram {
        let hist = metrics
            .get("registry")
            .and_then(|r| r.get("histograms"))
            .and_then(|h| h.get(name))
            .unwrap_or_else(|| panic!("histogram {name} missing from snapshot"));
        ptolemy_obs::Histogram::from_json(hist).expect("valid histogram JSON")
    }

    #[test]
    fn instrumented_server_records_stage_histograms_and_timelines() {
        let fx = fixture(2);
        let (screen, expensive) = tiered(&fx);
        let registry = Arc::new(Registry::new("serve-test"));
        // Band [0, 1]: every request escalates, so the escalate/overlap
        // stages are exercised too.
        let server = Server::builder(screen)
            .escalate(expensive, 0.0, 1.0)
            .workers(1)
            .instrument(registry.clone())
            .start()
            .unwrap();
        let tickets: Vec<Ticket> = fx
            .benign
            .iter()
            .take(6)
            .map(|x| server.submit(x.clone()).unwrap())
            .collect();
        for ticket in tickets {
            ticket.wait().unwrap();
        }

        // Tickets resolve *inside* the escalation pass, a moment before the
        // batch timeline is retained — poll briefly for the retain.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let parsed = loop {
            // The snapshot is text-stable: render → parse → same structure.
            let parsed = ptolemy_obs::json::parse(&server.metrics_json().to_json())
                .expect("snapshot parses");
            let retained = parsed
                .get("timelines")
                .and_then(JsonValue::as_array)
                .map_or(0, <[JsonValue]>::len);
            if retained > 0 {
                break parsed;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "no batch timeline retained"
            );
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(
            parsed
                .get("stats")
                .and_then(|s| s.get("completed"))
                .and_then(JsonValue::as_u64),
            Some(6)
        );
        // The exported counters are a contract with whatever reads the
        // snapshot: names and order pinned literally, so a rename (or a new
        // counter) is a deliberate edit here.
        let Some(JsonValue::Object(stats)) = parsed.get("stats") else {
            panic!("stats is not an object");
        };
        let keys: Vec<&str> = stats.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(
            keys,
            [
                "submitted",
                "completed",
                "failed",
                "worker_panics",
                "screen_served",
                "int8_screens",
                "escalated",
                "shard_escalations",
                "pipelined_batches",
                "serial_batches",
                "cache_hits",
                "cache_hits_at_submit",
                "cache_misses",
                "shed_admission",
                "shed_expired",
                "deadline_misses",
                "degraded_served",
                "degrade_entered",
                "degrade_exited",
                "batches",
                "max_batch",
                "mean_batch_milli",
                "p50_latency_us",
                "p90_latency_us",
                "p99_latency_us",
            ]
        );
        // One queue-wait observation per batched request; the batch stages
        // recorded at least one batch each.
        assert_eq!(stage_hist(&parsed, "serve.queue_wait_ns").count(), 6);
        for name in [
            "serve.batch_form_ns",
            "serve.screen_ns",
            "serve.escalate[0]_ns",
        ] {
            assert!(
                stage_hist(&parsed, name).count() >= 1,
                "{name} recorded nothing"
            );
        }
        let timelines = parsed
            .get("timelines")
            .and_then(JsonValue::as_array)
            .expect("timelines array");
        assert!(!timelines.is_empty());
        // Every retained timeline carries the core stages in order.
        for timeline in timelines {
            let events = timeline
                .get("events")
                .and_then(JsonValue::as_array)
                .expect("events");
            let stages: Vec<&str> = events
                .iter()
                .filter_map(|e| e.get("stage").and_then(JsonValue::as_str))
                .collect();
            assert!(stages.contains(&"queue_wait"), "{stages:?}");
            assert!(stages.contains(&"batch_form"), "{stages:?}");
            assert!(stages.contains(&"screen"), "{stages:?}");
            assert!(stages.contains(&"escalate[0]"), "{stages:?}");
        }
        // The exported latency histogram counts every completion.
        let latency =
            ptolemy_obs::Histogram::from_json(parsed.get("latency_ns").expect("latency_ns"))
                .expect("valid latency histogram");
        assert_eq!(latency.count(), 6);
        let stats = server.shutdown();
        assert_eq!(stats.escalated, 6);
    }

    #[test]
    fn disabled_registry_gates_stage_instrumentation_but_not_stats() {
        let fx = fixture(2);
        let (screen, expensive) = tiered(&fx);
        let registry = Arc::new(Registry::new("serve-gated"));
        registry.set_enabled(false);
        let server = Server::builder(screen)
            .escalate(expensive, 0.0, 1.0)
            .workers(1)
            .instrument(registry.clone())
            .start()
            .unwrap();
        for input in fx.benign.iter().take(4) {
            server.submit(input.clone()).unwrap().wait().unwrap();
        }
        let metrics = server.metrics_json();
        // The handles exist (attached at startup) but the gate kept every
        // stage path silent...
        for name in [
            "serve.queue_wait_ns",
            "serve.batch_form_ns",
            "serve.cache_lookup_ns",
            "serve.screen_ns",
            "serve.escalate[0]_ns",
            "serve.overlap_ns",
        ] {
            assert_eq!(stage_hist(&metrics, name).count(), 0, "{name} not gated");
        }
        assert!(metrics
            .get("timelines")
            .and_then(JsonValue::as_array)
            .expect("timelines array")
            .is_empty());
        // ...while the always-on stats plane kept counting.
        let stats = server.shutdown();
        assert_eq!(stats.completed, 4);
        assert!(stats.p99_latency_ms >= stats.p50_latency_ms);
    }

    #[test]
    fn periodic_snapshot_writes_parseable_metrics_file() {
        let path =
            std::env::temp_dir().join(format!("ptolemy-serve-metrics-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let fx = fixture(2);
        let (screen, _) = tiered(&fx);
        let registry = Arc::new(Registry::new("serve-snapshot"));
        let server = Server::builder(screen)
            .workers(1)
            .instrument(registry)
            // A long interval: this test relies on the guaranteed final
            // snapshot at shutdown, not on timing.
            .snapshot_to(&path, Duration::from_secs(3600))
            .start()
            .unwrap();
        for input in fx.benign.iter().take(3) {
            server.submit(input.clone()).unwrap().wait().unwrap();
        }
        server.shutdown();
        let text = std::fs::read_to_string(&path).expect("final snapshot written");
        let parsed = ptolemy_obs::json::parse(&text).expect("snapshot file parses");
        assert_eq!(
            parsed
                .get("stats")
                .and_then(|s| s.get("completed"))
                .and_then(JsonValue::as_u64),
            Some(3)
        );
        assert!(parsed.get("registry").is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn uninstrumented_and_gated_servers_agree_with_instrumented_verdicts() {
        // The observability plane must be *observational*: attaching a
        // registry (enabled or not) cannot change a single verdict bit.
        let fx = fixture(2);
        let (screen, expensive) = tiered(&fx);
        let build = |registry: Option<Arc<Registry>>| {
            let mut builder = Server::builder(screen.clone())
                .escalate(expensive.clone(), 0.25, 0.75)
                .workers(2);
            if let Some(registry) = registry {
                builder = builder.instrument(registry);
            }
            builder.start().unwrap()
        };
        let gated = Arc::new(Registry::new("gated"));
        gated.set_enabled(false);
        let servers = [
            build(None),
            build(Some(Arc::new(Registry::new("on")))),
            build(Some(gated)),
        ];
        let inputs: Vec<Tensor> = fx
            .benign
            .iter()
            .chain(&fx.adversarial)
            .take(10)
            .cloned()
            .collect();
        for input in &inputs {
            let mut verdicts = servers
                .iter()
                .map(|s| s.submit(input.clone()).unwrap().wait().unwrap());
            let first = verdicts.next().unwrap();
            for other in verdicts {
                assert_eq!(first.tier, other.tier);
                assert_eq!(
                    first.detection.score.to_bits(),
                    other.detection.score.to_bits()
                );
                assert_eq!(first.detection, other.detection);
            }
        }
    }
}
