//! Span timing guards and per-request stage timelines.
//!
//! A [`Span`] is the RAII way to feed a histogram: start it around a stage,
//! and the elapsed nanoseconds land in the histogram when it drops — panic
//! included, so a stage that unwinds still accounts its time.  A [`Timeline`]
//! is the per-request (in `ptolemy-serve`, per-batch) record of *where* the
//! time went: an ordered list of [`Stage`] events with start offsets and
//! durations, renderable to JSON for the server's metrics export.

use crate::clock::Clock;
use crate::json::JsonValue;
use crate::registry::HistogramHandle;

/// The serving stages a [`Timeline`] can record.
///
/// The set mirrors the request path of `ptolemy-serve`: a request waits in
/// the bounded queue, a batch is formed, the cache is consulted, the batch is
/// screened by the tier-1 engine, suspicious inputs escalate to tier-2 shards
/// (possibly overlapped with the next batch's screen), and verdicts finish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Submission-to-batch-cut wait in the bounded queue.
    QueueWait,
    /// Forming the batch (cut decision + dequeue).
    BatchForm,
    /// Persisted/exact-input result cache lookups for the batch.
    CacheLookup,
    /// The tier-1 screening pass over the formed batch.
    Screen,
    /// The tier-1 screening pass when it runs the int8 quantized inference
    /// path (`ptolemy-serve`'s quantized screen mode) — kept distinct from
    /// [`Stage::Screen`] so dashboards and timelines never conflate the two
    /// screening variants' cost profiles.
    ScreenInt8,
    /// A tier-2 escalation pass on the given shard.
    Escalate(u32),
    /// Time an escalation spent executing overlapped with the next batch's
    /// screen (the cross-batch pipeline).
    Overlap,
    /// Deadline-expired requests being dropped (shed) from a formed batch
    /// before any inference ran on them — the admission-control companion
    /// stage: work the server refused to waste compute on.
    Shed,
    /// The routing phase of a batch served in **degraded** (screen-tier-only)
    /// mode: in-band requests that would have escalated were answered by the
    /// screening verdict because the server was shedding tier-2 work under
    /// overload.
    Degraded,
}

impl Stage {
    /// A stable snake_case label (`"escalate[3]"` for shard 3) used as the
    /// JSON key and the per-stage histogram name.
    pub fn label(&self) -> String {
        match self {
            Stage::QueueWait => "queue_wait".into(),
            Stage::BatchForm => "batch_form".into(),
            Stage::CacheLookup => "cache_lookup".into(),
            Stage::Screen => "screen".into(),
            Stage::ScreenInt8 => "screen_int8".into(),
            Stage::Escalate(shard) => format!("escalate[{shard}]"),
            Stage::Overlap => "overlap".into(),
            Stage::Shed => "shed".into(),
            Stage::Degraded => "degraded".into(),
        }
    }
}

/// An RAII timing guard: records the elapsed nanoseconds between
/// construction and drop into a histogram.
#[derive(Debug)]
pub struct Span<'a> {
    clock: &'a Clock,
    hist: HistogramHandle,
    start_ns: u64,
}

impl<'a> Span<'a> {
    /// Starts timing now; the observation is recorded when the span drops.
    pub fn start(clock: &'a Clock, hist: HistogramHandle) -> Span<'a> {
        Span {
            start_ns: clock.now_ns(),
            clock,
            hist,
        }
    }

    /// Nanoseconds since the span started (the value the drop will record).
    pub fn elapsed_ns(&self) -> u64 {
        self.clock.now_ns().saturating_sub(self.start_ns)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.hist.record(self.elapsed_ns());
    }
}

/// One recorded stage interval within a [`Timeline`], offsets relative to the
/// timeline's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Which stage this interval belongs to.
    pub stage: Stage,
    /// Start offset from the timeline origin, nanoseconds.
    pub start_ns: u64,
    /// Interval duration, nanoseconds.
    pub dur_ns: u64,
}

/// An ordered record of where one request (or batch) spent its time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    label: String,
    origin_ns: u64,
    events: Vec<TimelineEvent>,
}

impl Timeline {
    /// A new empty timeline labelled `label`, with all recorded offsets
    /// relative to `origin_ns` (a [`Clock::now_ns`] reading).
    pub fn new(label: &str, origin_ns: u64) -> Timeline {
        Timeline {
            label: label.to_string(),
            origin_ns,
            events: Vec::new(),
        }
    }

    /// Records a stage interval from absolute clock readings; times before
    /// the origin clamp to it.
    pub fn record(&mut self, stage: Stage, start_ns: u64, end_ns: u64) {
        let start = start_ns.saturating_sub(self.origin_ns);
        self.events.push(TimelineEvent {
            stage,
            start_ns: start,
            dur_ns: end_ns.saturating_sub(start_ns.max(self.origin_ns)),
        });
    }

    /// The timeline's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The clock reading the event offsets are relative to.
    pub fn origin_ns(&self) -> u64 {
        self.origin_ns
    }

    /// The recorded events in insertion order.
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events
    }

    /// Renders the timeline as JSON:
    /// `{"label": …, "origin_ns": …, "events": [{"stage": "screen",
    /// "start_ns": …, "dur_ns": …}, …]}`.
    pub fn to_json(&self) -> JsonValue {
        let events = self
            .events
            .iter()
            .map(|event| {
                JsonValue::Object(vec![
                    ("stage".into(), JsonValue::String(event.stage.label())),
                    ("start_ns".into(), JsonValue::UInt(event.start_ns)),
                    ("dur_ns".into(), JsonValue::UInt(event.dur_ns)),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            ("label".into(), JsonValue::String(self.label.clone())),
            ("origin_ns".into(), JsonValue::UInt(self.origin_ns)),
            ("events".into(), JsonValue::Array(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn span_records_elapsed_time_on_drop() {
        let registry = Registry::with_clock("spans", Clock::manual());
        let hist = registry.histogram("stage_ns");
        {
            let span = Span::start(registry.clock(), hist.clone());
            registry.clock().advance(250);
            assert_eq!(span.elapsed_ns(), 250);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 1);
        assert_eq!(snap.min(), Some(250));
    }

    #[test]
    fn span_records_even_when_the_stage_panics() {
        let registry = Registry::with_clock("spans", Clock::manual());
        let hist = registry.histogram("stage_ns");
        let clock = registry.clock();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = Span::start(clock, hist.clone());
            clock.advance(10);
            panic!("stage failed");
        }));
        assert!(result.is_err());
        assert_eq!(hist.snapshot().count(), 1);
    }

    #[test]
    fn stage_labels_are_stable() {
        assert_eq!(Stage::QueueWait.label(), "queue_wait");
        assert_eq!(Stage::Screen.label(), "screen");
        assert_eq!(Stage::ScreenInt8.label(), "screen_int8");
        assert_eq!(Stage::Escalate(3).label(), "escalate[3]");
        assert_eq!(Stage::Overlap.label(), "overlap");
        assert_eq!(Stage::Shed.label(), "shed");
        assert_eq!(Stage::Degraded.label(), "degraded");
    }

    #[test]
    fn timeline_records_relative_intervals_and_renders_json() {
        let mut timeline = Timeline::new("batch-7", 1_000);
        timeline.record(Stage::QueueWait, 400, 1_200); // starts before origin
        timeline.record(Stage::Screen, 1_200, 1_700);
        assert_eq!(timeline.events().len(), 2);
        assert_eq!(timeline.events()[0].start_ns, 0);
        assert_eq!(timeline.events()[0].dur_ns, 200);
        assert_eq!(timeline.events()[1].start_ns, 200);
        assert_eq!(timeline.events()[1].dur_ns, 500);
        let text = timeline.to_json().to_json();
        let parsed = crate::json::parse(&text).expect("parses");
        assert_eq!(
            parsed.get("label").and_then(JsonValue::as_str),
            Some("batch-7")
        );
        let events = parsed.get("events").and_then(JsonValue::as_array).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("stage").and_then(JsonValue::as_str),
            Some("screen")
        );
    }
}
