//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public API (the traced pass), written out as JSON lines at exit.

use std::io::Write;

/// One timed interval: a call into a layer, or the request that caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<crate>.<call>`, or `request` for a root.
    pub name: &'static str,
    /// Start, nanoseconds on the run's clock.
    pub start_ns: u64,
    /// End, nanoseconds on the run's clock.
    pub end_ns: u64,
    /// Index (in the log) of the span that caused this one; `None` for roots.
    pub parent: Option<usize>,
    /// Shared by every span of one request.
    pub request_id: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Append-only span store; a span's id is its index.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Records one span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request_id: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id,
        });
        self.spans.len() - 1
    }

    /// All recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its interval
    /// that its direct children cover (overlapping children counted once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let outer = &self.spans[parent];
                let start = span.start_ns.max(outer.start_ns);
                let end = span.end_ns.min(outer.end_ns);
                if end > start {
                    children[parent].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, intervals)| {
                intervals.sort_unstable();
                let mut covered = 0u64;
                let mut reach = 0u64;
                for &(start, end) in intervals.iter() {
                    let from = start.max(reach);
                    if end > from {
                        covered += end - from;
                        reach = end;
                    }
                }
                span.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Durations of every span called `name`.
    pub fn durations_of(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Self times of every span called `name`.
    pub fn self_times_of(&self, name: &str) -> Vec<u64> {
        self.self_times_ns()
            .into_iter()
            .zip(&self.spans)
            .filter(|(_, span)| span.name == name)
            .map(|(self_ns, _)| self_ns)
            .collect()
    }

    /// Writes one JSON object per span:
    /// `{"id":..,"name":..,"start_ns":..,"end_ns":..,"parent":..,"request_id":..}`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl<W: Write>(&self, out: &mut W) -> std::io::Result<()> {
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request_id\":{}}}",
                span.name, span.start_ns, span.end_ns, span.request_id
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut log = SpanLog::default();
        let root = log.push("request", 0, 100, None, 1);
        let detect = log.push("core.detect", 10, 90, Some(root), 1);
        log.push("nn.forward_trace", 10, 40, Some(detect), 1);
        log.push("core.extract_path", 40, 70, Some(detect), 1);
        let self_ns = log.self_times_ns();
        assert_eq!(self_ns[root], 20); // 100 − the 80 its child covers
        assert_eq!(self_ns[detect], 20); // 80 − 30 − 30
        assert_eq!(self_ns[2], 30); // leaves keep their whole duration
        assert_eq!(log.self_times_of("core.detect"), vec![20]);
        assert_eq!(log.durations_of("core.detect"), vec![80]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let mut log = SpanLog::default();
        let root = log.push("request", 100, 200, None, 7);
        // Two children overlapping on [130, 150), one overhanging the parent.
        log.push("serve.submit", 110, 150, Some(root), 7);
        log.push("serve.wait", 130, 170, Some(root), 7);
        log.push("serve.wait", 190, 260, Some(root), 7);
        let self_ns = log.self_times_ns();
        // Covered: [110, 170) ∪ [190, 200) = 70 of 100.
        assert_eq!(self_ns[root], 30);
        // A child entirely outside its parent covers nothing.
        let mut log = SpanLog::default();
        let root = log.push("request", 0, 10, None, 1);
        log.push("serve.wait", 20, 30, Some(root), 1);
        assert_eq!(log.self_times_ns()[root], 10);
    }

    #[test]
    fn jsonl_links_parents_and_shares_the_request_id() {
        let mut log = SpanLog::default();
        let root = log.push("request", 5, 50, None, 42);
        log.push("core.detect", 6, 49, Some(root), 42);
        let mut buffer = Vec::new();
        log.write_jsonl(&mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"id\":0,\"name\":\"request\",\"start_ns\":5,\"end_ns\":50,\"parent\":null,\"request_id\":42}"
        );
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"request_id\":42"));
    }
}
