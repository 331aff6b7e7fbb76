//! Overload-protection policies: deadline admission control and
//! mixed-criticality degradation.
//!
//! Both policies are opt-in builder knobs
//! ([`crate::ServerBuilder::admission`],
//! [`crate::ServerBuilder::degradation`]) and both are inert under zero
//! overload — the workspace parity tests pin that a server with them enabled
//! serves bit-for-bit the same verdicts as one without, as long as deadlines
//! are loose and the queue stays below the degradation watermark.

/// Deadline admission control for [`crate::Server::submit_with_deadline`]:
/// the on/off marker [`crate::ServerBuilder::admission`] takes.  It carries no
/// setting — the estimate below is used as it is.
///
/// At submission the server estimates the request's completion time from the
/// current queue depth and an exponential moving average of per-request
/// service time; if the estimate lands past the request's deadline, the
/// submission is rejected with [`crate::ServeError::Shed`] instead of being
/// queued — the request was going to miss anyway, and shedding it early
/// preserves the deadlines of everything behind it.  Submissions **without**
/// a deadline are never shed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdmissionPolicy {}

/// Mixed-criticality degradation for sustained overload — the serving analog
/// of a real-time system's LMode→HMode switch.
///
/// While the queue depth sits at or above `high_watermark × queue_capacity`,
/// the server enters **degraded mode**: in-band requests that would escalate
/// to the expensive tier-2 engine are answered by the tier-1 screening
/// verdict instead (flagged via [`crate::Served::degraded`], and not cached —
/// a degraded answer must never masquerade as a full-pipeline verdict).
/// Confident screen verdicts and cache hits are unaffected: degradation sheds
/// tier-2 *work*, not tier-1 correctness.  Once the queue drains to
/// `low_watermark × queue_capacity` or below, the server recovers
/// automatically; the hysteresis gap keeps it from flapping at the boundary.
/// Entries/exits are counted in [`crate::ServeStats::degrade_entered`] /
/// [`crate::ServeStats::degrade_exited`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradePolicy {
    /// Queue fill fraction (of the queue capacity) at or above which the
    /// server enters degraded mode.  Default 0.75.
    pub high_watermark: f64,
    /// Queue fill fraction at or below which a degraded server recovers.
    /// Default 0.25.  Must not exceed `high_watermark`.
    pub low_watermark: f64,
}

impl Default for DegradePolicy {
    fn default() -> DegradePolicy {
        DegradePolicy {
            high_watermark: 0.75,
            low_watermark: 0.25,
        }
    }
}

impl DegradePolicy {
    /// Validates the watermark pair.
    ///
    /// # Errors
    ///
    /// Rejects non-finite watermarks, watermarks outside `[0, 1]`, and a low
    /// watermark above the high one.
    pub(crate) fn validate(&self) -> Result<(), String> {
        for (name, value) in [
            ("high_watermark", self.high_watermark),
            ("low_watermark", self.low_watermark),
        ] {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(format!("degradation {name} must be in [0, 1], got {value}"));
            }
        }
        if self.low_watermark > self.high_watermark {
            return Err(format!(
                "degradation low_watermark ({}) must not exceed high_watermark ({})",
                self.low_watermark, self.high_watermark
            ));
        }
        Ok(())
    }

    /// The queue depths the watermarks translate to for `capacity`: enter
    /// degraded mode at `>= enter_at`, recover at `<= exit_at`.  `enter_at`
    /// is at least 1 (a high watermark of 0 still requires a non-empty queue
    /// — with an empty queue there is nothing to degrade for) and `exit_at`
    /// is strictly below `enter_at` so a single queue depth can never satisfy
    /// both transitions at once.
    pub(crate) fn thresholds(&self, capacity: usize) -> (usize, usize) {
        let enter_at = ((self.high_watermark * capacity as f64).ceil() as usize).max(1);
        let exit_at = ((self.low_watermark * capacity as f64).floor() as usize).min(enter_at - 1);
        (enter_at, exit_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrade_policy_validates_watermarks() {
        assert!(DegradePolicy::default().validate().is_ok());
        assert!(DegradePolicy {
            high_watermark: 1.5,
            low_watermark: 0.1
        }
        .validate()
        .is_err());
        assert!(DegradePolicy {
            high_watermark: 0.2,
            low_watermark: 0.8
        }
        .validate()
        .is_err());
    }

    #[test]
    fn thresholds_keep_enter_above_exit() {
        let policy = DegradePolicy::default();
        let (enter, exit) = policy.thresholds(64);
        assert_eq!(enter, 48);
        assert_eq!(exit, 16);
        // Degenerate watermarks still leave a gap.
        for capacity in [1usize, 2, 7, 64] {
            for (high, low) in [(0.0, 0.0), (1.0, 1.0), (0.5, 0.5)] {
                let (enter, exit) = DegradePolicy {
                    high_watermark: high,
                    low_watermark: low,
                }
                .thresholds(capacity);
                assert!(enter >= 1);
                assert!(exit < enter, "cap {capacity} wm ({high},{low})");
            }
        }
    }
}
