//! The open-loop scheduler: sends each request at its due time whether or not
//! earlier ones have been answered, and accounts how late it ran.
//!
//! Latency is measured from the **due** time, so a stall in the generator or
//! the server counts against every request that was due while it lasted.

use ptolemy_obs::Clock;

/// When one request was due and when the generator actually sent it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sent {
    /// Scheduled send time (segment start + trace offset).
    pub due_ns: u64,
    /// When the submit call began (`>= due_ns`).
    pub submit_start_ns: u64,
    /// When the submit call returned.
    pub submit_end_ns: u64,
}

impl Sent {
    /// How late the generator ran for this request.
    pub fn lag_ns(&self) -> u64 {
        self.submit_start_ns.saturating_sub(self.due_ns)
    }
}

/// Replays `arrivals_ns` (ascending offsets from now): waits until each
/// request is due, calls `submit(index)` and records the timing.  `wait(ns)`
/// blocks for about `ns` nanoseconds — a sleep on the monotonic clock, an
/// `advance` on a manual one.
pub fn replay(
    clock: &Clock,
    arrivals_ns: &[u64],
    mut wait: impl FnMut(u64),
    mut submit: impl FnMut(usize),
) -> Vec<Sent> {
    let start_ns = clock.now_ns();
    let mut sent = Vec::with_capacity(arrivals_ns.len());
    for (index, offset_ns) in arrivals_ns.iter().enumerate() {
        let due_ns = start_ns + offset_ns;
        let now_ns = clock.now_ns();
        if now_ns < due_ns {
            wait(due_ns - now_ns);
        }
        let submit_start_ns = clock.now_ns();
        submit(index);
        sent.push(Sent {
            due_ns,
            submit_start_ns,
            submit_end_ns: clock.now_ns(),
        });
    }
    sent
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_time_generator_has_zero_lag() {
        let clock = Clock::manual();
        clock.advance(1_000);
        let sent = replay(&clock, &[0, 100, 250], |ns| clock.advance(ns), |_| {});
        let due: Vec<u64> = sent.iter().map(|s| s.due_ns).collect();
        assert_eq!(due, vec![1_000, 1_100, 1_250]);
        assert!(sent.iter().all(|s| s.lag_ns() == 0));
        assert_eq!(clock.now_ns(), 1_250);
    }

    #[test]
    fn a_stall_counts_against_the_requests_due_while_it_lasted() {
        let clock = Clock::manual();
        // Request 1's submit call stalls for 250 ns: requests 2 and 3 were
        // due at 200 and 300 but can only go out at 350.
        let sent = replay(
            &clock,
            &[0, 100, 200, 300, 1_000],
            |ns| clock.advance(ns),
            |index| {
                if index == 1 {
                    clock.advance(250);
                }
            },
        );
        let lags: Vec<u64> = sent.iter().map(Sent::lag_ns).collect();
        assert_eq!(lags, vec![0, 0, 150, 50, 0]);
        assert_eq!(sent[1].submit_end_ns - sent[1].submit_start_ns, 250);
        // Due-time latency charges the stall to request 2 even if the server
        // answers it instantly: a reply at submit_end is 150 ns after due.
        assert_eq!(sent[2].submit_end_ns - sent[2].due_ns, 150);
        // The generator catches up once the schedule has slack again.
        assert_eq!(sent[4].submit_start_ns, sent[4].due_ns);
    }

    #[test]
    fn the_generator_never_waits_for_a_late_schedule() {
        let clock = Clock::manual();
        let mut waits = Vec::new();
        let sent = replay(
            &clock,
            &[0, 10, 20],
            |ns| {
                waits.push(ns);
                clock.advance(ns + 500); // an oversleeping wait
            },
            |_| {},
        );
        // One oversleep put the generator behind for every later request, and
        // it sent them back to back instead of waiting again.
        assert_eq!(waits, vec![10]);
        assert_eq!(sent[1].lag_ns(), 500);
        assert_eq!(sent[2].lag_ns(), 490);
    }
}
