//! Deterministic seeded workload generation for serving experiments.
//!
//! The serving benches historically drove `ptolemy-serve` with a closed,
//! uniform request loop — every request identical, submitted as fast as the
//! previous one completed.  Real deployments look nothing like that: arrivals
//! are open-loop (the world does not wait for the server), interarrival times
//! are Poisson at best and bursty/self-similar at worst, request classes
//! split the offered utilization unevenly, and per-request service demand has
//! a heavy-ish tail.  This module generates such traces deterministically
//! from a single seed, borrowing three standard shapes from the real-time
//! scheduling literature:
//!
//! * **UUniFast** ([`uunifast`]) — the unbiased algorithm for splitting a
//!   total utilization across `n` task classes, so per-class load shares are
//!   drawn uniformly from the simplex instead of clustering around the mean.
//! * **Weibull service variation** ([`Weibull`]) — per-request service-size
//!   multipliers drawn by inverse-CDF sampling, with the shape parameter
//!   sweeping from heavy-tailed (`shape < 1`) to near-deterministic
//!   (`shape ≫ 1`).
//! * **ON/OFF burst modulation** ([`Arrivals::Bursty`]) — Poisson arrivals
//!   gated by Pareto-distributed ON/OFF sojourns, the classic construction
//!   for self-similar-looking traffic, with the ON rate scaled so the mean
//!   offered rate matches the plain Poisson trace.
//!
//! A [`WorkloadTrace`] is a pure schedule: arrival offsets, class indices,
//! service-size multipliers, and per-class relative deadline budgets.  It
//! carries no tensors and no clock — the bench layer maps classes to actual
//! inputs and paces submissions against a real `ptolemy_obs::Clock`-style
//! timebase.  Same spec ⇒ same trace, bit for bit.

use ptolemy_tensor::Rng64;

use crate::{DataError, Result};

/// Draws a uniform `f64` in the open interval `(0, 1)`.
///
/// `Rng64` only exposes an `f32` unit sample; distribution inversion wants
/// the full 53-bit mantissa, and the half-ulp offset keeps 0 and 1 strictly
/// excluded so `ln` and negative powers stay finite.
fn unit_open_f64(rng: &mut Rng64) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

/// Rejects non-finite or non-positive parameters with a uniform message.
fn require_positive(name: &str, value: f64) -> Result<()> {
    if !value.is_finite() || value <= 0.0 {
        return Err(DataError::InvalidConfig(format!(
            "{name} must be finite and > 0, got {value}"
        )));
    }
    Ok(())
}

/// Lanczos approximation of the gamma function Γ(x) for `x > 0.5`.
///
/// Only the right half-plane is needed here (the callers evaluate
/// `Γ(1 + 1/shape)` with `shape > 0`), which sidesteps the reflection
/// formula.  Accuracy is ~1e-13 relative over the range used — far below the
/// sampling noise of any trace this module produces.
fn gamma(x: f64) -> f64 {
    // g = 7, n = 9 coefficient set (Godfrey/Pugh).
    #[allow(
        clippy::excessive_precision,
        reason = "the published coefficient set, digit for digit"
    )]
    const COEFFICIENTS: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let mut acc = COEFFICIENTS[0];
    for (i, coefficient) in COEFFICIENTS.iter().enumerate().skip(1) {
        acc += coefficient / (x + i as f64);
    }
    let t = x + 7.5;
    (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * acc
}

/// Splits `total` utilization across `n` classes with the UUniFast algorithm.
///
/// Every returned share is non-negative and the shares sum to `total` (up to
/// floating-point rounding).  Unlike naive normalize-random-weights splits,
/// UUniFast draws uniformly from the `n-1` simplex, so extreme splits (one
/// class dominating) appear with their correct probability — the property
/// the real-time literature introduced it for.
///
/// # Errors
///
/// Rejects `n == 0` and non-finite or non-positive `total`.
pub fn uunifast(n: usize, total: f64, rng: &mut Rng64) -> Result<Vec<f64>> {
    if n == 0 {
        return Err(DataError::InvalidConfig(
            "uunifast needs at least one class".into(),
        ));
    }
    require_positive("total utilization", total)?;
    let mut shares = Vec::with_capacity(n);
    let mut remaining = total;
    for i in 1..n {
        let next = remaining * unit_open_f64(rng).powf(1.0 / (n - i) as f64);
        shares.push(remaining - next);
        remaining = next;
    }
    shares.push(remaining);
    Ok(shares)
}

/// A Weibull distribution sampled by inverse-CDF transform.
///
/// `sample = scale · (−ln(1−u))^(1/shape)` with `u ~ U(0,1)`.  `shape < 1`
/// gives a heavy tail (occasional huge requests), `shape = 1` is exponential,
/// `shape ≫ 1` concentrates near `scale` — the standard knob for service-size
/// variation in serving workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// A Weibull with the given shape `k` and scale `λ`.
    ///
    /// # Errors
    ///
    /// Rejects non-finite or non-positive parameters.
    pub fn new(shape: f64, scale: f64) -> Result<Weibull> {
        require_positive("weibull shape", shape)?;
        require_positive("weibull scale", scale)?;
        Ok(Weibull { shape, scale })
    }

    /// A Weibull with the given shape and the scale chosen so the mean is
    /// exactly 1 (`scale = 1 / Γ(1 + 1/shape)`) — the form used for
    /// service-size *multipliers*.
    ///
    /// # Errors
    ///
    /// Rejects non-finite or non-positive `shape`.
    pub fn with_unit_mean(shape: f64) -> Result<Weibull> {
        require_positive("weibull shape", shape)?;
        Weibull::new(shape, 1.0 / gamma(1.0 + 1.0 / shape))
    }

    /// The shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale parameter `λ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The distribution mean, `scale · Γ(1 + 1/shape)`.
    pub fn mean(&self) -> f64 {
        self.scale * gamma(1.0 + 1.0 / self.shape)
    }

    /// Draws one sample; always finite and strictly positive.
    pub fn sample(&self, rng: &mut Rng64) -> f64 {
        let u = unit_open_f64(rng);
        self.scale * (-(1.0 - u).ln()).powf(1.0 / self.shape)
    }
}

/// Draws an exponential sample with the given mean (inverse CDF).
fn exponential(mean: f64, rng: &mut Rng64) -> f64 {
    -mean * (1.0 - unit_open_f64(rng)).ln()
}

/// Draws a Pareto(α) sample with the given mean (requires `α > 1`).
fn pareto(alpha: f64, mean: f64, rng: &mut Rng64) -> f64 {
    // mean = α·x_m / (α − 1) ⇒ x_m = mean·(α − 1)/α.
    let x_m = mean * (alpha - 1.0) / alpha;
    x_m * (1.0 - unit_open_f64(rng)).powf(-1.0 / alpha)
}

/// Pareto tail exponent for ON/OFF sojourns: infinite variance (`α < 2`) for
/// self-similar-looking burst structure, finite mean (`α > 1`) so the
/// modulation stays calibratable.
const SOJOURN_ALPHA: f64 = 1.5;

/// The arrival process shape of a [`WorkloadSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Open-loop Poisson arrivals: i.i.d. exponential interarrivals at the
    /// aggregate rate implied by the spec's utilization and mean service
    /// size.
    Poisson,
    /// Open-loop bursty arrivals: Poisson arrivals gated by an ON/OFF
    /// modulator with Pareto(1.5) sojourn times.  During ON phases the
    /// instantaneous rate is `burstiness ×` the Poisson rate; OFF phases are
    /// silent and sized so the *mean* rate matches [`Arrivals::Poisson`].
    Bursty {
        /// Peak-to-mean rate ratio during ON phases; must be > 1.
        burstiness: f64,
        /// Mean ON-phase duration in nanoseconds; must be > 0.
        mean_burst_ns: u64,
    },
    /// Closed-loop arrivals: `concurrency` clients that each wait for their
    /// previous request before thinking for `think_ns` and submitting the
    /// next.  Arrival offsets are the *think-time schedule* (round ·
    /// `think_ns`); actual submission is gated by completions, which is what
    /// makes the loop closed — the trace just fixes class/size/deadline
    /// draws.
    Closed {
        /// Number of closed-loop clients; must be > 0.
        concurrency: usize,
        /// Per-client think time between requests, nanoseconds.
        think_ns: u64,
    },
}

/// Specification of a deterministic workload trace.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Seed; same spec (including seed) ⇒ identical trace.
    pub seed: u64,
    /// Number of request events to generate.
    pub requests: usize,
    /// Number of request classes the utilization is split across.
    pub classes: usize,
    /// Total offered utilization (1.0 ≈ one fully-busy server worker);
    /// > 1.0 models overload.
    pub total_utilization: f64,
    /// Mean per-request service size in nanoseconds (measured or assumed).
    pub mean_service_ns: u64,
    /// Weibull shape for per-request service-size multipliers (mean 1).
    pub weibull_shape: f64,
    /// Relative deadline budget as a multiple of each class's nominal period
    /// (`mean_service_ns / class_utilization`).
    pub deadline_factor: f64,
    /// The arrival process.
    pub arrivals: Arrivals,
}

impl Default for WorkloadSpec {
    fn default() -> WorkloadSpec {
        WorkloadSpec {
            seed: 0x10AD,
            requests: 256,
            classes: 3,
            total_utilization: 0.5,
            mean_service_ns: 1_000_000,
            weibull_shape: 1.5,
            deadline_factor: 4.0,
            arrivals: Arrivals::Poisson,
        }
    }
}

/// One generated request event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestEvent {
    /// Nominal arrival offset from the trace start, nanoseconds.
    pub arrival_ns: u64,
    /// Class index in `0..spec.classes`.
    pub class: usize,
    /// Per-request service-size multiplier (Weibull, mean 1, strictly > 0).
    pub service_scale: f64,
    /// Relative deadline budget for this request, nanoseconds after arrival.
    pub deadline_ns: u64,
}

/// A generated trace: ordered request events plus the per-class parameters
/// they were drawn from.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadTrace {
    events: Vec<RequestEvent>,
    utilizations: Vec<f64>,
    class_deadline_ns: Vec<u64>,
}

impl WorkloadTrace {
    /// The request events in arrival order.
    pub fn events(&self) -> &[RequestEvent] {
        &self.events
    }

    /// The UUniFast per-class utilization shares (sum ≈ total).
    pub fn utilizations(&self) -> &[f64] {
        &self.utilizations
    }

    /// Per-class relative deadline budgets, nanoseconds.
    pub fn class_deadline_ns(&self) -> &[u64] {
        &self.class_deadline_ns
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The last nominal arrival offset (the trace's open-loop duration).
    pub fn duration_ns(&self) -> u64 {
        self.events.last().map_or(0, |event| event.arrival_ns)
    }
}

impl WorkloadSpec {
    /// Generates the trace: validates the spec, splits utilization with
    /// UUniFast, draws arrivals per the configured process, and attaches a
    /// class, a Weibull service multiplier, and a relative deadline to every
    /// event.
    ///
    /// # Errors
    ///
    /// Rejects zero `requests`/`classes`, non-positive utilization, service
    /// size, Weibull shape, or deadline factor, and malformed arrival
    /// parameters (`burstiness <= 1`, zero burst length, zero concurrency).
    pub fn generate(&self) -> Result<WorkloadTrace> {
        if self.requests == 0 {
            return Err(DataError::InvalidConfig(
                "workload needs at least one request".into(),
            ));
        }
        if self.mean_service_ns == 0 {
            return Err(DataError::InvalidConfig(
                "mean_service_ns must be > 0".into(),
            ));
        }
        require_positive("total_utilization", self.total_utilization)?;
        require_positive("deadline_factor", self.deadline_factor)?;
        match self.arrivals {
            Arrivals::Bursty {
                burstiness,
                mean_burst_ns,
            } => {
                if !burstiness.is_finite() || burstiness <= 1.0 {
                    return Err(DataError::InvalidConfig(format!(
                        "burstiness must be finite and > 1, got {burstiness}"
                    )));
                }
                if mean_burst_ns == 0 {
                    return Err(DataError::InvalidConfig("mean_burst_ns must be > 0".into()));
                }
            }
            Arrivals::Closed { concurrency, .. } => {
                if concurrency == 0 {
                    return Err(DataError::InvalidConfig(
                        "closed-loop concurrency must be > 0".into(),
                    ));
                }
            }
            Arrivals::Poisson => {}
        }

        let mut rng = Rng64::new(self.seed);
        let utilizations = uunifast(self.classes, self.total_utilization, &mut rng)?;
        let service = Weibull::with_unit_mean(self.weibull_shape)?;

        // Aggregate arrival rate: utilization = rate · mean service size, so
        // rate (per ns) = U_total / E[S].  Per-class nominal period is the
        // inverse of the class's own rate; the deadline budget is a multiple
        // of it, so lightly-loaded classes get proportionally looser
        // deadlines — the UUniFast/period coupling the rt literature uses.
        let mean_interarrival_ns = self.mean_service_ns as f64 / self.total_utilization;
        let class_deadline_ns: Vec<u64> = utilizations
            .iter()
            .map(|&share| {
                let period_ns = self.mean_service_ns as f64 / share.max(f64::MIN_POSITIVE);
                (self.deadline_factor * period_ns).min(u64::MAX as f64 / 2.0) as u64
            })
            .map(|deadline| deadline.max(1))
            .collect();

        let mut events = Vec::with_capacity(self.requests);
        let mut clock_ns = 0.0_f64;
        // ON/OFF modulator state for bursty arrivals: remaining ON time, and
        // the mean OFF length that keeps the duty cycle at 1/burstiness.
        let mut on_remaining_ns = 0.0_f64;
        for index in 0..self.requests {
            let arrival_ns = match self.arrivals {
                Arrivals::Poisson => {
                    clock_ns += exponential(mean_interarrival_ns, &mut rng);
                    clock_ns as u64
                }
                Arrivals::Bursty {
                    burstiness,
                    mean_burst_ns,
                } => {
                    let mut gap = exponential(mean_interarrival_ns / burstiness, &mut rng);
                    // Consume ON time; every exhausted ON phase inserts one
                    // silent OFF sojourn and redraws the phase pair.
                    while gap >= on_remaining_ns {
                        gap -= on_remaining_ns;
                        clock_ns += on_remaining_ns;
                        let mean_off_ns = mean_burst_ns as f64 * (burstiness - 1.0);
                        clock_ns += pareto(SOJOURN_ALPHA, mean_off_ns, &mut rng);
                        on_remaining_ns = pareto(SOJOURN_ALPHA, mean_burst_ns as f64, &mut rng);
                    }
                    on_remaining_ns -= gap;
                    clock_ns += gap;
                    clock_ns as u64
                }
                Arrivals::Closed {
                    concurrency,
                    think_ns,
                } => {
                    let round = (index / concurrency) as u64;
                    round.saturating_mul(think_ns)
                }
            };
            let class = pick_class(&utilizations, self.total_utilization, &mut rng);
            events.push(RequestEvent {
                arrival_ns,
                class,
                service_scale: service.sample(&mut rng),
                deadline_ns: class_deadline_ns[class],
            });
        }

        Ok(WorkloadTrace {
            events,
            utilizations,
            class_deadline_ns,
        })
    }
}

/// Picks a class index with probability proportional to its utilization
/// share (so offered load per class matches the UUniFast split in
/// expectation).
fn pick_class(utilizations: &[f64], total: f64, rng: &mut Rng64) -> usize {
    let mut target = unit_open_f64(rng) * total;
    for (class, &share) in utilizations.iter().enumerate() {
        if target < share {
            return class;
        }
        target -= share;
    }
    utilizations.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uunifast_shares_sum_to_total_and_stay_nonnegative() {
        let mut rng = Rng64::new(7);
        for &(n, total) in &[(1usize, 0.8f64), (4, 1.0), (16, 2.5)] {
            let shares = uunifast(n, total, &mut rng).expect("valid spec");
            assert_eq!(shares.len(), n);
            assert!(shares.iter().all(|&u| u >= 0.0));
            let sum: f64 = shares.iter().sum();
            assert!((sum - total).abs() < 1e-9, "sum {sum} != {total}");
        }
        assert!(uunifast(0, 1.0, &mut rng).is_err());
        assert!(uunifast(3, 0.0, &mut rng).is_err());
    }

    #[test]
    fn weibull_unit_mean_is_calibrated() {
        for &shape in &[0.7f64, 1.0, 1.5, 3.0] {
            let w = Weibull::with_unit_mean(shape).expect("valid shape");
            assert!((w.mean() - 1.0).abs() < 1e-9, "shape {shape}: {}", w.mean());
            let mut rng = Rng64::new(11);
            let n = 20_000;
            let mean: f64 = (0..n).map(|_| w.sample(&mut rng)).sum::<f64>() / n as f64;
            assert!((mean - 1.0).abs() < 0.05, "shape {shape}: sampled {mean}");
        }
        assert!(Weibull::new(0.0, 1.0).is_err());
        assert!(Weibull::new(1.0, f64::NAN).is_err());
    }

    #[test]
    fn gamma_matches_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(1.5) = √π/2, Γ(4) = 6.
        assert!((gamma(1.0) - 1.0).abs() < 1e-10);
        assert!((gamma(2.0) - 1.0).abs() < 1e-10);
        assert!((gamma(1.5) - std::f64::consts::PI.sqrt() / 2.0).abs() < 1e-10);
        assert!((gamma(4.0) - 6.0).abs() < 1e-8);
    }

    #[test]
    fn generate_is_deterministic_and_validates() {
        let spec = WorkloadSpec::default();
        let a = spec.generate().expect("valid spec");
        let b = spec.generate().expect("valid spec");
        assert_eq!(a, b);
        assert_eq!(a.len(), spec.requests);
        assert!(a
            .events()
            .windows(2)
            .all(|w| w[0].arrival_ns <= w[1].arrival_ns));

        let mut reseeded = spec.clone();
        reseeded.seed ^= 1;
        assert_ne!(reseeded.generate().expect("valid spec"), a);

        assert!(WorkloadSpec {
            requests: 0,
            ..spec.clone()
        }
        .generate()
        .is_err());
        assert!(WorkloadSpec {
            arrivals: Arrivals::Bursty {
                burstiness: 1.0,
                mean_burst_ns: 1_000
            },
            ..spec.clone()
        }
        .generate()
        .is_err());
        assert!(WorkloadSpec {
            arrivals: Arrivals::Closed {
                concurrency: 0,
                think_ns: 0
            },
            ..spec
        }
        .generate()
        .is_err());
    }

    #[test]
    fn bursty_traces_keep_the_mean_rate_but_raise_variance() {
        let base = WorkloadSpec {
            requests: 4_096,
            ..WorkloadSpec::default()
        };
        let poisson = base.generate().expect("valid spec");
        let bursty = WorkloadSpec {
            arrivals: Arrivals::Bursty {
                burstiness: 8.0,
                mean_burst_ns: 20_000_000,
            },
            ..base
        }
        .generate()
        .expect("valid spec");
        // Mean rates agree within a factor of 2 (Pareto sojourns are noisy
        // at this length); burst structure shows up as a much larger
        // interarrival variance.
        let span = |t: &WorkloadTrace| t.duration_ns().max(1) as f64;
        let ratio = span(&bursty) / span(&poisson);
        assert!((0.5..2.0).contains(&ratio), "duration ratio {ratio}");
        let var = |t: &WorkloadTrace| {
            let gaps: Vec<f64> = t
                .events()
                .windows(2)
                .map(|w| (w[1].arrival_ns - w[0].arrival_ns) as f64)
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64
        };
        assert!(
            var(&bursty) > 2.0 * var(&poisson),
            "bursty variance {} vs poisson {}",
            var(&bursty),
            var(&poisson)
        );
    }

    #[test]
    fn closed_loop_schedules_by_round() {
        let trace = WorkloadSpec {
            requests: 10,
            arrivals: Arrivals::Closed {
                concurrency: 4,
                think_ns: 1_000,
            },
            ..WorkloadSpec::default()
        }
        .generate()
        .expect("valid spec");
        let offsets: Vec<u64> = trace.events().iter().map(|e| e.arrival_ns).collect();
        assert_eq!(
            offsets,
            vec![0, 0, 0, 0, 1_000, 1_000, 1_000, 1_000, 2_000, 2_000]
        );
    }
}
