//! `compare A.json B.json`: applies the `BENCHMARK.json` bounds to every
//! (end-to-end metric, workload) pairing of two result files, for every
//! workload in A.

use crate::json::{self, Value};
use crate::report::END_TO_END;
use crate::BenchResult;

/// Verdict on one (metric, workload) pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Within the bound either way.
    Ok,
    /// B is worse than A by more than the bound.
    Regressed,
    /// B is better than A by more than the bound.
    Improved,
    /// A host-time metric on a workload whose own segment spread exceeds the
    /// bound in either run: the difference cannot be told from noise.
    Unresolved,
}

impl Status {
    fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regressed => "regressed",
            Status::Improved => "improved",
            Status::Unresolved => "unresolved",
        }
    }
}

/// Classifies one pairing.  `worse_by` is how much worse B is than A as a
/// share of A (negative when B is better); `spread` is the larger of the two
/// runs' `bench.segment_spread_share`, consulted for host-time metrics only.
pub fn classify(
    a: f64,
    b: f64,
    higher_is_better: bool,
    bound: f64,
    host_time: bool,
    spread: f64,
) -> (f64, Status) {
    let worse_by = if a == 0.0 {
        0.0
    } else if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    };
    let status = if host_time && spread > bound {
        Status::Unresolved
    } else if worse_by > bound {
        Status::Regressed
    } else if worse_by < -bound {
        Status::Improved
    } else {
        Status::Ok
    };
    (worse_by, status)
}

fn metric(run: &Value, workload: &str, group: &str, name: &str) -> Option<f64> {
    run.get("workloads")?
        .get(workload)?
        .get(group)?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Loads the bounds from `bounds_path` (a `BENCHMARK.json`), compares the two
/// result files and prints one row per pairing.  Returns how many regressed.
///
/// # Errors
///
/// Propagates I/O and parse errors and reports workloads or metrics missing
/// from either file.
pub fn compare(a_path: &str, b_path: &str, bounds_path: &str) -> BenchResult<usize> {
    let load = |path: &str| -> BenchResult<Value> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Ok(json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
    };
    let (a, b, spec) = (load(a_path)?, load(b_path)?, load(bounds_path)?);
    // Every workload of A: the gated ones `BENCHMARK.json` lists and the rest.
    let workloads: Vec<&str> = a
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{a_path}: no workloads"))?
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    let metrics = spec
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end metrics")?;

    println!(
        "{:<22} {:<26} {:>14} {:>14} {:>9} {:>7}  status",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut regressed = 0;
    for workload in workloads {
        let spread = [&a, &b]
            .iter()
            .filter_map(|run| metric(run, workload, "per_layer", "bench.segment_spread_share"))
            .fold(0.0, f64::max);
        for entry in metrics {
            let name = entry
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let bound = entry
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without a bound")?;
            let higher = entry.get("better").and_then(Value::as_str) == Some("higher");
            let host_time = END_TO_END
                .iter()
                .find(|m| m.name == name)
                .map_or(true, |m| m.host_time);
            let value = |run: &Value, path: &str| -> BenchResult<f64> {
                metric(run, workload, "end_to_end", name)
                    .ok_or_else(|| format!("{path}: no {name} for {workload}").into())
            };
            let (va, vb) = (value(&a, a_path)?, value(&b, b_path)?);
            let (worse_by, status) = classify(va, vb, higher, bound, host_time, spread);
            regressed += usize::from(status == Status::Regressed);
            println!(
                "{workload:<22} {name:<26} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.1}%  {}",
                100.0 * worse_by,
                100.0 * bound,
                status.label()
            );
        }
    }
    println!("{regressed} regressed");
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_follows_direction_bound_and_spread() {
        // Lower is better: +12 % is a regression at a 10 % bound.
        assert_eq!(
            classify(100.0, 112.0, false, 0.1, true, 0.0).1,
            Status::Regressed
        );
        assert_eq!(classify(100.0, 108.0, false, 0.1, true, 0.0).1, Status::Ok);
        assert_eq!(
            classify(100.0, 85.0, false, 0.1, true, 0.0).1,
            Status::Improved
        );
        // Higher is better: throughput falling 12 % regresses.
        let (worse_by, status) = classify(1000.0, 880.0, true, 0.1, true, 0.0);
        assert!((worse_by - 0.12).abs() < 1e-12);
        assert_eq!(status, Status::Regressed);
        assert_eq!(
            classify(1000.0, 1200.0, true, 0.1, true, 0.0).1,
            Status::Improved
        );
        // A noisy run cannot resolve host-time metrics, but exact ones still gate.
        assert_eq!(
            classify(100.0, 150.0, false, 0.1, true, 0.3).1,
            Status::Unresolved
        );
        assert_eq!(
            classify(100.0, 150.0, false, 0.1, false, 0.3).1,
            Status::Regressed
        );
        // An exact metric with a tiny bound flags any real change.
        assert_eq!(classify(1.5, 1.5, false, 0.01, false, 0.0).1, Status::Ok);
        assert_eq!(
            classify(1.5, 1.6, false, 0.01, false, 0.0).1,
            Status::Regressed
        );
    }
}
