//! The metric catalogue (names, units, directions — `BENCHMARK.json` lists the
//! same, and a unit test keeps the two in step) and the output formats.

use crate::layers::Metrics;
use crate::run::Outcome;

/// An end-to-end metric: what a caller of `detect` or `submit` sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse before
    /// it counts as a regression.
    pub bound: f64,
    /// `true` when the value is host wall-clock time (or derived from it), so
    /// it is subject to the box's noise; `false` for exact/deterministic ones.
    pub host_time: bool,
}

/// The end-to-end metrics, reported per workload.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        host_time: true,
    },
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        host_time: true,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        host_time: true,
    },
    EndToEnd {
        name: "detection_auc",
        unit: "auc",
        better: "higher",
        bound: 0.01,
        host_time: false,
    },
    EndToEnd {
        name: "modelled_latency_factor",
        unit: "ratio",
        better: "lower",
        bound: 0.01,
        host_time: false,
    },
    EndToEnd {
        name: "modelled_energy_factor",
        unit: "ratio",
        better: "lower",
        bound: 0.01,
        host_time: false,
    },
];

/// The per-layer metrics: `(name, unit, better)`.  The prefix is the crate
/// the number describes; `bench.*` describes the harness itself.
pub const PER_LAYER: [(&str, &str, &str); 84] = [
    ("tensor.im2col_ns", "ns", "lower"),
    ("tensor.im2col_batch16_ns", "ns", "lower"),
    ("tensor.gemm_f32_ns", "ns", "lower"),
    ("tensor.gemm_f32_batch16_ns", "ns", "lower"),
    ("tensor.gemm_f32_gflops", "GFLOP/s", "higher"),
    ("tensor.gemm_i8_ns", "ns", "lower"),
    ("tensor.im2col_i8_ns", "ns", "lower"),
    ("tensor.gemm_flops", "count", "lower"),
    ("tensor.gemm_bytes", "B", "lower"),
    ("nn.forward_ns", "ns", "lower"),
    ("nn.forward_trace_ns", "ns", "lower"),
    ("nn.forward_batch16_per_input_ns", "ns", "lower"),
    ("nn.forward_int8_ns", "ns", "lower"),
    ("nn.layer_ns.conv", "ns", "lower"),
    ("nn.layer_ns.dense", "ns", "lower"),
    ("nn.layer_ns.pool", "ns", "lower"),
    ("nn.layer_ns.relu", "ns", "lower"),
    ("nn.layer_ns.residual", "ns", "lower"),
    ("nn.layer_ns.other", "ns", "lower"),
    ("nn.macs", "count", "lower"),
    ("nn.trace_bytes", "B", "lower"),
    ("core.detect_ns", "ns", "lower"),
    ("core.detect_batch16_per_input_ns", "ns", "lower"),
    ("core.extract_ns", "ns", "lower"),
    ("core.extract_streaming_ns", "ns", "lower"),
    ("core.similarity_ns", "ns", "lower"),
    ("core.fingerprint_ns", "ns", "lower"),
    ("core.detect_residual_ns", "ns", "lower"),
    ("core.path_density_milli", "milli", "lower"),
    ("core.path_bits", "count", "lower"),
    ("core.profile_per_sample_ns", "ns", "lower"),
    ("core.calibrate_ns", "ns", "lower"),
    ("forest.predict_ns", "ns", "lower"),
    ("forest.nodes", "count", "lower"),
    ("serve.submit_ns", "ns", "lower"),
    ("serve.wait_ns", "ns", "lower"),
    ("serve.queueing_ns", "ns", "lower"),
    ("serve.batches", "count", "lower"),
    ("serve.mean_batch_milli", "milli", "higher"),
    ("serve.max_batch", "count", "higher"),
    ("serve.escalated_share", "share", "lower"),
    ("serve.cache_hit_share", "share", "higher"),
    ("serve.cache_get_ns", "ns", "lower"),
    ("serve.cache_insert_ns", "ns", "lower"),
    ("serve.shed_admission", "count", "lower"),
    ("serve.shed_expired", "count", "lower"),
    ("serve.deadline_misses", "count", "lower"),
    ("serve.degraded_share", "share", "lower"),
    ("serve.degrade_entered", "count", "lower"),
    ("serve.pipelined_batch_share", "share", "higher"),
    ("serve.worker_panics", "count", "lower"),
    ("serve.failed", "count", "lower"),
    ("serve.stage.queue_wait_p50_ns", "ns", "lower"),
    ("serve.stage.batch_form_p50_ns", "ns", "lower"),
    ("serve.stage.cache_lookup_p50_ns", "ns", "lower"),
    ("serve.stage.screen_p50_ns", "ns", "lower"),
    ("serve.stage.escalate_p50_ns", "ns", "lower"),
    ("serve.stage.overlap_p50_ns", "ns", "lower"),
    ("compiler.compile_ns", "ns", "lower"),
    ("compiler.static_instructions", "count", "lower"),
    ("isa.instructions", "count", "lower"),
    ("accel.simulate_ns", "ns", "lower"),
    ("accel.sim_total_cycles", "cycles", "lower"),
    ("accel.sim_inference_cycles", "cycles", "lower"),
    ("accel.sim_extra_dram_bytes", "B", "lower"),
    ("accel.sim_extra_dram_space_bytes", "B", "lower"),
    ("obs.clock_now_ns", "ns", "lower"),
    ("obs.hist_record_ns", "ns", "lower"),
    ("data.trace_generate_ns", "ns", "lower"),
    ("attacks.fgsm_per_sample_ns", "ns", "lower"),
    ("bench.latency_p95_us", "us", "lower"),
    ("bench.latency_p99_us", "us", "lower"),
    ("bench.median_throughput_rps", "1/s", "higher"),
    ("bench.median_latency_p50_us", "us", "lower"),
    ("bench.median_latency_p95_us", "us", "lower"),
    ("bench.generator_lag_p95_us", "us", "lower"),
    ("bench.generator_lag_max_us", "us", "lower"),
    ("bench.segment_spread_share", "share", "lower"),
    ("bench.trace_overhead_share", "share", "lower"),
    ("bench.samples", "count", "higher"),
    ("bench.failed_share", "share", "lower"),
    ("bench.invalid_segments", "count", "lower"),
    ("bench.peak_rss_mib", "MiB", "lower"),
    ("bench.inference_overhead_ratio", "ratio", "lower"),
];

/// Formats a value with all its digits; JSON has no NaN or infinity, so a
/// value that is not finite (a bug) is written as 0.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

/// `{"name": {"value": .., "unit": ..}, ..}` for every catalogued metric, in
/// catalogue order.
///
/// # Errors
///
/// Names a catalogued metric the run did not produce (a bug in the harness).
fn metrics_json<'a>(
    catalogue: impl Iterator<Item = (&'a str, &'a str)>,
    measured: &Metrics,
) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, unit) in catalogue {
        let value = measured
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        ));
    }
    Ok(format!("{{{}}}", fields.join(", ")))
}

/// The end-to-end metrics of `outcome` as a JSON object.
///
/// # Errors
///
/// See [`metrics_json`].
pub fn end_to_end_json(outcome: &Outcome) -> Result<String, String> {
    metrics_json(
        END_TO_END.iter().map(|m| (m.name, m.unit)),
        &outcome.end_to_end,
    )
}

/// The per-layer metrics of `outcome` as a JSON object.
///
/// # Errors
///
/// See [`metrics_json`].
pub fn per_layer_json(outcome: &Outcome) -> Result<String, String> {
    metrics_json(PER_LAYER.iter().map(|m| (m.0, m.1)), &outcome.per_layer)
}

/// The one-line result the benchmark contract asks for: end-to-end metrics
/// for an untraced run, per-layer metrics for a traced one.
///
/// # Errors
///
/// See [`metrics_json`].
pub fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let metrics = if traced {
        per_layer_json(outcome)?
    } else {
        end_to_end_json(outcome)?
    };
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.correct, outcome.attempted, outcome.failed
    ))
}

/// Prints every metric of `outcome` by name with its unit, then the notes.
pub fn print_human(workload: &str, outcome: &Outcome) {
    let unit_of = |name: &str| -> &'static str {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
            .find(|(n, _)| *n == name)
            .map_or("?", |(_, unit)| unit)
    };
    println!("== {workload}");
    for (name, value) in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        println!("{name:<36} {value:>18.4} {}", unit_of(name));
    }
    println!(
        "verdicts: attempted {} failed {} correct {} checksum {:016x}",
        outcome.attempted, outcome.failed, outcome.correct, outcome.checksum
    );
    for note in &outcome.notes {
        println!("note: {note}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads::WORKLOADS;

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(Value::as_f64).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<(String, String, String)> = doc
            .get("per_layer")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.0.into(), m.1.into(), m.2.into()))
            .collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            end_to_end: END_TO_END.iter().map(|m| (m.name, 1.5)).collect(),
            per_layer: PER_LAYER.iter().map(|m| (m.0, f64::NAN)).collect(),
            checksum: 0,
            notes: Vec::new(),
        };
        for traced in [false, true] {
            let doc = json::parse(&result_line(&outcome, traced).unwrap()).unwrap();
            let keys: Vec<&str> = doc
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = doc.get("metrics").and_then(Value::as_object).unwrap();
            assert_eq!(
                metrics.len(),
                if traced {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                }
            );
            let first = &metrics[0].1;
            assert_eq!(
                first.get("value").and_then(Value::as_f64),
                Some(if traced { 0.0 } else { 1.5 })
            );
        }
        // A metric the run did not produce is a harness bug, not a silent 0.
        let mut missing = outcome;
        missing.end_to_end.pop();
        assert!(result_line(&missing, false).is_err());
    }
}
