//! The six workloads: what runs, under which load, and why each is here.

use crate::fixture::Net;

/// How requests reach the system under test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Closed loop, one thread calling `DetectionEngine::detect`.
    Direct,
    /// Open loop against a `Server`: requests are submitted at the due times
    /// of a seeded `ptolemy_data::workload` trace with
    /// `try_submit_with_deadline`, and nobody waits for replies.
    ServeOpen {
        /// Mean offered rate, requests per second.
        rate_rps: f64,
        /// `Some((burstiness, mean_burst_ns))` for Pareto ON/OFF arrivals,
        /// `None` for Poisson.
        bursty: Option<(f64, u64)>,
        /// Relative deadline of every request, milliseconds.
        deadline_ms: u64,
        /// Capacity of the server's queue.
        queue_capacity: usize,
        /// Zipf(1.0) over the pool when `true`, a cyclic scan when `false`.
        zipf: bool,
        /// Default `AdmissionPolicy` and `DegradePolicy` when `true`.
        overload_policies: bool,
    },
    /// Closed loop against a `Server`: one generator keeping
    /// [`CLOSED_IN_FLIGHT`] requests in flight, no deadlines, cache off.
    ServeClosed {
        /// Screen on the int8 tier (`ServerBuilder::quantized_screen`).
        int8: bool,
    },
}

/// Requests the closed-loop serving generator keeps in flight.
pub const CLOSED_IN_FLIGHT: usize = 32;

/// Result-cache capacity of the open-loop serving workloads; keys are whole
/// activation paths, so every hit is an exact duplicate.
pub const CACHE_CAPACITY: usize = 1024;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name used by `--workload` and in every report.
    pub name: &'static str,
    /// The victim network.
    pub net: Net,
    /// Inputs in the seeded pool requests are drawn from.
    pub pool_size: usize,
    /// The load shape.
    pub load: Load,
    /// Requests per second of timed phase the run is sized for: a run issues
    /// exactly `nominal_rps × --seconds` requests (in equal segments),
    /// so request counts repeat for a fixed `--seconds`.  For closed loops
    /// this is slightly below what the seed commit sustains on the 2-core
    /// reference box, so the timed phase lasts about `--seconds` there.
    pub nominal_rps: f64,
    /// Listed in `BENCHMARK.json`: the driver runs it and the bounds gate it.
    /// The others run with `--workload` and in an all-workloads `run`.
    pub gated: bool,
    /// Why the workload exists (also in `BENCHMARK.json` when gated).
    pub why: &'static str,
}

/// Every workload, in reporting order.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "direct_fwab_alexnet",
        net: Net::Alexnet,
        pool_size: 2048,
        load: Load::Direct,
        nominal_rps: 2700.0,
        gated: true,
        why: "FwAb detect on the AlexNet-class net: forward inference and core's streaming-overlap glue dominate, extraction is cheap",
    },
    Workload {
        name: "direct_bwcu_resnet",
        net: Net::Resnet,
        pool_size: 256,
        load: Load::Direct,
        nominal_rps: 500.0,
        gated: true,
        why: "BwCu detect on the ResNet-class net: core path extraction dominates, so a kernel change should not move it",
    },
    Workload {
        name: "serve_steady_zipf",
        net: Net::Alexnet,
        pool_size: 2048,
        load: Load::ServeOpen {
            rate_rps: 1600.0,
            bursty: None,
            // Ten seconds, and room for ten seconds of arrivals: a stalled box
            // delays requests (the latency percentiles show it) and fails
            // none of them.
            deadline_ms: 10_000,
            queue_capacity: 16_384,
            zipf: true,
            overload_policies: false,
        },
        nominal_rps: 1600.0,
        gated: true,
        why: "Server under light Poisson load with Zipf-repeated inputs: queue wait, batch forming and cache reads set the latency",
    },
    Workload {
        name: "serve_burst_scan",
        net: Net::Alexnet,
        pool_size: 2048,
        load: Load::ServeOpen {
            rate_rps: 650.0,
            bursty: Some((2.5, 10_000_000)),
            deadline_ms: 500,
            queue_capacity: 256,
            zipf: false,
            overload_policies: true,
        },
        nominal_rps: 650.0,
        gated: false,
        why: "Server under Pareto bursts scanning a pool larger than the cache: every probe misses, inserts and evicts; admission and degradation run",
    },
    Workload {
        name: "serve_closed_f32",
        net: Net::Alexnet,
        pool_size: 2048,
        load: Load::ServeClosed { int8: false },
        nominal_rps: 3600.0,
        gated: true,
        why: "Server capacity with 32 requests in flight, cache off: fused batches, worker contention, tier 2 sharing the cores",
    },
    Workload {
        name: "serve_closed_int8",
        net: Net::Alexnet,
        pool_size: 2048,
        load: Load::ServeClosed { int8: true },
        nominal_rps: 3600.0,
        gated: false,
        why: "serve_closed_f32 with the int8 screen switched on: the int8 tier's only same-load comparison",
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
