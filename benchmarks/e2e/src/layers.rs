//! Per-layer probes of the traced pass: each layer's public functions timed
//! from outside, on the shapes and inputs of the workload's own network.
//!
//! Counts (`*.macs`, `*.flops`, `*.nodes`, …) are exact; kernel bytes are
//! computed from shapes, not measured.

use std::collections::HashMap;
use std::sync::Arc;

use ptolemy_core::{extract_path, extract_path_streaming, DetectionEngine};
use ptolemy_data::{Arrivals, WorkloadSpec};
use ptolemy_nn::{LayerKind, Network, QuantizedNetwork, TraceSink};
use ptolemy_obs::{Clock, Histogram};
use ptolemy_serve::LruCache;
use ptolemy_tensor::{
    im2col, im2col_batch, im2col_i8, matmul_i8_blocked, matmul_parallel, Conv2dGeometry,
    QuantParams, Rng64, Tensor,
};

use crate::spans::SpanLog;
use crate::stats::{median, median_u64};
use crate::{oracle, BenchResult};

/// Named metric values a probe contributes.
pub type Metrics = Vec<(&'static str, f64)>;

/// Median nanoseconds of one `call()` over `reps` timed calls, after one
/// untimed call.
fn time_ns(clock: &Clock, reps: usize, mut call: impl FnMut()) -> f64 {
    call();
    let samples: Vec<u64> = (0..reps)
        .map(|_| {
            let start_ns = clock.now_ns();
            call();
            clock.now_ns() - start_ns
        })
        .collect();
    median_u64(&samples)
}

/// Like [`time_ns`] for calls far shorter than a clock read: each sample
/// times `inner` back-to-back calls and reports nanoseconds per call.
fn time_batched_ns(clock: &Clock, reps: usize, inner: usize, mut call: impl FnMut()) -> f64 {
    time_ns(clock, reps, || {
        for _ in 0..inner {
            call();
        }
    }) / inner as f64
}

fn conv_shapes(kind: &LayerKind, out: &mut Vec<(Conv2dGeometry, usize)>) {
    match kind {
        LayerKind::Conv2d {
            geometry,
            out_channels,
        } => out.push((*geometry, *out_channels)),
        LayerKind::Residual { inner } => inner.iter().for_each(|k| conv_shapes(k, out)),
        _ => {}
    }
}

/// `tensor.*`: im2col and GEMM on the shape of the network's largest
/// convolution (most MACs; inside residual blocks too), at batch 1 and 16,
/// f32 and int8.  Operands are seeded random values of that shape.
///
/// # Errors
///
/// Propagates tensor errors; fails if the network has no convolution.
pub fn tensor_probe(network: &Network, clock: &Clock) -> BenchResult<Metrics> {
    let mut shapes = Vec::new();
    for layer in network.layers() {
        conv_shapes(&layer.kind(), &mut shapes);
    }
    let (geometry, out_channels) = shapes
        .into_iter()
        .max_by_key(|(g, oc)| g.patch_len() * g.num_patches() * oc)
        .ok_or("network has no convolution layer")?;
    let (m, k, n) = (out_channels, geometry.patch_len(), geometry.num_patches());
    let mut rng = Rng64::new(0x7E50);
    let mut random = |dims: &[usize]| -> BenchResult<Tensor> {
        let len = dims.iter().product();
        Ok(Tensor::from_vec(
            (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect(),
            dims,
        )?)
    };
    let image_dims = [geometry.in_channels, geometry.in_h, geometry.in_w];
    let image = random(&image_dims)?;
    let batch = random(&[16, image_dims[0], image_dims[1], image_dims[2]])?;
    let weight = random(&[m, k])?;
    let cols = im2col(&image, &geometry)?;
    let cols16 = im2col_batch(&batch, &geometry)?;
    let params = QuantParams::from_max_abs(1.0);
    let weight_i8 = ptolemy_tensor::quantize_slice(weight.as_slice(), params);
    let cols_i8 = im2col_i8(&image, &geometry, params)?;

    let gemm_ns = time_ns(clock, 200, || {
        std::hint::black_box(weight.matmul(std::hint::black_box(&cols)).ok());
    });
    let flops = 2.0 * (m * k * n) as f64;
    Ok(vec![
        (
            "tensor.im2col_ns",
            time_ns(clock, 200, || {
                std::hint::black_box(im2col(std::hint::black_box(&image), &geometry).ok());
            }),
        ),
        (
            "tensor.im2col_batch16_ns",
            time_ns(clock, 40, || {
                std::hint::black_box(im2col_batch(std::hint::black_box(&batch), &geometry).ok());
            }),
        ),
        ("tensor.gemm_f32_ns", gemm_ns),
        (
            "tensor.gemm_f32_batch16_ns",
            time_ns(clock, 40, || {
                std::hint::black_box(matmul_parallel(&weight, std::hint::black_box(&cols16)).ok());
            }),
        ),
        ("tensor.gemm_f32_gflops", flops / gemm_ns),
        (
            "tensor.gemm_i8_ns",
            time_ns(clock, 200, || {
                std::hint::black_box(
                    matmul_i8_blocked(&weight_i8, std::hint::black_box(&cols_i8), m, k, n).ok(),
                );
            }),
        ),
        (
            "tensor.im2col_i8_ns",
            time_ns(clock, 200, || {
                std::hint::black_box(
                    im2col_i8(std::hint::black_box(&image), &geometry, params).ok(),
                );
            }),
        ),
        ("tensor.gemm_flops", flops),
        ("tensor.gemm_bytes", 4.0 * (m * k + k * n + m * n) as f64),
    ])
}

/// Buckets of `nn.layer_ns.*`.
const LAYER_CLASSES: [&str; 6] = [
    "nn.layer_ns.conv",
    "nn.layer_ns.dense",
    "nn.layer_ns.pool",
    "nn.layer_ns.relu",
    "nn.layer_ns.residual",
    "nn.layer_ns.other",
];

fn layer_class(kind: &LayerKind) -> usize {
    match kind {
        LayerKind::Conv2d { .. } => 0,
        LayerKind::Dense { .. } => 1,
        LayerKind::MaxPool | LayerKind::AvgPool => 2,
        LayerKind::Activation => 3,
        LayerKind::Residual { .. } => 4,
        LayerKind::Reshape => 5,
    }
}

/// The benchmark's own layer timer: the gap between consecutive boundaries of
/// one forward pass is charged to the layer that produced the later one.
struct LayerClock<'a> {
    clock: &'a Clock,
    class_of_layer: &'a [usize],
    last_ns: u64,
    per_class_ns: [u64; 6],
}

impl TraceSink for LayerClock<'_> {
    fn on_input(&mut self, _input: &Tensor) {
        self.last_ns = self.clock.now_ns();
    }

    fn on_layer(&mut self, index: usize, _output: &Tensor) {
        let now_ns = self.clock.now_ns();
        self.per_class_ns[self.class_of_layer[index]] += now_ns - self.last_ns;
        self.last_ns = now_ns;
    }
}

/// `nn.*`: whole forward passes (plain, traced, batch of 16, int8) and the
/// per-layer-class split of one pass, over `inputs`.
///
/// # Errors
///
/// Propagates network errors.
pub fn nn_probe(
    network: &Arc<Network>,
    qnet: &QuantizedNetwork,
    inputs: &[Tensor],
    clock: &Clock,
) -> BenchResult<Metrics> {
    let mut next = 0usize;
    let mut input = || {
        next += 1;
        &inputs[next % inputs.len()]
    };
    let forward_ns = time_ns(clock, 200, || {
        std::hint::black_box(network.forward(input()).ok());
    });
    let forward_trace_ns = time_ns(clock, 200, || {
        std::hint::black_box(network.forward_trace(input()).ok());
    });
    let forward_int8_ns = time_ns(clock, 200, || {
        std::hint::black_box(qnet.forward(input()).ok());
    });
    let batch: Vec<Tensor> = inputs.iter().take(16).cloned().collect();
    let batch_ns = time_ns(clock, 30, || {
        std::hint::black_box(network.forward_batch(&batch).ok());
    });

    let class_of_layer: Vec<usize> = network.layers().map(|l| layer_class(&l.kind())).collect();
    let mut per_class: Vec<Vec<f64>> = vec![Vec::new(); LAYER_CLASSES.len()];
    for input in inputs.iter().take(100) {
        let mut sink = LayerClock {
            clock,
            class_of_layer: &class_of_layer,
            last_ns: 0,
            per_class_ns: [0; 6],
        };
        network.forward_with_sink(input, &mut sink)?;
        for (samples, ns) in per_class.iter_mut().zip(sink.per_class_ns) {
            samples.push(ns as f64);
        }
    }

    let mut metrics = vec![
        ("nn.forward_ns", forward_ns),
        ("nn.forward_trace_ns", forward_trace_ns),
        (
            "nn.forward_batch16_per_input_ns",
            batch_ns / batch.len() as f64,
        ),
        ("nn.forward_int8_ns", forward_int8_ns),
        ("nn.macs", network.total_macs() as f64),
        (
            "nn.trace_bytes",
            network.forward_trace(&inputs[0])?.activation_bytes() as f64,
        ),
    ];
    for (name, samples) in LAYER_CLASSES.iter().zip(&per_class) {
        metrics.push((name, median(samples)));
    }
    Ok(metrics)
}

/// Runs one probe request on `engine`: the whole `detect` call, then the same
/// input decomposed by the benchmark into the public calls `detect` is made
/// of, each wrapped in a span under one request id.  Returns the `detect`
/// verdict and how long that call took, after checking the decomposition
/// reproduces the verdict bit for bit.
///
/// # Errors
///
/// Propagates engine errors; fails if the decomposed verdict differs.
pub fn probe_request(
    engine: &DetectionEngine,
    input: &Tensor,
    request_id: u64,
    clock: &Clock,
    log: &mut SpanLog,
) -> BenchResult<(ptolemy_core::Detection, u64)> {
    let forest = engine.forest().ok_or("engine has no classifier")?;
    let t0 = clock.now_ns();
    let verdict = engine.detect(input)?;
    let t1 = clock.now_ns();
    let trace = engine.network().forward_trace(input)?;
    let t2 = clock.now_ns();
    let path = extract_path(engine.network(), &trace, engine.program())?;
    let t3 = clock.now_ns();
    let predicted_class = trace.predicted_class()?;
    let similarity = path.similarity(engine.class_paths().class_path(predicted_class)?)?;
    let t4 = clock.now_ns();
    let score = forest.predict_proba(&[similarity])?;
    let t5 = clock.now_ns();

    let decomposed = ptolemy_core::Detection {
        is_adversary: score >= engine.threshold(),
        score,
        similarity,
        predicted_class,
    };
    if !oracle::same_bits(&verdict, &decomposed) {
        return Err("the decomposed detect does not reproduce the detect verdict".into());
    }
    let root = log.push("request", t0, t5, None, request_id);
    log.push("core.detect", t0, t1, Some(root), request_id);
    let parts = log.push("core.decomposed", t1, t5, Some(root), request_id);
    log.push("nn.forward_trace", t1, t2, Some(parts), request_id);
    log.push("core.extract_path", t2, t3, Some(parts), request_id);
    log.push("core.similarity", t3, t4, Some(parts), request_id);
    log.push("forest.predict_proba", t4, t5, Some(parts), request_id);
    Ok((verdict, t1 - t0))
}

/// `core.*` and `forest.*` read off the probe-request spans in `log`, plus
/// the calls the spans do not cover (fused batch, streaming extraction,
/// fingerprinting) timed directly.
///
/// `core.detect_residual_ns` is, per probe request, `core.detect` minus the
/// sum of the four decomposed parts: positive is glue and thread cost,
/// negative is what overlapping extraction with the forward pass won.
///
/// # Errors
///
/// Propagates engine errors; fails if `log` holds no probe requests.
pub fn core_probe(
    engine: &DetectionEngine,
    inputs: &[Tensor],
    log: &SpanLog,
    clock: &Clock,
) -> BenchResult<Metrics> {
    // Per probe request: the whole `detect` minus the decomposed run, whose
    // span covers its four parts back to back.  Both hang off one root.
    let spans = log.spans();
    let detect_of_root: HashMap<Option<usize>, u64> = spans
        .iter()
        .filter(|span| span.name == "core.detect")
        .map(|span| (span.parent, span.end_ns - span.start_ns))
        .collect();
    let residuals: Vec<f64> = spans
        .iter()
        .filter(|span| span.name == "core.decomposed")
        .filter_map(|parts| {
            let detect_ns = *detect_of_root.get(&parts.parent)?;
            Some(detect_ns as f64 - (parts.end_ns - parts.start_ns) as f64)
        })
        .collect();
    if residuals.is_empty() {
        return Err("no probe requests were recorded".into());
    }

    let mut next = 0usize;
    let mut input = || {
        next += 1;
        &inputs[next % inputs.len()]
    };
    let batch: Vec<Tensor> = inputs.iter().take(16).cloned().collect();
    let batch_ns = time_ns(clock, 30, || {
        std::hint::black_box(engine.detect_batch(&batch).ok());
    });
    let streaming_ns = time_ns(clock, 100, || {
        std::hint::black_box(
            extract_path_streaming(engine.network(), engine.program(), input()).ok(),
        );
    });
    let path = engine.detect_with_path(&inputs[0])?.1;
    let fingerprint_ns = time_batched_ns(clock, 50, 16, || {
        std::hint::black_box(std::hint::black_box(&path).prefix_fingerprint(usize::MAX));
    });
    let forest = engine.forest().ok_or("engine has no classifier")?;
    Ok(vec![
        (
            "core.detect_ns",
            median_u64(&log.durations_of("core.detect")),
        ),
        (
            "core.detect_batch16_per_input_ns",
            batch_ns / batch.len() as f64,
        ),
        (
            "core.extract_ns",
            median_u64(&log.durations_of("core.extract_path")),
        ),
        ("core.extract_streaming_ns", streaming_ns),
        (
            "core.similarity_ns",
            median_u64(&log.durations_of("core.similarity")),
        ),
        ("core.fingerprint_ns", fingerprint_ns),
        ("core.detect_residual_ns", median(&residuals)),
        ("core.path_bits", path.total_bits() as f64),
        (
            "forest.predict_ns",
            median_u64(&log.durations_of("forest.predict_proba")),
        ),
        ("forest.nodes", forest.total_nodes() as f64),
    ])
}

/// `serve.cache_get_ns` / `serve.cache_insert_ns`: an `LruCache` of the
/// serving capacity driven directly — hits on resident keys, and inserts of
/// fresh keys into a full cache (each evicts).
pub fn cache_probe(capacity: usize, clock: &Clock) -> Metrics {
    let mut cache: LruCache<u64> = LruCache::new(capacity);
    let key = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for i in 0..capacity as u64 {
        cache.insert(key(i), i);
    }
    let mut cursor = 0u64;
    let get_ns = time_batched_ns(clock, 50, 256, || {
        cursor = (cursor + 7) % capacity as u64;
        std::hint::black_box(cache.get(key(cursor)));
    });
    let mut fresh = capacity as u64;
    let insert_ns = time_batched_ns(clock, 50, 256, || {
        fresh += 1;
        cache.insert(key(fresh), fresh);
    });
    vec![
        ("serve.cache_get_ns", get_ns),
        ("serve.cache_insert_ns", insert_ns),
    ]
}

/// `obs.*` and `data.*`: the clock and histogram every serve-side timing
/// goes through, and generating a 4 096-request Poisson trace.
///
/// # Errors
///
/// Propagates workload-generation errors.
pub fn obs_data_probe(clock: &Clock) -> BenchResult<Metrics> {
    let clock_now_ns = time_batched_ns(clock, 50, 1024, || {
        std::hint::black_box(clock.now_ns());
    });
    let mut histogram = Histogram::new();
    let mut value = 1u64;
    let hist_record_ns = time_batched_ns(clock, 50, 1024, || {
        value = value
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        histogram.record(std::hint::black_box(value >> 40));
    });
    let spec = WorkloadSpec {
        seed: 1,
        requests: 4096,
        classes: 1,
        total_utilization: 1.0,
        mean_service_ns: 500_000,
        arrivals: Arrivals::Poisson,
        ..WorkloadSpec::default()
    };
    spec.generate()?;
    let trace_generate_ns = time_ns(clock, 20, || {
        std::hint::black_box(spec.generate().ok());
    });
    Ok(vec![
        ("obs.clock_now_ns", clock_now_ns),
        ("obs.hist_record_ns", hist_record_ns),
        ("data.trace_generate_ns", trace_generate_ns),
    ])
}
