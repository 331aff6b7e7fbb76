//! Beyond the paper — raw-speed floor: the naive scalar triple loop vs the
//! blocked, register-tiled GEMM microkernel vs its row-parallel driver.
//!
//! Every tensor op in the workspace bottoms out in `Tensor::matmul`
//! (`im2col` convolutions, dense layers, batched traces), so the kernel's
//! raw throughput is the floor under every latency number in this harness.
//! The blocked kernel packs A/B panels and keeps a `MR x NR` register tile
//! hot, but preserves the naive loop's per-element K-accumulation order
//! exactly — so it must be **bit-for-bit** identical to the naive loop (a
//! hard parity gate here), and faster purely through memory locality.
//!
//! Shapes to check: blocked beats naive by >= 2x at the large shape
//! (advisory: wall-clock on a loaded runner is not a portable gate), and the
//! row-parallel driver is never slower than blocked — a **hard** gate: below
//! the work gate (`ptolemy_tensor::parallel::MIN_WORK_PER_THREAD` per thread)
//! the driver *is* the blocked kernel, on one core likewise, and above it the
//! fan-out has to pay for itself, so losing means the gate constant is wrong.
//! The shape list brackets the gate: 128x128x120 is the last product that
//! stays on one thread, 128x128x128 the first that may take two.
//!
//! The conv-shaped rows put the fused conv kernel (`conv2d_forward`: lowering
//! straight into packed panels against weights packed once, bias in the last
//! store) beside the `im2col` + `matmul` + bias path it replaced, on the
//! served models' own convolutions — two **hard** gates per row: bit parity,
//! and "fused is not slower".

use ptolemy_tensor::quant::matmul_i8;
use ptolemy_tensor::{
    conv2d_forward, im2col, matmul_blocked, matmul_i8_blocked, matmul_i8_parallel, matmul_parallel,
    Conv2dGeometry, PackedWeights, Rng64, Tensor,
};

use crate::workbench::{interleaved_best_ms, TIMING_ROUNDS};
use crate::{fmt3, BenchResult, BenchScale, Table};

/// `(m, k, n)` shapes: tile-sized, cache-panel-sized, one on each side of the
/// 2-thread work gate (2^21 MACs), and a large GEMM that straddles every
/// blocking boundary (the acceptance bar reads the last row).
const SHAPES: [(usize, usize, usize); 5] = [
    (32, 32, 32),
    (96, 128, 64),
    (128, 128, 120),
    (128, 128, 128),
    (256, 256, 256),
];

/// `(name, in_channels, out_channels, height = width)` of the 3x3 / stride 1 /
/// padding 1 convolutions the served models run, as `m x k x n` products: the
/// five `conv_net` convs (8x27x256, 12x72x64, 12x108x16 twice, 8x108x16) and
/// `resnet_mini`'s stage-1 body conv (8x72x64) and last-stage conv (16x144x4,
/// four columns — half a register tile on the narrowest build).
const CONV_SHAPES: [(&str, usize, usize, usize); 7] = [
    ("conv_net_conv1", 3, 8, 16),
    ("conv_net_conv2", 8, 12, 8),
    ("conv_net_conv3", 12, 12, 4),
    ("conv_net_conv4", 12, 12, 4),
    ("conv_net_conv5", 12, 8, 4),
    ("resnet_mini_stage1", 8, 8, 8),
    ("resnet_mini_stage3", 16, 16, 2),
];

fn repetitions(scale: BenchScale, flops: usize) -> usize {
    let budget = match scale {
        BenchScale::Quick => 400_000_000,
        BenchScale::Full => 4_000_000_000,
    };
    (budget / flops.max(1)).clamp(3, 2_000)
}

/// Random `[rows, cols]` matrix with zeros sprinkled in so the kernel's
/// sparsity-skip branch runs at its production rate.
fn random_matrix(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = Rng64::new(seed);
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| {
            if i % 17 == 0 {
                0.0
            } else {
                rng.uniform(-1.0, 1.0)
            }
        })
        .collect();
    Tensor::from_vec(data, &[rows, cols]).expect("shape matches data")
}

fn bits_equal(x: &Tensor, y: &Tensor) -> bool {
    x.as_slice()
        .iter()
        .zip(y.as_slice())
        .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Random i8 operand with the same sparsity sprinkle as [`random_matrix`], so
/// the integer kernels' zero-skip branch runs at its production rate.
fn random_i8(len: usize, seed: u64) -> Vec<i8> {
    let mut rng = Rng64::new(seed);
    (0..len)
        .map(|i| {
            if i % 17 == 0 {
                0
            } else {
                rng.uniform(-127.0, 127.0) as i32 as i8
            }
        })
        .collect()
}

/// The lowered convolution the fused kernel replaced (and still the parity
/// reference): `im2col`, `Tensor::matmul`, then the bias loop.
fn conv_lowered(
    image: &Tensor,
    geom: &Conv2dGeometry,
    weight: &Tensor,
    bias: &[f32],
) -> BenchResult<Vec<f32>> {
    let mut out = weight.matmul(&im2col(image, geom)?)?.into_vec();
    for (row, bias) in out.chunks_mut(geom.num_patches()).zip(bias) {
        for v in row {
            *v += bias;
        }
    }
    Ok(out)
}

/// Conv-shaped rows: the fused lowering + GEMM + bias kernel against the
/// lowered path on the served models' own shapes.
fn conv_table(scale: BenchScale) -> BenchResult<Table> {
    let mut table = Table::new(
        "Fused conv kernel — im2col + matmul + bias vs one kernel lowering \
         straight into packed panels against weights packed once",
    )
    .header([
        "conv (m.k.n)",
        "lowered (us)",
        "fused (us)",
        "fused speedup",
        "bit parity",
    ]);
    let mut parity_everywhere = true;
    let mut fused_keeps_up = true;
    let mut checksum = 0.0f64;
    for (idx, &(name, in_c, out_c, hw)) in CONV_SHAPES.iter().enumerate() {
        let geom = Conv2dGeometry::new(in_c, hw, hw, 3, 1, 1)?;
        let (k, n) = (geom.patch_len(), geom.num_patches());
        let weight = random_matrix(out_c, k, 0xC0_u64.wrapping_add(idx as u64));
        let image = random_matrix(in_c, hw * hw, 0xD1_u64.wrapping_add(idx as u64))
            .reshape(&[in_c, hw, hw])?;
        let bias = random_matrix(1, out_c, 0xE2_u64.wrapping_add(idx as u64)).into_vec();
        let packed = PackedWeights::pack(&weight)?;
        let reps = repetitions(scale, 40 * out_c * k * n);

        let lowered = conv_lowered(&image, &geom, &weight, &bias)?;
        let fused = conv2d_forward(&image, &geom, &packed, &bias)?;
        let parity = lowered.len() == fused.len()
            && lowered
                .iter()
                .zip(&fused)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        parity_everywhere &= parity;

        let mut sums = [0.0f64; 2];
        let [lowered_sum, fused_sum] = &mut sums;
        let [lowered_ms, fused_ms] = interleaved_best_ms(
            reps,
            [
                &mut || {
                    *lowered_sum += f64::from(conv_lowered(&image, &geom, &weight, &bias)?[0]);
                    Ok(())
                },
                &mut || {
                    *fused_sum += f64::from(conv2d_forward(&image, &geom, &packed, &bias)?[0]);
                    Ok(())
                },
            ],
        )?;
        checksum += sums.iter().sum::<f64>();
        // Same rule as the row-parallel gate, with the slack scaled to rows
        // that take microseconds: within noise of the lowered path, or faster.
        fused_keeps_up &= fused_ms <= lowered_ms * 1.15 + 0.0005;

        table.metric(format!("{name}_lowered_ns"), (lowered_ms * 1e6) as u64);
        table.metric(format!("{name}_fused_ns"), (fused_ms * 1e6) as u64);
        table.row([
            format!("{name} ({out_c}x{k}x{n})"),
            fmt3((lowered_ms * 1e3) as f32),
            fmt3((fused_ms * 1e3) as f32),
            format!("{:.2}x", lowered_ms / fused_ms.max(1e-12)),
            if parity { "bit-for-bit" } else { "DIVERGED" }.to_string(),
        ]);
    }
    table.note(format!(
        "single-sample forward, weights packed outside the timed region (once \
         per weight version in the layer); fastest of {TIMING_ROUNDS} interleaved \
         rounds; checksum {checksum:.3}"
    ));
    table.check(
        "fused conv kernel is bit-for-bit im2col + matmul + bias at every conv shape",
        parity_everywhere,
    );
    table.check(
        "fused conv kernel is no slower than im2col + matmul + bias at any conv shape",
        fused_keeps_up,
    );
    Ok(table)
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates tensor shape errors.
pub fn run(scale: BenchScale) -> BenchResult<Vec<Table>> {
    let mut table = Table::new(
        "GEMM microkernel — naive scalar triple loop vs blocked register-tiled \
         kernel vs row-parallel driver",
    )
    .header([
        "shape (m.k.n)",
        "naive (ms)",
        "blocked (ms)",
        "parallel (ms)",
        "blocked speedup",
        "bit parity",
    ]);

    let mut parity_everywhere = true;
    let mut blocked_2x_at_large = false;
    let mut parallel_keeps_up = true;
    // Fold every product into a checksum so the optimiser cannot elide the
    // timed work.
    let mut checksum = 0.0f64;

    for (idx, &(m, k, n)) in SHAPES.iter().enumerate() {
        let a = random_matrix(m, k, 0x9E_u64.wrapping_add(idx as u64));
        let b = random_matrix(k, n, 0x3C_u64.wrapping_add(idx as u64));
        let reps = repetitions(scale, 2 * m * k * n);

        // Warm all three paths (fault in pack buffers, prime the core cache).
        checksum += f64::from(a.matmul_naive(&b)?.sum());
        checksum += f64::from(matmul_blocked(&a, &b)?.sum());
        checksum += f64::from(matmul_parallel(&a, &b)?.sum());

        let mut sums = [0.0f64; 3];
        let [naive_sum, blocked_sum, parallel_sum] = &mut sums;
        let [naive_ms, blocked_ms, parallel_ms] = interleaved_best_ms(
            reps,
            [
                &mut || {
                    *naive_sum += f64::from(a.matmul_naive(&b)?.sum());
                    Ok(())
                },
                &mut || {
                    *blocked_sum += f64::from(matmul_blocked(&a, &b)?.sum());
                    Ok(())
                },
                &mut || {
                    *parallel_sum += f64::from(matmul_parallel(&a, &b)?.sum());
                    Ok(())
                },
            ],
        )?;
        checksum += sums.iter().sum::<f64>();

        // The hard gate: all three kernels produce the same bits.
        let naive = a.matmul_naive(&b)?;
        let parity = bits_equal(&matmul_blocked(&a, &b)?, &naive)
            && bits_equal(&matmul_parallel(&a, &b)?, &naive)
            && bits_equal(&a.matmul(&b)?, &naive);
        parity_everywhere &= parity;

        let speedup = naive_ms / blocked_ms.max(1e-9);
        if idx == SHAPES.len() - 1 {
            blocked_2x_at_large = speedup >= 2.0;
        }
        // 1.15x + 50us of headroom — where the driver stays inline it is the
        // blocked kernel, so "keeps up" means within noise of it.
        parallel_keeps_up &= parallel_ms <= blocked_ms * 1.15 + 0.05;

        let tag = format!("{m}x{k}x{n}");
        table.metric(format!("naive_{tag}_us"), (naive_ms * 1000.0) as u64);
        table.metric(format!("blocked_{tag}_us"), (blocked_ms * 1000.0) as u64);
        table.metric(format!("parallel_{tag}_us"), (parallel_ms * 1000.0) as u64);
        table.row([
            tag,
            fmt3(naive_ms as f32),
            fmt3(blocked_ms as f32),
            fmt3(parallel_ms as f32),
            format!("{speedup:.2}x"),
            if parity { "bit-for-bit" } else { "DIVERGED" }.to_string(),
        ]);
    }

    table.note(format!(
        "per-shape repetitions sized to a fixed flop budget, fastest of \
         {TIMING_ROUNDS} interleaved rounds; checksum {checksum:.3}"
    ));
    table.check(
        "blocked and row-parallel kernels are bit-for-bit identical to the \
         naive triple loop at every shape",
        parity_everywhere,
    );
    table.timing_check(
        "blocked kernel is >= 2x the naive loop at the large shape",
        blocked_2x_at_large,
    );
    table.check(
        "row-parallel driver is no slower than the blocked kernel",
        parallel_keeps_up,
    );

    // The int8 twin: the blocked i8 kernel carries the serving stack's
    // quantized screening tier, and — integer accumulation being exact — its
    // parity with the naive `matmul_i8` is equality, not tolerance.
    let mut i8_table = Table::new(
        "i8 GEMM microkernel — naive i8 triple loop vs blocked register-tiled \
         kernel vs row-parallel driver (i32 accumulation)",
    )
    .header([
        "shape (m.k.n)",
        "naive (ms)",
        "blocked (ms)",
        "parallel (ms)",
        "blocked speedup",
        "bit parity",
    ]);
    let mut i8_parity_everywhere = true;
    let mut i8_blocked_competitive_at_large = false;
    let mut i8_checksum = 0i64;
    for (idx, &(m, k, n)) in SHAPES.iter().enumerate() {
        let a = random_i8(m * k, 0x51_u64.wrapping_add(idx as u64));
        let b = random_i8(k * n, 0xA7_u64.wrapping_add(idx as u64));
        let reps = repetitions(scale, 2 * m * k * n);
        let fold = |acc: &[i32]| acc.iter().map(|&v| i64::from(v)).sum::<i64>();

        i8_checksum += fold(&matmul_i8(&a, &b, m, k, n)?);
        i8_checksum += fold(&matmul_i8_blocked(&a, &b, m, k, n)?);
        i8_checksum += fold(&matmul_i8_parallel(&a, &b, m, k, n)?);

        let mut sums = [0i64; 3];
        let [naive_sum, blocked_sum, parallel_sum] = &mut sums;
        let [naive_ms, blocked_ms, parallel_ms] = interleaved_best_ms(
            reps,
            [
                &mut || {
                    *naive_sum += fold(&matmul_i8(&a, &b, m, k, n)?);
                    Ok(())
                },
                &mut || {
                    *blocked_sum += fold(&matmul_i8_blocked(&a, &b, m, k, n)?);
                    Ok(())
                },
                &mut || {
                    *parallel_sum += fold(&matmul_i8_parallel(&a, &b, m, k, n)?);
                    Ok(())
                },
            ],
        )?;
        i8_checksum += sums.iter().sum::<i64>();

        // The hard gate: exact i32 equality between all three entry points.
        let naive = matmul_i8(&a, &b, m, k, n)?;
        let parity = matmul_i8_blocked(&a, &b, m, k, n)? == naive
            && matmul_i8_parallel(&a, &b, m, k, n)? == naive;
        i8_parity_everywhere &= parity;

        let speedup = naive_ms / blocked_ms.max(1e-9);
        if idx == SHAPES.len() - 1 {
            // The naive i8 loop is already lean, so the bar is "no slower",
            // not the f32 kernel's 2x.
            i8_blocked_competitive_at_large = speedup >= 1.0;
        }
        let tag = format!("{m}x{k}x{n}");
        i8_table.metric(format!("i8_naive_{tag}_us"), (naive_ms * 1000.0) as u64);
        i8_table.metric(format!("i8_blocked_{tag}_us"), (blocked_ms * 1000.0) as u64);
        i8_table.metric(
            format!("i8_parallel_{tag}_us"),
            (parallel_ms * 1000.0) as u64,
        );
        i8_table.row([
            tag,
            fmt3(naive_ms as f32),
            fmt3(blocked_ms as f32),
            fmt3(parallel_ms as f32),
            format!("{speedup:.2}x"),
            if parity { "bit-for-bit" } else { "DIVERGED" }.to_string(),
        ]);
    }
    i8_table.note(format!(
        "per-shape repetitions sized to a fixed flop budget, fastest of \
         {TIMING_ROUNDS} interleaved rounds; checksum {i8_checksum}"
    ));
    i8_table.check(
        "blocked and row-parallel i8 kernels are bit-for-bit identical to the \
         naive i8 loop at every shape",
        i8_parity_everywhere,
    );
    i8_table.timing_check(
        "blocked i8 kernel is no slower than the naive i8 loop at the large shape",
        i8_blocked_competitive_at_large,
    );

    Ok(vec![table, conv_table(scale)?, i8_table])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_stay_bit_identical_and_blocked_is_competitive() {
        let tables = run(BenchScale::Quick).unwrap();
        assert_eq!(tables.len(), 3);
        let rendered = format!("{}\n{}\n{}", tables[0], tables[1], tables[2]);
        // Deterministic gates: blocking must never change a single bit in
        // either precision, whatever the machine.
        assert!(
            rendered.matches("at every shape: holds").count() == 2
                && rendered.contains("at every conv shape: holds"),
            "bit parity gate failed:\n{rendered}"
        );
        // The speedup bars are wall-clock and advisory under an unoptimized
        // test profile; the release-built experiment binary is where the
        // acceptance number is read.
        if rendered.contains("below expectation") {
            eprintln!("warning: timing shape check missed in this environment:\n{rendered}");
        }
    }
}
