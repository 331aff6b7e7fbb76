//! Property-based bit-parity suite for the blocked GEMM microkernel and
//! error-bound checks for the int8 quantization round trip.
//!
//! These tests pin the workspace's central kernel invariant: the blocked,
//! register-tiled kernel (and its row-parallel variant) must be **bit-for-bit
//! identical** to the naive scalar triple loop — not approximately equal —
//! across shapes that straddle every tile boundary, including K ∈ {0 is
//! unrepresentable, 1}, M/N that are not multiples of the register tile, and
//! skinny row/column-vector products.

#![allow(
    clippy::unwrap_used,
    reason = "test helpers and proptest! bodies unwrap; a failure there fails the test"
)]

use proptest::prelude::*;
use ptolemy_tensor::quant::{dequantize_slice, matmul_i8};
use ptolemy_tensor::{
    col2im, conv2d_backward_input, conv2d_backward_params, conv2d_forward, gemm_nn_into, im2col,
    matmul_blocked, matmul_i8_blocked, matmul_i8_parallel, matmul_parallel, quantize_slice,
    Conv2dGeometry, PackedWeights, QuantParams, Rng64, Tensor,
};

/// Runs the row-parallel entry points three threads wide: these shapes sit
/// far below the work gate, where the product would otherwise stay on one
/// thread and the row partitioning would go untested.
fn fanned<R>(f: impl FnOnce() -> R) -> R {
    ptolemy_tensor::parallel::with_forced_width(3, f)
}

/// Random `[rows, cols]` tensor with zeros sprinkled in: zero terms are
/// summed like any other, and the parity cases exercise them alongside the
/// dense lanes.
fn random_matrix(rows: usize, cols: usize, seed: u64, zero_every: usize) -> Tensor {
    let mut rng = Rng64::new(seed);
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| {
            if zero_every > 0 && i % zero_every == 0 {
                0.0
            } else {
                rng.uniform(-2.0, 2.0)
            }
        })
        .collect();
    Tensor::from_vec(data, &[rows, cols]).unwrap()
}

/// Random i8 operand mixing ordinary codes with sprinkled zeros (the integer
/// kernels' zero-skip branches, a speed choice) and `i8::MIN`/`i8::MAX` extremes, so the
/// parity suite covers the saturation corners the quantizer itself never
/// emits (codes are clamped to ±127, but raw GEMM operands are not).
fn random_i8(len: usize, seed: u64, zero_every: usize) -> Vec<i8> {
    let mut rng = Rng64::new(seed);
    (0..len)
        .map(|i| {
            if zero_every > 0 && i % zero_every == 0 {
                0
            } else if i % 13 == 4 {
                i8::MIN
            } else if i % 17 == 9 {
                i8::MAX
            } else {
                rng.uniform(-127.0, 127.0) as i32 as i8
            }
        })
        .collect()
}

fn assert_bits_equal(
    _label: &str,
    x: &Tensor,
    y: &Tensor,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(x.dims(), y.dims());
    for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
        prop_assert_eq!(a.to_bits(), b.to_bits());
    }
    Ok(())
}

/// Bit equality, except that any NaN equals any NaN: when an accumulator and
/// a product are both NaN (`inf - inf` met an input NaN), which payload the
/// sum keeps depends on the operand order the compiler picked for that loop —
/// Rust leaves the bits of an arithmetic NaN unspecified.  *Whether* an
/// element is NaN is exact: a `0.0 * inf` term is summed by every kernel.
fn same_float(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Blocked and row-parallel kernels are bit-identical to the naive loop
    /// for arbitrary small-to-medium shapes, including M/N far from tile
    /// multiples and K = 1.
    #[test]
    fn blocked_and_parallel_match_naive_bit_for_bit(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        seed in any::<u64>(),
        zero_every in 0usize..6,
    ) {
        let a = random_matrix(m, k, seed, zero_every);
        let b = random_matrix(k, n, seed.wrapping_add(1), 0);
        let naive = a.matmul_naive(&b).unwrap();
        assert_bits_equal("matmul", &a.matmul(&b).unwrap(), &naive)?;
        assert_bits_equal("blocked", &matmul_blocked(&a, &b).unwrap(), &naive)?;
        assert_bits_equal("parallel", &fanned(|| matmul_parallel(&a, &b)).unwrap(), &naive)?;
    }

    /// Skinny shapes: row vectors, column vectors and K=1 outer products all
    /// route through the same parity-pinned kernel.
    #[test]
    fn skinny_shapes_match_naive(dim in 1usize..200, seed in any::<u64>()) {
        for (m, k, n) in [(1, dim, 7), (7, dim, 1), (dim, 1, 5), (1, 1, dim)] {
            let a = random_matrix(m, k, seed, 3);
            let b = random_matrix(k, n, seed.wrapping_add(9), 0);
            let naive = a.matmul_naive(&b).unwrap();
            assert_bits_equal("skinny", &matmul_blocked(&a, &b).unwrap(), &naive)?;
            assert_bits_equal("skinny-par", &fanned(|| matmul_parallel(&a, &b)).unwrap(), &naive)?;
        }
    }

    /// Shapes straddling the 64/256-sized cache panels: one past, one short.
    #[test]
    fn panel_boundary_shapes_match_naive(offset in 0usize..4, seed in any::<u64>()) {
        let (m, k, n) = (64 + offset, 256 + offset, 17);
        let a = random_matrix(m, k, seed, 7);
        let b = random_matrix(k, n, seed.wrapping_add(3), 0);
        let naive = a.matmul_naive(&b).unwrap();
        assert_bits_equal("panel", &a.matmul(&b).unwrap(), &naive)?;
    }

    /// The dense-layer kernel: `gemm_nn_into` over a bias-prefilled buffer
    /// and the transposed weights is bit-identical to the scalar bias-first
    /// accumulation loop it replaced, on both sides of the `MR`-row and
    /// small-product cuts.
    #[test]
    fn gemm_nt_matches_bias_first_scalar_loop(
        m in 1usize..12,
        k in 1usize..48,
        n in 1usize..48,
        seed in any::<u64>(),
    ) {
        let a = random_matrix(m, k, seed, 4);
        let w = random_matrix(n, k, seed.wrapping_add(5), 0);
        let mut rng = Rng64::new(seed.wrapping_add(6));
        let bias: Vec<f32> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();

        let mut blocked = vec![0.0f32; m * n];
        for row in blocked.chunks_mut(n) {
            row.copy_from_slice(&bias);
        }
        let wt = w.transpose().unwrap();
        gemm_nn_into(&mut blocked, a.as_slice(), wt.as_slice(), m, k, n);

        for s in 0..m {
            for j in 0..n {
                let mut acc = bias[j];
                for kk in 0..k {
                    acc += a.as_slice()[s * k + kk] * w.as_slice()[j * k + kk];
                }
                prop_assert_eq!(blocked[s * n + j].to_bits(), acc.to_bits());
            }
        }
    }

    /// The fused conv kernel (receptive fields read in place, weights packed
    /// once, bias in the store) is bit-for-bit `im2col` + `matmul_naive` +
    /// bias, sample by sample: kernels 1/3/5, strides 1/2, paddings 0..=2,
    /// output widths of both tile orientations (runs of 16, 8 and 4
    /// positions at widths 16, 32, 8 and 4; channels on the lanes at widths
    /// 2 and 1, the odd width 5 and stride 2), output channels crossing `MR`
    /// multiples and up to three `NR`-channel panels, the last one ragged
    /// (1..=40), depths past one K panel (12 x 5 x 5 = 300), batches 1..=8
    /// split three threads wide (so tiles hold runs of several samples,
    /// position groups straddle samples and the call's last tile is
    /// partial).  Weights carry sprinkled
    /// `+0.0`/`-0.0` and inputs `inf`/`NaN`, which would make a skipped zero
    /// term observable (`0.0 * inf` is NaN); a bias folded in before the
    /// accumulation instead of after it would round differently.
    #[test]
    fn fused_conv_matches_lowered_reference_bit_for_bit(
        kernel_idx in 0usize..3,
        stride in 1usize..3,
        padding in 0usize..3,
        in_c in 1usize..13,
        out_c in 1usize..41,
        extra_h in 0usize..9,
        width_idx in 0usize..7,
        batch in 1usize..9,
        zero_every in 0usize..5,
        non_finite_every in 0usize..4,
        seed in any::<u64>(),
    ) {
        let kernel = [1, 3, 5][kernel_idx];
        let out_w = [1, 2, 4, 8, 16, 32, 5][width_idx];
        // The input width that gives `out_w`, with the padding cut to what
        // such a narrow input admits.
        let span = (out_w - 1) * stride + kernel;
        let padding = padding.min((span - 1) / 2);
        let (in_h, in_w) = (kernel + extra_h, span - 2 * padding);
        let geom = Conv2dGeometry::new(in_c, in_h, in_w, kernel, stride, padding).unwrap();
        prop_assert_eq!(geom.out_w, out_w);
        let mut rng = Rng64::new(seed);
        let mut weight = random_matrix(out_c, geom.patch_len(), seed.wrapping_add(1), 0);
        if zero_every > 0 {
            for (i, w) in weight.as_mut_slice().iter_mut().enumerate() {
                if i % (zero_every + 1) == 0 {
                    *w = if i % 2 == 0 { 0.0 } else { -0.0 };
                }
            }
        }
        let bias: Vec<f32> = (0..out_c).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let sample_len = in_c * in_h * in_w;
        let mut stacked: Vec<f32> = (0..batch * sample_len).map(|_| rng.uniform(-2.0, 2.0)).collect();
        if non_finite_every > 0 {
            let palette = [f32::INFINITY, f32::NAN, f32::NEG_INFINITY];
            for (i, v) in stacked.iter_mut().enumerate() {
                if i % (7 * non_finite_every + 4) == 3 {
                    *v = palette[i % 3];
                }
            }
        }
        let stacked = Tensor::from_vec(stacked, &[batch, in_c, in_h, in_w]).unwrap();

        let packed = PackedWeights::pack(&weight, &geom).unwrap();
        let fused = fanned(|| conv2d_forward(&stacked, &geom, &packed, &bias)).unwrap();
        let sample_out = out_c * geom.num_patches();
        prop_assert_eq!(fused.len(), batch * sample_out);
        for b in 0..batch {
            let sample = stacked.slice_batch(b).unwrap();
            let product = weight.matmul_naive(&im2col(&sample, &geom).unwrap()).unwrap();
            let alone = conv2d_forward(&sample, &geom, &packed, &bias).unwrap();
            for (i, reference) in product.as_slice().iter().enumerate() {
                let expected = reference + bias[i / geom.num_patches()];
                prop_assert!(same_float(fused[b * sample_out + i], expected));
                prop_assert!(same_float(alone[i], expected));
            }
        }
    }

    /// The batched conv backward kernels are the per-sample backward pass
    /// they replaced, bit for bit: the input gradient is `col2im(Wᵀ · gy_b)`
    /// per sample (`Wᵀ · gy` as `matmul_naive`), and the parameter gradients
    /// are `gy_b · cols_bᵀ` and `gy_b`'s row sums, summed in sample order
    /// from sample 0 — every product the plain ascending sum.  Weights and
    /// `gy` carry `±0.0`, the samples and `gy` `inf`/`NaN` — where a skipped
    /// `0.0 * inf` would be observable — at the shapes of the forward test
    /// above.
    #[test]
    fn conv_backward_matches_per_sample_reference_bit_for_bit(
        kernel_idx in 0usize..3,
        stride in 1usize..3,
        padding in 0usize..3,
        in_c in 1usize..9,
        out_c in 1usize..11,
        extra_h in 0usize..9,
        extra_w in 0usize..9,
        batch in 1usize..6,
        zero_every in 0usize..5,
        non_finite_every in 0usize..4,
        seed in any::<u64>(),
    ) {
        let kernel = [1, 3, 5][kernel_idx];
        let (in_h, in_w) = (kernel + extra_h, kernel + extra_w);
        let geom = Conv2dGeometry::new(in_c, in_h, in_w, kernel, stride, padding).unwrap();
        let patches = geom.num_patches();
        let mut rng = Rng64::new(seed);
        let signed_zero = |i: usize| if i % 2 == 0 { 0.0 } else { -0.0 };
        let mut weight = random_matrix(out_c, geom.patch_len(), seed.wrapping_add(1), 0);
        let mut gy: Vec<f32> = (0..batch * out_c * patches).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut xs: Vec<f32> = (0..batch * in_c * in_h * in_w).map(|_| rng.uniform(-2.0, 2.0)).collect();
        if zero_every > 0 {
            for (i, w) in weight.as_mut_slice().iter_mut().enumerate() {
                if i % (zero_every + 1) == 0 {
                    *w = signed_zero(i);
                }
            }
            for (i, g) in gy.iter_mut().enumerate() {
                if i % (zero_every + 1) != 0 {
                    *g = signed_zero(i);
                }
            }
        }
        if non_finite_every > 0 {
            let palette = [f32::INFINITY, f32::NAN, f32::NEG_INFINITY];
            for (i, v) in xs.iter_mut().enumerate() {
                if i % (11 * non_finite_every + 5) == 3 {
                    *v = palette[i % 3];
                }
            }
            gy[0] = palette[seed as usize % 3];
        }

        let packed_t = PackedWeights::pack_transposed(&weight).unwrap();
        let grad_input = fanned(|| conv2d_backward_input(&gy, &geom, &packed_t)).unwrap();
        let mut weight_grad = vec![f32::NAN; out_c * geom.patch_len()];
        let mut bias_grad = vec![f32::NAN; out_c];
        conv2d_backward_params(&gy, &xs, &geom, &mut weight_grad, &mut bias_grad).unwrap();

        let weight_t = weight.transpose().unwrap();
        let sample_len = in_c * in_h * in_w;
        let (mut weight_sum, mut bias_sum) = (Vec::new(), Vec::new());
        for b in 0..batch {
            let gy_b = Tensor::from_vec(gy[b * out_c * patches..(b + 1) * out_c * patches].to_vec(), &[out_c, patches]).unwrap();
            let x_b = Tensor::from_vec(xs[b * sample_len..(b + 1) * sample_len].to_vec(), &[in_c, in_h, in_w]).unwrap();
            let dx = col2im(&weight_t.matmul_naive(&gy_b).unwrap(), &geom).unwrap();
            for (i, expected) in dx.as_slice().iter().enumerate() {
                prop_assert!(same_float(grad_input[b * sample_len + i], *expected));
            }
            let cols_t = im2col(&x_b, &geom).unwrap().transpose().unwrap();
            let dw = gy_b.matmul_naive(&cols_t).unwrap().into_vec();
            let db: Vec<f32> = gy_b.as_slice().chunks(patches).map(|row| row.iter().sum()).collect();
            if b == 0 {
                (weight_sum, bias_sum) = (dw, db);
            } else {
                weight_sum.iter_mut().zip(&dw).for_each(|(acc, v)| *acc += v);
                bias_sum.iter_mut().zip(&db).for_each(|(acc, v)| *acc += v);
            }
        }
        for (got, expected) in weight_grad.iter().zip(&weight_sum).chain(bias_grad.iter().zip(&bias_sum)) {
            prop_assert!(same_float(*got, *expected));
        }
    }

    /// Quantize→dequantize error is bounded by half the scale step for every
    /// in-range value, and quantized codes stay in the symmetric [-127, 127].
    #[test]
    fn quantization_round_trip_error_is_bounded(
        values in prop::collection::vec(-8.0f32..8.0, 1..64),
    ) {
        let max_abs = ptolemy_tensor::max_abs(&values);
        let params = QuantParams::from_max_abs(max_abs);
        let qs = quantize_slice(&values, params);
        let back = dequantize_slice(&qs, params);
        for ((x, q), y) in values.iter().zip(&qs).zip(&back) {
            prop_assert!((-127..=127).contains(q));
            prop_assert!(
                (x - y).abs() <= params.scale() / 2.0 + 1e-6,
                "{} -> {} -> {} (scale {})", x, q, y, params.scale()
            );
        }
    }

    /// The blocked i8 kernel and both parallel wrappers are **bit-for-bit**
    /// the naive `matmul_i8` — i32 accumulation is exact, so any disagreement
    /// is an indexing bug, not rounding.  Operands mix sparsity (the naive
    /// kernel's zero-skip branch) with `i8::MIN`/`i8::MAX` extremes, and the
    /// shape ranges straddle the small-product threshold below which the
    /// blocked entry points delegate back to the naive loop.
    #[test]
    fn blocked_i8_matches_naive_bit_for_bit(
        m in 1usize..24,
        k in 1usize..48,
        n in 1usize..24,
        seed in any::<u64>(),
        zero_every in 0usize..5,
    ) {
        let a = random_i8(m * k, seed, zero_every);
        let b = random_i8(k * n, seed.wrapping_add(1), 0);
        let naive = matmul_i8(&a, &b, m, k, n).unwrap();
        prop_assert_eq!(&matmul_i8_blocked(&a, &b, m, k, n).unwrap(), &naive);
        prop_assert_eq!(&fanned(|| matmul_i8_parallel(&a, &b, m, k, n)).unwrap(), &naive);
    }

    /// The integer GEMM agrees with an exact i32 reference.
    #[test]
    fn integer_gemms_are_exact(
        m in 1usize..8,
        k in 1usize..16,
        n in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng64::new(seed);
        let a: Vec<i8> = (0..m * k).map(|_| rng.uniform(-127.0, 127.0) as i32 as i8).collect();
        let b: Vec<i8> = (0..k * n).map(|_| rng.uniform(-127.0, 127.0) as i32 as i8).collect();
        let c = matmul_i8(&a, &b, m, k, n).unwrap();
        for i in 0..m {
            for j in 0..n {
                let expected: i32 = (0..k)
                    .map(|kk| i32::from(a[i * k + kk]) * i32::from(b[kk * n + j]))
                    .sum();
                prop_assert_eq!(c[i * n + j], expected);
            }
        }
    }
}

/// A shape well past the small-product threshold, saturated with `i8::MIN`
/// everywhere: the worst-case accumulation ((-128)² per k-step) must flow
/// through the blocked kernel's register tiles bit-identically to the naive
/// loop — and exercise the K-reordering freedom integer accumulation grants.
#[test]
fn blocked_i8_large_shape_with_min_saturation_matches_naive() {
    let (m, k, n) = (33, 70, 29); // 66 990 iops: the blocked path proper
    let a = vec![i8::MIN; m * k];
    let b = vec![i8::MIN; k * n];
    let naive = matmul_i8(&a, &b, m, k, n).unwrap();
    assert!(naive.iter().all(|&v| v == 128 * 128 * k as i32));
    assert_eq!(matmul_i8_blocked(&a, &b, m, k, n).unwrap(), naive);
    assert_eq!(
        fanned(|| matmul_i8_parallel(&a, &b, m, k, n)).unwrap(),
        naive
    );
}

/// One deterministic pass over the GEMM shapes the proptests stop short of
/// (the random-shape f32 property stays below 40 per side and the i8 one
/// below 48; none of their cases reaches the 2^21-MAC work gate): `(m, k, n)`
/// from tile-sized to 256³, bracketing the 2-thread work gate (128x128x120 is
/// the last product that stays on one thread, 128x128x128 the first that may
/// take two).  `matmul_parallel` and `matmul_i8_parallel` run at the real
/// gate, not forced wide.  Every convolution the served models run is gated
/// by the workspace's `tests/zoo_conv_parity.rs`, which derives the shapes
/// from the model zoo instead of listing them.
#[test]
fn served_shapes_match_naive_bit_for_bit() {
    const SHAPES: [(usize, usize, usize); 5] = [
        (32, 32, 32),
        (96, 128, 64),
        (128, 128, 120),
        (128, 128, 128),
        (256, 256, 256),
    ];
    let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();

    for (idx, &(m, k, n)) in SHAPES.iter().enumerate() {
        let seed = 0x9E + idx as u64;
        let a = random_matrix(m, k, seed, 17);
        let b = random_matrix(k, n, seed.wrapping_add(1), 0);
        let naive = bits(&a.matmul_naive(&b).unwrap());
        for (label, product) in [
            ("matmul", a.matmul(&b)),
            ("blocked", matmul_blocked(&a, &b)),
            ("parallel", matmul_parallel(&a, &b)),
        ] {
            assert_eq!(bits(&product.unwrap()), naive, "{label} {m}x{k}x{n}");
        }

        let a = random_i8(m * k, seed, 17);
        let b = random_i8(k * n, seed.wrapping_add(1), 0);
        let naive = matmul_i8(&a, &b, m, k, n).unwrap();
        for (label, product) in [
            ("i8 blocked", matmul_i8_blocked(&a, &b, m, k, n)),
            ("i8 parallel", matmul_i8_parallel(&a, &b, m, k, n)),
        ] {
            assert_eq!(product.unwrap(), naive, "{label} {m}x{k}x{n}");
        }
    }
}

/// The kernels' tile shape and every timing this repository quotes assume the
/// `x86-64-v3` floor; a build without it computes the same bits, more slowly.
#[cfg(target_arch = "x86_64")]
#[test]
fn built_at_the_committed_vector_floor() {
    assert_eq!(
        (cfg!(target_feature = "avx2"), cfg!(target_feature = "fma")),
        (true, true),
        "(avx2, fma) missing: `.cargo/config.toml` sets `-C target-cpu=x86-64-v3`, \
         and an environment `RUSTFLAGS` replaces that file's flags instead of adding to them"
    );
}

/// Non-finite values in B would make a skipped zero term *observable*
/// (0.0 · inf is NaN): every kernel sums the plain products, so a kernel that
/// skipped a term would flip an element's NaN-ness here.
#[test]
fn plain_sum_parity_with_non_finite_b() {
    let mut a = random_matrix(9, 20, 33, 3);
    // Force a fully-zero row and a fully-dense row.
    for v in a.as_mut_slice()[..20].iter_mut() {
        *v = 0.0;
    }
    let mut b = random_matrix(20, 11, 44, 0);
    b.as_mut_slice()[5] = f32::INFINITY;
    b.as_mut_slice()[37] = f32::NEG_INFINITY;
    b.as_mut_slice()[100] = f32::NAN;
    let naive = a.matmul_naive(&b).unwrap();
    let blocked = matmul_blocked(&a, &b).unwrap();
    let parallel = fanned(|| matmul_parallel(&a, &b)).unwrap();
    // Row 0 is all zeros: every one of its columns meeting a non-finite B
    // value is `0.0 * ±inf` or `0.0 * NaN`, a NaN term.
    assert!([5, 37 % 11, 100 % 11]
        .iter()
        .all(|&j| naive.as_slice()[j].is_nan()));
    for ((x, y), z) in naive
        .as_slice()
        .iter()
        .zip(blocked.as_slice())
        .zip(parallel.as_slice())
    {
        assert!(same_float(*x, *y));
        assert!(same_float(*x, *z));
    }
}
