//! Property-based tests for the tensor substrate.

use proptest::prelude::*;
use ptolemy_tensor::{
    col2im, im2col, im2col_batch, im2col_i8, im2col_i8_batch, quantize_slice, Conv2dGeometry,
    QuantParams, Rng64, Shape, Tensor,
};

fn small_dims() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..5, 1..4)
}

/// `im2col` of `batch` stacked samples, straight from the
/// `patch_source`/`input_index` definition: element `(p, b·patches + oy·out_w
/// + ox)` is the input element that definition names, or zero padding.
fn im2col_by_definition(samples: &[f32], geom: &Conv2dGeometry, batch: usize) -> Vec<f32> {
    let (rows, patches) = (geom.patch_len(), geom.num_patches());
    let sample_len = samples.len() / batch;
    let mut out = vec![0.0f32; rows * batch * patches];
    for b in 0..batch {
        for oy in 0..geom.out_h {
            for ox in 0..geom.out_w {
                for p in 0..rows {
                    if let Some((c, y, x)) = geom.patch_source(oy, ox, p) {
                        out[p * batch * patches + b * patches + oy * geom.out_w + ox] =
                            samples[b * sample_len + geom.input_index(c, y, x)];
                    }
                }
            }
        }
    }
    out
}

/// The scatter-sum definition of `col2im`, accumulating in `(oy, ox, p)` order.
fn col2im_by_definition(cols: &[f32], geom: &Conv2dGeometry) -> Vec<f32> {
    let patches = geom.num_patches();
    let mut out = vec![0.0f32; geom.in_channels * geom.in_h * geom.in_w];
    for oy in 0..geom.out_h {
        for ox in 0..geom.out_w {
            for p in 0..geom.patch_len() {
                if let Some((c, y, x)) = geom.patch_source(oy, ox, p) {
                    out[geom.input_index(c, y, x)] += cols[p * patches + oy * geom.out_w + ox];
                }
            }
        }
    }
    out
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All five lowerings equal the `patch_source` definition element for
    /// element over random geometries: strides 1–3, padding from none to wider
    /// than the kernel reaches, 1×1 kernels, kernels as large as the padded
    /// input, non-square images, batches of 1–5.
    #[test]
    fn row_run_lowerings_match_the_definition(
        channels in 1usize..4,
        h in 1usize..8,
        w in 1usize..8,
        kernel in 1usize..6,
        stride in 1usize..4,
        padding in 0usize..4,
        fit in 0usize..3,
        batch in 1usize..6,
        seed in any::<u64>(),
    ) {
        // One case in three stretches the kernel over the whole padded extent.
        let kernel = if fit == 0 { h.min(w) + 2 * padding } else { kernel };
        let Ok(geom) = Conv2dGeometry::new(channels, h, w, kernel, stride, padding) else {
            return Ok(()); // kernel larger than the padded input
        };
        let mut rng = Rng64::new(seed);
        let sample_len = channels * h * w;
        let data: Vec<f32> = (0..batch * sample_len).map(|_| rng.normal()).collect();
        let stacked = Tensor::from_vec(data.clone(), &[batch, channels, h, w]).unwrap();
        let first = stacked.slice_batch(0).unwrap();
        let params = QuantParams::from_max_abs(ptolemy_tensor::max_abs(&data));

        let wide = im2col_batch(&stacked, &geom).unwrap();
        let wide_def = im2col_by_definition(&data, &geom, batch);
        prop_assert_eq!(wide.dims(), &[geom.patch_len(), batch * geom.num_patches()][..]);
        prop_assert_eq!(bits(wide.as_slice()), bits(&wide_def));
        prop_assert_eq!(
            im2col_i8_batch(&stacked, &geom, params).unwrap(),
            quantize_slice(&wide_def, params)
        );

        let single = im2col(&first, &geom).unwrap();
        let single_def = im2col_by_definition(&data[..sample_len], &geom, 1);
        prop_assert_eq!(bits(single.as_slice()), bits(&single_def));
        prop_assert_eq!(
            im2col_i8(&first, &geom, params).unwrap(),
            quantize_slice(&single_def, params)
        );

        // Random (not im2col-shaped) columns, so overlapping fields really sum.
        let cols: Vec<f32> = (0..geom.patch_len() * geom.num_patches()).map(|_| rng.normal()).collect();
        let scattered = col2im(
            &Tensor::from_vec(cols.clone(), &[geom.patch_len(), geom.num_patches()]).unwrap(),
            &geom,
        )
        .unwrap();
        prop_assert_eq!(bits(scattered.as_slice()), bits(&col2im_by_definition(&cols, &geom)));
    }

    /// offset/unravel round-trips for every flat index of arbitrary small shapes.
    #[test]
    fn shape_offset_unravel_roundtrip(dims in small_dims()) {
        let shape = Shape::new(&dims);
        for flat in 0..shape.len() {
            let idx = shape.unravel(flat).unwrap();
            prop_assert_eq!(shape.offset(&idx).unwrap(), flat);
        }
    }

    /// Reshaping preserves the element sum for any compatible factorisation.
    #[test]
    fn reshape_preserves_sum(data in prop::collection::vec(-10.0f32..10.0, 1..64)) {
        let n = data.len();
        let t = Tensor::from_vec(data, &[n]).unwrap();
        let reshaped = t.reshape(&[1, n]).unwrap();
        prop_assert!((t.sum() - reshaped.sum()).abs() < 1e-4);
    }

    /// Element-wise addition commutes and subtraction is its inverse.
    #[test]
    fn add_commutes_sub_inverts(
        a in prop::collection::vec(-100.0f32..100.0, 1..32),
        seed in any::<u64>(),
    ) {
        let n = a.len();
        let mut rng = Rng64::new(seed);
        let b: Vec<f32> = (0..n).map(|_| rng.uniform(-100.0, 100.0)).collect();
        let ta = Tensor::from_vec(a, &[n]).unwrap();
        let tb = Tensor::from_vec(b, &[n]).unwrap();
        let ab = ta.add(&tb).unwrap();
        let ba = tb.add(&ta).unwrap();
        prop_assert_eq!(ab.as_slice(), ba.as_slice());
        let back = ab.sub(&tb).unwrap();
        for (x, y) in back.as_slice().iter().zip(ta.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// Matrix multiplication by the identity is the identity transformation.
    #[test]
    fn matmul_identity(rows in 1usize..6, cols in 1usize..6, seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let data: Vec<f32> = (0..rows * cols).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let a = Tensor::from_vec(data, &[rows, cols]).unwrap();
        let c = a.matmul(&Tensor::eye(cols)).unwrap();
        prop_assert_eq!(c.as_slice(), a.as_slice());
    }

    /// (A·B)ᵀ == Bᵀ·Aᵀ.
    #[test]
    fn matmul_transpose_identity(m in 1usize..5, k in 1usize..5, n in 1usize..5, seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let a = Tensor::from_vec((0..m * k).map(|_| rng.uniform(-1.0, 1.0)).collect(), &[m, k]).unwrap();
        let b = Tensor::from_vec((0..k * n).map(|_| rng.uniform(-1.0, 1.0)).collect(), &[k, n]).unwrap();
        let lhs = a.matmul(&b).unwrap().transpose().unwrap();
        let rhs = b.transpose().unwrap().matmul(&a.transpose().unwrap()).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// Softmax rows are valid probability distributions.
    #[test]
    fn softmax_rows_are_distributions(rows in 1usize..5, cols in 1usize..8, seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let t = Tensor::from_vec(
            (0..rows * cols).map(|_| rng.uniform(-5.0, 5.0)).collect(),
            &[rows, cols],
        ).unwrap();
        let s = t.softmax_rows().unwrap();
        for row in s.as_slice().chunks(cols) {
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    /// col2im(im2col(x)) scales each input element by its coverage count, so with a
    /// 1x1 kernel (coverage exactly one) the round-trip is the identity.
    #[test]
    fn im2col_col2im_identity_for_unit_kernel(h in 1usize..6, w in 1usize..6, seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let geom = Conv2dGeometry::new(1, h, w, 1, 1, 0).unwrap();
        let img = Tensor::from_vec((0..h * w).map(|_| rng.uniform(-1.0, 1.0)).collect(), &[1, h, w]).unwrap();
        let cols = im2col(&img, &geom).unwrap();
        let back = col2im(&cols, &geom).unwrap();
        prop_assert_eq!(back.as_slice(), img.as_slice());
    }

    /// im2col output contains every input element at least once when stride ≤ kernel.
    #[test]
    fn im2col_covers_input(h in 3usize..7, w in 3usize..7, k in 1usize..4, seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let geom = Conv2dGeometry::new(1, h, w, k, 1, 0).unwrap();
        let img = Tensor::from_vec((0..h * w).map(|_| rng.uniform(0.5, 1.5)).collect(), &[1, h, w]).unwrap();
        let cols = im2col(&img, &geom).unwrap();
        let ones = Tensor::ones(&[geom.patch_len(), geom.num_patches()]);
        let coverage = col2im(&ones, &geom).unwrap();
        // Stride 1 and k ≤ h,w means every input element is inside ≥ 1 receptive field.
        prop_assert!(coverage.as_slice().iter().all(|c| *c >= 1.0));
        prop_assert!(cols.as_slice().iter().all(|v| v.is_finite()));
    }
}
