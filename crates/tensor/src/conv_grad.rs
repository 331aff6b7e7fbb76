//! Convolution backward kernels over a stacked batch: the input gradient as
//! one GEMM per call, the parameter gradients per sample.
//!
//! Their definition is per sample: `dx = col2im(Wᵀ · gy)`, `dW = gy · colsᵀ`
//! (`cols = im2col(x)`, both products as [`crate::Tensor::matmul_naive`]
//! computes them: the plain ascending-`k` sum from `+0.0`, no term skipped)
//! and `db` the row sums of `gy`, with the parameter gradients of a batch
//! summed over its samples.  The kernels do the same float operations in the
//! same per-element order, so they are bit-for-bit that definition
//! (`tests/gemm_parity.rs` pins it):
//!
//! * **input gradient** ([`conv2d_backward_input`]): `Wᵀ` is packed once per
//!   weight version ([`PackedWeights::pack_transposed`] reads `W` as it is)
//!   and multiplied by every sample's `gy` at once — the GEMM's N dimension
//!   runs over samples × patches.  The blocked GEMM tiles M and N only and
//!   reduces each element over ascending output channels, so batching along
//!   N moves no bit.  `col2im` then scatters every sample's block of columns,
//!   in one traversal, each image in its own accumulation order;
//! * **parameter gradients** ([`conv2d_backward_params`]): per sample,
//!   `gy · colsᵀ` reduces over ascending patches (the samples are lowered
//!   straight into transposed B panels, so no patch matrix is built or
//!   transposed) and the bias is each row's sum.  `gy` is full of zeros
//!   after a ReLU or a max pool; each zero term is summed like any other,
//!   which is what skipping it would give on finite operands (the `gemm`
//!   module docs give the `+0.0` argument), and branch-free.  The per-sample
//!   gradients are summed in sample order, the first sample *initialising*
//!   the sum, so a `-0.0` survives it.

use crate::conv::PackedWeights;
use crate::gemm::{microkernel, pack_a, KC, MC, MR, NC, NR};
use crate::im2col::col2im_into;
use crate::parallel::par_row_chunks;
use crate::{Conv2dGeometry, Result, TensorError};

/// The gradient of a convolution's loss with respect to its stacked input:
/// `grad_out` is the `[batch, rows, out_h * out_w]` gradient of its output,
/// `weights_t` the transposed weights ([`PackedWeights::pack_transposed`] of
/// the `[rows, patch_len]` weight matrix).  Returns the flat
/// `[batch, in_channels, in_h, in_w]` input gradient; sample `b` is
/// bit-for-bit `col2im(Wᵀ · gy_b)`, whatever the batch.
///
/// A batch worth more than [`crate::parallel::MIN_WORK_PER_THREAD`] MACs per
/// thread splits its sample range at the workspace's one work gate.
///
/// # Errors
///
/// Returns [`TensorError::IncompatibleShapes`] if the packed weights do not
/// match the geometry or `grad_out` does not hold whole samples.
pub fn conv2d_backward_input(
    grad_out: &[f32],
    geom: &Conv2dGeometry,
    weights_t: &PackedWeights,
) -> Result<Vec<f32>> {
    let (patch_len, channels) = (weights_t.rows(), weights_t.depth());
    let sample_grad = channels * geom.num_patches();
    let batch = whole_samples(grad_out, sample_grad, "conv2d_backward_input")?;
    if patch_len != geom.patch_len() {
        return Err(TensorError::IncompatibleShapes {
            lhs: vec![patch_len, channels],
            rhs: vec![geom.patch_len()],
            op: "conv2d_backward_input",
        });
    }
    let sample_len = geom.sample_len();
    let mut out = vec![0.0f32; batch * sample_len];
    let work = batch * sample_grad * patch_len;
    par_row_chunks(&mut out, batch, sample_len, work, |first, images| {
        let count = images.len() / sample_len.max(1);
        let gy = &grad_out[first * sample_grad..(first + count) * sample_grad];
        input_serial(images, gy, count, geom, weights_t);
    });
    Ok(out)
}

/// [`conv2d_backward_input`] over `batch` samples on one thread: the blocked
/// GEMM's loop nest with the A panels pre-packed and the B pack reading the
/// stacked `[batch, channels, patches]` gradient, then one scatter per sample.
fn input_serial(
    images: &mut [f32],
    gy: &[f32],
    batch: usize,
    geom: &Conv2dGeometry,
    weights_t: &PackedWeights,
) {
    let (m, k) = (weights_t.rows(), weights_t.depth());
    let patches = geom.num_patches();
    let n = batch * patches;
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // `dcols`: row `p`, column `b * patches + j` is sample `b`'s patch row `p`.
    let mut cols = vec![0.0f32; m * n];
    let mut panel = vec![0.0f32; KC.min(k) * NC.min(n).next_multiple_of(NR)];
    for j0 in (0..n).step_by(NC) {
        let jw = NC.min(n - j0);
        for k0 in (0..k).step_by(KC) {
            let kc = KC.min(k - k0);
            for (tile, jr) in (0..jw).step_by(NR).enumerate() {
                let nr = NR.min(jw - jr);
                let micro = &mut panel[tile * kc * NR..(tile + 1) * kc * NR];
                if nr < NR {
                    micro.fill(0.0);
                }
                // Column `j` of the gradient matrix is sample `j / patches`,
                // position `j % patches`, and row `c` its output channel: a
                // run of columns inside one sample is a contiguous stretch
                // of every channel's row.
                let mut j = 0;
                while j < nr {
                    let column = j0 + jr + j;
                    let (sample, position) = (column / patches, column % patches);
                    let len = (nr - j).min(patches - position);
                    let src = sample * k * patches + position;
                    for kk in 0..kc {
                        let row = &gy[src + (k0 + kk) * patches..][..len];
                        micro[kk * NR + j..][..len].copy_from_slice(row);
                    }
                    j += len;
                }
            }
            for (tile, jr) in (0..jw).step_by(NR).enumerate() {
                let nr = NR.min(jw - jr);
                let b = &panel[tile * kc * NR..(tile + 1) * kc * NR];
                for (mp, ir) in (0..m).step_by(MR).enumerate() {
                    let mr = MR.min(m - ir);
                    let a = weights_t.micro_panel(k0, kc, mp);
                    microkernel(kc, a, b, &mut cols[ir * n + j0 + jr..], n, mr, nr);
                }
            }
        }
    }
    col2im_into(&cols, n, geom, images);
}

/// The gradients of a convolution's loss with respect to its `[rows,
/// patch_len]` weights and `[rows]` bias, summed over a stacked batch:
/// `grad_out` is the `[batch, rows, out_h * out_w]` output gradient and
/// `samples` the `[batch, in_channels, in_h, in_w]` input.  Overwrites
/// `weight_grad` and `bias_grad` with sample 0's gradients and adds every
/// later sample's, in sample order.
///
/// # Errors
///
/// Returns [`TensorError::IncompatibleShapes`] if the buffers, the gradient
/// and the samples disagree on the batch or the geometry.
pub fn conv2d_backward_params(
    grad_out: &[f32],
    samples: &[f32],
    geom: &Conv2dGeometry,
    weight_grad: &mut [f32],
    bias_grad: &mut [f32],
) -> Result<()> {
    let (rows, patch_len, patches) = (bias_grad.len(), geom.patch_len(), geom.num_patches());
    let batch = whole_samples(grad_out, rows * patches, "conv2d_backward_params")?;
    if weight_grad.len() != rows * patch_len || samples.len() != batch * geom.sample_len() {
        return Err(TensorError::IncompatibleShapes {
            lhs: vec![samples.len(), weight_grad.len()],
            rhs: vec![batch, rows, patch_len],
            op: "conv2d_backward_params",
        });
    }
    // Every sample's own weight gradient, side by side: the sum below adds
    // them in sample order.
    let mut grads = vec![0.0f32; batch * rows * patch_len];
    weight_grads(&mut grads, grad_out, samples, geom);
    for (b, (grad, gy)) in grads
        .chunks_exact(rows * patch_len)
        .zip(grad_out.chunks_exact(rows * patches))
        .enumerate()
    {
        let bias = gy.chunks_exact(patches).map(|row| row.iter().sum::<f32>());
        if b == 0 {
            weight_grad.copy_from_slice(grad);
            for (acc, v) in bias_grad.iter_mut().zip(bias) {
                *acc = v;
            }
        } else {
            for (acc, v) in weight_grad.iter_mut().zip(grad) {
                *acc += v;
            }
            for (acc, v) in bias_grad.iter_mut().zip(bias) {
                *acc += v;
            }
        }
    }
    Ok(())
}

/// Each sample's weight gradient `gy · colsᵀ` into its own zeroed `[rows,
/// patch_len]` slab of `out`: the blocked GEMM's loop nest over `k` =
/// patches, with the samples lowered **straight into the transposed
/// packed-B layout** — patch row `p` is GEMM column `p`, so a lowering run
/// (one patch row, consecutive positions) lands `NR` floats apart in one
/// micro-panel instead of being gathered back out of a patch matrix.  One
/// traversal of the lowering lowers every sample into its own panels.
/// Padding keeps the panels' zeros, the product the patch matrix's zeros
/// gave.  `gy` is the A operand.
fn weight_grads(out: &mut [f32], grad_out: &[f32], samples: &[f32], geom: &Conv2dGeometry) {
    let (patch_len, patches, sample_len) =
        (geom.patch_len(), geom.num_patches(), geom.sample_len());
    let batch = samples.len() / sample_len.max(1);
    let m = grad_out.len() / (batch * patches).max(1);
    let panels = patch_len.div_ceil(NR);
    let mut blocks = vec![0.0f32; batch * panels * KC.min(patches) * NR];
    let mut apack = vec![0.0f32; MC.min(m).next_multiple_of(MR) * KC.min(patches)];
    for k0 in (0..patches).step_by(KC) {
        let kc = KC.min(patches - k0);
        let block_len = panels * kc * NR;
        blocks.fill(0.0);
        geom.for_each_row_run(|run| {
            let first = run.col.max(k0);
            let end = (run.col + run.len).min(k0 + kc);
            if first >= end {
                return;
            }
            let at = (run.row / NR * kc + first - k0) * NR + run.row % NR;
            let from = run.src + (first - run.col) * geom.stride;
            for (block, x) in blocks
                .chunks_exact_mut(block_len)
                .zip(samples.chunks_exact(sample_len))
            {
                let dst = block[at..].iter_mut().step_by(NR);
                let src = x[from..].iter().step_by(geom.stride);
                for (d, v) in dst.zip(src).take(end - first) {
                    *d = *v;
                }
            }
        });
        let per_sample = blocks
            .chunks_exact(block_len)
            .zip(grad_out.chunks_exact(m * patches))
            .zip(out.chunks_exact_mut(m * patch_len));
        for ((block, gy), grad) in per_sample {
            for i0 in (0..m).step_by(MC) {
                let mc = MC.min(m - i0);
                pack_a::<MR>(gy, patches, i0, mc, k0, kc, &mut apack);
                for (bpanel, jr) in (0..patch_len).step_by(NR).enumerate() {
                    let nr = NR.min(patch_len - jr);
                    let bmicro = &block[bpanel * kc * NR..(bpanel + 1) * kc * NR];
                    for (apanel, ir) in (0..mc).step_by(MR).enumerate() {
                        let mr = MR.min(mc - ir);
                        let amicro = &apack[apanel * kc * MR..(apanel + 1) * kc * MR];
                        let c = &mut grad[(i0 + ir) * patch_len + jr..];
                        microkernel(kc, amicro, bmicro, c, patch_len, mr, nr);
                    }
                }
            }
        }
    }
}

/// The number of `sample_len` slabs in `data`: at least one, no remainder.
fn whole_samples(data: &[f32], sample_len: usize, op: &'static str) -> Result<usize> {
    if sample_len == 0 || data.is_empty() || data.len() % sample_len != 0 {
        return Err(TensorError::IncompatibleShapes {
            lhs: vec![data.len()],
            rhs: vec![sample_len],
            op,
        });
    }
    Ok(data.len() / sample_len)
}
