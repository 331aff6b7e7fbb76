//! Fused convolution forward pass: an implicit GEMM that reads every
//! receptive field in place, with the bias added in the store.
//!
//! `im2col` + [`Tensor::matmul`] + a bias loop pays three times for data that
//! depends only on the model or is moved twice: it materialises the
//! `[patch_len, patches]` patch matrix, copies it again into the
//! microkernel's B panels, and re-packs the constant weight matrix on every
//! call.  The kernel here builds no patch matrix and no B panel at all:
//!
//! * the samples are copied once with their zero border written out
//!   ([`Bordered`]; borrowed as they are when the geometry has no padding),
//!   after which no receptive field ever clips: patch row `k = (c, ky, kx)` of
//!   output position `(oy, ox)` is the bordered image's element
//!   `taps[k] + (oy * width + ox) * stride`, where the per-geometry **tap
//!   table** `taps[k] = (c * height + ky) * width + kx` is in patch order;
//! * a register tile holds `NR` = 16 lanes, and which orientation it takes
//!   is a pure function of the geometry ([`lanes`]).  At stride 1 with an
//!   output width that is a multiple of 16, or exactly 8 or 4, the tile is
//!   `MR` weight rows by 16 output **positions**: `SEG` contiguous runs of
//!   `16 / SEG` positions (`SEG` 1, 2 or 4, one run per output row below a
//!   width of 16).  A run never leaves an output row of one sample, but the
//!   runs are counted over the call's samples in order, so a tile may hold
//!   runs of several samples and only the call's last tile is partial: it
//!   repeats its first run in the runs it lacks and never stores them.  Each
//!   `k` step loads the tile's patch row straight from the bordered image —
//!   `SEG` moves of `16 / SEG` floats — and the accumulators stay in
//!   registers across the whole depth;
//! * every other geometry — an output width of 2, 1 or any other width, a
//!   stride above 1 — would load runs narrower than four floats, more loads
//!   per `k` step than the step's multiply, and a 2x2 output fills only 4 of
//!   16 position lanes per sample.  Its tile is `MR` output positions by 16
//!   output **channels** instead: the positions are cut from the call's
//!   position sequence across samples (a group may straddle two samples; the
//!   last one repeats its first position in the positions it lacks), their
//!   patch rows are read once through the tap table into a `depth x MR`
//!   A-panel, and each `k` step broadcasts `MR` input values against a
//!   16-channel panel of `Wᵀ` ([`crate::gemm`]'s microkernel accumulation);
//!   the store transposes the tile into the output;
//! * the weights arrive as [`PackedWeights`], packed once per weight version
//!   for the orientation the geometry takes: `MR`-row micro-panels of `W`,
//!   or 16-channel panels of `Wᵀ`;
//! * the bias is added in the store, after the whole ascending-`k`
//!   reduction — the order `matmul` + bias loop rounds in.
//!
//! Every output element is therefore bit-for-bit what [`crate::im2col`] +
//! [`Tensor::matmul_naive`] + bias produce (pinned by `tests/gemm_parity.rs`),
//! for one sample and for a stacked batch alike: `+0.0`, then `acc += w · x`
//! in ascending `k` (a separate multiply and add, never a fused one), then the
//! bias, with no zero term skipped (the `gemm` module docs give the `+0.0`
//! argument for why a skip could only matter on a non-finite operand).  The
//! output is written as `[batch, out_channels, patches]` directly.  (One
//! caveat, as everywhere in Rust: where two NaNs meet in an addition, which
//! payload survives is the operand order the compiler picked for that loop —
//! an element that is NaN on one path is NaN on the other, with unspecified
//! bits.)
//!
//! Median µs per call on the 2-core reference box (release, `x86-64-v3`,
//! interleaved runs of a standalone probe), against the kernel it replaced,
//! which lowered every receptive field into a packed-B panel first:
//!
//! | rows x depth x positions | layer | batch 1 | batch 8 |
//! |---|---|---|---|
//! | 8x27x256 | `conv_net` conv1 | 8.7 → 4.1 | 79.3 → 38.8 |
//! | 12x72x64 | `conv_net` conv2 | 7.9 → 4.7 | 64.3 → 35.0 |
//! | 12x108x16 | `conv_net` conv3/4, `resnet_mini` stage 2 | 3.6 → 2.3 | 25.8 → 15.8 |
//! | 8x108x16 | `conv_net` conv5 | 3.4 → 2.2 | 23.5 → 12.0 |
//! | 8x27x64 | `resnet_mini` stem | 2.2 → 1.2 | 18.4 → 9.0 |
//! | 8x72x64 | `resnet_mini` stage 1 | 5.3 → 2.8 | 44.2 → 25.4 |
//! | 12x72x16 | `resnet_mini` stage-2 entry | 2.6 → 1.1 | 21.1 → 14.2 |
//!
//! The 2x2 shapes take the channel tile.  Against the position tile they ran
//! before (its runs of two floats gathered into a per-tile strip), in a later
//! probe on the same box:
//!
//! | rows x depth x positions | layer | batch 1 | batch 8 |
//! |---|---|---|---|
//! | 16x108x4 | `resnet_mini` stage-3 entry | 2.29 → 0.75 | 4.92 → 4.57 |
//! | 16x144x4 | `resnet_mini` stage 3 | 2.98 → 0.94 | 6.84 → 5.88 |
//! | 12x108x4 | `vgg_mini` block 4 | 1.95 → 0.72 | 4.27 → 4.52 |
//!
//! The box is noisy: the medians moved by up to 20 % between repeated probe
//! runs.  At batch 1 a 2x2 output filled 4 of the position tile's 16 lanes;
//! the channel tile fills all 16 with 16 output channels.  At batch 8 the
//! position tile already held four samples, so the two are at par there, and
//! with 12 channels the channel tile runs 12 of 16 lanes.

use std::cell::RefCell;

use crate::gemm::{pack_a, tile_accumulate, KC, MR, NR};
use crate::parallel::par_row_chunks;
use crate::{Conv2dGeometry, Result, Tensor, TensorError};

/// The kernel's per-thread scratch: every buffer grows on demand and never
/// shrinks, so a steady stream of forwards allocates nothing.
struct Scratch {
    /// The call's samples with their zero border written out (unused when the
    /// geometry has no padding).
    padded: Vec<f32>,
    /// The geometry's tap table ([`Bordered::tap_table`]).
    taps: Vec<usize>,
    /// One position group's `depth x MR` A-panel, where the lanes hold
    /// output channels.
    panel: Vec<f32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            padded: Vec::new(),
            taps: Vec::new(),
            panel: Vec::new(),
        })
    };
}

/// A `[rows, depth]` weight matrix packed for a register tile.
///
/// For [`conv2d_forward`] the matrix is one micro-panel of the whole depth
/// per `R` rows (`panel[k * R + r]`, the last one zero-padded): `R` = `MR`
/// where the tile's lanes hold output positions, `R` = `NR` — a 16-channel
/// panel of `Wᵀ` — where they hold output channels.  For the backward pass
/// ([`PackedWeights::pack_transposed`]) K panel `kp` (depths `kp * KC ..`)
/// holds one `MR`-row micro-panel per `MR` rows.
///
/// The packing is a pure function of the weights and of which orientation the
/// geometry takes: build it once per weight version and drop it whenever the
/// weights change.
#[derive(Debug, Clone)]
pub struct PackedWeights {
    rows: usize,
    depth: usize,
    /// Whether the panels put output channels on the lanes.
    channels: bool,
    panels: Vec<f32>,
}

impl PackedWeights {
    /// Packs a rank-2 `[rows, depth]` weight matrix for [`conv2d_forward`]
    /// over `geom`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidRank`] if `weight` is not rank 2.
    pub fn pack(weight: &Tensor, geom: &Conv2dGeometry) -> Result<Self> {
        let (rows, depth) = weight.shape().as_matrix()?;
        let w = weight.as_slice();
        let channels = lanes(geom) == Lanes::Channels;
        let panels = if channels {
            panels::<NR>(w, rows, depth)
        } else {
            panels::<MR>(w, rows, depth)
        };
        Ok(PackedWeights {
            rows,
            depth,
            channels,
            panels,
        })
    }

    /// Packs the transpose of a rank-2 `[depth, rows]` weight matrix — the
    /// `[rows, depth]` matrix `weightᵀ` the convolution backward pass
    /// multiplies by — reading `weight` as it is: nothing materialises the
    /// transpose.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidRank`] if `weight` is not rank 2.
    pub fn pack_transposed(weight: &Tensor) -> Result<Self> {
        let (depth, rows) = weight.shape().as_matrix()?;
        let w = weight.as_slice();
        let padded_rows = rows.next_multiple_of(MR);
        let mut panels = vec![0.0f32; padded_rows * depth];
        for k0 in (0..depth).step_by(KC) {
            let kc = KC.min(depth - k0);
            let k_panel = &mut panels[k0 * padded_rows..(k0 + kc) * padded_rows];
            for (micro, first_row) in k_panel.chunks_exact_mut(kc * MR).zip((0..rows).step_by(MR)) {
                let mr = MR.min(rows - first_row);
                for (k, packed) in micro.chunks_exact_mut(MR).enumerate() {
                    packed[..mr].copy_from_slice(&w[(k0 + k) * rows + first_row..][..mr]);
                }
            }
        }
        Ok(PackedWeights {
            rows,
            depth,
            channels: false,
            panels,
        })
    }

    /// Rows of the packed matrix (the GEMM's `m`).
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Depth of the packed matrix (the GEMM's `k`).
    pub(crate) fn depth(&self) -> usize {
        self.depth
    }

    /// Micro-panel `mp` of the K panel starting at depth `k0` (`kc` deep).
    pub(crate) fn micro_panel(&self, k0: usize, kc: usize, mp: usize) -> &[f32] {
        debug_assert!(!self.channels);
        let start = k0 * self.rows.div_ceil(MR) * MR + mp * kc * MR;
        &self.panels[start..start + kc * MR]
    }

    /// Channel panel `cp`: rows `cp * NR ..` transposed, `depth x NR`.
    fn channel_panel(&self, cp: usize) -> &[f32] {
        debug_assert!(self.channels);
        &self.panels[cp * self.depth * NR..][..self.depth * NR]
    }
}

/// `[rows, depth]` weights as one whole-depth `R`-row micro-panel per `R` rows.
fn panels<const R: usize>(w: &[f32], rows: usize, depth: usize) -> Vec<f32> {
    let mut panels = vec![0.0f32; rows.next_multiple_of(R) * depth];
    pack_a::<R>(w, depth, 0, rows, 0, depth, &mut panels);
    panels
}

/// Convolves every CHW sample stacked in `samples` with the packed `weights`
/// and adds `bias`, returning the flat `[batch, rows, out_h * out_w]` output.
///
/// `samples` is one sample or a stacked batch — any tensor whose element count
/// is a positive multiple of `in_channels * in_h * in_w`; sample `b` of the
/// result is bit-for-bit the result of sample `b` alone.  The kernel is serial
/// per call; a batch worth more than [`crate::parallel::MIN_WORK_PER_THREAD`]
/// MACs per thread splits its *sample* range at the workspace's one work gate.
///
/// # Errors
///
/// Returns [`TensorError::IncompatibleShapes`] if `samples` does not hold whole
/// samples, if the weights' depth is not the geometry's `patch_len` or they
/// were packed for a geometry whose tile holds the other orientation, or if
/// `bias` does not have one entry per weight row.
pub fn conv2d_forward(
    samples: &Tensor,
    geom: &Conv2dGeometry,
    weights: &PackedWeights,
    bias: &[f32],
) -> Result<Vec<f32>> {
    let batch = geom.sample_count(samples, true, "conv2d_forward")?;
    if weights.depth != geom.patch_len()
        || bias.len() != weights.rows
        || weights.channels != (lanes(geom) == Lanes::Channels)
    {
        return Err(TensorError::IncompatibleShapes {
            lhs: vec![weights.rows, weights.depth],
            rhs: vec![bias.len(), geom.patch_len()],
            op: "conv2d_forward",
        });
    }
    let sample_out = weights.rows * geom.num_patches();
    let sample_len = geom.sample_len();
    let xs = samples.as_slice();
    let mut out = vec![0.0f32; batch * sample_out];
    let work = batch * sample_out * weights.depth;
    par_row_chunks(&mut out, batch, sample_out, work, |first, chunk| {
        let count = chunk.len() / sample_out.max(1);
        let chunk_xs = &xs[first * sample_len..(first + count) * sample_len];
        SCRATCH.with_borrow_mut(|scratch| {
            conv_serial(chunk, chunk_xs, count, geom, weights, bias, scratch);
        });
    });
    Ok(out)
}

/// The serial kernel over `batch` samples: per register tile, one pass over
/// the whole depth with the accumulators in registers.
fn conv_serial(
    out: &mut [f32],
    xs: &[f32],
    batch: usize,
    geom: &Conv2dGeometry,
    weights: &PackedWeights,
    bias: &[f32],
    scratch: &mut Scratch,
) {
    if weights.rows == 0 || geom.num_patches() == 0 {
        return;
    }
    let Scratch {
        padded,
        taps,
        panel,
    } = scratch;
    let source = Bordered::new(xs, batch, geom, padded);
    source.tap_table(geom, taps);
    let tiles = Tiles {
        source: &source,
        geom,
        weights,
        bias,
        taps,
    };
    match lanes(geom) {
        Lanes::Runs(1) => tiles.runs::<1>(out),
        Lanes::Runs(2) => tiles.runs::<2>(out),
        Lanes::Runs(_) => tiles.runs::<4>(out),
        Lanes::Channels => tiles.channels(out, panel),
    }
}

/// What the `NR` lanes of a geometry's register tile hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lanes {
    /// `SEG` contiguous runs of `NR / SEG` output positions (`SEG` 1, 2 or 4).
    Runs(usize),
    /// `NR` output channels of `MR` output positions.
    Channels,
}

/// Which orientation a geometry's tile takes — a pure function of the
/// geometry.  At stride 1 a multiple-of-16 output width is one 16-float run
/// of positions per tile, and an output width of exactly 8 or 4 is one run
/// per output row.  Narrower runs would cost more loads per `k` step than the
/// step's multiply, so every other geometry (a width of 2, a stride above 1,
/// any other width) puts output channels on the lanes.
fn lanes(geom: &Conv2dGeometry) -> Lanes {
    const HALF: usize = NR / 2;
    const QUARTER: usize = NR / 4;
    match (geom.stride, geom.out_w) {
        (1, width) if width % NR == 0 => Lanes::Runs(1),
        (1, HALF) => Lanes::Runs(2),
        (1, QUARTER) => Lanes::Runs(4),
        _ => Lanes::Channels,
    }
}

/// The call's samples as CHW images of `height x width` **including** the
/// geometry's zero border, so every receptive field is in bounds and the
/// kernel never clips: patch element `(c, ky, kx)` of output position
/// `(oy, ox)` is `image[c][oy * stride + ky][ox * stride + kx]`.
///
/// Writing the border out costs one pass over the *input* (`kernel²` times
/// smaller than the patch matrix); without padding the samples are borrowed
/// as they are.
struct Bordered<'a> {
    data: &'a [f32],
    height: usize,
    width: usize,
}

impl<'a> Bordered<'a> {
    fn new(xs: &'a [f32], batch: usize, geom: &Conv2dGeometry, padded: &'a mut Vec<f32>) -> Self {
        let (in_h, in_w, padding) = (geom.in_h, geom.in_w, geom.padding);
        if padding == 0 {
            return Bordered {
                data: xs,
                height: in_h,
                width: in_w,
            };
        }
        let (height, width) = (in_h + 2 * padding, in_w + 2 * padding);
        let len = batch * geom.in_channels * height * width;
        if padded.len() < len {
            padded.resize(len, 0.0);
        }
        let padded = &mut padded[..len];
        padded.fill(0.0);
        // One image per sample and channel, all laid out back to back.
        for (image, bordered) in xs
            .chunks_exact(in_h * in_w)
            .zip(padded.chunks_exact_mut(height * width))
        {
            for (row, bordered_row) in image
                .chunks_exact(in_w)
                .zip(bordered[padding * width..].chunks_exact_mut(width))
            {
                bordered_row[padding..padding + in_w].copy_from_slice(row);
            }
        }
        Bordered {
            data: padded,
            height,
            width,
        }
    }

    /// Fills `taps` with the geometry's tap table: the offset of patch row
    /// `k = (c, ky, kx)` from an output position's window corner in a bordered
    /// sample, in patch order.
    fn tap_table(&self, geom: &Conv2dGeometry, taps: &mut Vec<usize>) {
        taps.clear();
        for c in 0..geom.in_channels {
            for ky in 0..geom.kernel {
                let row = (c * self.height + ky) * self.width;
                taps.extend(row..row + geom.kernel);
            }
        }
    }

    /// Offset of output position `p`'s window corner in a bordered sample.
    fn corner(&self, geom: &Conv2dGeometry, p: usize) -> usize {
        (p / geom.out_w * self.width + p % geom.out_w) * geom.stride
    }
}

/// One call's operands, shared by every register tile.
struct Tiles<'a> {
    source: &'a Bordered<'a>,
    geom: &'a Conv2dGeometry,
    weights: &'a PackedWeights,
    bias: &'a [f32],
    taps: &'a [usize],
}

impl Tiles<'_> {
    /// Every tile of a geometry whose lanes hold runs of positions: `SEG`
    /// consecutive runs of `NR / SEG` output positions, counted over the
    /// samples in order, each run inside one output row of one sample and
    /// read in place by every micro-panel.
    fn runs<const SEG: usize>(&self, out: &mut [f32]) {
        let (source, geom, weights) = (self.source, self.geom, self.weights);
        let (rows, depth, patches) = (weights.rows, weights.depth, geom.num_patches());
        let run_len = NR / SEG;
        let sample_runs = patches / run_len;
        let sample_in = geom.in_channels * source.height * source.width;
        let total = source.data.len() / sample_in * sample_runs;
        // Run `g`'s first element for tap 0 in the bordered samples, and its
        // first output in row 0 of the `[batch, rows, patches]` output.
        let run = |g: usize| {
            let (sample, p) = (g / sample_runs, g % sample_runs * run_len);
            (
                sample * sample_in + source.corner(geom, p),
                sample * rows * patches + p,
            )
        };
        for first in (0..total).step_by(SEG) {
            let valid = SEG.min(total - first);
            // The call's last tile repeats its first run in the runs it lacks:
            // they are computed and never stored.
            let (mut src, mut dst) = ([0usize; SEG], [0usize; SEG]);
            for s in 0..SEG {
                (src[s], dst[s]) = run(first + if s < valid { s } else { 0 });
            }
            for (mp, first_row) in (0..rows).step_by(MR).enumerate() {
                let a = weights.micro_panel(0, depth, mp);
                let acc = accumulate(a, self.taps, source.data, &src);
                let mr = MR.min(rows - first_row);
                let mut bias = [0.0f32; MR];
                bias[..mr].copy_from_slice(&self.bias[first_row..first_row + mr]);
                if mr == MR && valid == SEG {
                    // Constant-size stores keep the tile in registers.
                    for r in 0..MR {
                        let at = (first_row + r) * patches;
                        for s in 0..SEG {
                            let lanes = &acc[r][s * run_len..(s + 1) * run_len];
                            for (o, v) in out[at + dst[s]..][..run_len].iter_mut().zip(lanes) {
                                *o = v + bias[r];
                            }
                        }
                    }
                } else {
                    let tile = acc;
                    for r in 0..mr {
                        let at = (first_row + r) * patches;
                        for s in 0..valid {
                            let lanes = &tile[r][s * run_len..(s + 1) * run_len];
                            for (o, v) in out[at + dst[s]..][..run_len].iter_mut().zip(lanes) {
                                *o = v + bias[r];
                            }
                        }
                    }
                }
            }
        }
    }

    /// Every tile of a geometry whose lanes hold output channels: `MR`
    /// consecutive output positions, counted over the samples in order (so a
    /// group may straddle two samples), by `NR` output channels.  The group's
    /// patch rows are read once through the tap table into a `depth x MR`
    /// A-panel (`panel[k * MR + r]`), which every channel panel of `Wᵀ` then
    /// multiplies as the GEMM microkernel multiplies its packed panels; the
    /// store transposes the tile into the `[batch, rows, patches]` output and
    /// adds the bias.  The call's last group repeats its first position in
    /// the positions it lacks: they are computed and never stored.
    fn channels(&self, out: &mut [f32], panel: &mut Vec<f32>) {
        let (source, geom, weights) = (self.source, self.geom, self.weights);
        let (rows, depth, patches) = (weights.rows, weights.depth, geom.num_patches());
        if panel.len() < depth * MR {
            panel.resize(depth * MR, 0.0);
        }
        let panel = &mut panel[..depth * MR];
        let sample_in = geom.in_channels * source.height * source.width;
        let total = source.data.len() / sample_in * patches;
        for first in (0..total).step_by(MR) {
            let valid = MR.min(total - first);
            // Position `first + r`'s window corner in the bordered samples,
            // and its output in row 0 of the `[batch, rows, patches]` output.
            let (mut src, mut dst) = ([0usize; MR], [0usize; MR]);
            for r in 0..MR {
                let g = first + if r < valid { r } else { 0 };
                let (sample, p) = (g / patches, g % patches);
                src[r] = sample * sample_in + source.corner(geom, p);
                dst[r] = sample * rows * patches + p;
            }
            for (a, &tap) in panel.chunks_exact_mut(MR).zip(self.taps) {
                for r in 0..MR {
                    a[r] = source.data[tap + src[r]];
                }
            }
            for (cp, first_row) in (0..rows).step_by(NR).enumerate() {
                let mut acc = [[0.0f32; NR]; MR];
                tile_accumulate(depth, panel, weights.channel_panel(cp), &mut acc);
                let tile = acc;
                let channels = first_row..rows.min(first_row + NR);
                for (lanes, &dst) in tile.iter().zip(&dst).take(valid) {
                    for ((v, b), c) in lanes
                        .iter()
                        .zip(&self.bias[channels.clone()])
                        .zip(channels.clone())
                    {
                        out[dst + c * patches] = v + b;
                    }
                }
            }
        }
    }
}

/// From `+0.0`, `a.len() / MR` ascending steps of
/// `acc[r][j] += a[k][r] * x[k][j]`, where row `k` of the tile's patch matrix
/// is read in place: its lanes are `SEG` runs of `NR / SEG` consecutive
/// floats, run `s` starting at `image[taps[k] + runs[s]]`.  Every bound is a
/// compile-time constant, so the accumulators stay in registers and the lane
/// loop vectorises.
#[inline(always)]
fn accumulate<const SEG: usize>(
    a: &[f32],
    taps: &[usize],
    image: &[f32],
    runs: &[usize; SEG],
) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    let run_len = NR / SEG;
    for (w, &tap) in a.chunks_exact(MR).zip(taps) {
        let mut x = [0.0f32; NR];
        for s in 0..SEG {
            x[s * run_len..(s + 1) * run_len].copy_from_slice(&image[tap + runs[s]..][..run_len]);
        }
        for r in 0..MR {
            for j in 0..NR {
                acc[r][j] += w[r] * x[j];
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{im2col_batch, Rng64};

    /// `im2col_batch` + naive matmul + bias, re-laid out as `[batch, rows, patches]`.
    fn reference(
        samples: &Tensor,
        geom: &Conv2dGeometry,
        weight: &Tensor,
        bias: &[f32],
    ) -> Vec<f32> {
        let cols = im2col_batch(samples, geom).unwrap();
        let wide = weight.matmul_naive(&cols).unwrap();
        let (rows, patches) = (weight.dims()[0], geom.num_patches());
        let batch = cols.dims()[1] / patches;
        let mut out = vec![0.0f32; batch * rows * patches];
        for b in 0..batch {
            for r in 0..rows {
                for p in 0..patches {
                    out[(b * rows + r) * patches + p] =
                        wide.as_slice()[r * batch * patches + b * patches + p] + bias[r];
                }
            }
        }
        out
    }

    fn random(len: usize, rng: &mut Rng64, zero_every: usize) -> Vec<f32> {
        (0..len)
            .map(|i| {
                if zero_every > 0 && i % zero_every == 0 {
                    0.0
                } else {
                    rng.normal()
                }
            })
            .collect()
    }

    #[test]
    fn fused_kernel_matches_lowered_reference_on_awkward_shapes() {
        let mut rng = Rng64::new(3);
        // (in_c, h, w, kernel, stride, padding, out_c, batch): every tile
        // orientation (output widths 16, 8 and 4 at stride 1 run positions on
        // the lanes; widths 2, 1, 3 and 20 and stride 2 run channels), tiles
        // holding runs of several samples, position groups straddling
        // samples (widths 2 and 1 over three samples), a partial last tile
        // or group, more than one K panel, a ragged last micro-panel and a
        // ragged last channel panel.
        for (in_c, h, w, kernel, stride, padding, out_c, batch) in [
            (1, 3, 3, 1, 1, 0, 1, 1),
            (3, 16, 16, 3, 1, 1, 8, 1),
            (16, 2, 2, 3, 1, 1, 16, 5),
            (6, 3, 2, 3, 1, 1, 40, 3),
            (5, 5, 2, 3, 1, 1, 17, 3),
            (7, 1, 1, 3, 1, 1, 33, 3),
            (4, 3, 1, 1, 1, 0, 16, 3),
            (2, 7, 7, 3, 2, 1, 5, 3),
            (3, 20, 20, 5, 1, 2, 6, 2),
            (30, 5, 5, 3, 1, 0, 7, 4),
            (11, 6, 6, 5, 2, 2, 9, 3),
            (4, 8, 8, 3, 1, 1, 6, 3),
            (5, 4, 4, 3, 1, 1, 13, 2),
        ] {
            let geom = Conv2dGeometry::new(in_c, h, w, kernel, stride, padding).unwrap();
            let weight = Tensor::from_vec(
                random(out_c * geom.patch_len(), &mut rng, 5),
                &[out_c, geom.patch_len()],
            )
            .unwrap();
            let bias = random(out_c, &mut rng, 0);
            let samples = Tensor::from_vec(
                random(batch * in_c * h * w, &mut rng, 0),
                &[batch, in_c, h, w],
            )
            .unwrap();
            let packed = PackedWeights::pack(&weight, &geom).unwrap();
            let fused = conv2d_forward(&samples, &geom, &packed, &bias).unwrap();
            let expected = reference(&samples, &geom, &weight, &bias);
            assert_eq!(fused.len(), expected.len());
            for (i, (f, e)) in fused.iter().zip(&expected).enumerate() {
                assert_eq!(f.to_bits(), e.to_bits(), "{geom:?} x{batch}: element {i}");
            }
        }
    }

    #[test]
    fn mismatched_operands_are_rejected() {
        let geom = Conv2dGeometry::new(1, 4, 4, 3, 1, 1).unwrap();
        let packed = PackedWeights::pack(&Tensor::ones(&[2, 9]), &geom).unwrap();
        let image = Tensor::ones(&[1, 4, 4]);
        assert!(conv2d_forward(&image, &geom, &packed, &[0.0, 0.0]).is_ok());
        assert!(conv2d_forward(&image, &geom, &packed, &[0.0]).is_err());
        assert!(conv2d_forward(&Tensor::ones(&[15]), &geom, &packed, &[0.0, 0.0]).is_err());
        let shallow = PackedWeights::pack(&Tensor::ones(&[2, 4]), &geom).unwrap();
        assert!(conv2d_forward(&image, &geom, &shallow, &[0.0, 0.0]).is_err());
        assert!(PackedWeights::pack(&Tensor::ones(&[2, 3, 3]), &geom).is_err());
        // Weights packed for the other tile orientation (a 2x2 output puts
        // channels on the lanes) are rejected, not misread.
        let narrow = Conv2dGeometry::new(1, 2, 2, 3, 1, 1).unwrap();
        let crosswise = PackedWeights::pack(&Tensor::ones(&[2, 9]), &narrow).unwrap();
        assert!(
            conv2d_forward(&Tensor::ones(&[1, 2, 2]), &narrow, &crosswise, &[0.0, 0.0]).is_ok()
        );
        assert!(conv2d_forward(&image, &geom, &crosswise, &[0.0, 0.0]).is_err());
    }
}
