//! Fused convolution forward pass: lowering, GEMM and bias in one kernel.
//!
//! `im2col` + [`Tensor::matmul`] + a bias loop pays three times for data that
//! depends only on the model or is moved twice: it materialises the
//! `[patch_len, patches]` patch matrix and then copies it again into the
//! microkernel's B panels, and it re-packs the constant weight matrix on every
//! call.  The kernel here pays only for the request's data:
//!
//! * receptive fields are written **straight into the `NR`-column packed-B
//!   panel layout** the microkernel reads — no patch matrix in between.  The
//!   samples are first copied once with their zero border written out
//!   (`kernel²` times less data than the patch matrix), after which no field
//!   ever clips and the lowering is a walk of constant-size moves
//!   ([`Bordered::lower_block`]);
//! * the weights arrive as [`PackedWeights`]: `MR`-row micro-panels packed
//!   once per weight version;
//! * the bias is added in the store of the last K panel, after the whole
//!   ascending-`k` reduction — the order `matmul` + bias loop rounds in;
//! * the packed-B panel and the bordered samples live in grow-only per-thread
//!   buffers.
//!
//! Every output element is therefore bit-for-bit what [`crate::im2col`] +
//! [`Tensor::matmul_naive`] + bias produce (pinned by `tests/gemm_parity.rs`),
//! for one sample and for a stacked batch alike: the same plain ascending-`k`
//! sum, starting at `+0.0`, with no zero term skipped (the `gemm` module docs
//! give the `+0.0` argument for why a skip could only matter on a non-finite
//! operand).  The output is written as `[batch, out_channels, patches]`
//! directly; a column panel that straddles two samples splits its store.
//! (One caveat, as everywhere in Rust: where two NaNs meet in an addition,
//! which payload survives is the operand order the compiler picked for that
//! loop — an element that is NaN on one path is NaN on the other, with
//! unspecified bits.)
//!
//! Measured on the 2-core reference box (release, `x86-64-v3`), one sample,
//! median of 31 rounds, against `im2col` + `matmul` + bias: 8x27x256
//! 12.5 → 5.7 µs, 12x72x64 9.4 → 5.7 µs, 12x108x16 5.1 → 3.0 µs, and the
//! four-column 16x144x4 (which the lowered path hands to the naive loop)
//! 8.9 → 3.9 µs.

use std::cell::RefCell;

use crate::gemm::{pack_a, tile_accumulate, KC, MR, NC, NR};
use crate::parallel::par_row_chunks;
use crate::{Conv2dGeometry, Result, Tensor, TensorError};

/// The kernel's per-thread scratch: both buffers grow on demand and never
/// shrink, so a steady stream of forwards allocates nothing.
struct Scratch {
    /// One packed-B panel (at most `KC x NC` floats).
    panel: Vec<f32>,
    /// The call's samples with their zero border written out (unused when the
    /// geometry has no padding).
    padded: Vec<f32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            panel: Vec::new(),
            padded: Vec::new(),
        })
    };
}

/// A `[rows, depth]` weight matrix packed for the register-tile microkernel.
///
/// K panel `kp` (depths `kp * KC ..`) holds one `MR`-row micro-panel per
/// `MR` rows (`panel[k * MR + r]`, the last one zero-padded).
///
/// The packing is a pure function of the weights: build it once per weight
/// version and drop it whenever the weights change.
#[derive(Debug, Clone)]
pub struct PackedWeights {
    rows: usize,
    depth: usize,
    panels: Vec<f32>,
}

impl PackedWeights {
    /// Packs a rank-2 `[rows, depth]` weight matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidRank`] if `weight` is not rank 2.
    pub fn pack(weight: &Tensor) -> Result<Self> {
        let (rows, depth) = weight.shape().as_matrix()?;
        let w = weight.as_slice();
        let padded_rows = rows.next_multiple_of(MR);
        let mut panels = vec![0.0f32; padded_rows * depth];
        for k0 in (0..depth).step_by(KC) {
            let kc = KC.min(depth - k0);
            let k_panel = &mut panels[k0 * padded_rows..(k0 + kc) * padded_rows];
            pack_a(w, depth, 0, rows, k0, kc, k_panel);
        }
        Ok(PackedWeights {
            rows,
            depth,
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
        let start = k0 * self.rows.div_ceil(MR) * MR + mp * kc * MR;
        &self.panels[start..start + kc * MR]
    }
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
/// samples, if the weights' depth is not the geometry's `patch_len`, or if
/// `bias` does not have one entry per weight row.
pub fn conv2d_forward(
    samples: &Tensor,
    geom: &Conv2dGeometry,
    weights: &PackedWeights,
    bias: &[f32],
) -> Result<Vec<f32>> {
    let batch = geom.sample_count(samples, true, "conv2d_forward")?;
    if weights.depth != geom.patch_len() || bias.len() != weights.rows {
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

/// The serial kernel over `batch` samples: the blocked GEMM's loop nest
/// (column blocks, ascending K panels, register tiles) with the B pack fed by
/// the lowering and the A panels pre-packed.
fn conv_serial(
    out: &mut [f32],
    xs: &[f32],
    batch: usize,
    geom: &Conv2dGeometry,
    weights: &PackedWeights,
    bias: &[f32],
    scratch: &mut Scratch,
) {
    let (rows, depth) = (weights.rows, weights.depth);
    let patches = geom.num_patches();
    let columns = batch * patches;
    if rows == 0 || columns == 0 {
        return;
    }
    let Scratch { panel, padded } = scratch;
    let source = Bordered::new(xs, batch, geom, padded);
    let panel_len = KC.min(depth) * NC.min(columns).next_multiple_of(NR);
    if panel.len() < panel_len {
        panel.resize(panel_len, 0.0);
    }
    for j0 in (0..columns).step_by(NC) {
        let jw = NC.min(columns - j0);
        for k0 in (0..depth).step_by(KC) {
            let kc = KC.min(depth - k0);
            let block = &mut panel[..kc * jw.next_multiple_of(NR)];
            source.lower_block(block, geom, j0, jw, k0, kc);
            let pass = KPass {
                kc,
                resume: k0 > 0,
                last: k0 + kc == depth,
            };
            for (tile, jr) in (0..jw).step_by(NR).enumerate() {
                let b = &block[tile * kc * NR..(tile + 1) * kc * NR];
                let column = j0 + jr;
                let mut dst = TileDst {
                    out: &mut *out,
                    // Samples are `[rows, patches]` slabs: row `r` of the tile
                    // starts `r * patches` further on.
                    base: column / patches * rows * patches + column % patches,
                    room: patches - column % patches,
                    nr: NR.min(jw - jr),
                    mr: MR,
                    rows,
                    patches,
                };
                for (mp, first_row) in (0..rows).step_by(MR).enumerate() {
                    let a = weights.micro_panel(k0, kc, mp);
                    dst.mr = MR.min(rows - first_row);
                    let mut tile_bias = [0.0f32; MR];
                    tile_bias[..dst.mr].copy_from_slice(&bias[first_row..first_row + dst.mr]);
                    conv_tile(&pass, a, b, &mut dst, first_row, &tile_bias);
                }
            }
        }
    }
}

/// The call's samples as CHW images of `height x width` **including** the
/// geometry's zero border, so every receptive-field row is an in-bounds
/// stretch of memory and the lowering never clips: patch element `(c, ky, kx)`
/// of output position `(oy, ox)` is `image[c][oy * stride + ky][ox * stride + kx]`.
///
/// Writing the border out costs one pass over the *input* (`kernel²` times
/// smaller than the patch matrix) and buys a lowering whose inner loop is a
/// constant-size move; without padding the samples are borrowed as they are.
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

    /// Writes rows `k0..k0 + kc` of patch-matrix columns `j0..j0 + jw`
    /// (columns run over the stacked samples, `patches` each) into `block` in
    /// the packed-B layout: `NR`-column micro-panels,
    /// `block[(j / NR) * kc * NR + k * NR + j % NR]`, the last micro-panel's
    /// spare lanes zero.
    ///
    /// The columns are cut into stretches that stay inside one output row and
    /// one micro-panel; a stretch's `len` columns are `len` consecutive
    /// (strided) elements of one image row in *every* patch row, so each
    /// stretch is one walk down the patch rows moving `len` elements a time —
    /// and `len` is the whole micro-panel width whenever the output width is
    /// a multiple of it.
    fn lower_block(
        &self,
        block: &mut [f32],
        geom: &Conv2dGeometry,
        j0: usize,
        jw: usize,
        k0: usize,
        kc: usize,
    ) {
        if jw % NR != 0 {
            block[jw / NR * kc * NR..].fill(0.0);
        }
        let (patches, out_w, stride) = (geom.num_patches(), geom.out_w, geom.stride);
        let image_len = self.height * self.width;
        for b in j0 / patches..=(j0 + jw - 1) / patches {
            let sample = &self.data[b * geom.in_channels * image_len..];
            // The sample's output positions that fall into this block.
            let first = b * patches;
            let end = (j0 + jw).min(first + patches) - first;
            let mut position = j0.max(first) - first;
            while position < end {
                let (oy, ox) = (position / out_w, position % out_w);
                let j = first + position - j0;
                let len = (out_w - ox).min(end - position).min(NR - j % NR);
                let stretch = Stretch {
                    dst: j / NR * kc * NR + j % NR,
                    src: oy * stride * self.width + ox * stride,
                    rows: k0..k0 + kc,
                };
                // Unit-stride stretches of 16, 8 and 4 columns (the served
                // nets' 16-, 8- and 4-wide output rows) are constant-size moves.
                const HALF: usize = NR / 2;
                const QUARTER: usize = NR / 4;
                match (stride, len) {
                    (1, NR) => self.lower_stretch(block, sample, geom, stretch, |d, s| {
                        d[..NR].copy_from_slice(&s[..NR]);
                    }),
                    (1, HALF) => self.lower_stretch(block, sample, geom, stretch, |d, s| {
                        d[..HALF].copy_from_slice(&s[..HALF]);
                    }),
                    (1, QUARTER) => self.lower_stretch(block, sample, geom, stretch, |d, s| {
                        d[..QUARTER].copy_from_slice(&s[..QUARTER]);
                    }),
                    _ => self.lower_stretch(block, sample, geom, stretch, |d, s| {
                        for (d, v) in d[..len].iter_mut().zip(s.iter().step_by(stride)) {
                            *d = *v;
                        }
                    }),
                }
                position += len;
            }
        }
    }

    /// One stretch of columns, every patch row of the K panel: `move_row`
    /// copies the stretch's elements from an image row into a micro-panel row.
    #[inline(always)]
    fn lower_stretch(
        &self,
        block: &mut [f32],
        sample: &[f32],
        geom: &Conv2dGeometry,
        stretch: Stretch,
        move_row: impl Fn(&mut [f32], &[f32]),
    ) {
        let mut dst = stretch.dst;
        let mut row = 0;
        for c in 0..geom.in_channels {
            for ky in 0..geom.kernel {
                let image_row = stretch.src + (c * self.height + ky) * self.width;
                for kx in 0..geom.kernel {
                    if stretch.rows.contains(&row) {
                        move_row(&mut block[dst..], &sample[image_row + kx..]);
                        dst += NR;
                    }
                    row += 1;
                }
            }
        }
    }
}

/// A stretch of patch-matrix columns inside one output row and one
/// micro-panel.
struct Stretch {
    /// Index of the stretch's first lane in the micro-panel's first row.
    dst: usize,
    /// Index of its first element for patch element `(c, ky, kx) = (0, 0, 0)`
    /// in the sample's bordered image.
    src: usize,
    /// The patch rows of the K panel being packed.
    rows: std::ops::Range<usize>,
}

/// Where one K panel sits in the ascending-`k` reduction.
struct KPass {
    kc: usize,
    /// Not the first K panel: tiles reload their partial sums.
    resume: bool,
    /// The last K panel: tiles add the bias as they store.
    last: bool,
}

/// Where a register tile's columns land in the `[batch, rows, patches]` output.
struct TileDst<'a> {
    out: &'a mut [f32],
    /// Output index of the tile's first column in weight row 0.
    base: usize,
    /// Columns left in the first column's sample (`>= 1`).
    room: usize,
    nr: usize,
    mr: usize,
    rows: usize,
    patches: usize,
}

impl TileDst<'_> {
    /// Calls `visit(output range, tile row, tile lane range)` for every
    /// contiguous stretch of the tile: one per row, or one per row and sample
    /// when the tile's columns straddle samples.
    fn for_each_stretch(
        &mut self,
        first_row: usize,
        mut visit: impl FnMut(&mut [f32], usize, std::ops::Range<usize>),
    ) {
        for r in 0..self.mr {
            let mut at = self.base + (first_row + r) * self.patches;
            let mut lane = 0;
            let mut len = self.room.min(self.nr);
            while lane < self.nr {
                visit(&mut self.out[at..at + len], r, lane..lane + len);
                // The next sample's slab: same row, column 0.
                at += len + (self.rows - 1) * self.patches;
                lane += len;
                len = self.patches.min(self.nr - lane);
            }
        }
    }
}

/// One `MR x NR` register tile of one K panel: reload (after the first
/// panel), accumulate in ascending `k`, add the bias (on the last panel),
/// store.  Like the GEMM microkernel, the full-tile path keeps every access to
/// the accumulator constant-sized so it stays in registers; edge tiles (spare
/// rows or lanes, or columns straddling samples) take the stretch walk.
#[inline(always)]
fn conv_tile(
    pass: &KPass,
    a: &[f32],
    b: &[f32],
    dst: &mut TileDst<'_>,
    first_row: usize,
    bias: &[f32; MR],
) {
    let mut acc = [[0.0f32; NR]; MR];
    if dst.mr == MR && dst.nr == NR && dst.room >= NR {
        let at = dst.base + first_row * dst.patches;
        if pass.resume {
            for (r, row) in acc.iter_mut().enumerate() {
                row.copy_from_slice(&dst.out[at + r * dst.patches..][..NR]);
            }
        }
        tile_accumulate(pass.kc, a, b, &mut acc);
        if pass.last {
            for (row, bias) in acc.iter_mut().zip(bias) {
                for v in row {
                    *v += bias;
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            dst.out[at + r * dst.patches..][..NR].copy_from_slice(row);
        }
    } else {
        if pass.resume {
            dst.for_each_stretch(first_row, |out, r, lanes| {
                acc[r][lanes].copy_from_slice(out);
            });
        }
        tile_accumulate(pass.kc, a, b, &mut acc);
        let last = pass.last;
        dst.for_each_stretch(first_row, |out, r, lanes| {
            for (o, v) in out.iter_mut().zip(&acc[r][lanes]) {
                *o = if last { v + bias[r] } else { *v };
            }
        });
    }
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
        // (in_c, hw, kernel, stride, padding, out_c, batch): column counts on
        // and off NR multiples, panels straddling samples, more than one
        // column block, more than one K panel, a ragged last micro-panel.
        for (in_c, hw, kernel, stride, padding, out_c, batch) in [
            (1, 3, 1, 1, 0, 1, 1),
            (3, 16, 3, 1, 1, 8, 1),
            (16, 2, 3, 1, 1, 16, 5),
            (2, 7, 3, 2, 1, 5, 3),
            (3, 20, 5, 1, 2, 6, 2),
            (30, 5, 3, 1, 0, 7, 4),
            (11, 6, 5, 2, 2, 9, 3),
        ] {
            let geom = Conv2dGeometry::new(in_c, hw, hw, kernel, stride, padding).unwrap();
            let weight = Tensor::from_vec(
                random(out_c * geom.patch_len(), &mut rng, 5),
                &[out_c, geom.patch_len()],
            )
            .unwrap();
            let bias = random(out_c, &mut rng, 0);
            let samples = Tensor::from_vec(
                random(batch * in_c * hw * hw, &mut rng, 0),
                &[batch, in_c, hw, hw],
            )
            .unwrap();
            let packed = PackedWeights::pack(&weight).unwrap();
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
        let packed = PackedWeights::pack(&Tensor::ones(&[2, 9])).unwrap();
        let image = Tensor::ones(&[1, 4, 4]);
        assert!(conv2d_forward(&image, &geom, &packed, &[0.0, 0.0]).is_ok());
        assert!(conv2d_forward(&image, &geom, &packed, &[0.0]).is_err());
        assert!(conv2d_forward(&Tensor::ones(&[15]), &geom, &packed, &[0.0, 0.0]).is_err());
        let shallow = PackedWeights::pack(&Tensor::ones(&[2, 4])).unwrap();
        assert!(conv2d_forward(&image, &geom, &shallow, &[0.0, 0.0]).is_err());
        assert!(PackedWeights::pack(&Tensor::ones(&[2, 3, 3])).is_err());
    }
}
