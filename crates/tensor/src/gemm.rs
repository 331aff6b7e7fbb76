//! Blocked, register-tiled f32 GEMM — the compute core behind
//! [`Tensor::matmul`] and the fused layer kernels in `ptolemy-nn`.
//!
//! # Why blocking is bit-for-bit safe here
//!
//! The historical naive kernel ([`Tensor::matmul_naive`]) reduces every output
//! element in ascending-`k` order, skipping `a[i][k] == 0.0` terms.  The
//! blocked kernel tiles **M and N only** and walks `k` panels in ascending
//! order with the partial result held in (or reloaded into) the register
//! tile, so each output element still sees the exact same sequence of
//! `acc += a * b` operations — including the same sparsity skips (a skip is
//! observable when `b` holds an `inf`/`NaN`, since `0.0 * inf` is `NaN`).
//! M/N tiling and row-parallel partitioning assign every output element to
//! exactly one accumulator; nothing is ever re-associated, split into partial
//! trees, or contracted into FMAs.  That is the whole parity argument: the
//! blocked kernel performs the *identical* float operations in the
//! *identical* per-element order, so it is bit-for-bit the naive loop — a
//! property the proptest suite in `tests/gemm_parity.rs` pins.
//!
//! # Where the speed comes from
//!
//! The naive i-k-j loop re-reads and re-writes the whole output row on every
//! `k` step and streams all of B once per A row.  The microkernel instead
//! holds an `MR x NR` accumulator tile in registers across a whole `k` panel
//! (output traffic ~0) and packs A/B panels so the inner loop reads
//! contiguous, cache-resident memory (B traffic amortised over `MR` rows).
//! The tile is sized for the workspace's build floor, `x86-64-v3` (set in
//! `.cargo/config.toml`): a 16-wide row is two 8-lane AVX registers (four
//! 128-bit NEON registers on aarch64).  The tile shape affects speed only,
//! never results.

use crate::parallel::par_row_chunks;
use crate::{Result, Tensor, TensorError};

/// Rows of the register tile.
pub(crate) const MR: usize = 4;

/// Columns of the register tile: the `MR x NR` tile is eight 256-bit
/// accumulators at the `x86-64-v3` floor — enough independent add chains to
/// keep the vector FPU pipelined without spilling out of the 16 ymm
/// registers.
pub(crate) const NR: usize = 16;

/// K-panel depth: one packed panel of B is `KC x NC` floats (L2-resident).
/// The int8 kernel (`gemm_i8`) shares all three block sizes: its i8 panels
/// are 4x denser, but one size keeps the two packing loops identical.
pub(crate) const KC: usize = 256;
/// Column-panel width of packed B.
pub(crate) const NC: usize = 256;
/// Row-panel height of packed A (`MC x KC` floats stay cache-resident).
pub(crate) const MC: usize = 64;

/// Below this `m * n * k` volume the packing setup outweighs its cache wins;
/// the naive loop is used instead (bit-identical results either way).
const SMALL_FLOPS: usize = 16 * 1024;

/// The shared accumulation core of both microkernel paths: `kc` ascending
/// steps of `acc[r][j] += a[k][r] * b[k][j]` over the full (zero-padded)
/// `MR x NR` tile.  Every bound is a compile-time constant so the accumulator
/// array is promoted to registers and the `j` loop vectorises.
///
/// With `SKIP`, `a == 0.0` rows are skipped exactly like the naive kernel's
/// sparsity skip; without it every term is accumulated (the dense-layer
/// contract, whose reference kernel never skipped).
#[inline(always)]
pub(crate) fn tile_accumulate<const SKIP: bool>(
    kc: usize,
    a: &[f32],
    b: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    // chunks_exact gives the optimiser constant-length rows (no per-k bounds
    // checks in the hot loop).
    for (arow, brow) in a.chunks_exact(MR).zip(b.chunks_exact(NR)).take(kc) {
        for r in 0..MR {
            let av = arow[r];
            // lint:allow(float-eq): sparsity skip mirroring the naive kernel bit-for-bit
            if SKIP && av == 0.0 {
                continue;
            }
            for j in 0..NR {
                acc[r][j] += av * brow[j];
            }
        }
    }
}

/// The register-tile microkernel: accumulates a `kc`-deep panel product into
/// an `mr x nr` corner of `c` (row stride `ldc`), loading the existing `c`
/// values first so accumulation stays in pure ascending-`k` order across
/// panels.  `a` is a packed `MR`-row micro-panel (`a[k * MR + r]`), `b` a
/// packed `NR`-column micro-panel (`b[k * NR + j]`), both zero-padded to full
/// tile size; the padded lanes are computed and discarded.
///
/// The full-tile path uses constant-size loads/stores: a dynamic-length
/// `copy_from_slice` takes the accumulator's address and pins it to the
/// stack, turning every `+=` into a memory round-trip — the constant-bound
/// loops below keep the tile in registers (this is where the kernel's speed
/// lives).  Edge tiles (`mr < MR` or `nr < NR`) take the dynamic-length path;
/// they are a vanishing fraction of the work at any profitable size.
fn microkernel<const SKIP: bool>(
    kc: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if mr == MR && nr == NR {
        for (r, row) in acc.iter_mut().enumerate() {
            row.copy_from_slice(&c[r * ldc..r * ldc + NR]);
        }
        tile_accumulate::<SKIP>(kc, a, b, &mut acc);
        for (r, row) in acc.iter().enumerate() {
            c[r * ldc..r * ldc + NR].copy_from_slice(row);
        }
    } else {
        for (r, row) in acc.iter_mut().enumerate().take(mr) {
            row[..nr].copy_from_slice(&c[r * ldc..r * ldc + nr]);
        }
        tile_accumulate::<SKIP>(kc, a, b, &mut acc);
        for (r, row) in acc.iter().enumerate().take(mr) {
            c[r * ldc..r * ldc + nr].copy_from_slice(&row[..nr]);
        }
    }
}

/// Packs `kc x jw` of B (starting at `(k0, j0)`) into `NR`-column micro-panels
/// (`into[(jr/NR) * kc * NR + k * NR + j]`), zero-padding the last panel.
/// With `TRANS`, B is `[n, k]` row-major and element `(kk, j)` reads
/// `b[j * ldb + kk]` — the pack does the transpose, so callers never
/// materialise Bᵀ.
fn pack_b<const TRANS: bool>(
    b: &[f32],
    ldb: usize,
    k0: usize,
    kc: usize,
    j0: usize,
    jw: usize,
    into: &mut [f32],
) {
    for (panel, jr) in (0..jw).step_by(NR).enumerate() {
        let nr = NR.min(jw - jr);
        let dst = &mut into[panel * kc * NR..(panel + 1) * kc * NR];
        if nr < NR {
            dst.fill(0.0);
        }
        for k in 0..kc {
            let row = &mut dst[k * NR..k * NR + nr];
            if TRANS {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = b[(j0 + jr + j) * ldb + k0 + k];
                }
            } else {
                row.copy_from_slice(&b[(k0 + k) * ldb + j0 + jr..][..nr]);
            }
        }
    }
}

/// Packs `mc x kc` of A (starting at `(i0, k0)`, row stride `lda`) into
/// `MR`-row micro-panels (`into[(ir/MR) * kc * MR + k * MR + r]`),
/// zero-padding the last panel.
pub(crate) fn pack_a(
    a: &[f32],
    lda: usize,
    i0: usize,
    mc: usize,
    k0: usize,
    kc: usize,
    into: &mut [f32],
) {
    for (panel, ir) in (0..mc).step_by(MR).enumerate() {
        let mr = MR.min(mc - ir);
        let dst = &mut into[panel * kc * MR..(panel + 1) * kc * MR];
        if mr < MR {
            dst.fill(0.0);
        }
        for r in 0..mr {
            let src = &a[(i0 + ir + r) * lda + k0..][..kc];
            for (k, v) in src.iter().enumerate() {
                dst[k * MR + r] = *v;
            }
        }
    }
}

/// The blocked GEMM driver: accumulates `A · op(B)` into `out` (row-major
/// `[m, n]`, already initialised by the caller — zeros for a plain product,
/// biases for the dense-layer kernel).  `k` panels run in ascending order and
/// every panel accumulates on top of the previous partials, so each output
/// element's reduction is one sequential ascending-`k` chain.
fn gemm_into<const SKIP: bool, const TRANS_B: bool>(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let kc_max = KC.min(k);
    let mut apack = vec![0.0f32; MC.min(m).next_multiple_of(MR) * kc_max];
    let mut bpack = vec![0.0f32; NC.min(n).next_multiple_of(NR) * kc_max];
    let ldb = if TRANS_B { k } else { n };
    for j0 in (0..n).step_by(NC) {
        let jw = NC.min(n - j0);
        for k0 in (0..k).step_by(KC) {
            let kc = KC.min(k - k0);
            pack_b::<TRANS_B>(b, ldb, k0, kc, j0, jw, &mut bpack);
            for i0 in (0..m).step_by(MC) {
                let mc = MC.min(m - i0);
                pack_a(a, k, i0, mc, k0, kc, &mut apack);
                for (bpanel, jr) in (0..jw).step_by(NR).enumerate() {
                    let nr = NR.min(jw - jr);
                    let bmicro = &bpack[bpanel * kc * NR..(bpanel + 1) * kc * NR];
                    for (apanel, ir) in (0..mc).step_by(MR).enumerate() {
                        let mr = MR.min(mc - ir);
                        let amicro = &apack[apanel * kc * MR..(apanel + 1) * kc * MR];
                        microkernel::<SKIP>(
                            kc,
                            amicro,
                            bmicro,
                            &mut out[(i0 + ir) * n + j0 + jr..],
                            n,
                            mr,
                            nr,
                        );
                    }
                }
            }
        }
    }
}

/// The naive scalar reference kernel (the pre-microkernel [`Tensor::matmul`]
/// body): i-k-j loops with the ascending-`k`, zero-skipping reduction the
/// whole workspace's bit-parity contract is defined against.
pub(crate) fn matmul_naive_into(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    for i in 0..m {
        for kk in 0..k {
            let aik = a[i * k + kk];
            // lint:allow(float-eq): sparsity skip; +/-0.0 both contribute nothing
            if aik == 0.0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, bv) in orow.iter_mut().zip(brow) {
                *o += aik * bv;
            }
        }
    }
}

/// Serial blocked product `A · B` into a zeroed buffer, with the naive
/// kernel's sparsity skip.  Bit-for-bit identical to [`matmul_naive_into`].
pub(crate) fn matmul_blocked_into(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    if m * n * k <= SMALL_FLOPS {
        // Packing overhead dominates tiny products; same bits either way.
        matmul_naive_into(out, a, b, m, k, n);
    } else {
        gemm_into::<true, false>(out, a, b, m, k, n);
    }
}

/// Accumulates `A · Bᵀ` into `out` **on top of its existing contents** with
/// plain ascending-`k` accumulation and **no** sparsity skip — the
/// dense-layer kernel: `out` arrives pre-filled with broadcast biases, `b` is
/// the `[n, k]` row-major weight matrix (packed transposed on the fly).
///
/// Per element this is exactly `out[s][j] = bias[j] + Σ_k a[s][k] * b[j][k]`
/// in ascending `k` — bit-for-bit the historical dense loop, which
/// accumulated bias-first and never skipped zero activations.
///
/// Below `MR` rows the register tile would run mostly padding and packing
/// the whole transposed `b` would cost more than the product (2.0–4.7× the
/// dot loop at one row on the e2e nets), so each element runs as one
/// dot-product chain instead — the same operations in the same order, the
/// same bits; like [`matmul_blocked`]'s `SMALL_FLOPS` cut, the choice
/// rests on the observable size alone.
pub fn gemm_nt_into(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    if m >= MR {
        return gemm_into::<false, true>(out, a, b, m, k, n);
    }
    for (orow, arow) in out.chunks_mut(n.max(1)).zip(a.chunks(k.max(1))) {
        for (o, brow) in orow.iter_mut().zip(b.chunks(k.max(1))) {
            *o = arow.iter().zip(brow).fold(*o, |acc, (x, w)| acc + x * w);
        }
    }
}

fn matmul_dims(a: &Tensor, b: &Tensor) -> Result<(usize, usize, usize)> {
    let (m, k) = a.shape().as_matrix()?;
    let (k2, n) = b.shape().as_matrix()?;
    if k != k2 {
        return Err(TensorError::IncompatibleShapes {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul",
        });
    }
    Ok((m, k, n))
}

/// Serial blocked matrix product (rank-2 tensors) — the kernel behind
/// [`Tensor::matmul`], exposed for benchmarks that compare the serial and
/// parallel paths explicitly.
///
/// # Errors
///
/// Same shape errors as [`Tensor::matmul`].
pub fn matmul_blocked(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k, n) = matmul_dims(a, b)?;
    let mut out = vec![0.0f32; m * n];
    matmul_blocked_into(&mut out, a.as_slice(), b.as_slice(), m, k, n);
    Tensor::from_vec(out, &[m, n])
}

/// Row-parallel blocked matrix product — the kernel behind
/// [`Tensor::matmul`]: output rows are partitioned over as many threads as
/// the product's `m·k·n` MACs buy at the workspace's one work gate
/// ([`crate::parallel::fork_join`]; none below
/// [`crate::parallel::MIN_WORK_PER_THREAD`] per thread) and each chunk runs
/// the serial blocked kernel — per-element arithmetic is untouched, so the
/// result is bit-for-bit [`matmul_blocked`] (and therefore the naive kernel).
///
/// # Errors
///
/// Same shape errors as [`Tensor::matmul`].
pub fn matmul_parallel(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k, n) = matmul_dims(a, b)?;
    let av = a.as_slice();
    let bv = b.as_slice();
    let mut out = vec![0.0f32; m * n];
    par_row_chunks(&mut out, m, n, m * k * n, |first_row, chunk| {
        let rows = chunk.len() / n.max(1);
        matmul_blocked_into(
            chunk,
            &av[first_row * k..(first_row + rows) * k],
            bv,
            rows,
            k,
            n,
        );
    });
    Tensor::from_vec(out, &[m, n])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng64;

    fn random(m: usize, n: usize, rng: &mut Rng64, zero_every: usize) -> Tensor {
        let data: Vec<f32> = (0..m * n)
            .enumerate()
            .map(|(i, _)| {
                if zero_every > 0 && i % zero_every == 0 {
                    0.0
                } else {
                    rng.normal()
                }
            })
            .collect();
        Tensor::from_vec(data, &[m, n]).unwrap()
    }

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = matmul_dims(a, b).unwrap();
        let mut out = vec![0.0f32; m * n];
        matmul_naive_into(&mut out, a.as_slice(), b.as_slice(), m, k, n);
        Tensor::from_vec(out, &[m, n]).unwrap()
    }

    fn assert_bits_equal(x: &Tensor, y: &Tensor) {
        assert_eq!(x.dims(), y.dims());
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn blocked_matches_naive_across_awkward_shapes() {
        let mut rng = Rng64::new(7);
        // Shapes straddling every tile boundary: tails in m, n and k panels.
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 7),
            (MR, KC + 3, NR),
            (MR + 1, 2, NR + 1),
            (MC + 5, 19, NC + 9),
            (2 * MR, 300, 2 * NR + 3),
            (1, 64, 129),
            (65, 300, 1),
        ] {
            let a = random(m, k, &mut rng, 5);
            let b = random(k, n, &mut rng, 0);
            assert_bits_equal(&matmul_blocked(&a, &b).unwrap(), &naive(&a, &b));
            assert_bits_equal(&matmul_parallel(&a, &b).unwrap(), &naive(&a, &b));
        }
    }

    #[test]
    fn sparsity_skip_is_replicated_even_for_non_finite_b() {
        // The skip is observable: 0.0 * inf = NaN, so a kernel that "optimised
        // away" the skip (or failed to skip) would change bits here.
        let a = Tensor::from_vec(vec![0.0, 2.0, 1.0, 0.0], &[2, 2]).unwrap();
        let b =
            Tensor::from_vec(vec![f32::INFINITY, 1.0, 3.0, f32::NEG_INFINITY], &[2, 2]).unwrap();
        let reference = naive(&a, &b);
        assert_bits_equal(&matmul_blocked(&a, &b).unwrap(), &reference);
        assert_bits_equal(&matmul_parallel(&a, &b).unwrap(), &reference);
    }

    #[test]
    fn gemm_nt_accumulates_on_top_of_bias() {
        // out[s][j] = bias[j] + sum_k a[s][k] * b[j][k], ascending k.
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let bt = Tensor::from_vec(vec![1.0, 0.0, 1.0, 2.0, 1.0, 0.0], &[2, 3]).unwrap();
        let mut out = vec![0.5, -0.5, 0.5, -0.5];
        gemm_nt_into(&mut out, a.as_slice(), bt.as_slice(), 2, 3, 2);
        assert_eq!(out, vec![4.5, 3.5, 10.5, 12.5]);
    }

    #[test]
    fn gemm_nt_matches_scalar_reference_on_larger_shapes() {
        let mut rng = Rng64::new(11);
        let (m, k, n) = (9, 130, 17);
        let a = random(m, k, &mut rng, 4);
        let b = random(n, k, &mut rng, 0);
        let bias: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mut blocked = vec![0.0f32; m * n];
        for row in blocked.chunks_mut(n) {
            row.copy_from_slice(&bias);
        }
        gemm_nt_into(&mut blocked, a.as_slice(), b.as_slice(), m, k, n);
        for s in 0..m {
            for j in 0..n {
                let mut acc = bias[j];
                for kk in 0..k {
                    acc += a.as_slice()[s * k + kk] * b.as_slice()[j * k + kk];
                }
                assert_eq!(blocked[s * n + j].to_bits(), acc.to_bits(), "({s},{j})");
            }
        }
    }
}
