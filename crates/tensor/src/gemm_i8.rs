//! Blocked, register-tiled i8→i32 GEMM — the integer twin of [`crate::gemm`]
//! and the compute core of the quantized inference path.
//!
//! # Why blocking is bit-for-bit *free* here
//!
//! The f32 kernel in [`crate::gemm`] earns its parity the hard way: float
//! addition is non-associative, so the blocked kernel must replicate the
//! naive loop's one reduction contract — the plain ascending-`k` sum from
//! `+0.0`, no term skipped — operation for operation.  Integer addition is
//! associative and the i8·i8→i32 accumulation is **exact** (no rounding,
//! ever, and no `-0` or non-finite value to observe), so this kernel has full
//! freedom to reorder `k`, split panels, skip zero terms or not — any
//! schedule produces the same i32s as the naive [`crate::quant::matmul_i8`]
//! loop.  Its `a == 0` skips are therefore
//! speed choices, not a second contract.  Parity is by exactness, not by order replication; the proptest
//! suite in `tests/proptests.rs` pins it across shapes, sparsity and the
//! `i8::MIN` extreme anyway.
//!
//! # Where the speed comes from
//!
//! Same shape as the f32 kernel: an `MR x NR` i32 accumulator tile held in
//! registers across a whole `k` panel, with A/B packed into contiguous
//! i8 micro-panels.  Packed i8 panels are 4x denser than f32 ones, so the
//! same cache footprint covers 4x the operands — the bandwidth win that
//! makes int8 the serving fast path.

use crate::gemm::{KC, MC, MR, NC, NR};
use crate::parallel::par_row_chunks;
use crate::quant::check_i8_dims;
use crate::Result;

/// Below this `m * n * k` volume the packing setup outweighs its cache wins;
/// the naive loops run instead (same i32s either way — exactness).
const SMALL_IOPS: usize = 16 * 1024;

/// The accumulation core: `kc` steps of `acc[r][j] += a[k][r] * b[k][j]` over
/// the full zero-padded `MR x NR` tile, widening each i8 operand to i32.
/// Constant bounds keep the accumulator in registers and let the `j` loop
/// vectorise.  The `a == 0` skip is a pure speed choice: with exact integer
/// accumulation a skipped term adds 0.
#[inline(always)]
fn tile_accumulate_i8(kc: usize, a: &[i8], b: &[i8], acc: &mut [[i32; NR]; MR]) {
    for (arow, brow) in a.chunks_exact(MR).zip(b.chunks_exact(NR)).take(kc) {
        for r in 0..MR {
            let av = i32::from(arow[r]);
            if av == 0 {
                continue;
            }
            for j in 0..NR {
                acc[r][j] += av * i32::from(brow[j]);
            }
        }
    }
}

/// The register-tile microkernel: accumulates a `kc`-deep panel product into
/// an `mr x nr` corner of `c` (row stride `ldc`), loading the existing i32
/// partials first.  `a` is a packed `MR`-row micro-panel (`a[k * MR + r]`),
/// `b` a packed `NR`-column micro-panel (`b[k * NR + j]`), both zero-padded;
/// padded lanes are computed and discarded.  Full tiles take the
/// constant-size load/store path (the accumulator stays in registers), edge
/// tiles the dynamic path.
fn microkernel_i8(kc: usize, a: &[i8], b: &[i8], c: &mut [i32], ldc: usize, mr: usize, nr: usize) {
    let mut acc = [[0i32; NR]; MR];
    if mr == MR && nr == NR {
        for (r, row) in acc.iter_mut().enumerate() {
            row.copy_from_slice(&c[r * ldc..r * ldc + NR]);
        }
        tile_accumulate_i8(kc, a, b, &mut acc);
        for (r, row) in acc.iter().enumerate() {
            c[r * ldc..r * ldc + NR].copy_from_slice(row);
        }
    } else {
        for (r, row) in acc.iter_mut().enumerate().take(mr) {
            row[..nr].copy_from_slice(&c[r * ldc..r * ldc + nr]);
        }
        tile_accumulate_i8(kc, a, b, &mut acc);
        for (r, row) in acc.iter().enumerate().take(mr) {
            c[r * ldc..r * ldc + nr].copy_from_slice(&row[..nr]);
        }
    }
}

/// Packs `kc x jw` of B (starting at `(k0, j0)`, row stride `ldb`) into
/// `NR`-column micro-panels, zero-padding the last panel.
fn pack_b_i8(b: &[i8], ldb: usize, k0: usize, kc: usize, j0: usize, jw: usize, into: &mut [i8]) {
    for (panel, jr) in (0..jw).step_by(NR).enumerate() {
        let nr = NR.min(jw - jr);
        let dst = &mut into[panel * kc * NR..(panel + 1) * kc * NR];
        if nr < NR {
            dst.fill(0);
        }
        for k in 0..kc {
            dst[k * NR..k * NR + nr].copy_from_slice(&b[(k0 + k) * ldb + j0 + jr..][..nr]);
        }
    }
}

/// Packs `mc x kc` of A (starting at `(i0, k0)`, row stride `lda`) into
/// `MR`-row micro-panels, zero-padding the last panel.
fn pack_a_i8(a: &[i8], lda: usize, i0: usize, mc: usize, k0: usize, kc: usize, into: &mut [i8]) {
    for (panel, ir) in (0..mc).step_by(MR).enumerate() {
        let mr = MR.min(mc - ir);
        let dst = &mut into[panel * kc * MR..(panel + 1) * kc * MR];
        if mr < MR {
            dst.fill(0);
        }
        for r in 0..mr {
            let src = &a[(i0 + ir + r) * lda + k0..][..kc];
            for (k, v) in src.iter().enumerate() {
                dst[k * MR + r] = *v;
            }
        }
    }
}

/// The blocked integer GEMM driver: accumulates `A · B` into `out`
/// (row-major `[m, n]` i32, caller-initialised — zeros for both public entry
/// points).  Panel order is a pure cache choice; exact i32 accumulation makes
/// every schedule produce identical results.
fn gemm_i8_into(out: &mut [i32], a: &[i8], b: &[i8], m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let kc_max = KC.min(k);
    let mut apack = vec![0i8; MC.min(m).next_multiple_of(MR) * kc_max];
    let mut bpack = vec![0i8; NC.min(n).next_multiple_of(NR) * kc_max];
    for j0 in (0..n).step_by(NC) {
        let jw = NC.min(n - j0);
        for k0 in (0..k).step_by(KC) {
            let kc = KC.min(k - k0);
            pack_b_i8(b, n, k0, kc, j0, jw, &mut bpack);
            for i0 in (0..m).step_by(MC) {
                let mc = MC.min(m - i0);
                pack_a_i8(a, k, i0, mc, k0, kc, &mut apack);
                for (bpanel, jr) in (0..jw).step_by(NR).enumerate() {
                    let nr = NR.min(jw - jr);
                    let bmicro = &bpack[bpanel * kc * NR..(bpanel + 1) * kc * NR];
                    for (apanel, ir) in (0..mc).step_by(MR).enumerate() {
                        let mr = MR.min(mc - ir);
                        let amicro = &apack[apanel * kc * MR..(apanel + 1) * kc * MR];
                        microkernel_i8(
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

/// Naive i-k-j reference loop (the [`crate::quant::matmul_i8`] body), used
/// below the blocking threshold — identical i32s either way.
fn naive_i8_into(out: &mut [i32], a: &[i8], b: &[i8], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for kk in 0..k {
            let aik = i32::from(a[i * k + kk]);
            if aik == 0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, bv) in orow.iter_mut().zip(brow) {
                *o += aik * i32::from(*bv);
            }
        }
    }
}

/// Blocked integer product `A [m, k] · B [k, n]` accumulated on top of the
/// caller's `out` (both size paths).  Into a zeroed buffer it equals
/// [`crate::quant::matmul_i8`] by exactness.
fn matmul_i8_blocked_into(out: &mut [i32], a: &[i8], b: &[i8], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    if m * n * k <= SMALL_IOPS {
        naive_i8_into(out, a, b, m, k, n);
    } else {
        gemm_i8_into(out, a, b, m, k, n);
    }
}

/// Blocked integer GEMM: `A [m, k] · B [k, n]`, both row-major i8,
/// accumulated exactly in i32 — **bit-for-bit equal** to the naive
/// [`crate::quant::matmul_i8`] (integer accumulation is exact, so the blocked
/// schedule cannot change any result).
///
/// # Errors
///
/// Returns [`crate::TensorError::IncompatibleShapes`] if the slice lengths do
/// not match the stated dimensions (same contract as the naive kernel).
pub fn matmul_i8_blocked(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Result<Vec<i32>> {
    check_i8_dims(a.len(), b.len(), [m, k], [k, n], "matmul_i8_blocked")?;
    let mut out = vec![0i32; m * n];
    matmul_i8_blocked_into(&mut out, a, b, m, k, n);
    Ok(out)
}

/// Row-parallel blocked integer GEMM `A · B`: output rows are partitioned
/// over as many threads as the product's MACs buy at the work gate
/// ([`crate::parallel::fork_join`]) and each chunk runs the serial blocked
/// kernel.  Rows are independent, so this equals [`matmul_i8_blocked`] —
/// which equals the naive kernel by exactness.
///
/// # Errors
///
/// Returns [`crate::TensorError::IncompatibleShapes`] if the slice lengths do
/// not match the stated dimensions.
pub fn matmul_i8_parallel(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Result<Vec<i32>> {
    check_i8_dims(a.len(), b.len(), [m, k], [k, n], "matmul_i8_parallel")?;
    let mut out = vec![0i32; m * n];
    par_row_chunks(&mut out, m, n, m * k * n, |first_row, chunk| {
        let rows = chunk.len() / n.max(1);
        matmul_i8_blocked_into(
            chunk,
            &a[first_row * k..(first_row + rows) * k],
            b,
            rows,
            k,
            n,
        );
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::matmul_i8;
    use crate::Rng64;

    fn random_i8(len: usize, rng: &mut Rng64, zero_every: usize) -> Vec<i8> {
        (0..len)
            .map(|i| {
                if zero_every > 0 && i % zero_every == 0 {
                    0
                } else {
                    // Full i8 range including -128: the kernel must handle
                    // values the quantizer itself never produces.
                    let byte = (rng.next_u64() & 0xff) as i64;
                    i8::try_from(byte - 128).unwrap()
                }
            })
            .collect()
    }

    #[test]
    fn blocked_matches_naive_across_awkward_shapes() {
        let mut rng = Rng64::new(17);
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
            let a = random_i8(m * k, &mut rng, 5);
            let b = random_i8(k * n, &mut rng, 0);
            assert_eq!(
                matmul_i8_blocked(&a, &b, m, k, n).unwrap(),
                matmul_i8(&a, &b, m, k, n).unwrap(),
                "({m},{k},{n})"
            );
            assert_eq!(
                matmul_i8_parallel(&a, &b, m, k, n).unwrap(),
                matmul_i8(&a, &b, m, k, n).unwrap(),
                "parallel ({m},{k},{n})"
            );
        }
    }

    /// The `_into` entry point accumulates on top of a non-zero `out` on
    /// either side of `SMALL_IOPS`.
    #[test]
    fn into_accumulates_on_both_size_paths() {
        let mut rng = Rng64::new(23);
        for (m, k, n) in [(2, 8, 5), (9, 70, 40)] {
            let small = m * k * n <= SMALL_IOPS;
            assert_eq!(small, m == 2, "({m},{k},{n}) straddles SMALL_IOPS");
            let a = random_i8(m * k, &mut rng, 5);
            let b = random_i8(k * n, &mut rng, 0);
            let prior: Vec<i32> = (0..m * n).map(|i| i as i32 * 7 - 50).collect();
            let plus = |product: Vec<i32>| -> Vec<i32> {
                prior.iter().zip(product).map(|(p, v)| p + v).collect()
            };

            let mut out = prior.clone();
            matmul_i8_blocked_into(&mut out, &a, &b, m, k, n);
            assert_eq!(
                out,
                plus(matmul_i8(&a, &b, m, k, n).unwrap()),
                "({m},{k},{n})"
            );
        }
    }

    #[test]
    fn i8_min_saturation_is_handled() {
        // -128 * -128 = 16384 per term; widening to i32 before the multiply
        // must keep every partial exact.
        let k = 64;
        let a = vec![i8::MIN; k];
        let b = vec![i8::MIN; k];
        let out = matmul_i8_blocked(&a, &b, 1, k, 1).unwrap();
        assert_eq!(out, vec![16384 * k as i32]);
    }

    #[test]
    fn shape_errors_match_the_naive_contract() {
        let a = vec![0i8; 6];
        let b = vec![0i8; 6];
        assert!(matmul_i8_blocked(&a, &b, 2, 2, 2).is_err());
        assert!(matmul_i8_parallel(&a, &b, 2, 2, 2).is_err());
    }
}
