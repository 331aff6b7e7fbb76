//! Seeded request-index sequences: which pool input each request carries.

use ptolemy_tensor::Rng64;

/// A uniform `f64` in `[0, 1)` with 53 random bits (`Rng64` only exposes an
/// `f32` unit sample, too coarse for a 2 048-entry CDF tail).
fn unit_f64(rng: &mut Rng64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Zipf(`exponent`) over `n` items: rank `r` (0-based) is drawn with
/// probability proportional to `1 / (r + 1)^exponent`, and ranks map to items
/// through a seeded permutation so the popular items are not the first few
/// pool entries.
pub struct Zipf {
    cdf: Vec<f64>,
    item_of_rank: Vec<usize>,
}

impl Zipf {
    /// Builds the sampler; `rng` fixes the rank → item permutation.
    pub fn new(n: usize, exponent: f64, rng: &mut Rng64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one item");
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-exponent)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let mut item_of_rank: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut item_of_rank);
        Zipf { cdf, item_of_rank }
    }

    /// Draws one rank (0 = most popular).
    pub fn sample_rank(&self, rng: &mut Rng64) -> usize {
        let u = unit_f64(rng);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Draws one item index.
    pub fn sample(&self, rng: &mut Rng64) -> usize {
        self.item_of_rank[self.sample_rank(rng)]
    }
}

/// `count` consecutive pool indices starting at `start`, wrapping around a
/// pool of `pool_len` — a scan that revisits an input only after every other
/// input was requested.
pub fn cyclic_scan(start: usize, count: usize, pool_len: usize) -> Vec<usize> {
    (0..count).map(|i| (start + i) % pool_len).collect()
}

/// Requests `start .. start + count` of an endless sequence in which every
/// `every`-th request cycles through `minority` and the others cycle through
/// `majority` — a fixed mix whatever the two lists' sizes.  With an empty
/// `minority` every request comes from `majority`.
pub fn interleave(
    start: usize,
    count: usize,
    every: usize,
    minority: &[usize],
    majority: &[usize],
) -> Vec<usize> {
    (start..start + count)
        .map(|request| {
            if !minority.is_empty() && request % every == every - 1 {
                minority[(request / every) % minority.len()]
            } else if minority.is_empty() {
                majority[request % majority.len()]
            } else {
                majority[(request - request / every) % majority.len()]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_keeps_the_mix_and_cycles_both_lists() {
        let minority = [100, 101];
        let majority = [0, 1, 2];
        let mixed = interleave(0, 10, 5, &minority, &majority);
        assert_eq!(mixed, vec![0, 1, 2, 0, 100, 1, 2, 0, 1, 101]);
        // A later window continues the same endless sequence.
        assert_eq!(interleave(5, 5, 5, &minority, &majority), mixed[5..]);
        let long = interleave(0, 1_000, 5, &minority, &majority);
        assert_eq!(long.iter().filter(|&&i| i >= 100).count(), 200);
        assert_eq!(interleave(0, 4, 5, &[], &majority), vec![0, 1, 2, 0]);
    }

    #[test]
    fn zipf_is_seed_stable_and_skewed() {
        let draw = |seed: u64| -> Vec<usize> {
            let mut rng = Rng64::new(seed);
            let zipf = Zipf::new(64, 1.0, &mut rng);
            (0..2_000).map(|_| zipf.sample(&mut rng)).collect()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert!(draw(7).iter().all(|&i| i < 64));

        let mut rng = Rng64::new(11);
        let zipf = Zipf::new(64, 1.0, &mut rng);
        let mut by_rank = vec![0usize; 64];
        for _ in 0..20_000 {
            by_rank[zipf.sample_rank(&mut rng)] += 1;
        }
        // H(64) ≈ 4.74, so rank 0 carries ≈ 21 % and rank 1 half of that.
        let top = by_rank[0] as f64 / 20_000.0;
        assert!((0.18..0.24).contains(&top), "rank-0 share {top}");
        assert!(by_rank[0] > by_rank[1] && by_rank[1] > by_rank[7]);
        assert!(by_rank[63] > 0, "the tail is still drawn");
    }

    #[test]
    fn zipf_permutation_covers_every_item_once() {
        let mut rng = Rng64::new(3);
        let zipf = Zipf::new(10, 1.0, &mut rng);
        let mut items = zipf.item_of_rank.clone();
        items.sort_unstable();
        assert_eq!(items, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cyclic_scan_wraps_and_never_repeats_within_a_cycle() {
        assert_eq!(cyclic_scan(3, 5, 4), vec![3, 0, 1, 2, 3]);
        let scan = cyclic_scan(10, 2_048, 2_048);
        let mut seen = scan.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 2_048);
        assert_eq!(scan[0], 10);
        assert_eq!(scan[2_047], 9);
    }
}
