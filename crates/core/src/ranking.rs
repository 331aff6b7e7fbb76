//! The one ranking kernel: partial sums (and FwCu's activations) from largest
//! to smallest, the paper's `sort` step (Sec. III-A, Listing 1).

use std::cmp::Ordering;

/// Picks a [`Ranking`] takes off one-pass arg-max scans before it sorts what
/// is left.  A cumulative threshold usually stops after one or two
/// contributors, which a scan finds without ordering the rest; the sort keeps
/// a long ranking (an unreachable goal, a wide forward mask) O(n log n).
pub(crate) const SCAN_PICKS: usize = 8;

/// The arg-max scan's independent running maxima: one 256-bit register of
/// values and one of positions.
const LANES: usize = 8;

/// Finite `values` from largest to smallest, equal values (`-0.0 == 0.0`
/// included) in position order — the order a stable descending sort
/// produces — yielded lazily as `(position, value)`.
///
/// Each of the first eight picks (`SCAN_PICKS`) is one branch-free pass over the
/// values in 8 lanes, then sets the value it picked to `-∞`, which every
/// finite value outranks; the pick after them sorts the positions left once,
/// into the `order` scratch, and every later pick pops the best off its end.
/// So the ranking reads its values in place and consumes them: afterwards
/// the picked ones are `-∞`.  The values must be finite — every value the
/// walk ranks comes from a pass whose boundaries `ptolemy-nn` checked finite.
#[derive(Debug)]
pub struct Ranking<'a> {
    values: &'a mut [f32],
    order: &'a mut Vec<u32>,
    picks: usize,
}

impl<'a> Ranking<'a> {
    /// Ranks `values`, with `order` as the sort's scratch (refilled, never
    /// shrunk, so one scratch serves every ranking of a walk).
    pub fn new(values: &'a mut [f32], order: &'a mut Vec<u32>) -> Self {
        Ranking {
            values,
            order,
            picks: 0,
        }
    }
}

impl Iterator for Ranking<'_> {
    type Item = (usize, f32);

    fn next(&mut self) -> Option<(usize, f32)> {
        if self.picks == self.values.len() {
            return None;
        }
        self.picks += 1;
        if self.picks <= SCAN_PICKS {
            let at = arg_max(self.values);
            return Some((
                at,
                std::mem::replace(&mut self.values[at], f32::NEG_INFINITY),
            ));
        }
        if self.picks == SCAN_PICKS + 1 {
            let values = &*self.values;
            self.order.clear();
            self.order.extend(
                (0..values.len())
                    .filter(|&at| values[at] > f32::NEG_INFINITY)
                    .filter_map(|at| u32::try_from(at).ok()),
            );
            // Worst first, so each pick pops the best off the end: the
            // smaller value, and among equal values the later position.
            let rank = |&a: &u32, &b: &u32| {
                let (a, b) = (a as usize, b as usize);
                values[a]
                    .partial_cmp(&values[b])
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| b.cmp(&a))
            };
            self.order.sort_unstable_by(rank);
        }
        let at = self.order.pop()? as usize;
        Some((at, self.values[at]))
    }
}

/// The position of the greatest of `values`, the earliest of equal maxima
/// (`-0.0 == 0.0`), in one pass with no data-dependent branch: lane `l`
/// keeps the first strict maximum among positions `l`, `l + 8`, `l + 16`, …;
/// the lanes then meet, a greater value or an equal one at an earlier
/// position winning.  `values` must hold a value above `-∞`.
fn arg_max(values: &[f32]) -> usize {
    let mut best = [f32::NEG_INFINITY; LANES];
    let mut best_at = [u32::MAX; LANES];
    let mut at: [u32; LANES] = [0, 1, 2, 3, 4, 5, 6, 7];
    let mut keep = |chunk: &[f32; LANES], at: &[u32; LANES]| {
        for lane in 0..LANES {
            let greater = chunk[lane] > best[lane];
            best[lane] = if greater { chunk[lane] } else { best[lane] };
            best_at[lane] = if greater { at[lane] } else { best_at[lane] };
        }
    };
    let mut chunks = values.chunks_exact(LANES);
    for chunk in chunks.by_ref() {
        if let Ok(chunk) = chunk.try_into() {
            keep(chunk, &at);
        }
        at = at.map(|a| a + LANES as u32);
    }
    // The tail, padded with `-∞`, which no lane keeps.
    let rest = chunks.remainder();
    let mut tail = [f32::NEG_INFINITY; LANES];
    tail[..rest.len()].copy_from_slice(rest);
    keep(&tail, &at);
    let mut pick = 0;
    for lane in 1..LANES {
        let greater = best[lane] > best[pick];
        let earlier_tie = best[lane] >= best[pick] && best_at[lane] < best_at[pick];
        if greater || earlier_tie {
            pick = lane;
        }
    }
    best_at[pick] as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptolemy_tensor::Rng64;

    /// `(position, value)` in the order of std's stable sort, descending.
    fn stable_descending(values: &[f32]) -> Vec<(usize, f32)> {
        let mut sorted: Vec<(usize, f32)> = values.iter().copied().enumerate().collect();
        sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal));
        sorted
    }

    #[test]
    fn lazy_ranking_is_the_stable_descending_sort() {
        // Few distinct values, so ties (and -0.0 vs 0.0, equal under
        // `partial_cmp`) are everywhere: ties must keep input order.  The
        // lengths straddle the lane width, the scan/sort switch, a conv
        // decomposition (145) and a wide forward mask (2048); one scratch
        // serves every ranking, as in a walk.
        let mut rng = Rng64::new(5);
        let palette = [-f32::MAX, -1.5f32, -0.0, 0.0, 0.25, 0.25, 3.0, f32::MAX];
        let mut order = Vec::new();
        for len in [0usize, 1, 2, 7, 8, 9, 17, 73, 145, 2048] {
            let values: Vec<f32> = (0..len)
                .map(|_| palette[rng.below(palette.len())])
                .collect();
            let sorted = stable_descending(&values);
            let mut scratch = values.clone();
            let ranked: Vec<(usize, f32)> = Ranking::new(&mut scratch, &mut order).collect();
            assert_eq!(ranked.len(), sorted.len());
            for (r, s) in ranked.iter().zip(&sorted) {
                assert_eq!((r.0, r.1.to_bits()), (s.0, s.1.to_bits()), "len {len}");
            }
            // A prefix stops early, past the switch, and agrees.
            let mut scratch = values.clone();
            let prefix = Ranking::new(&mut scratch, &mut order).take(SCAN_PICKS + 2);
            assert!(prefix
                .map(|r| r.0)
                .eq(sorted.iter().map(|s| s.0).take(SCAN_PICKS + 2)));
        }
    }
}
