//! A compact bit vector used to represent activation-path masks.
//!
//! The paper represents a path as a bitmask where bit `m(i, j)` records whether
//! neuron `j` of layer `i` is important (Sec. III-A).  [`BitVec`] is the per-layer
//! storage for those masks, sized exactly like the hardware's mask SRAM: one bit per
//! feature-map element.

/// Fixed-length bit vector with the operations path construction needs
/// (set/test, population count, AND-count, OR-assign).
///
/// # Example
///
/// ```
/// use ptolemy_core::BitVec;
///
/// let mut bits = BitVec::new(100);
/// bits.set(3);
/// bits.set(64);
/// assert_eq!(bits.count_ones(), 2);
/// assert!(bits.get(64));
/// assert!(!bits.get(65));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an all-zero bit vector of `len` bits.
    pub fn new(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the vector has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`; path construction always indexes within the
    /// feature-map size it was built for.
    pub fn set(&mut self, index: usize) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        self.words[index / 64] |= 1u64 << (index % 64);
    }

    /// Sets bit `i` wherever `marked(&items[i])` holds, a word at a time
    /// (no per-bit read-modify-write); bits already set stay set.
    ///
    /// # Panics
    ///
    /// Panics if `items.len() != len()`.
    pub fn set_where<T>(&mut self, items: &[T], marked: impl Fn(&T) -> bool) {
        assert_eq!(
            items.len(),
            self.len,
            "one item per bit: {} items for {} bits",
            items.len(),
            self.len
        );
        for (word, chunk) in self.words.iter_mut().zip(items.chunks(64)) {
            *word |= chunk.iter().enumerate().fold(0u64, |bits, (bit, item)| {
                bits | (u64::from(marked(item)) << bit)
            });
        }
    }

    /// Clears bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn clear(&mut self, index: usize) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        self.words[index / 64] &= !(1u64 << (index % 64));
    }

    /// Tests bit `index` (out-of-range indices read as `false`).
    pub fn get(&self, index: usize) -> bool {
        if index >= self.len {
            return false;
        }
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of bits set in both `self` and `other` (the `‖P & Pc‖₁` term of the
    /// paper's similarity metric).  Extra bits in the longer vector are ignored.
    pub fn and_count(&self, other: &BitVec) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Number of bits set in `self` or `other`.
    pub fn or_count(&self, other: &BitVec) -> usize {
        let common: usize = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a | b).count_ones() as usize)
            .sum();
        // Account for tail words present in only one of the vectors.
        let tail_self: usize = self.words[other.words.len().min(self.words.len())..]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        let tail_other: usize = other.words[self.words.len().min(other.words.len())..]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        common + tail_self + tail_other
    }

    /// ORs `other` into `self` (class-path aggregation).  Lengths must match.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ; class paths are always aggregated from paths of
    /// the same program and network, which guarantees matching lengths.
    pub fn or_assign(&mut self, other: &BitVec) {
        assert_eq!(
            self.len, other.len,
            "cannot OR bit vectors of different lengths"
        );
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// The raw 64-bit words backing the mask (for serialisation).
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a bit vector from its raw words (the inverse of [`BitVec::words`]).
    ///
    /// Returns `None` if the word count does not match `len` or a bit beyond `len`
    /// is set.
    pub(crate) fn from_words(len: usize, words: Vec<u64>) -> Option<Self> {
        if words.len() != len.div_ceil(64) {
            return None;
        }
        if let Some(last) = words.last() {
            let tail_bits = len % 64;
            if tail_bits != 0 && *last >> tail_bits != 0 {
                return None;
            }
        }
        Some(BitVec { words, len })
    }

    /// Iterator over the indices of set bits, ascending, a word at a time
    /// (zero words are skipped whole).
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(at, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = rest.trailing_zeros() as usize;
                // Clearing the lowest set bit; `rest` is zero once all are read.
                rest &= rest.wrapping_sub(1);
                (bit < 64).then_some(at * 64 + bit)
            })
        })
    }

    /// Clears every bit and resizes to `len` bits, keeping the allocation: a
    /// reverse walk marks every layer's routes in one reused vector.
    pub(crate) fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// Fraction of set bits (0.0 for an empty vector).
    pub fn density(&self) -> f32 {
        if self.len == 0 {
            0.0
        } else {
            self.count_ones() as f32 / self.len as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut b = BitVec::new(130);
        assert_eq!(b.len(), 130);
        assert!(!b.is_empty());
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert_eq!(b.count_ones(), 4);
        assert!(b.get(63) && b.get(64) && b.get(129));
        assert!(!b.get(1));
        assert!(!b.get(1000));
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    fn set_where_marks_exactly_the_matching_items_and_keeps_earlier_bits() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            let items: Vec<usize> = (0..len).collect();
            let mut bits = BitVec::new(len);
            if len > 1 {
                bits.set(1);
            }
            bits.set_where(&items, |i| i % 3 == 0);
            let expected: Vec<usize> = (0..len).filter(|i| i % 3 == 0 || *i == 1).collect();
            assert_eq!(bits.iter_ones().collect::<Vec<_>>(), expected, "len {len}");
            // The unused tail of the last word stays clear.
            assert_eq!(bits.count_ones(), expected.len());
        }
    }

    #[test]
    fn reset_clears_and_resizes_in_place() {
        let mut bits = BitVec::new(130);
        bits.set(3);
        bits.set(129);
        bits.reset(70);
        assert_eq!((bits.len(), bits.count_ones()), (70, 0));
        bits.set(69);
        let mut fresh = BitVec::new(70);
        fresh.set(69);
        assert_eq!(bits, fresh);
        assert_eq!(bits.iter_ones().collect::<Vec<_>>(), vec![69]);
    }

    #[test]
    #[should_panic(expected = "one item per bit")]
    fn set_where_rejects_a_length_mismatch() {
        BitVec::new(10).set_where(&[0u8; 9], |_| true);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        BitVec::new(10).set(10);
    }

    #[test]
    fn and_or_counts() {
        let mut a = BitVec::new(100);
        let mut b = BitVec::new(100);
        for i in [1usize, 5, 70, 99] {
            a.set(i);
        }
        for i in [5usize, 70, 80] {
            b.set(i);
        }
        assert_eq!(a.and_count(&b), 2);
        assert_eq!(a.or_count(&b), 5);
        assert_eq!(b.and_count(&a), 2);
    }

    #[test]
    fn or_assign_aggregates() {
        let mut a = BitVec::new(70);
        let mut b = BitVec::new(70);
        a.set(1);
        b.set(65);
        a.or_assign(&b);
        assert!(a.get(1) && a.get(65));
        assert_eq!(a.count_ones(), 2);
        // Aggregation is monotone: OR-ing again changes nothing.
        let before = a.clone();
        a.or_assign(&b);
        assert_eq!(a, before);
    }

    #[test]
    fn iter_ones_and_density() {
        let mut a = BitVec::new(10);
        a.set(2);
        a.set(7);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![2, 7]);
        assert!((a.density() - 0.2).abs() < 1e-6);
        assert_eq!(BitVec::new(0).density(), 0.0);
        assert!(BitVec::new(0).is_empty());
    }
}
