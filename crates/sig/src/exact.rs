//! Alias-free address sets.
//!
//! The paper evaluates a configuration called `BSCexact`: BulkSC with a
//! "magic" signature that never aliases. [`ExactSet`] provides that
//! signature, and is also kept as a shadow next to every Bloom signature so
//! the statistics machinery (Tables 3 and 4) can attribute squashes,
//! invalidations, and directory lookups to aliasing.

use crate::addr::LineAddr;

/// An exact (alias-free) set of cache-line addresses with the same operation
/// vocabulary as [`Signature`](crate::Signature).
///
/// Backed by a sorted `Vec` so iteration is in ascending address order,
/// which keeps whole-simulation runs reproducible. The sets are a chunk's
/// footprint — tens of lines — where a binary search over one contiguous
/// run beats walking tree nodes.
///
/// # Example
///
/// ```
/// use bulksc_sig::{ExactSet, LineAddr};
/// let mut w = ExactSet::new();
/// w.insert(LineAddr(3));
/// assert!(w.contains(LineAddr(3)));
/// assert_eq!(w.len(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExactSet {
    /// Ascending, without duplicates.
    lines: Vec<LineAddr>,
}

impl ExactSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a line address.
    pub fn insert(&mut self, line: LineAddr) {
        if let Err(i) = self.lines.binary_search(&line) {
            self.lines.insert(i, line);
        }
    }

    /// Remove a line address (used by the dynamically-private "add back to
    /// W" path, which moves lines between sets).
    pub fn remove(&mut self, line: LineAddr) -> bool {
        match self.lines.binary_search(&line) {
            Ok(i) => {
                self.lines.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Exact membership test.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.lines.binary_search(&line).is_ok()
    }

    /// True if no addresses have been inserted.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Number of distinct lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Remove every address.
    pub fn clear(&mut self) {
        self.lines.clear();
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &ExactSet) {
        self.extend(other.iter());
    }

    /// True if the two sets share any line.
    pub fn intersects(&self, other: &ExactSet) -> bool {
        // Look the smaller set's lines up in the larger one.
        let (small, big) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        small.lines.iter().any(|&l| big.contains(l))
    }

    /// The shared lines of the two sets.
    pub fn intersect(&self, other: &ExactSet) -> ExactSet {
        ExactSet {
            lines: self
                .lines
                .iter()
                .copied()
                .filter(|&l| other.contains(l))
                .collect(),
        }
    }

    /// Iterate the lines in address order.
    pub fn iter(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.lines.iter().copied()
    }

    /// The exact δ operation: set indices occupied in a cache with
    /// `num_sets` sets, ascending.
    pub fn decode_sets(&self, num_sets: u32) -> Vec<u32> {
        let mut sets: Vec<u32> = self
            .lines
            .iter()
            .map(|l| (l.0 % num_sets as u64) as u32)
            .collect();
        sets.sort_unstable();
        sets.dedup();
        sets
    }
}

impl FromIterator<LineAddr> for ExactSet {
    fn from_iter<T: IntoIterator<Item = LineAddr>>(iter: T) -> Self {
        let mut s = ExactSet::new();
        s.extend(iter);
        s
    }
}

impl Extend<LineAddr> for ExactSet {
    /// Appends, then restores the order in one stable sort, which merges
    /// two ascending runs (a union) in linear time.
    fn extend<T: IntoIterator<Item = LineAddr>>(&mut self, iter: T) {
        self.lines.extend(iter);
        self.lines.sort();
        self.lines.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = ExactSet::new();
        assert!(s.is_empty());
        s.insert(LineAddr(9));
        assert!(s.contains(LineAddr(9)));
        assert!(!s.contains(LineAddr(10)));
        assert!(s.remove(LineAddr(9)));
        assert!(!s.remove(LineAddr(9)));
        assert!(s.is_empty());
    }

    #[test]
    fn no_false_positives_ever() {
        let s: ExactSet = (0..1000).map(|i| LineAddr(2 * i)).collect();
        assert!((0..1000).all(|i| !s.contains(LineAddr(2 * i + 1))));
    }

    #[test]
    fn union_and_intersection() {
        let mut a: ExactSet = [LineAddr(1), LineAddr(2)].into_iter().collect();
        let b: ExactSet = [LineAddr(2), LineAddr(3)].into_iter().collect();
        assert!(a.intersects(&b));
        assert_eq!(a.intersect(&b).len(), 1);
        a.union_with(&b);
        assert_eq!(a.len(), 3);
        let c: ExactSet = [LineAddr(99)].into_iter().collect();
        assert!(!a.intersects(&c));
        assert!(a.intersect(&c).is_empty());
    }

    #[test]
    fn decode_sets_is_exact() {
        let s: ExactSet = [LineAddr(0), LineAddr(64), LineAddr(65)]
            .into_iter()
            .collect();
        assert_eq!(s.decode_sets(64), vec![0, 1]);
    }

    #[test]
    fn iteration_is_sorted() {
        let s: ExactSet = [LineAddr(5), LineAddr(1), LineAddr(3)]
            .into_iter()
            .collect();
        let v: Vec<u64> = s.iter().map(|l| l.0).collect();
        assert_eq!(v, vec![1, 3, 5]);
    }

    #[test]
    fn extend_and_clear() {
        let mut s = ExactSet::new();
        s.extend((0..10).map(LineAddr));
        assert_eq!(s.len(), 10);
        s.clear();
        assert!(s.is_empty());
    }
}
