//! The directory's entry store.
//!
//! The paper prefers directory *caches* over full-mapped directories
//! because they bound the number of signature-expansion false positives by
//! construction (§4.3.3). [`DirStore`] models both with one structure: a
//! set-indexed array of entries with either bounded associativity (a
//! directory cache, entries can be displaced) or unbounded associativity (a
//! full-map directory that never displaces).

use bulksc_sig::LineAddr;

use crate::sets::SetArray;

/// One directory entry: the full bit-vector sharing state of a line
//  (Dash-style, as cited by the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirEntry {
    /// The Dirty bit: exactly one sharer owns the line with write
    /// permission.
    pub dirty: bool,
    /// Bit-vector of cores holding the line.
    pub sharers: u64,
}

impl DirEntry {
    /// An entry with no sharers.
    pub fn empty() -> Self {
        DirEntry {
            dirty: false,
            sharers: 0,
        }
    }

    /// True if core `c` is recorded as holding the line.
    pub fn has_sharer(&self, c: u32) -> bool {
        self.sharers & (1 << c) != 0
    }

    /// Record core `c` as a sharer.
    pub fn add_sharer(&mut self, c: u32) {
        self.sharers |= 1 << c;
    }

    /// Remove core `c` from the sharers.
    pub fn remove_sharer(&mut self, c: u32) {
        self.sharers &= !(1 << c);
    }

    /// The sharers as core indices.
    pub fn sharer_list(&self) -> Vec<u32> {
        let mut rest = self.sharers;
        std::iter::from_fn(|| {
            (rest != 0).then(|| {
                let c = rest.trailing_zeros();
                rest &= rest - 1;
                c
            })
        })
        .collect()
    }

    /// Number of sharers.
    pub fn sharer_count(&self) -> u32 {
        self.sharers.count_ones()
    }

    /// True when the entry carries no information and can be dropped.
    pub fn is_idle(&self) -> bool {
        !self.dirty && self.sharers == 0
    }
}

/// Organization of the directory store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirOrganization {
    /// Full-map: entries are never displaced (associativity unbounded).
    FullMap {
        /// Buckets used for signature expansion (power of two). More
        /// buckets = fewer expansion false positives.
        sets: u32,
    },
    /// A directory cache with `sets × assoc` entries; LRU displacement.
    Cache {
        /// Number of sets (power of two).
        sets: u32,
        /// Ways per set.
        assoc: u32,
    },
}

impl DirOrganization {
    /// Number of sets used for indexing and signature expansion.
    pub fn sets(self) -> u32 {
        match self {
            DirOrganization::FullMap { sets } | DirOrganization::Cache { sets, .. } => sets,
        }
    }
}

#[derive(Clone, Debug)]
struct StoredEntry {
    line: LineAddr,
    entry: DirEntry,
    stamp: u64,
}

/// The set-indexed entry store.
///
/// # Example
///
/// ```
/// use bulksc_mem::{DirEntry, DirOrganization, DirStore};
/// use bulksc_sig::LineAddr;
///
/// let mut s = DirStore::new(DirOrganization::FullMap { sets: 256 });
/// let e = s.entry_mut(LineAddr(7)).expect("full map never displaces").0;
/// e.add_sharer(3);
/// assert!(s.get(LineAddr(7)).unwrap().has_sharer(3));
/// ```
#[derive(Clone, Debug)]
pub struct DirStore {
    org: DirOrganization,
    sets: SetArray<StoredEntry>,
    tick: u64,
}

/// A directory entry displaced to make room for a new one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Displaced {
    /// The line whose entry was displaced.
    pub line: LineAddr,
    /// Its sharing state at displacement.
    pub entry: DirEntry,
}

impl DirStore {
    /// An empty store.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two.
    pub fn new(org: DirOrganization) -> Self {
        DirStore {
            org,
            sets: SetArray::new(org.sets()),
            tick: 0,
        }
    }

    /// The organization.
    pub fn organization(&self) -> DirOrganization {
        self.org
    }

    /// Number of sets (for δ expansion).
    pub fn num_sets(&self) -> u32 {
        self.org.sets()
    }

    /// Read the entry for `line`, if present.
    pub fn get(&self, line: LineAddr) -> Option<&DirEntry> {
        self.sets
            .set(self.sets.index(line))
            .iter()
            .find(|s| s.line == line)
            .map(|s| &s.entry)
    }

    /// Mutable access to an existing entry (no allocation).
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut DirEntry> {
        let set = self.sets.index(line);
        self.sets
            .set_mut(set)
            .iter_mut()
            .find(|s| s.line == line)
            .map(|s| &mut s.entry)
    }

    /// Get-or-allocate the entry for `line`, returning it together with any
    /// entry displaced to make room. Equivalent to
    /// [`DirStore::entry_mut_with_veto`] with no veto, so it never fails.
    pub fn entry_mut(&mut self, line: LineAddr) -> Option<(&mut DirEntry, Option<Displaced>)> {
        self.entry_mut_with_veto(line, |_| false)
    }

    /// Get-or-allocate the entry for `line`. `veto(addr)` names lines whose
    /// entries must not be displaced (e.g. lines with an in-flight
    /// transaction). Returns `None` if allocation would require displacing
    /// a vetoed entry — the caller should Nack the triggering request.
    pub fn entry_mut_with_veto(
        &mut self,
        line: LineAddr,
        veto: impl Fn(LineAddr) -> bool,
    ) -> Option<(&mut DirEntry, Option<Displaced>)> {
        self.tick += 1;
        let stamp = self.tick;
        let set = self.sets.index(line);
        let max_ways = match self.org {
            DirOrganization::FullMap { .. } => usize::MAX,
            DirOrganization::Cache { assoc, .. } => assoc as usize,
        };

        let entries = self.sets.set(set);
        if let Some(pos) = entries.iter().position(|s| s.line == line) {
            let s = &mut self.sets.set_mut(set)[pos];
            s.stamp = stamp;
            return Some((&mut s.entry, None));
        }

        let mut displaced = None;
        if entries.len() >= max_ways {
            let victim = entries
                .iter()
                .enumerate()
                .filter(|(_, s)| !veto(s.line))
                .min_by_key(|(_, s)| s.stamp)
                .map(|(i, _)| i)?;
            let old = self.sets.swap_remove(set, victim);
            displaced = Some(Displaced {
                line: old.line,
                entry: old.entry,
            });
        }
        let pos = self.sets.push(
            set,
            StoredEntry {
                line,
                entry: DirEntry::empty(),
                stamp,
            },
        );
        Some((&mut self.sets.set_mut(set)[pos].entry, displaced))
    }

    /// Drop the entry for `line` if it carries no information.
    pub fn drop_if_idle(&mut self, line: LineAddr) {
        let set = self.sets.index(line);
        if let Some(pos) = self
            .sets
            .set(set)
            .iter()
            .position(|s| s.line == line && s.entry.is_idle())
        {
            self.sets.swap_remove(set, pos);
        }
    }

    /// The `(line, entry)` pairs stored in set `set_index`, for signature
    /// expansion.
    pub fn entries_in_set(&self, set_index: u32) -> impl Iterator<Item = (LineAddr, &DirEntry)> {
        self.sets
            .set(set_index as usize)
            .iter()
            .map(|s| (s.line, &s.entry))
    }

    /// Total entries stored.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_bit_vector_ops() {
        let mut e = DirEntry::empty();
        assert!(e.is_idle());
        e.add_sharer(0);
        e.add_sharer(5);
        assert!(e.has_sharer(5) && !e.has_sharer(1));
        assert_eq!(e.sharer_list(), vec![0, 5]);
        assert_eq!(e.sharer_count(), 2);
        e.remove_sharer(0);
        assert_eq!(e.sharer_list(), vec![5]);
        assert!(!e.is_idle());
    }

    #[test]
    fn full_map_never_displaces() {
        let mut s = DirStore::new(DirOrganization::FullMap { sets: 4 });
        for i in 0..100 {
            let (e, disp) = s.entry_mut(LineAddr(i)).unwrap();
            e.add_sharer(0);
            assert!(disp.is_none());
        }
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn cache_mode_displaces_lru() {
        let mut s = DirStore::new(DirOrganization::Cache { sets: 1, assoc: 2 });
        s.entry_mut(LineAddr(1)).unwrap().0.add_sharer(1);
        s.entry_mut(LineAddr(2)).unwrap().0.add_sharer(2);
        // Touch 1 so 2 becomes LRU.
        let _ = s.entry_mut(LineAddr(1));
        let (_, disp) = s.entry_mut(LineAddr(3)).unwrap();
        let disp = disp.expect("set was full");
        assert_eq!(disp.line, LineAddr(2));
        assert!(disp.entry.has_sharer(2));
        assert!(s.get(LineAddr(2)).is_none());
        assert!(s.get(LineAddr(1)).is_some());
    }

    #[test]
    fn drop_if_idle_only_drops_idle() {
        let mut s = DirStore::new(DirOrganization::FullMap { sets: 4 });
        s.entry_mut(LineAddr(1)).unwrap().0.add_sharer(0);
        s.drop_if_idle(LineAddr(1));
        assert_eq!(s.len(), 1, "non-idle entry must stay");
        s.get_mut(LineAddr(1)).unwrap().remove_sharer(0);
        s.drop_if_idle(LineAddr(1));
        assert!(s.is_empty());
    }

    #[test]
    fn entries_in_set_partitions_by_index() {
        let mut s = DirStore::new(DirOrganization::FullMap { sets: 2 });
        for i in 0..6 {
            s.entry_mut(LineAddr(i)).unwrap().0.add_sharer(0);
        }
        let set0: Vec<u64> = s.entries_in_set(0).map(|(l, _)| l.0).collect();
        assert!(set0.iter().all(|l| l % 2 == 0));
        assert_eq!(set0.len(), 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_set_count() {
        DirStore::new(DirOrganization::FullMap { sets: 3 });
    }
}
