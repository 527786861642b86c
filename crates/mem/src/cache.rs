//! Set-associative cache tag stores.
//!
//! A [`SetAssocCache`] models the tag/state array of a cache. Two BulkSC
//! properties shape the API:
//!
//! * **Tags are consistency-oblivious** (paper §4.1.1): nothing in the line
//!   state says "speculative". The BDM owns that knowledge and expresses it
//!   through a *displacement veto* — [`SetAssocCache::insert`] takes a
//!   predicate naming the lines that must not be displaced (the
//!   speculatively-written lines recorded in W signatures). If a set is full
//!   of vetoed lines, the insert reports [`InsertOutcome::SetOverflow`],
//!   which is exactly the "chunk finishes when its data is about to overflow
//!   a cache set" boundary of §4.1.2.
//! * **Values live elsewhere.** The simulator keeps data values in a global
//!   value store and per-chunk store buffers; the cache tracks only
//!   presence and coherence state, which is all the timing model needs.

use bulksc_sig::LineAddr;

use crate::sets::SetArray;

/// Coherence state of a cached line (MESI, with M spelled `Dirty`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Valid, read-only, possibly shared with other caches.
    Shared,
    /// Valid, exclusive to this cache, clean.
    Exclusive,
    /// Valid, exclusive to this cache, modified (dirty non-speculative in
    /// the paper's vocabulary — speculative modification is invisible to
    /// the cache).
    Dirty,
}

impl LineState {
    /// True for states that grant write permission in the baseline MESI
    /// protocol.
    pub fn is_exclusive(self) -> bool {
        matches!(self, LineState::Exclusive | LineState::Dirty)
    }
}

/// Geometry of a cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Ways per set.
    pub assoc: u32,
}

impl CacheConfig {
    /// The 32 KB 4-way private D-L1 of Table 2.
    pub fn l1_default() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            assoc: 4,
        }
    }

    /// The 8 MB 8-way shared L2 of Table 2.
    pub fn l2_default() -> Self {
        CacheConfig {
            size_bytes: 8 * 1024 * 1024,
            assoc: 8,
        }
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield a power-of-two set count.
    pub fn num_sets(&self) -> u32 {
        let lines = self.size_bytes / bulksc_sig::LINE_BYTES;
        let sets = lines / self.assoc as u64;
        assert!(
            sets > 0 && (sets as u32).is_power_of_two(),
            "cache must have a power-of-two number of sets, got {sets}"
        );
        sets as u32
    }
}

#[derive(Clone, Debug)]
struct Way {
    line: LineAddr,
    state: LineState,
    /// LRU stamp: larger = more recently used.
    stamp: u64,
}

/// The result of inserting a line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Inserted into an empty or freed way; nothing displaced.
    Placed,
    /// Inserted; the named victim (with its state) was displaced.
    Evicted {
        /// The displaced line.
        line: LineAddr,
        /// Its state at displacement (a `Dirty` victim needs a writeback).
        state: LineState,
    },
    /// Every way in the set is vetoed (speculatively written): the line
    /// cannot be inserted. Under BulkSC this ends the current chunk.
    SetOverflow,
}

/// A set-associative tag/state store with LRU replacement and displacement
/// vetoes.
///
/// # Example
///
/// ```
/// use bulksc_mem::{CacheConfig, InsertOutcome, LineState, SetAssocCache};
/// use bulksc_sig::LineAddr;
///
/// let mut c = SetAssocCache::new(CacheConfig { size_bytes: 1024, assoc: 2 });
/// assert_eq!(c.insert(LineAddr(1), LineState::Shared, |_| false), InsertOutcome::Placed);
/// assert_eq!(c.state(LineAddr(1)), Some(LineState::Shared));
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    sets: SetArray<Way>,
    tick: u64,
    changes: u64,
}

impl SetAssocCache {
    /// An empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        SetAssocCache {
            cfg,
            sets: SetArray::new(cfg.num_sets()),
            tick: 0,
            changes: 0,
        }
    }

    /// How many times a line was placed, removed, re-stated or touched:
    /// equal counts before and after some calls mean they changed no
    /// line's state or LRU order.
    pub fn changes(&self) -> u64 {
        self.changes
    }

    /// The geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Number of sets (needed by signature δ-expansion).
    pub fn num_sets(&self) -> u32 {
        self.sets.num_sets()
    }

    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn way_mut(&mut self, line: LineAddr) -> Option<&mut Way> {
        let set = self.sets.index(line);
        self.sets.set_mut(set).iter_mut().find(|w| w.line == line)
    }

    /// The state of `line`, if present.
    pub fn state(&self, line: LineAddr) -> Option<LineState> {
        self.sets
            .set(self.sets.index(line))
            .iter()
            .find(|w| w.line == line)
            .map(|w| w.state)
    }

    /// True if the line is present in any state.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.state(line).is_some()
    }

    /// Mark `line` most recently used. Returns true if present.
    pub fn touch(&mut self, line: LineAddr) -> bool {
        let stamp = self.bump();
        match self.way_mut(line) {
            Some(w) => {
                w.stamp = stamp;
                self.changes += 1;
                true
            }
            None => false,
        }
    }

    /// Change the state of a present line. Returns false if absent.
    pub fn set_state(&mut self, line: LineAddr, state: LineState) -> bool {
        match self.way_mut(line) {
            Some(w) => {
                let changed = w.state != state;
                w.state = state;
                self.changes += changed as u64;
                true
            }
            None => false,
        }
    }

    /// Remove `line`, returning its state if it was present.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<LineState> {
        let set = self.sets.index(line);
        let pos = self.sets.set(set).iter().position(|w| w.line == line)?;
        self.changes += 1;
        Some(self.sets.swap_remove(set, pos).state)
    }

    /// Insert `line` with `state`. `veto(addr)` returns true for lines that
    /// must not be displaced (the BDM's speculatively-written lines).
    ///
    /// If the line is already present its state and LRU stamp are updated
    /// and the outcome is [`InsertOutcome::Placed`]. Otherwise the LRU
    /// non-vetoed way of the set is the victim; if every way is vetoed the
    /// insert fails with [`InsertOutcome::SetOverflow`].
    pub fn insert(
        &mut self,
        line: LineAddr,
        state: LineState,
        veto: impl Fn(LineAddr) -> bool,
    ) -> InsertOutcome {
        let stamp = self.bump();
        let assoc = self.cfg.assoc as usize;
        let set = self.sets.index(line);
        let ways = self.sets.set_mut(set);

        if let Some(w) = ways.iter_mut().find(|w| w.line == line) {
            w.state = state;
            w.stamp = stamp;
            self.changes += 1;
            return InsertOutcome::Placed;
        }
        if ways.len() < assoc {
            self.sets.push(set, Way { line, state, stamp });
            self.changes += 1;
            return InsertOutcome::Placed;
        }
        // Victim: least recently used way that is not vetoed.
        let victim = ways
            .iter()
            .enumerate()
            .filter(|(_, w)| !veto(w.line))
            .min_by_key(|(_, w)| w.stamp)
            .map(|(i, _)| i);
        match victim {
            Some(i) => {
                let old = std::mem::replace(&mut ways[i], Way { line, state, stamp });
                self.changes += 1;
                InsertOutcome::Evicted {
                    line: old.line,
                    state: old.state,
                }
            }
            None => InsertOutcome::SetOverflow,
        }
    }

    /// Would inserting `line` displace a vetoed-only set? True exactly when
    /// [`SetAssocCache::insert`] would return `SetOverflow`.
    pub fn would_overflow(&self, line: LineAddr, veto: impl Fn(LineAddr) -> bool) -> bool {
        let set = self.sets.set(self.sets.index(line));
        set.len() == self.cfg.assoc as usize
            && !set.iter().any(|w| w.line == line)
            && set.iter().all(|w| veto(w.line))
    }

    /// The valid lines in set `set_index` (for δ-driven bulk operations),
    /// in way order.
    ///
    /// # Panics
    ///
    /// Panics if `set_index >= num_sets()`.
    pub fn lines_in_set(&self, set_index: u32) -> Vec<LineAddr> {
        self.sets
            .set(set_index as usize)
            .iter()
            .map(|w| w.line)
            .collect()
    }

    /// All valid lines (test/diagnostic use).
    pub fn lines(&self) -> Vec<LineAddr> {
        self.sets.iter().map(|w| w.line).collect()
    }

    /// Number of valid lines.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True if the cache holds no lines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways.
        SetAssocCache::new(CacheConfig {
            size_bytes: 128,
            assoc: 2,
        })
    }

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::l1_default().num_sets(), 256);
        assert_eq!(CacheConfig::l2_default().num_sets(), 32 * 1024);
        assert_eq!(tiny().num_sets(), 2);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn bad_geometry_panics() {
        CacheConfig {
            size_bytes: 96,
            assoc: 1,
        }
        .num_sets();
    }

    #[test]
    fn insert_lookup_invalidate() {
        let mut c = tiny();
        assert_eq!(
            c.insert(LineAddr(0), LineState::Shared, |_| false),
            InsertOutcome::Placed
        );
        assert_eq!(c.state(LineAddr(0)), Some(LineState::Shared));
        assert!(c.contains(LineAddr(0)));
        assert_eq!(c.invalidate(LineAddr(0)), Some(LineState::Shared));
        assert_eq!(c.invalidate(LineAddr(0)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn reinsert_updates_state_in_place() {
        let mut c = tiny();
        c.insert(LineAddr(0), LineState::Shared, |_| false);
        assert_eq!(
            c.insert(LineAddr(0), LineState::Dirty, |_| false),
            InsertOutcome::Placed
        );
        assert_eq!(c.state(LineAddr(0)), Some(LineState::Dirty));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_picks_oldest() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0.
        c.insert(LineAddr(0), LineState::Shared, |_| false);
        c.insert(LineAddr(2), LineState::Shared, |_| false);
        c.touch(LineAddr(0)); // 2 is now LRU
        match c.insert(LineAddr(4), LineState::Shared, |_| false) {
            InsertOutcome::Evicted { line, .. } => assert_eq!(line, LineAddr(2)),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(c.contains(LineAddr(0)) && c.contains(LineAddr(4)));
    }

    #[test]
    fn veto_redirects_eviction() {
        let mut c = tiny();
        c.insert(LineAddr(0), LineState::Shared, |_| false);
        c.insert(LineAddr(2), LineState::Shared, |_| false);
        // LRU is 0, but it is vetoed: 2 must be displaced instead.
        match c.insert(LineAddr(4), LineState::Shared, |l| l == LineAddr(0)) {
            InsertOutcome::Evicted { line, .. } => assert_eq!(line, LineAddr(2)),
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn full_veto_means_overflow() {
        let mut c = tiny();
        c.insert(LineAddr(0), LineState::Dirty, |_| false);
        c.insert(LineAddr(2), LineState::Dirty, |_| false);
        assert!(c.would_overflow(LineAddr(4), |_| true));
        assert_eq!(
            c.insert(LineAddr(4), LineState::Shared, |_| true),
            InsertOutcome::SetOverflow
        );
        // The set is untouched by the failed insert.
        assert!(c.contains(LineAddr(0)) && c.contains(LineAddr(2)));
        assert!(!c.contains(LineAddr(4)));
    }

    #[test]
    fn would_overflow_false_when_line_present() {
        let mut c = tiny();
        c.insert(LineAddr(0), LineState::Dirty, |_| false);
        c.insert(LineAddr(2), LineState::Dirty, |_| false);
        assert!(!c.would_overflow(LineAddr(0), |_| true));
    }

    #[test]
    fn eviction_reports_dirty_state() {
        let mut c = tiny();
        c.insert(LineAddr(0), LineState::Dirty, |_| false);
        c.insert(LineAddr(2), LineState::Shared, |_| false);
        c.touch(LineAddr(2));
        match c.insert(LineAddr(4), LineState::Shared, |_| false) {
            InsertOutcome::Evicted { line, state } => {
                assert_eq!(line, LineAddr(0));
                assert_eq!(state, LineState::Dirty);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn lines_in_set_reports_members() {
        let mut c = tiny();
        c.insert(LineAddr(0), LineState::Shared, |_| false);
        c.insert(LineAddr(1), LineState::Shared, |_| false);
        c.insert(LineAddr(2), LineState::Shared, |_| false);
        assert_eq!(c.lines_in_set(0), vec![LineAddr(0), LineAddr(2)]);
        assert_eq!(c.lines_in_set(1), vec![LineAddr(1)]);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn exclusive_states() {
        assert!(LineState::Dirty.is_exclusive());
        assert!(LineState::Exclusive.is_exclusive());
        assert!(!LineState::Shared.is_exclusive());
    }

    #[test]
    fn touch_and_set_state_miss_on_absent_lines() {
        let mut c = tiny();
        assert!(!c.touch(LineAddr(0)));
        assert!(!c.set_state(LineAddr(0), LineState::Dirty));
        c.insert(LineAddr(0), LineState::Shared, |_| false);
        assert!(c.touch(LineAddr(0)));
        assert!(c.set_state(LineAddr(0), LineState::Exclusive));
        assert_eq!(c.state(LineAddr(0)), Some(LineState::Exclusive));
        // Same set, different line: still a miss.
        assert!(!c.touch(LineAddr(2)));
        assert!(!c.set_state(LineAddr(2), LineState::Dirty));
    }

    #[test]
    fn reinsert_into_a_full_set_displaces_nothing() {
        let mut c = tiny();
        c.insert(LineAddr(0), LineState::Shared, |_| false);
        c.insert(LineAddr(2), LineState::Shared, |_| false);
        // Set 0 is full; re-inserting a resident line must hit in place
        // even when every way (including its own) is vetoed.
        assert_eq!(
            c.insert(LineAddr(0), LineState::Dirty, |_| true),
            InsertOutcome::Placed
        );
        assert_eq!(c.len(), 2);
        assert_eq!(c.state(LineAddr(0)), Some(LineState::Dirty));
    }

    #[test]
    fn invalidate_frees_the_way_for_the_next_insert() {
        let mut c = tiny();
        c.insert(LineAddr(0), LineState::Dirty, |_| false);
        c.insert(LineAddr(2), LineState::Shared, |_| false);
        assert_eq!(c.invalidate(LineAddr(0)), Some(LineState::Dirty));
        // The freed way absorbs the next insert without a displacement.
        assert_eq!(
            c.insert(LineAddr(4), LineState::Shared, |_| false),
            InsertOutcome::Placed
        );
        assert!(c.contains(LineAddr(2)) && c.contains(LineAddr(4)));
    }

    #[test]
    fn touch_refreshes_lru_order() {
        let mut c = tiny();
        c.insert(LineAddr(0), LineState::Shared, |_| false);
        c.insert(LineAddr(2), LineState::Shared, |_| false);
        // Without the touch, 0 would be the LRU victim.
        c.touch(LineAddr(0));
        c.touch(LineAddr(2));
        c.touch(LineAddr(0));
        match c.insert(LineAddr(4), LineState::Shared, |_| false) {
            InsertOutcome::Evicted { line, .. } => assert_eq!(line, LineAddr(2)),
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn veto_picks_oldest_among_the_unvetoed() {
        // 1 set x 4 ways: victim must be the LRU of the non-vetoed subset,
        // not the global LRU and not an arbitrary unvetoed way.
        let mut c = SetAssocCache::new(CacheConfig {
            size_bytes: 128,
            assoc: 4,
        });
        for l in [0u64, 1, 2, 3] {
            c.insert(LineAddr(l), LineState::Shared, |_| false);
        }
        // Age order now 0 < 1 < 2 < 3; veto the two globally oldest.
        let veto = |l: LineAddr| l == LineAddr(0) || l == LineAddr(1);
        match c.insert(LineAddr(4), LineState::Shared, veto) {
            InsertOutcome::Evicted { line, .. } => assert_eq!(line, LineAddr(2)),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(c.contains(LineAddr(0)) && c.contains(LineAddr(1)));
    }

    #[test]
    fn would_overflow_needs_a_full_set() {
        let mut c = tiny();
        c.insert(LineAddr(0), LineState::Dirty, |_| false);
        // One free way left: a universal veto still cannot overflow.
        assert!(!c.would_overflow(LineAddr(2), |_| true));
        assert_eq!(
            c.insert(LineAddr(2), LineState::Shared, |_| true),
            InsertOutcome::Placed
        );
        // Now the set is full of vetoed lines: overflow, and the
        // predicate agrees with the insert outcome.
        assert!(c.would_overflow(LineAddr(4), |_| true));
        assert_eq!(
            c.insert(LineAddr(4), LineState::Shared, |_| true),
            InsertOutcome::SetOverflow
        );
    }

    #[test]
    fn failed_insert_leaves_lru_order_intact() {
        let mut c = tiny();
        c.insert(LineAddr(0), LineState::Dirty, |_| false);
        c.insert(LineAddr(2), LineState::Dirty, |_| false);
        // A SetOverflow must not disturb the set: lifting the veto
        // afterwards evicts the line that was LRU all along.
        assert_eq!(
            c.insert(LineAddr(4), LineState::Shared, |_| true),
            InsertOutcome::SetOverflow
        );
        match c.insert(LineAddr(4), LineState::Shared, |_| false) {
            InsertOutcome::Evicted { line, state } => {
                assert_eq!(line, LineAddr(0));
                assert_eq!(state, LineState::Dirty);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
    }
}
