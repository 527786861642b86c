//! The global value store.
//!
//! The timing substrate (caches, directory) tracks *presence and state*;
//! actual data values live here, in one word-granular map that represents
//! the committed architectural memory state. Keeping values centralized is
//! a simulation shortcut that preserves outcomes as long as each model
//! applies stores at the instant they become globally visible:
//!
//! * baselines apply a store when it *performs* (ownership held, value
//!   exposed) — by MESI construction that is after all other copies are
//!   invalidated;
//! * BulkSC applies a chunk's stores en bloc when the arbiter grants the
//!   commit — chunks that read overlapping stale data are squashed by the
//!   W-signature broadcast before they can commit.

use bulksc_sig::{Addr, LineAddr, LineData, LINE_WORDS};
use bulksc_stats::IntMap;

/// Committed memory values; absent words read as zero.
///
/// # Example
///
/// ```
/// use bulksc_mem::ValueStore;
/// use bulksc_sig::{Addr, LineAddr, LineData, LINE_WORDS};
/// let mut v = ValueStore::new();
/// assert_eq!(v.read(Addr(8)), 0);
/// v.write(Addr(8), 7);
/// assert_eq!(v.read(Addr(8)), 7);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ValueStore {
    words: IntMap<Addr, u64>,
}

impl ValueStore {
    /// An all-zero memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// The committed value of `addr`.
    pub fn read(&self, addr: Addr) -> u64 {
        self.words.get(&addr).copied().unwrap_or(0)
    }

    /// Overwrite the committed value of `addr`.
    pub fn write(&mut self, addr: Addr, value: u64) {
        self.words.insert(addr, value);
    }

    /// Number of words ever written.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if nothing was ever written.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Snapshot the words of `line` (the payload of a data response).
    pub fn read_line(&self, line: LineAddr) -> LineData {
        let mut out = [0u64; LINE_WORDS as usize];
        for (i, w) in line.words().enumerate() {
            out[i] = self.read(w);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_words_read_zero() {
        let v = ValueStore::new();
        assert_eq!(v.read(Addr(123)), 0);
        assert!(v.is_empty());
    }

    #[test]
    fn read_line_snapshots_all_words() {
        let mut v = ValueStore::new();
        let line = LineAddr(3);
        let words: Vec<Addr> = line.words().collect();
        v.write(words[0], 10);
        v.write(words[2], 30);
        assert_eq!(v.read_line(line), [10, 0, 30, 0]);
        assert_eq!(v.read_line(LineAddr(9)), [0; 4], "untouched lines are zero");
    }

    #[test]
    fn writes_are_visible_and_overwrite() {
        let mut v = ValueStore::new();
        v.write(Addr(1), 10);
        v.write(Addr(1), 20);
        v.write(Addr(2), 30);
        assert_eq!(v.read(Addr(1)), 20);
        assert_eq!(v.read(Addr(2)), 30);
        assert_eq!(v.len(), 2);
    }
}
