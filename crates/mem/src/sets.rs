//! The set array behind [`SetAssocCache`](crate::SetAssocCache) and
//! [`DirStore`](crate::DirStore).
//!
//! A fuzz case builds a machine with a 32,768-set L2 slice and an
//! 8,192-set directory cache per directory and touches a few dozen of
//! those sets. So sets live in pages of [`PAGE_SETS`] that are allocated
//! the first time one of their sets gains a member: building and
//! dropping an untouched array costs one small vector of page pointers.
//!
//! Each set keeps its members in a `Vec` whose order the callers own:
//! [`SetArray::push`] appends, [`SetArray::swap_remove`] moves the last
//! member into the hole, and a member replaced through
//! [`SetArray::set_mut`] keeps its place. That is the order a
//! `Vec<Vec<T>>` gave them, so iteration order — and with it every
//! victim choice and every δ-expansion walk — is unchanged.

use bulksc_sig::LineAddr;

/// Sets per page (fewer when the whole array is smaller).
pub(crate) const PAGE_SETS: usize = 64;

/// A power-of-two array of sets indexed by `line % sets`.
#[derive(Clone, Debug)]
pub(crate) struct SetArray<T> {
    /// `pages[p]` holds sets `p * page_sets ..`, or `None` while all of
    /// them are empty and untouched.
    pages: Vec<Option<Box<[Vec<T>]>>>,
    /// log2 of the sets per page.
    page_shift: u32,
    /// Sets in the array, minus one (the set-index mask).
    mask: u64,
    /// Members across all sets.
    len: usize,
}

impl<T> SetArray<T> {
    /// `sets` empty sets; nothing but the page table is allocated.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two.
    pub(crate) fn new(sets: u32) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let page_sets = (sets as usize).min(PAGE_SETS);
        let pages = sets as usize / page_sets;
        SetArray {
            pages: (0..pages).map(|_| None).collect(),
            page_shift: page_sets.trailing_zeros(),
            mask: sets as u64 - 1,
            len: 0,
        }
    }

    /// Number of sets.
    pub(crate) fn num_sets(&self) -> u32 {
        (self.mask + 1) as u32
    }

    /// The set `line` maps to.
    pub(crate) fn index(&self, line: LineAddr) -> usize {
        (line.0 & self.mask) as usize
    }

    fn split(&self, set: usize) -> (usize, usize) {
        (set >> self.page_shift, set & ((1 << self.page_shift) - 1))
    }

    /// The members of set `set`, in their stored order.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub(crate) fn set(&self, set: usize) -> &[T] {
        let (page, i) = self.split(set);
        match &self.pages[page] {
            Some(sets) => &sets[i],
            None => &[],
        }
    }

    /// The members of set `set`, to update in place (allocates nothing).
    pub(crate) fn set_mut(&mut self, set: usize) -> &mut [T] {
        let (page, i) = self.split(set);
        match &mut self.pages[page] {
            Some(sets) => &mut sets[i],
            None => &mut [],
        }
    }

    /// Append `member` to set `set`, allocating its page on first touch.
    /// Returns the member's position in the set.
    pub(crate) fn push(&mut self, set: usize, member: T) -> usize {
        let (page, i) = self.split(set);
        let page_sets = 1 << self.page_shift;
        let sets =
            self.pages[page].get_or_insert_with(|| (0..page_sets).map(|_| Vec::new()).collect());
        sets[i].push(member);
        self.len += 1;
        sets[i].len() - 1
    }

    /// Remove the member at `pos` of set `set`; the set's last member
    /// takes its place.
    ///
    /// # Panics
    ///
    /// Panics if the set has no member at `pos`.
    pub(crate) fn swap_remove(&mut self, set: usize, pos: usize) -> T {
        let (page, i) = self.split(set);
        let sets = self.pages[page]
            .as_mut()
            .expect("a member implies its page");
        self.len -= 1;
        sets[i].swap_remove(pos)
    }

    /// Every member, set by set in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.pages
            .iter()
            .flatten()
            .flat_map(|sets| sets.iter().flatten())
    }

    /// Members across all sets.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_sets_are_empty_and_unallocated() {
        let a: SetArray<u64> = SetArray::new(1 << 15);
        assert_eq!(a.pages.len(), (1 << 15) / PAGE_SETS);
        assert!(a.pages.iter().all(Option::is_none));
        assert!(a.set(12_345).is_empty());
        assert_eq!(a.len(), 0);
    }

    #[test]
    fn small_arrays_use_one_short_page() {
        let mut a: SetArray<u64> = SetArray::new(2);
        assert_eq!(a.pages.len(), 1);
        a.push(a.index(LineAddr(3)), 3);
        assert_eq!(a.set(1), &[3]);
        assert!(a.set(0).is_empty());
    }

    #[test]
    fn push_and_swap_remove_keep_vec_order() {
        let mut a: SetArray<u64> = SetArray::new(256);
        for v in [10, 11, 12, 13] {
            a.push(70, v);
        }
        assert_eq!(a.swap_remove(70, 0), 10);
        assert_eq!(a.set(70), &[13, 11, 12]);
        a.set_mut(70)[1] = 99;
        assert_eq!(a.set(70), &[13, 99, 12]);
        assert_eq!(a.len(), 3);
        assert!(a.set_mut(5).is_empty(), "a sibling set stays empty");
        a.push(3, 1);
        assert_eq!(a.iter().copied().collect::<Vec<_>>(), [1, 13, 99, 12]);
    }
}
