//! Differential tests of the paged set array behind the L1/L2 tag stores
//! and the directory's entry store, against the `Vec<Vec<_>>` layout it
//! replaced.
//!
//! Way order is observable: a victim is the first least-recently-used
//! unvetoed way, and δ expansion walks a set's lines in way order. So the
//! references below keep each set as a plain `Vec`, append on a fill,
//! `swap_remove` on an invalidation or displacement, and replace a victim
//! in place, and every operation's result and every walked set must match
//! them exactly.

use bulksc_mem::{
    CacheConfig, DirEntry, DirOrganization, DirStore, Displaced, InsertOutcome, LineState,
    SetAssocCache,
};
use bulksc_sig::LineAddr;
use bulksc_stats::SplitMix64;

/// The tag store as `Vec<Vec<(line, state, stamp)>>`.
struct RefCache {
    assoc: usize,
    sets: Vec<Vec<(LineAddr, LineState, u64)>>,
    tick: u64,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> RefCache {
        RefCache {
            assoc: cfg.assoc as usize,
            sets: vec![Vec::new(); cfg.num_sets() as usize],
            tick: 0,
        }
    }

    fn set(&self, line: LineAddr) -> usize {
        (line.0 % self.sets.len() as u64) as usize
    }

    fn insert(
        &mut self,
        line: LineAddr,
        state: LineState,
        veto: impl Fn(LineAddr) -> bool,
    ) -> InsertOutcome {
        self.tick += 1;
        let (stamp, assoc, set) = (self.tick, self.assoc, self.set(line));
        let ways = &mut self.sets[set];
        if let Some(w) = ways.iter_mut().find(|w| w.0 == line) {
            (w.1, w.2) = (state, stamp);
            return InsertOutcome::Placed;
        }
        if ways.len() < assoc {
            ways.push((line, state, stamp));
            return InsertOutcome::Placed;
        }
        let victim = ways
            .iter()
            .enumerate()
            .filter(|(_, w)| !veto(w.0))
            .min_by_key(|(_, w)| w.2)
            .map(|(i, _)| i);
        match victim {
            Some(i) => {
                let old = std::mem::replace(&mut ways[i], (line, state, stamp));
                InsertOutcome::Evicted {
                    line: old.0,
                    state: old.1,
                }
            }
            None => InsertOutcome::SetOverflow,
        }
    }

    fn would_overflow(&self, line: LineAddr, veto: impl Fn(LineAddr) -> bool) -> bool {
        let set = &self.sets[self.set(line)];
        set.len() == self.assoc && !set.iter().any(|w| w.0 == line) && set.iter().all(|w| veto(w.0))
    }

    fn touch(&mut self, line: LineAddr) -> bool {
        self.tick += 1;
        let (stamp, set) = (self.tick, self.set(line));
        match self.sets[set].iter_mut().find(|w| w.0 == line) {
            Some(w) => {
                w.2 = stamp;
                true
            }
            None => false,
        }
    }

    fn invalidate(&mut self, line: LineAddr) -> Option<LineState> {
        let set = self.set(line);
        let pos = self.sets[set].iter().position(|w| w.0 == line)?;
        Some(self.sets[set].swap_remove(pos).1)
    }

    fn lines_in_set(&self, set: usize) -> Vec<LineAddr> {
        self.sets[set].iter().map(|w| w.0).collect()
    }
}

fn state(rng: &mut SplitMix64) -> LineState {
    [LineState::Shared, LineState::Exclusive, LineState::Dirty][rng.gen_index(3)]
}

#[test]
fn cache_sets_match_the_vec_of_vecs_reference() {
    let geometries = [
        (128, 2),
        (128, 4),
        (1024, 1),
        (1024, 4),
        (32 * 1024, 4),
        (8 * 1024 * 1024, 8),
    ];
    for (g, (size_bytes, assoc)) in geometries.into_iter().enumerate() {
        let cfg = CacheConfig { size_bytes, assoc };
        let sets = cfg.num_sets() as u64;
        for case in 0..40u64 {
            let mut rng = SplitMix64::new(case * 131 + g as u64);
            let mut cache = SetAssocCache::new(cfg);
            let mut reference = RefCache::new(cfg);
            // Lines cluster on a few sets so they fill and conflict; a
            // random veto mask stands in for the W signatures.
            let hot: Vec<u64> = (0..4).map(|_| rng.gen_range(0..sets)).collect();
            let pick = |rng: &mut SplitMix64| {
                LineAddr(
                    hot[rng.gen_index(hot.len())] + sets * rng.gen_range(0..(3 * assoc as u64)),
                )
            };
            for step in 0..300 {
                let ctx = format!("{size_bytes}B/{assoc}-way case {case} step {step}");
                let line = pick(&mut rng);
                match rng.gen_range(0..10) {
                    0..=4 => {
                        let salt = rng.next_u64();
                        let veto = |l: LineAddr| (l.0 ^ salt).is_multiple_of(3);
                        let st = state(&mut rng);
                        assert_eq!(
                            cache.would_overflow(line, veto),
                            reference.would_overflow(line, veto),
                            "{ctx}: would_overflow"
                        );
                        let got = cache.insert(line, st, veto);
                        let want = reference.insert(line, st, veto);
                        assert_eq!(got, want, "{ctx}: insert {line:?}");
                    }
                    5 | 6 => assert_eq!(cache.touch(line), reference.touch(line), "{ctx}: touch"),
                    7 | 8 => assert_eq!(
                        cache.invalidate(line),
                        reference.invalidate(line),
                        "{ctx}: invalidate"
                    ),
                    _ => {
                        let st = state(&mut rng);
                        let set = reference.set(line);
                        let present = reference.sets[set]
                            .iter_mut()
                            .find(|w| w.0 == line)
                            .map(|w| w.1 = st)
                            .is_some();
                        assert_eq!(cache.set_state(line, st), present, "{ctx}: set_state");
                    }
                }
                let set = reference.set(line);
                assert_eq!(
                    cache.lines_in_set(set as u32),
                    reference.lines_in_set(set),
                    "{ctx}: way order of set {set}"
                );
                assert_eq!(
                    cache.state(line),
                    reference.sets[set]
                        .iter()
                        .find(|w| w.0 == line)
                        .map(|w| w.1),
                    "{ctx}: state"
                );
            }
            let all: Vec<LineAddr> = reference.sets.iter().flatten().map(|w| w.0).collect();
            assert_eq!(
                cache.lines(),
                all,
                "{size_bytes}B/{assoc}-way case {case}: lines"
            );
            assert_eq!(cache.len(), all.len());
        }
    }
}

/// The directory store as `Vec<Vec<(line, entry, stamp)>>`.
struct RefDir {
    max_ways: usize,
    sets: Vec<Vec<(LineAddr, DirEntry, u64)>>,
    tick: u64,
}

impl RefDir {
    fn new(org: DirOrganization) -> RefDir {
        let max_ways = match org {
            DirOrganization::FullMap { .. } => usize::MAX,
            DirOrganization::Cache { assoc, .. } => assoc as usize,
        };
        RefDir {
            max_ways,
            sets: vec![Vec::new(); org.sets() as usize],
            tick: 0,
        }
    }

    fn set(&self, line: LineAddr) -> usize {
        (line.0 % self.sets.len() as u64) as usize
    }

    fn entry_mut_with_veto(
        &mut self,
        line: LineAddr,
        veto: impl Fn(LineAddr) -> bool,
    ) -> Option<(&mut DirEntry, Option<Displaced>)> {
        self.tick += 1;
        let (stamp, set, max_ways) = (self.tick, self.set(line), self.max_ways);
        let entries = &mut self.sets[set];
        if let Some(pos) = entries.iter().position(|e| e.0 == line) {
            entries[pos].2 = stamp;
            return Some((&mut entries[pos].1, None));
        }
        let mut displaced = None;
        if entries.len() >= max_ways {
            let victim = entries
                .iter()
                .enumerate()
                .filter(|(_, e)| !veto(e.0))
                .min_by_key(|(_, e)| e.2)
                .map(|(i, _)| i)?;
            let old = entries.swap_remove(victim);
            displaced = Some(Displaced {
                line: old.0,
                entry: old.1,
            });
        }
        entries.push((line, DirEntry::empty(), stamp));
        Some((&mut entries.last_mut().expect("just pushed").1, displaced))
    }

    fn drop_if_idle(&mut self, line: LineAddr) {
        let set = self.set(line);
        if let Some(pos) = self.sets[set]
            .iter()
            .position(|e| e.0 == line && e.1.is_idle())
        {
            self.sets[set].swap_remove(pos);
        }
    }
}

#[test]
fn directory_sets_match_the_vec_of_vecs_reference() {
    let orgs = [
        DirOrganization::Cache { sets: 1, assoc: 2 },
        DirOrganization::Cache { sets: 4, assoc: 2 },
        DirOrganization::Cache {
            sets: 8192,
            assoc: 8,
        },
        DirOrganization::FullMap { sets: 4 },
        DirOrganization::FullMap { sets: 1024 },
    ];
    for (o, org) in orgs.into_iter().enumerate() {
        let sets = org.sets() as u64;
        for case in 0..40u64 {
            let mut rng = SplitMix64::new(case * 977 + o as u64);
            let mut store = DirStore::new(org);
            let mut reference = RefDir::new(org);
            let hot: Vec<u64> = (0..3).map(|_| rng.gen_range(0..sets)).collect();
            for step in 0..300 {
                let ctx = format!("{org:?} case {case} step {step}");
                let line = LineAddr(hot[rng.gen_index(hot.len())] + sets * rng.gen_range(0..24));
                match rng.gen_range(0..8) {
                    0..=4 => {
                        let salt = rng.next_u64();
                        let veto = |l: LineAddr| (l.0 ^ salt).is_multiple_of(4);
                        let core = rng.gen_range(0..8) as u32;
                        let add = rng.gen_range(0..3) != 0;
                        let got = store.entry_mut_with_veto(line, veto).map(|(e, d)| {
                            if add {
                                e.add_sharer(core)
                            } else {
                                e.remove_sharer(core)
                            }
                            (*e, d)
                        });
                        let want = reference.entry_mut_with_veto(line, veto).map(|(e, d)| {
                            if add {
                                e.add_sharer(core)
                            } else {
                                e.remove_sharer(core)
                            }
                            (*e, d)
                        });
                        assert_eq!(got, want, "{ctx}: entry_mut_with_veto");
                    }
                    5 | 6 => {
                        store.drop_if_idle(line);
                        reference.drop_if_idle(line);
                    }
                    _ => {
                        let core = rng.gen_range(0..8) as u32;
                        let got = store.get_mut(line).map(|e| {
                            e.remove_sharer(core);
                            *e
                        });
                        let set = reference.set(line);
                        let want = reference.sets[set]
                            .iter_mut()
                            .find(|e| e.0 == line)
                            .map(|e| {
                                e.1.remove_sharer(core);
                                e.1
                            });
                        assert_eq!(got, want, "{ctx}: get_mut");
                    }
                }
                let set = reference.set(line);
                let got: Vec<(LineAddr, DirEntry)> = store
                    .entries_in_set(set as u32)
                    .map(|(l, e)| (l, *e))
                    .collect();
                let want: Vec<(LineAddr, DirEntry)> =
                    reference.sets[set].iter().map(|e| (e.0, e.1)).collect();
                assert_eq!(got, want, "{ctx}: entries_in_set({set})");
                assert_eq!(
                    store.get(line).copied(),
                    want.iter().find(|e| e.0 == line).map(|e| e.1),
                    "{ctx}: get"
                );
            }
            let total: usize = reference.sets.iter().map(Vec::len).sum();
            assert_eq!(store.len(), total, "{org:?} case {case}: len");
        }
    }
}
