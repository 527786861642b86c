//! The memory port both core kinds own: the private L1 and the request
//! side of the directory protocol (Table 2: 8 MSHRs, a 2-cycle L1).
//!
//! The port decides which request a miss sends, how many are in flight,
//! when a Nacked request retries, when a fill is stale, when a directory
//! Fetch parked behind our own in-flight fill is answered, and which value
//! a completing load observes. What a lost line or a stale fill *means*
//! stays with each model — SC/TSO load replay, SC++ epoch squash, RC
//! completion from the response snapshot, BulkSC re-request — so every
//! method returns what the model must act on.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use bulksc_mem::{CacheConfig, LineState, SetAssocCache};
use bulksc_net::{Cycle, Fabric, Message, NodeId};
use bulksc_sig::{Addr, LineAddr};
use bulksc_stats::Histogram;
use bulksc_workloads::Instr;

use crate::config::CoreConfig;
use crate::window::{Forward, InstrWindow, Slot, SlotId, SlotState};

/// L1 and miss counters of one core.
#[derive(Clone, Debug, Default)]
pub struct PortStats {
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses (requests sent to the directory).
    pub l1_misses: u64,
    /// Nacks received.
    pub nacks: u64,
    /// L1 miss latency: request sent to fill (or upgrade ack) received.
    pub lat_miss: Histogram,
}

/// A directory Fetch: send `line` to `src`, giving up our copy when
/// `excl` (else keeping it Shared).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fetch {
    /// The requested line.
    pub line: LineAddr,
    /// The directory that asked.
    pub src: NodeId,
    /// The requester wants ownership.
    pub excl: bool,
}

/// One outstanding miss; an MSHR while its request is in flight.
#[derive(Debug)]
struct Miss {
    /// Ownership is required.
    excl: bool,
    /// The request is in flight.
    sent: bool,
    /// Cycle the request went out (miss latency).
    sent_at: Cycle,
    /// Earliest cycle the request may (re)send.
    retry_at: Cycle,
    /// Loads waiting for this line.
    loads: Vec<SlotId>,
    /// An invalidation raced past the in-flight fill: the response data
    /// is already stale by coherence order.
    invalidated: bool,
    /// A Fetch that arrived while our own request was in flight (the
    /// directory made us owner before our data arrived).
    fetch: Option<Fetch>,
}

/// A core's L1 with its miss table, load completions and parked fetches.
pub struct MemPort {
    /// The private L1; the models read and update it directly.
    pub l1: SetAssocCache,
    core: NodeId,
    cfg: CoreConfig,
    num_dirs: u32,
    /// Outstanding misses; iteration order is the send order.
    misses: BTreeMap<LineAddr, Miss>,
    /// Misses whose request is in flight: the busy MSHRs.
    in_flight: u32,
    /// Loads that hit, by completion cycle.
    completions: BinaryHeap<Reverse<(Cycle, SlotId)>>,
    /// Fetches to answer once their fill's grace period is over.
    deferred_fetches: Vec<(Cycle, Fetch)>,
    stats: PortStats,
}

impl MemPort {
    /// The port of `core`, on a machine with `num_dirs` directories.
    pub fn new(core: u32, cfg: CoreConfig, l1: CacheConfig, num_dirs: u32) -> Self {
        MemPort {
            l1: SetAssocCache::new(l1),
            core: NodeId::Core(core),
            cfg,
            num_dirs,
            misses: BTreeMap::new(),
            in_flight: 0,
            completions: BinaryHeap::new(),
            deferred_fetches: Vec::new(),
            stats: PortStats::default(),
        }
    }

    /// L1 and miss counters.
    pub fn stats(&self) -> &PortStats {
        &self.stats
    }

    /// The directory module that owns `line`.
    pub fn dir_of(&self, line: LineAddr) -> NodeId {
        home(line, self.num_dirs)
    }

    /// True while any miss is outstanding, sent or not.
    pub fn has_misses(&self) -> bool {
        !self.misses.is_empty()
    }

    /// Register interest in `line`: `excl` requires ownership, `waiter`
    /// is a load to complete when the line arrives.
    pub fn want(&mut self, now: Cycle, line: LineAddr, excl: bool, waiter: Option<SlotId>) {
        let m = self.misses.entry(line).or_insert_with(|| Miss {
            excl,
            sent: false,
            sent_at: 0,
            retry_at: now,
            loads: Vec::new(),
            invalidated: false,
            fetch: None,
        });
        m.excl |= excl;
        if let Some(w) = waiter {
            if !m.loads.contains(&w) {
                m.loads.push(w);
            }
        }
    }

    /// Send the misses that are due, lowest line first, while MSHRs are
    /// free. A read asks for `ReadShared`; a miss that needs ownership
    /// asks to `Upgrade` a Shared copy, else for `ReadExcl`.
    pub fn send_misses(&mut self, now: Cycle, fab: &mut Fabric) {
        debug_assert_eq!(
            self.in_flight as usize,
            self.misses.values().filter(|m| m.sent).count(),
            "in-flight count drifted from the miss table"
        );
        if self.in_flight >= self.cfg.mshrs || self.in_flight as usize == self.misses.len() {
            return;
        }
        let mut budget = self.cfg.mshrs - self.in_flight;
        for (&line, m) in self.misses.iter_mut() {
            if budget == 0 {
                break;
            }
            if m.sent || m.retry_at > now {
                continue;
            }
            let msg = if !m.excl {
                Message::ReadShared { line }
            } else if self.l1.state(line) == Some(LineState::Shared) {
                Message::Upgrade { line }
            } else {
                Message::ReadExcl { line }
            };
            m.sent = true;
            m.sent_at = now;
            self.in_flight += 1;
            self.stats.l1_misses += 1;
            fab.send(now, self.core, home(line, self.num_dirs), msg);
            budget -= 1;
        }
    }

    /// A load at `slot` is served by the L1 (or by forwarding): it
    /// completes one L1 latency from now. Counts a hit if the line is
    /// present.
    pub fn hit(&mut self, now: Cycle, line: LineAddr, slot: SlotId) {
        if self.l1.touch(line) {
            self.stats.l1_hits += 1;
        }
        self.completions
            .push(Reverse((now + self.cfg.l1_latency, slot)));
    }

    /// The next load whose completion is due at `now`, if any.
    pub fn next_completion(&mut self, now: Cycle) -> Option<SlotId> {
        let &Reverse((t, slot)) = self.completions.peek()?;
        if t > now {
            return None;
        }
        self.completions.pop();
        Some(slot)
    }

    /// Complete the issued load at `slot`: it sees the youngest older
    /// same-word store in the window, else `buffered` (the model's
    /// retired-but-unperformed stores), else `memory`. An older RMW that
    /// has not performed yet makes the value unknown: retry next cycle.
    pub fn complete_load(
        &mut self,
        now: Cycle,
        window: &mut InstrWindow,
        slot: SlotId,
        buffered: impl Fn(Addr) -> Option<u64>,
        memory: impl Fn(Addr) -> u64,
    ) {
        let Some(&Slot {
            state: SlotState::Issued,
            instr: Instr::Load { addr, .. },
            ..
        }) = window.get(slot)
        else {
            return;
        };
        let value = match window.forward(slot, addr) {
            Forward::Value(v) => v,
            Forward::Unknown => {
                self.completions.push(Reverse((now + 1, slot)));
                return;
            }
            Forward::None => buffered(addr).unwrap_or_else(|| memory(addr)),
        };
        window.complete(slot, value);
    }

    /// Drop every waiting and completing load (their slots were
    /// squashed); the line interests stay, so in-flight data still fills.
    pub fn forget_loads(&mut self) {
        for m in self.misses.values_mut() {
            m.loads.clear();
        }
        self.completions.clear();
    }

    /// Park `f` behind our own in-flight request for its line. Returns
    /// false, parking nothing, if no request is in flight: answer now.
    pub fn defer_fetch(&mut self, f: Fetch) -> bool {
        match self.misses.get_mut(&f.line) {
            Some(m) if m.sent => {
                m.fetch = Some(f);
                true
            }
            _ => false,
        }
    }

    /// Our request for `line` was Nacked: retry it `nack_retry` cycles
    /// from now. No fill is coming, so a parked fetch must be answered
    /// now (we are a false owner — §4.3.1's graceful case).
    pub fn nack(&mut self, now: Cycle, line: LineAddr) -> Option<Fetch> {
        self.stats.nacks += 1;
        let m = self.misses.get_mut(&line)?;
        self.in_flight -= m.sent as u32;
        m.sent = false;
        m.retry_at = now + self.cfg.nack_retry;
        m.fetch.take()
    }

    /// Unpark the fetch waiting on `line`'s miss, if any.
    pub fn take_fetch(&mut self, line: LineAddr) -> Option<Fetch> {
        self.misses.get_mut(&line)?.fetch.take()
    }

    /// The parked fetches whose grace period is over at `now`.
    pub fn due_fetches(&mut self, now: Cycle) -> Vec<Fetch> {
        let mut due = Vec::new();
        if self.deferred_fetches.is_empty() {
            return due;
        }
        self.deferred_fetches.retain(|&(t, f)| {
            if t <= now {
                due.push(f);
            }
            t > now
        });
        due
    }

    /// An external invalidation: drop `line` from the L1, returning its
    /// old state, and mark a fill for it as stale.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<LineState> {
        if let Some(m) = self.misses.get_mut(&line) {
            m.invalidated = true;
        }
        self.l1.invalidate(line)
    }

    /// Mark the fills of in-flight requests for lines in `hit` as stale.
    pub fn invalidate_in_flight(&mut self, hit: impl Fn(LineAddr) -> bool) {
        for (&line, m) in self.misses.iter_mut() {
            if m.sent && hit(line) {
                m.invalidated = true;
            }
        }
    }

    /// True if a fill for `line` must not be installed.
    pub fn is_stale(&self, line: LineAddr) -> bool {
        self.misses.get(&line).is_some_and(|m| m.invalidated)
    }

    /// Forget `line`'s miss without a latency sample, returning its
    /// waiting loads and whether it wanted ownership.
    pub fn drop_miss(&mut self, line: LineAddr) -> (Vec<SlotId>, bool) {
        let Some(m) = self.misses.remove(&line) else {
            return Default::default();
        };
        self.in_flight -= m.sent as u32;
        (m.loads, m.excl)
    }

    /// Re-send `line`'s request next cycle (its fill was stale).
    pub fn retry_miss(&mut self, now: Cycle, line: LineAddr) {
        if let Some(m) = self.misses.get_mut(&line) {
            self.in_flight -= m.sent as u32;
            m.sent = false;
            m.invalidated = false;
            m.retry_at = now + 1;
        }
    }

    /// `line` arrived (a fill or an upgrade ack): retire its miss, record
    /// the latency, and return the loads waiting for it. A parked fetch
    /// is answered `l1_latency + 1` cycles from now, a grace period in
    /// which the head store can perform during its ownership tenure.
    pub fn filled(&mut self, now: Cycle, line: LineAddr) -> Vec<SlotId> {
        let Some(m) = self.misses.remove(&line) else {
            return Vec::new();
        };
        if m.sent {
            self.in_flight -= 1;
            self.stats.lat_miss.record(now.saturating_sub(m.sent_at));
        }
        if let Some(f) = m.fetch {
            let due = now + self.cfg.l1_latency + 1;
            self.deferred_fetches.push((due, f));
        }
        m.loads
    }

    /// Answer `f`: invalidate (`excl`) or downgrade the line and send the
    /// FetchResp.
    pub fn surrender(&mut self, now: Cycle, f: Fetch, fab: &mut Fabric) {
        let state = if f.excl {
            self.l1.invalidate(f.line)
        } else {
            let s = self.l1.state(f.line);
            if s.is_some() {
                self.l1.set_state(f.line, LineState::Shared);
            }
            s
        };
        let resp = Message::FetchResp {
            line: f.line,
            dirty: state == Some(LineState::Dirty),
            had_line: state.is_some(),
        };
        fab.send(now, self.core, f.src, resp);
    }

    /// The miss table, one entry per line in address order (for stuck-run
    /// dumps).
    pub fn debug_misses(&self) -> Vec<String> {
        self.misses
            .iter()
            .map(|(l, m)| {
                let mut s = format!(
                    "{l}:sent={},inv={},retry={}",
                    m.sent, m.invalidated, m.retry_at
                );
                if let Some(f) = m.fetch {
                    s.push_str(&format!(",fetch={:?}/excl={}", f.src, f.excl));
                }
                s
            })
            .collect()
    }
}

/// The directory of `num_dirs` that owns `line` (lines interleave).
fn home(line: LineAddr, num_dirs: u32) -> NodeId {
    NodeId::Dir((line.0 % num_dirs as u64) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulksc_net::FabricConfig;

    const L1: LineAddr = LineAddr(0x10);
    const L2: LineAddr = LineAddr(0x20);
    const L3: LineAddr = LineAddr(0x30);

    fn port(mshrs: u32) -> MemPort {
        let cfg = CoreConfig {
            mshrs,
            ..CoreConfig::default()
        };
        MemPort::new(0, cfg, CacheConfig::l1_default(), 1)
    }

    fn fabric() -> Fabric {
        Fabric::new(FabricConfig { hop_latency: 1 })
    }

    /// Every message sent so far, in send order.
    fn sent(fab: &mut Fabric) -> Vec<String> {
        fab.deliver_due(Cycle::MAX)
            .into_iter()
            .map(|e| format!("{:?}", e.msg))
            .collect()
    }

    fn fetch(line: LineAddr) -> Fetch {
        Fetch {
            line,
            src: NodeId::Dir(0),
            excl: true,
        }
    }

    #[test]
    fn mshrs_bound_in_flight_misses_and_lowest_lines_go_first() {
        let (mut p, mut fab) = (port(2), fabric());
        for line in [L3, L1, L2] {
            p.want(0, line, false, None);
        }
        p.send_misses(0, &mut fab);
        assert_eq!(
            sent(&mut fab),
            [
                "ReadShared { line: Line(0x10) }",
                "ReadShared { line: Line(0x20) }"
            ]
        );
        p.send_misses(1, &mut fab);
        assert!(sent(&mut fab).is_empty(), "both MSHRs are busy");
        p.filled(5, L1);
        p.send_misses(6, &mut fab);
        assert_eq!(sent(&mut fab), ["ReadShared { line: Line(0x30) }"]);
        assert_eq!(p.stats().l1_misses, 3);
    }

    #[test]
    fn ownership_upgrades_a_shared_copy_and_reads_exclusive_otherwise() {
        let (mut p, mut fab) = (port(8), fabric());
        p.l1.insert(L2, LineState::Shared, |_| false);
        p.want(0, L1, false, None);
        p.want(0, L2, true, None);
        p.want(0, L3, false, None);
        p.want(0, L3, true, None);
        p.send_misses(0, &mut fab);
        assert_eq!(
            sent(&mut fab),
            [
                "ReadShared { line: Line(0x10) }",
                "Upgrade { line: Line(0x20) }",
                "ReadExcl { line: Line(0x30) }",
            ]
        );
    }

    #[test]
    fn a_nack_retries_after_nack_retry_and_hands_back_the_parked_fetch() {
        let (mut p, mut fab) = (port(8), fabric());
        let retry = CoreConfig::default().nack_retry;
        p.want(0, L1, false, None);
        p.send_misses(0, &mut fab);
        assert!(p.defer_fetch(fetch(L1)));
        assert_eq!(p.nack(10, L1), Some(fetch(L1)));
        assert_eq!(p.take_fetch(L1), None, "handed back exactly once");
        sent(&mut fab);
        p.send_misses(10 + retry - 1, &mut fab);
        assert!(sent(&mut fab).is_empty(), "too early to retry");
        p.send_misses(10 + retry, &mut fab);
        assert_eq!(sent(&mut fab).len(), 1);
        assert_eq!(p.stats().nacks, 1);
    }

    #[test]
    fn a_fetch_parks_only_behind_an_in_flight_request_until_after_the_fill() {
        let (mut p, mut fab) = (port(8), fabric());
        let l1_latency = CoreConfig::default().l1_latency;
        assert!(!p.defer_fetch(fetch(L1)), "no miss at all");
        p.want(0, L1, false, None);
        assert!(!p.defer_fetch(fetch(L1)), "the request has not gone out");
        p.send_misses(0, &mut fab);
        assert!(p.defer_fetch(fetch(L1)));
        p.filled(100, L1);
        assert!(p.due_fetches(100 + l1_latency).is_empty());
        assert_eq!(p.due_fetches(100 + l1_latency + 1), [fetch(L1)]);
        assert!(p.due_fetches(200).is_empty(), "answered once");
    }

    #[test]
    fn invalidate_in_flight_marks_only_sent_misses() {
        let (mut p, mut fab) = (port(1), fabric());
        p.want(0, L1, false, None);
        p.want(0, L2, false, None);
        p.send_misses(0, &mut fab);
        p.invalidate_in_flight(|_| true);
        assert!(p.is_stale(L1));
        assert!(!p.is_stale(L2), "L2 was still waiting for an MSHR");
        p.retry_miss(3, L1);
        assert!(!p.is_stale(L1));
    }

    #[test]
    fn latency_is_recorded_only_for_sent_misses() {
        let (mut p, mut fab) = (port(1), fabric());
        p.want(0, L1, false, Some(7));
        p.want(0, L2, false, Some(8));
        p.send_misses(10, &mut fab);
        assert_eq!(p.filled(25, L1), [7]);
        assert_eq!(p.filled(30, L2), [8]);
        let lat = &p.stats().lat_miss;
        assert_eq!((lat.count(), lat.sum()), (1, 15));
    }
}
