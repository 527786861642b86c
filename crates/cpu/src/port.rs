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
//!
//! The port also owns the core's timers ([`MemPort::next_timer`]) and
//! counts its own changes ([`MemPort::changes`]), so a core that ticked
//! without changing anything can sleep until a timer or a message.

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
    changes: u64,
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
            changes: 0,
        }
    }

    /// How many times the port or its L1 has changed: equal counts before
    /// and after some calls mean they changed no miss, completion, parked
    /// fetch or line. Counters in [`PortStats`] do not count.
    pub fn changes(&self) -> u64 {
        self.changes + self.l1.changes()
    }

    /// The earliest cycle at which one of the port's timers falls due, or
    /// `Cycle::MAX` if none is pending; after a tick at `now` every
    /// pending time is later. Together with two gates the models keep,
    /// these are every comparison against `now` on a core's tick path:
    ///
    /// * the completion heap of [`MemPort::next_completion`]: loads that
    ///   [`MemPort::hit`], and the `now + 1` retry of a load waiting behind
    ///   an unperformed RMW in [`MemPort::complete_load`];
    /// * the parked fetches of [`MemPort::due_fetches`] (see
    ///   [`MemPort::next_fetch`]), parked by [`MemPort::filled`];
    /// * the `retry_at` of unsent misses in [`MemPort::send_misses`] (a
    ///   Nack retry or a stale-fill retry). They count only while an MSHR
    ///   is free: a busy MSHR frees only on a message;
    /// * the BulkSC core's `commit_retry_at`, which gates a commit request
    ///   after a denial;
    /// * the SC baseline's memory-perform gate, `l1_latency` cycles after
    ///   the last memory operation retired.
    pub fn next_timer(&self, now: Cycle) -> Cycle {
        let completion = self
            .completions
            .peek()
            .map_or(Cycle::MAX, |&Reverse((t, _))| t);
        let retry = if self.in_flight < self.cfg.mshrs {
            self.misses
                .values()
                .filter(|m| !m.sent && m.retry_at > now)
                .map(|m| m.retry_at)
                .min()
                .unwrap_or(Cycle::MAX)
        } else {
            Cycle::MAX
        };
        completion.min(self.next_fetch()).min(retry)
    }

    /// The cycle the earliest parked fetch falls due, or `Cycle::MAX`: a
    /// finished core's only timer.
    pub fn next_fetch(&self) -> Cycle {
        self.deferred_fetches
            .iter()
            .map(|&(t, _)| t)
            .min()
            .unwrap_or(Cycle::MAX)
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
    /// is a load to complete when the line arrives. Registering an
    /// interest already held changes nothing.
    pub fn want(&mut self, now: Cycle, line: LineAddr, excl: bool, waiter: Option<SlotId>) {
        let changes = &mut self.changes;
        let m = self.misses.entry(line).or_insert_with(|| {
            *changes += 1;
            Miss {
                excl,
                sent: false,
                sent_at: 0,
                retry_at: now,
                loads: Vec::new(),
                invalidated: false,
                fetch: None,
            }
        });
        if excl && !m.excl {
            m.excl = true;
            *changes += 1;
        }
        if let Some(w) = waiter {
            if !m.loads.contains(&w) {
                m.loads.push(w);
                *changes += 1;
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
            self.changes += 1;
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
        self.changes += 1;
    }

    /// The next load whose completion is due at `now`, if any.
    pub fn next_completion(&mut self, now: Cycle) -> Option<SlotId> {
        let &Reverse((t, slot)) = self.completions.peek()?;
        if t > now {
            return None;
        }
        self.completions.pop();
        self.changes += 1;
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
                self.changes += 1;
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
        self.changes += 1;
    }

    /// Park `f` behind our own in-flight request for its line. Returns
    /// false, parking nothing, if no request is in flight: answer now.
    pub fn defer_fetch(&mut self, f: Fetch) -> bool {
        match self.misses.get_mut(&f.line) {
            Some(m) if m.sent => {
                m.fetch = Some(f);
                self.changes += 1;
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
        self.changes += 1;
        m.fetch.take()
    }

    /// Unpark the fetch waiting on `line`'s miss, if any.
    pub fn take_fetch(&mut self, line: LineAddr) -> Option<Fetch> {
        let f = self.misses.get_mut(&line)?.fetch.take();
        self.changes += f.is_some() as u64;
        f
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
        self.changes += !due.is_empty() as u64;
        due
    }

    /// An external invalidation: drop `line` from the L1, returning its
    /// old state, and mark a fill for it as stale.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<LineState> {
        if let Some(m) = self.misses.get_mut(&line) {
            self.changes += !m.invalidated as u64;
            m.invalidated = true;
        }
        self.l1.invalidate(line)
    }

    /// Mark the fills of in-flight requests for lines in `hit` as stale.
    pub fn invalidate_in_flight(&mut self, hit: impl Fn(LineAddr) -> bool) {
        for (&line, m) in self.misses.iter_mut() {
            if m.sent && hit(line) {
                self.changes += !m.invalidated as u64;
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
        self.changes += 1;
        (m.loads, m.excl)
    }

    /// Re-send `line`'s request next cycle (its fill was stale).
    pub fn retry_miss(&mut self, now: Cycle, line: LineAddr) {
        if let Some(m) = self.misses.get_mut(&line) {
            self.in_flight -= m.sent as u32;
            m.sent = false;
            m.invalidated = false;
            m.retry_at = now + 1;
            self.changes += 1;
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
        self.changes += 1;
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
        let mut due = Vec::new();
        fab.deliver_due(Cycle::MAX, &mut due);
        due.into_iter().map(|e| format!("{:?}", e.msg)).collect()
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
    fn next_timer_is_the_earliest_completion_parked_fetch_or_unsent_retry() {
        let (mut p, mut fab) = (port(2), fabric());
        let cfg = CoreConfig::default();
        assert_eq!(p.next_timer(0), Cycle::MAX, "nothing pending");
        p.want(0, L1, false, None);
        p.want(0, L2, false, None);
        p.send_misses(0, &mut fab);
        assert_eq!(
            p.next_timer(0),
            Cycle::MAX,
            "in-flight misses wait on messages"
        );

        // A Nack frees an MSHR and arms the retry.
        p.nack(10, L1);
        let retry = 10 + cfg.nack_retry;
        assert_eq!(p.next_timer(10), retry);
        // A fill answers its parked fetch after the grace period.
        assert!(p.defer_fetch(fetch(L2)));
        p.filled(12, L2);
        let fetch_due = 12 + cfg.l1_latency + 1;
        assert_eq!((p.next_fetch(), p.next_timer(12)), (fetch_due, fetch_due));
        // A hit completes one L1 latency later, before the fetch.
        p.hit(12, L3, 7);
        assert_eq!(p.next_timer(12), 12 + cfg.l1_latency);
        assert_eq!(p.next_completion(12 + cfg.l1_latency), Some(7));
        assert_eq!(p.next_timer(12 + cfg.l1_latency), fetch_due);
        assert_eq!(p.due_fetches(fetch_due), [fetch(L2)]);
        assert_eq!(p.next_timer(fetch_due), retry);

        // While every MSHR is busy the unsent retry cannot fire.
        p.want(fetch_due, L2, false, None);
        p.want(fetch_due, L3, false, None);
        p.send_misses(fetch_due, &mut fab);
        assert_eq!(sent(&mut fab).len(), 4, "L1, L2, then L2 and L3");
        assert_eq!(p.next_timer(fetch_due), Cycle::MAX);
        p.nack(fetch_due + 1, L3);
        assert_eq!(p.next_timer(fetch_due + 1), retry);
    }

    #[test]
    fn repeating_an_interest_changes_nothing() {
        let mut p = port(8);
        p.want(0, L1, false, Some(3));
        let before = p.changes();
        p.want(5, L1, false, Some(3));
        p.want(5, L1, false, None);
        assert_eq!(p.changes(), before, "the same interest again");
        p.want(5, L1, true, None);
        assert_ne!(p.changes(), before, "ownership is new");
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
