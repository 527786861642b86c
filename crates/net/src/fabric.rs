//! The interconnect fabric: deterministic latency-modelled delivery.
//!
//! Messages are enqueued with [`Fabric::send`] (fixed per-hop latency) or
//! [`Fabric::send_delayed`] (extra latency for, e.g., the memory access a
//! directory performs before responding). Delivery is strictly ordered by
//! (delivery cycle, send order), so simulations are bit-reproducible.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bulksc_metrics as metrics;
use bulksc_trace::{Event, TraceHandle};

use crate::msg::{Message, NodeId};
use crate::traffic::TrafficStats;
use crate::Cycle;

/// Fabric timing parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FabricConfig {
    /// Cycles from send to delivery for every message (unloaded network,
    /// as in Table 2 of the paper).
    pub hop_latency: Cycle,
}

impl Default for FabricConfig {
    fn default() -> Self {
        // One hop of the on-chip network. The L2 round trip of 13 cycles in
        // Table 2 ≈ 2 hops + directory occupancy.
        FabricConfig { hop_latency: 5 }
    }
}

/// A message in flight or delivered: source, destination, payload.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// The payload.
    pub msg: Message,
}

#[derive(Debug)]
struct InFlight {
    at: Cycle,
    seq: u64,
    env: Envelope,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The interconnection network of Figure 5.
///
/// # Example
///
/// ```
/// use bulksc_net::{Envelope, Fabric, FabricConfig, Message, NodeId};
/// use bulksc_sig::LineAddr;
///
/// let mut fab = Fabric::new(FabricConfig { hop_latency: 3 });
/// fab.send(0, NodeId::Core(0), NodeId::Dir(0), Message::ReadShared { line: LineAddr(4) });
/// assert!(fab.deliver_due(2).is_empty());
/// let due = fab.deliver_due(3);
/// assert_eq!(due.len(), 1);
/// assert_eq!(due[0].dst, NodeId::Dir(0));
/// ```
#[derive(Debug)]
pub struct Fabric {
    cfg: FabricConfig,
    queue: BinaryHeap<Reverse<InFlight>>,
    seq: u64,
    traffic: TrafficStats,
    trace: TraceHandle,
}

impl Fabric {
    /// An empty fabric.
    pub fn new(cfg: FabricConfig) -> Self {
        Fabric {
            cfg,
            queue: BinaryHeap::new(),
            seq: 0,
            traffic: TrafficStats::new(),
            trace: TraceHandle::off(),
        }
    }

    /// Route subsequent sends' `net_send` events to `trace`'s sinks.
    pub fn set_tracer(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// The configured per-hop latency.
    pub fn hop_latency(&self) -> Cycle {
        self.cfg.hop_latency
    }

    /// Send `msg` from `src` to `dst` at time `now`; it is delivered after
    /// the hop latency. Traffic is accounted at send time.
    pub fn send(&mut self, now: Cycle, src: NodeId, dst: NodeId, msg: Message) {
        self.send_delayed(now, 0, src, dst, msg);
    }

    /// Send with `extra` cycles of latency on top of the hop latency
    /// (models serialized resource occupancy at the sender, e.g. the memory
    /// access behind a directory response).
    pub fn send_delayed(
        &mut self,
        now: Cycle,
        extra: Cycle,
        src: NodeId,
        dst: NodeId,
        msg: Message,
    ) {
        let _prof = bulksc_prof::scope(bulksc_prof::Phase::Fabric);
        metrics::inc(metrics::Counter::FabricMessages);
        metrics::add(metrics::Counter::FabricBytes, msg.wire_bytes());
        metrics::gauge_peak(metrics::Gauge::FabricDepthPeak, self.queue.len() as u64 + 1);
        msg.account(&mut self.traffic);
        self.trace.emit(now, || Event::NetSend {
            src: src.into(),
            dst: dst.into(),
            kind: msg.kind(),
            bytes: msg.wire_bytes(),
        });
        let at = now + self.cfg.hop_latency + extra;
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(InFlight {
            at,
            seq,
            env: Envelope { src, dst, msg },
        }));
    }

    /// Pop every message whose delivery time is `<= now`, in deterministic
    /// (time, send-order) order.
    pub fn deliver_due(&mut self, now: Cycle) -> Vec<Envelope> {
        let _prof = bulksc_prof::scope(bulksc_prof::Phase::Fabric);
        let mut out = Vec::new();
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.at > now {
                break;
            }
            out.push(self.queue.pop().expect("peeked").0.env);
        }
        out
    }

    /// The delivery time of the earliest in-flight message, if any (for
    /// diagnostics such as `System::debug_state`).
    pub fn next_delivery(&self) -> Option<Cycle> {
        self.queue.peek().map(|Reverse(m)| m.at)
    }

    /// True if no messages are in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Number of messages currently in flight (the interval sampler's
    /// queue-depth metric).
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Accumulated traffic statistics.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficClass;
    use bulksc_sig::LineAddr;

    fn read(line: u64) -> Message {
        Message::ReadShared {
            line: LineAddr(line),
        }
    }

    #[test]
    fn delivery_respects_latency() {
        let mut f = Fabric::new(FabricConfig { hop_latency: 10 });
        f.send(5, NodeId::Core(0), NodeId::Dir(0), read(1));
        assert!(f.deliver_due(14).is_empty());
        assert_eq!(f.deliver_due(15).len(), 1);
        assert!(f.is_idle());
    }

    #[test]
    fn extra_delay_is_added() {
        let mut f = Fabric::new(FabricConfig { hop_latency: 10 });
        f.send_delayed(0, 100, NodeId::Dir(0), NodeId::Core(0), read(1));
        assert_eq!(f.next_delivery(), Some(110));
    }

    #[test]
    fn same_cycle_messages_deliver_in_send_order() {
        let mut f = Fabric::new(FabricConfig { hop_latency: 1 });
        for i in 0..5 {
            f.send(0, NodeId::Core(i), NodeId::Dir(0), read(i as u64));
        }
        let due = f.deliver_due(1);
        let srcs: Vec<NodeId> = due.iter().map(|e| e.src).collect();
        assert_eq!(
            srcs,
            (0..5).map(NodeId::Core).collect::<Vec<_>>(),
            "FIFO order among equal timestamps"
        );
    }

    #[test]
    fn earlier_messages_deliver_first() {
        let mut f = Fabric::new(FabricConfig { hop_latency: 1 });
        f.send_delayed(0, 5, NodeId::Core(0), NodeId::Dir(0), read(0));
        f.send(0, NodeId::Core(1), NodeId::Dir(0), read(1));
        let due = f.deliver_due(100);
        assert_eq!(due[0].src, NodeId::Core(1));
        assert_eq!(due[1].src, NodeId::Core(0));
    }

    #[test]
    fn traffic_accounted_on_send() {
        let mut f = Fabric::new(FabricConfig::default());
        f.send(0, NodeId::Core(0), NodeId::Dir(0), read(1));
        assert_eq!(f.traffic().bytes(TrafficClass::ReadWrite), 8);
        assert_eq!(f.traffic().messages(), 1);
    }

    #[test]
    fn sends_are_traced() {
        let ring = bulksc_trace::RingTracer::shared(8);
        let mut trace = bulksc_trace::TraceHandle::off();
        trace.attach(ring.clone());
        let mut f = Fabric::new(FabricConfig::default());
        f.set_tracer(trace);
        f.send(7, NodeId::Core(2), NodeId::Dir(0), read(1));
        assert_eq!(ring.borrow().seen(), 1);
        let dump = ring.borrow().dump();
        assert!(
            dump.contains("net_send") && dump.contains("ReadShared"),
            "{dump}"
        );
        assert_eq!(f.in_flight(), 1);
    }

    #[test]
    fn next_delivery_tracks_head() {
        let mut f = Fabric::new(FabricConfig { hop_latency: 2 });
        assert_eq!(f.next_delivery(), None);
        f.send(3, NodeId::Core(0), NodeId::Dir(0), read(1));
        assert_eq!(f.next_delivery(), Some(5));
    }
}
