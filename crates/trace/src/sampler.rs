//! Interval metrics: periodic snapshots of system occupancy.
//!
//! End-of-run aggregates (`SimReport`) say *what* happened; the interval
//! series says *when*. Every `every` cycles the system records per-core
//! retirement deltas (IPC), the arbiters' pending-W-signature count, the
//! fabric queue depth, and interconnect traffic deltas. `System` steps
//! every cycle, so its samples land exactly on the boundaries. A caller
//! that records late gets one sample at the first opportunity after the
//! boundary, with deltas normalized by the cycles actually elapsed.

use crate::Json;

/// One snapshot of the system at (approximately) an interval boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct IntervalSample {
    /// Cycle at which the snapshot was taken.
    pub cycle: u64,
    /// Instructions retired per core since the previous sample.
    pub retired_delta: Vec<u64>,
    /// Per-core IPC over the elapsed window.
    pub ipc: Vec<f64>,
    /// W signatures currently held by the arbiters (committing chunks).
    pub pending_w: u64,
    /// Commit requests queued at the arbiters (R-sig waits + pre-arb
    /// queue), not yet granted or denied.
    pub arb_queue: u64,
    /// Cores currently in squash back-off (outstanding squashes being
    /// re-executed).
    pub squashing_cores: u64,
    /// Messages in flight in the fabric.
    pub fabric_depth: u64,
    /// Interconnect bytes moved since the previous sample.
    pub traffic_bytes_delta: u64,
    /// Interconnect messages sent since the previous sample.
    pub messages_delta: u64,
    /// Monotonic host nanoseconds (`bulksc_prof::clock::now_ns()`) at
    /// which the sample was recorded. Host-side only — it aligns samples
    /// from concurrent runs on a shared wall clock and never feeds back
    /// into simulated time. Schema v4.
    pub wall_ns: u64,
}

impl IntervalSample {
    /// JSON encoding (one element of the series array).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cycle", self.cycle.into()),
            (
                "retired_delta",
                Json::Arr(self.retired_delta.iter().map(|&r| r.into()).collect()),
            ),
            (
                "ipc",
                Json::Arr(self.ipc.iter().map(|&x| x.into()).collect()),
            ),
            ("pending_w", self.pending_w.into()),
            ("arb_queue", self.arb_queue.into()),
            ("squashing_cores", self.squashing_cores.into()),
            ("fabric_depth", self.fabric_depth.into()),
            ("traffic_bytes_delta", self.traffic_bytes_delta.into()),
            ("messages_delta", self.messages_delta.into()),
            ("wall_ns", self.wall_ns.into()),
        ])
    }
}

/// The instantaneous gauges and cumulative totals handed to
/// [`IntervalSeries::record`] (grouped so the call site stays readable as
/// gauges are added).
#[derive(Clone, Copy, Debug, Default)]
pub struct GaugeSnapshot {
    /// W signatures currently held by the arbiters.
    pub pending_w: u64,
    /// Commit requests queued at the arbiters.
    pub arb_queue: u64,
    /// Cores currently in squash back-off.
    pub squashing_cores: u64,
    /// Messages in flight in the fabric.
    pub fabric_depth: u64,
    /// Cumulative interconnect bytes (the series takes deltas).
    pub traffic_bytes: u64,
    /// Cumulative interconnect messages (the series takes deltas).
    pub messages: u64,
}

/// The accumulating time series. The owner (the simulator's `System`)
/// checks [`IntervalSeries::due`] as time advances and calls
/// [`IntervalSeries::record`] with current totals; the series turns totals
/// into deltas.
#[derive(Clone, Debug)]
pub struct IntervalSeries {
    every: u64,
    next_at: u64,
    last_cycle: u64,
    last_retired: Vec<u64>,
    last_bytes: u64,
    last_messages: u64,
    samples: Vec<IntervalSample>,
}

impl IntervalSeries {
    /// A series sampling every `every` cycles (clamped to ≥ 1).
    pub fn new(every: u64) -> IntervalSeries {
        let every = every.max(1);
        IntervalSeries {
            every,
            next_at: every,
            last_cycle: 0,
            last_retired: Vec::new(),
            last_bytes: 0,
            last_messages: 0,
            samples: Vec::new(),
        }
    }

    /// The configured sampling interval.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Is a sample due at `now`? (True whenever `now` has reached or
    /// passed the next boundary; boundaries skipped by a late caller cost
    /// at most one sample.)
    pub fn due(&self, now: u64) -> bool {
        now >= self.next_at
    }

    /// Re-baseline the series at `now` with the current cumulative totals.
    ///
    /// A series created mid-run would otherwise compute its first sample's
    /// deltas against cycle 0 and zero counters, averaging IPC and traffic
    /// over the entire unsampled prefix. Priming makes the first sample
    /// cover only the window since `now`; the next boundary is the first
    /// multiple of `every` strictly after `now`.
    pub fn prime(&mut self, now: u64, retired: &[u64], g: GaugeSnapshot) {
        self.last_cycle = now;
        self.last_retired = retired.to_vec();
        self.last_bytes = g.traffic_bytes;
        self.last_messages = g.messages;
        self.next_at = (now / self.every + 1) * self.every;
    }

    /// Record a snapshot from *cumulative* totals; deltas are computed
    /// against the previous sample.
    pub fn record(&mut self, now: u64, retired: &[u64], g: GaugeSnapshot) {
        let elapsed = now.saturating_sub(self.last_cycle).max(1);
        if self.last_retired.len() < retired.len() {
            self.last_retired.resize(retired.len(), 0);
        }
        let retired_delta: Vec<u64> = retired
            .iter()
            .zip(self.last_retired.iter())
            .map(|(&cur, &prev)| cur.saturating_sub(prev))
            .collect();
        let ipc: Vec<f64> = retired_delta
            .iter()
            .map(|&d| d as f64 / elapsed as f64)
            .collect();
        self.samples.push(IntervalSample {
            cycle: now,
            retired_delta,
            ipc,
            pending_w: g.pending_w,
            arb_queue: g.arb_queue,
            squashing_cores: g.squashing_cores,
            fabric_depth: g.fabric_depth,
            traffic_bytes_delta: g.traffic_bytes.saturating_sub(self.last_bytes),
            messages_delta: g.messages.saturating_sub(self.last_messages),
            wall_ns: bulksc_prof::clock::now_ns(),
        });
        self.last_cycle = now;
        self.last_retired = retired.to_vec();
        self.last_bytes = g.traffic_bytes;
        self.last_messages = g.messages;
        // Next boundary strictly after `now` (a late record may have
        // passed several boundaries; they collapse into this one sample).
        self.next_at = (now / self.every + 1) * self.every;
    }

    /// The samples taken so far.
    pub fn samples(&self) -> &[IntervalSample] {
        &self.samples
    }

    /// JSON encoding of the whole series.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", "bulksc-samples".into()),
            ("version", crate::SCHEMA_VERSION.into()),
            ("every", self.every.into()),
            (
                "samples",
                Json::Arr(self.samples.iter().map(|s| s.to_json()).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_and_boundaries() {
        let mut s = IntervalSeries::new(100);
        assert!(!s.due(99));
        assert!(s.due(100));
        s.record(
            100,
            &[50, 10],
            GaugeSnapshot {
                pending_w: 2,
                arb_queue: 1,
                squashing_cores: 0,
                fabric_depth: 3,
                traffic_bytes: 1000,
                messages: 7,
            },
        );
        assert!(!s.due(100));
        assert!(s.due(200));
        s.record(
            205,
            &[150, 10],
            GaugeSnapshot {
                pending_w: 0,
                arb_queue: 0,
                squashing_cores: 2,
                fabric_depth: 0,
                traffic_bytes: 1600,
                messages: 9,
            },
        );
        let samples = s.samples();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].retired_delta, vec![50, 10]);
        assert_eq!(samples[1].retired_delta, vec![100, 0]);
        assert!((samples[1].ipc[0] - 100.0 / 105.0).abs() < 1e-12);
        assert_eq!(samples[1].traffic_bytes_delta, 600);
        assert_eq!(samples[1].messages_delta, 2);
        assert_eq!(samples[0].arb_queue, 1);
        assert_eq!(samples[1].squashing_cores, 2);
        // Boundary realigned after the late sample.
        assert!(!s.due(299));
        assert!(s.due(300));
    }

    #[test]
    fn fast_forward_collapses_boundaries() {
        let mut s = IntervalSeries::new(10);
        // Time jumps from 0 to 75: one sample, next boundary at 80.
        assert!(s.due(75));
        s.record(75, &[75], GaugeSnapshot::default());
        assert_eq!(s.samples().len(), 1);
        assert!(!s.due(79));
        assert!(s.due(80));
    }

    #[test]
    fn priming_rebases_first_sample() {
        let mut s = IntervalSeries::new(100);
        s.prime(
            950,
            &[9000],
            GaugeSnapshot {
                traffic_bytes: 5000,
                messages: 50,
                ..Default::default()
            },
        );
        // Next boundary is strictly after the priming point.
        assert!(!s.due(999));
        assert!(s.due(1000));
        s.record(
            1000,
            &[9010],
            GaugeSnapshot {
                traffic_bytes: 5100,
                messages: 52,
                ..Default::default()
            },
        );
        let sample = &s.samples()[0];
        assert_eq!(sample.retired_delta, vec![10]);
        assert!((sample.ipc[0] - 10.0 / 50.0).abs() < 1e-12);
        assert_eq!(sample.traffic_bytes_delta, 100);
        assert_eq!(sample.messages_delta, 2);
    }

    #[test]
    fn json_shape() {
        let mut s = IntervalSeries::new(10);
        s.record(
            10,
            &[5],
            GaugeSnapshot {
                pending_w: 1,
                arb_queue: 4,
                squashing_cores: 2,
                fabric_depth: 2,
                traffic_bytes: 64,
                messages: 1,
            },
        );
        let j = s.to_json().to_string();
        assert!(crate::json::is_valid(&j));
        assert!(j.contains("\"every\":10"), "interval present in header");
        assert!(j.contains(&format!("\"version\":{}", crate::SCHEMA_VERSION)));
        assert!(j.contains("\"pending_w\":1"));
        assert!(j.contains("\"wall_ns\":"), "v4 wall-clock field present");
        assert!(j.contains("\"arb_queue\":4"));
        assert!(j.contains("\"squashing_cores\":2"));
    }
}
