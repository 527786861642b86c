//! Core pipeline parameters (Table 2 of the paper).

use bulksc_net::Cycle;

/// Pipeline and L1 parameters of one core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instruction-window (ROB) capacity, in dynamic instructions.
    pub window_size: u32,
    /// Issue-window (scheduler) depth: memory operations may only enter
    /// the memory system from the oldest this-many dynamic instructions
    /// (Table 2: I-window 80, ROB 176). This bounds how early prefetches
    /// launch, which is what exposes store stalls under SC.
    pub issue_window: u32,
    /// Instructions fetched per cycle.
    pub fetch_width: u32,
    /// Instructions retired per cycle.
    pub retire_width: u32,
    /// L1 hit latency (cycles, round trip).
    pub l1_latency: Cycle,
    /// Maximum outstanding L1 misses (MSHRs).
    pub mshrs: u32,
    /// Store-buffer entries (RC, TSO and SC++).
    pub store_buffer: u32,
    /// Cycles to wait before retrying a Nacked request.
    pub nack_retry: Cycle,
    /// SC only: how many memory operations (in program order) the
    /// hardware prefetcher may run ahead of the oldest unperformed one.
    /// Large values make prefetching cover the whole window; small values
    /// model a conservative SC implementation and are used by the
    /// ablation benches.
    pub sc_prefetch_depth: u32,
}

impl Default for CoreConfig {
    fn default() -> Self {
        // Table 2: fetch/issue/comm 6/4/5, ROB 176, L1 round trip 2 cycles,
        // 8 MSHRs, 56-entry store queue.
        CoreConfig {
            window_size: 176,
            issue_window: 80,
            fetch_width: 6,
            retire_width: 5,
            l1_latency: 2,
            mshrs: 8,
            store_buffer: 56,
            nack_retry: 20,
            sc_prefetch_depth: 48,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let c = CoreConfig::default();
        assert_eq!(c.window_size, 176);
        assert_eq!(c.issue_window, 80);
        assert_eq!(c.fetch_width, 6);
        assert_eq!(c.retire_width, 5);
        assert_eq!(c.l1_latency, 2);
        assert_eq!(c.mshrs, 8);
        assert_eq!(c.store_buffer, 56);
    }
}
