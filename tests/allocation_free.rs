//! The per-tick and per-cycle hot paths allocate nothing once warm.
//!
//! A counting global allocator tallies this thread's allocations, so the
//! tests can bracket single calls: a warm window's issue scan fills the
//! caller's buffer, and a warm fabric's delivery drains into the caller's
//! buffer, without touching the heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bulksc_cpu::{InstrWindow, SlotId};
use bulksc_net::{Envelope, Fabric, FabricConfig, Message, NodeId};
use bulksc_sig::{Addr, LineAddr};
use bulksc_stats::SplitMix64;
use bulksc_workloads::Instr;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's allocations.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn the_counter_sees_an_allocation() {
    let (v, n) = allocations(|| vec![1u8; 16]);
    assert_eq!((v.len(), n), (16, 1));
}

#[test]
fn a_warm_window_issues_without_allocating() {
    let mut rng = SplitMix64::new(7);
    let mut window = InstrWindow::new(64);
    let mut issued: Vec<(SlotId, Instr)> = Vec::with_capacity(64);
    let (mut calls, mut total, mut allocated) = (0u64, 0usize, 0u64);
    for _ in 0..5_000 {
        // Refill and retire outside the measured call: the window's own
        // deque may grow while it warms up.
        while window.occupancy() < 48 {
            let addr = Addr(rng.gen_range(0..64) * 8);
            let instr = match rng.gen_range(0..4) {
                0 => Instr::Compute(rng.gen_range(1..4) as u32),
                1 => Instr::Store { addr, value: 1 },
                _ => Instr::Load {
                    addr,
                    consume: false,
                },
            };
            window.push(instr, 0);
        }
        let ((), n) = allocations(|| window.issue(32, usize::MAX, &mut issued));
        calls += 1;
        total += issued.len();
        allocated += n;
        issued.clear();
        for _ in 0..rng.gen_range(1..4) {
            window.pop_oldest();
        }
    }
    assert!(total > 1_000, "the scan issued only {total} operations");
    assert_eq!(
        allocated, 0,
        "{allocated} allocations over {calls} issue scans"
    );
}

#[test]
fn a_warm_fabric_delivers_without_allocating() {
    let mut rng = SplitMix64::new(11);
    let mut fabric = Fabric::new(FabricConfig { hop_latency: 3 });
    let mut due: Vec<Envelope> = Vec::with_capacity(64);
    let (mut delivered, mut allocated) = (0usize, 0u64);
    // Warm the in-flight heap to its working size first.
    for i in 0..64 {
        fabric.send(0, NodeId::Core(i % 4), NodeId::Dir(0), read(i as u64));
    }
    for now in 0..5_000u64 {
        let ((), n) = allocations(|| fabric.deliver_due(now, &mut due));
        allocated += n;
        delivered += due.len();
        // Answer each delivery, keeping the heap's size steady.
        for env in due.drain(..) {
            let extra = rng.gen_range(0..8);
            fabric.send_delayed(now, extra, env.dst, env.src, read(now));
        }
    }
    assert!(delivered > 10_000, "only {delivered} deliveries");
    assert_eq!(allocated, 0, "{allocated} allocations over 5,000 cycles");
}

fn read(line: u64) -> Message {
    Message::ReadShared {
        line: LineAddr(line),
    }
}
