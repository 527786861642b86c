//! Check the checker: `check_model` against a brute-force operational
//! reference on every trace of a large seeded sample of tiny programs.
//!
//! The reference knows nothing of edges, windows or witnesses. It runs
//! the threads as machines and searches every schedule:
//!
//! * **SC** interleaves whole operations. A load must see memory; a store
//!   or RMW writes memory at once.
//! * **x86-TSO** gives each core a FIFO store buffer. A load forwards from
//!   its own newest buffered store to the address, else reads memory; an
//!   RMW needs an empty buffer; a drain writes the oldest buffered store.
//!
//! In both, a write may reach memory only as the next write of its
//! address in the trace's stream order, which is the oracle's coherence
//! order. The execution is consistent exactly when some schedule runs
//! every operation and drains every buffer. Store values are unique, so
//! the oracle never meets an ambiguous read and its verdict must equal
//! the reference's on every trace.

use std::collections::HashSet;

use bulksc_check::{check_model, Access, AccessKind, MemoryModel};
use bulksc_stats::SplitMix64;

const ADDRS: usize = 2;
const NEVER_WRITTEN: u64 = 99;

/// One generated trace: each thread's accesses in program order, and the
/// stream order as (thread, po) pairs.
struct Case {
    threads: Vec<Vec<AccessKind>>,
    addr: Vec<Vec<usize>>,
    stream: Vec<(usize, usize)>,
}

fn written(kind: AccessKind) -> Option<u64> {
    match kind {
        AccessKind::Store { value } | AccessKind::Rmw { new: value, .. } => Some(value),
        AccessKind::Load { .. } => None,
    }
}

fn gen_case(rng: &mut SplitMix64, drain_late: bool) -> Case {
    let n_threads = 2 + rng.gen_index(2);
    let mut next_value = 1;
    let mut threads = Vec::new();
    let mut addr = Vec::new();
    for _ in 0..n_threads {
        let ops = 1 + rng.gen_index(3);
        let mut kinds = Vec::new();
        for _ in 0..ops {
            let value = next_value;
            next_value += 1;
            kinds.push(match rng.gen_index(3) {
                0 => AccessKind::Load { value: 0 },
                1 => AccessKind::Store { value },
                _ => AccessKind::Rmw { old: 0, new: value },
            });
        }
        addr.push((0..ops).map(|_| rng.gen_index(ADDRS)).collect::<Vec<_>>());
        threads.push(kinds);
    }
    // Each read value: 0, a value written to its address, or one never
    // written anywhere.
    for t in 0..n_threads {
        for i in 0..threads[t].len() {
            let mut choices = vec![0, NEVER_WRITTEN];
            for (u, kinds) in threads.iter().enumerate() {
                for (j, &k) in kinds.iter().enumerate() {
                    if addr[u][j] == addr[t][i] {
                        choices.extend(written(k));
                    }
                }
            }
            let pick = choices[rng.gen_index(choices.len())];
            match &mut threads[t][i] {
                AccessKind::Load { value } => *value = pick,
                AccessKind::Rmw { old, .. } => *old = pick,
                AccessKind::Store { .. } => {}
            }
        }
    }
    // A random interleaving that keeps program order.
    let mut pc = vec![0; n_threads];
    let mut stream = Vec::new();
    loop {
        let ready: Vec<usize> = (0..n_threads)
            .filter(|&t| pc[t] < threads[t].len())
            .collect();
        if ready.is_empty() {
            break;
        }
        let t = ready[rng.gen_index(ready.len())];
        stream.push((t, pc[t]));
        pc[t] += 1;
    }
    // TSO: a store drains after some of its core's later loads, though
    // never past the core's next write (the buffer is FIFO and an RMW
    // drains it first).
    if drain_late {
        let stores: Vec<usize> = (0..stream.len())
            .filter(|&s| {
                let (t, i) = stream[s];
                matches!(threads[t][i], AccessKind::Store { .. })
            })
            .collect();
        if !stores.is_empty() {
            let s = stores[rng.gen_index(stores.len())];
            let t = stream[s].0;
            let limit = (s + 1..stream.len())
                .find(|&j| stream[j].0 == t && written(threads[t][stream[j].1]).is_some())
                .unwrap_or(stream.len());
            if limit > s + 1 {
                let passed = 1 + rng.gen_index(limit - s - 1);
                let moved = stream.remove(s);
                stream.insert(s + passed, moved);
            }
        }
    }
    Case {
        threads,
        addr,
        stream,
    }
}

fn accesses(case: &Case) -> Vec<Access> {
    case.stream
        .iter()
        .enumerate()
        .map(|(idx, &(t, i))| Access {
            idx,
            core: t as u32,
            seq: 0,
            po: i as u64,
            addr: 0x100 + 8 * case.addr[t][i] as u64,
            kind: case.threads[t][i],
            retired_at: idx as u64,
            emitted_at: idx as u64,
        })
        .collect()
}

/// The operational search. A state is each thread's next operation and
/// how many of its writes reached memory; that fixes memory and every
/// address's coherence cursor, so it is all `seen` must remember.
struct Reference<'c> {
    case: &'c Case,
    tso: bool,
    /// Coherence rank of thread t's operation i among its address's writes.
    rank: Vec<Vec<usize>>,
    seen: HashSet<(Vec<usize>, Vec<usize>)>,
}

#[derive(Clone)]
struct State {
    pc: Vec<usize>,
    drained: Vec<usize>,
    cursor: [usize; ADDRS],
    mem: [u64; ADDRS],
}

impl Reference<'_> {
    fn new(case: &Case, tso: bool) -> Reference<'_> {
        let mut rank: Vec<Vec<usize>> = case.threads.iter().map(|k| vec![0; k.len()]).collect();
        let mut count = [0; ADDRS];
        for &(t, i) in &case.stream {
            if written(case.threads[t][i]).is_some() {
                rank[t][i] = count[case.addr[t][i]];
                count[case.addr[t][i]] += 1;
            }
        }
        Reference {
            case,
            tso,
            rank,
            seen: HashSet::new(),
        }
    }

    /// Thread t's writes in program order, as operation indices.
    fn writes(&self, t: usize) -> impl Iterator<Item = usize> + '_ {
        let kinds = &self.case.threads[t];
        (0..kinds.len()).filter(|&i| written(kinds[i]).is_some())
    }

    /// Perform thread t's operation i's write, if it is next in coherence.
    fn perform(&self, s: &State, t: usize, i: usize) -> Option<State> {
        let a = self.case.addr[t][i];
        (s.cursor[a] == self.rank[t][i]).then(|| {
            let mut next = s.clone();
            next.cursor[a] += 1;
            next.mem[a] = written(self.case.threads[t][i]).expect("a write");
            next.drained[t] += 1;
            next
        })
    }

    fn consistent(&mut self, s: State) -> bool {
        if !self.seen.insert((s.pc.clone(), s.drained.clone())) {
            return false;
        }
        let threads = &self.case.threads;
        if (0..threads.len())
            .all(|t| s.pc[t] == threads[t].len() && s.drained[t] == self.writes(t).count())
        {
            return true;
        }
        for (t, ops) in threads.iter().enumerate() {
            // Thread t's buffered writes: issued but not yet in memory.
            let issued = self.writes(t).filter(|&i| i < s.pc[t]).count();
            let buffered: Vec<usize> = self
                .writes(t)
                .skip(s.drained[t])
                .take(issued - s.drained[t])
                .collect();
            if let Some(&oldest) = buffered.first() {
                if let Some(next) = self.perform(&s, t, oldest) {
                    if self.consistent(next) {
                        return true;
                    }
                }
            }
            let i = s.pc[t];
            let Some(&kind) = ops.get(i) else {
                continue;
            };
            let a = self.case.addr[t][i];
            let mut next = match kind {
                AccessKind::Load { value } => {
                    let forwarded = buffered.iter().rev().find(|&&j| self.case.addr[t][j] == a);
                    let seen = forwarded.map_or(s.mem[a], |&j| written(ops[j]).expect("a write"));
                    if seen != value {
                        continue;
                    }
                    s.clone()
                }
                AccessKind::Store { .. } if self.tso => s.clone(),
                AccessKind::Store { .. } => match self.perform(&s, t, i) {
                    Some(next) => next,
                    None => continue,
                },
                AccessKind::Rmw { old, .. } => {
                    if !buffered.is_empty() || s.mem[a] != old {
                        continue;
                    }
                    match self.perform(&s, t, i) {
                        Some(next) => next,
                        None => continue,
                    }
                }
            };
            next.pc[t] += 1;
            if self.consistent(next) {
                return true;
            }
        }
        false
    }
}

fn reference(case: &Case, model: MemoryModel) -> bool {
    let n = case.threads.len();
    Reference::new(case, model == MemoryModel::Tso).consistent(State {
        pc: vec![0; n],
        drained: vec![0; n],
        cursor: [0; ADDRS],
        mem: [0; ADDRS],
    })
}

fn sweep(model: MemoryModel, seed: u64) {
    const CASES: usize = 20_000;
    let mut rng = SplitMix64::new(seed);
    let (mut consistent, mut relaxed) = (0, 0);
    for k in 0..CASES {
        let case = gen_case(&mut rng, model == MemoryModel::Tso && k % 2 == 1);
        let trace = accesses(&case);
        let expected = reference(&case, model);
        let verdict = check_model(&trace, &[], model);
        let says = |ok| if ok { "consistent" } else { "inconsistent" };
        assert_eq!(
            verdict.is_ok(),
            expected,
            "{} case {k}: the oracle says {}, the reference {}\n{trace:#?}\n{}",
            model.name(),
            says(verdict.is_ok()),
            says(expected),
            verdict.err().map(|e| e.to_string()).unwrap_or_default()
        );
        consistent += usize::from(expected);
        relaxed += usize::from(expected && !reference(&case, MemoryModel::Sc));
    }
    // Both verdicts must be common, or the sample shows nothing; the TSO
    // sample must hold executions only the store buffer explains.
    assert!(
        (CASES / 20..CASES / 2).contains(&consistent),
        "{consistent} consistent traces of {CASES}"
    );
    assert_eq!(
        relaxed > 0,
        model == MemoryModel::Tso,
        "{relaxed} relaxed traces"
    );
}

#[test]
fn sc_verdicts_match_the_operational_reference() {
    sweep(MemoryModel::Sc, 0x5c_0ac1e);
}

#[test]
fn tso_verdicts_match_the_operational_reference() {
    sweep(MemoryModel::Tso, 0x750_0ac1e);
}
