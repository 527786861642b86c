//! Deterministic host-side worker pool for experiment sweeps.
//!
//! Every experiment driver in this workspace runs a matrix of *independent*
//! simulations (apps × configs, seeds × configs, perf scenarios, trace
//! files). This module parallelizes those sweeps across host threads
//! without giving up the repo's byte-determinism guarantees:
//!
//! * Jobs are `(index, closure)` pairs. [`run_all`] hands them to a fixed
//!   number of scoped workers, but collects results into an *index-ordered*
//!   vector — callers assemble tables, artifacts, and summaries in exactly
//!   the order a serial loop would have produced, so `--jobs 1` and
//!   `--jobs 8` emit byte-identical output.
//! * Each job must be self-contained: it builds its own `System`,
//!   `TraceHandle`, and (if profiling) per-thread `bulksc-prof` state
//!   inside the closure. `TraceHandle` is deliberately `!Send`
//!   (`Rc`-shared sinks), which the compiler enforces — a job that tried
//!   to smuggle one across threads will not build.
//! * Worker panics are caught and re-raised *on the caller* naming the
//!   failed job, and a failing job makes the pool stop pulling new work
//!   (fail-fast) so a broken sweep aborts quickly instead of burning the
//!   rest of the matrix.
//!
//! The pool is hermetic `std`: `thread::scope` + a mutexed deque. Scoped
//! threads let jobs borrow the caller's data (scenario tables, sweep
//! entries) without `'static` gymnastics.
//!
//! Width selection: `--jobs N` on a binary's command line, else the
//! `BULKSC_JOBS` environment variable, else
//! [`std::thread::available_parallelism`]. Simulated results never depend
//! on the width — only wall-clock time does.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use bulksc_metrics::{self as metrics, Hist, MetricsSnapshot};

/// One unit of work: a display name (used in panic messages) plus the
/// closure that performs it.
pub struct Job<'a, T> {
    name: String,
    run: Box<dyn FnOnce() -> T + Send + 'a>,
}

impl<'a, T> Job<'a, T> {
    /// A job named `name` running `run`. The name appears verbatim in the
    /// panic message if the job fails, so make it identify the scenario
    /// ("fig9 ocean", "BSCdypvt seed 3", ...).
    pub fn new(name: impl Into<String>, run: impl FnOnce() -> T + Send + 'a) -> Self {
        Job {
            name: name.into(),
            run: Box::new(run),
        }
    }
}

/// What one executed job left behind.
enum Outcome<T> {
    Done(T),
    /// The job panicked; holds the job name and the rendered payload.
    Panicked(String, String),
    /// Never ran: the pool aborted first (fail-fast after another job's
    /// panic).
    Skipped,
}

fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run every job and return their results in *job order*, regardless of
/// completion order, using `width` worker threads (clamped to at least 1
/// and at most the job count).
///
/// Results are deterministic in the job closures: if each closure is a
/// pure function of its inputs, the returned vector — and anything
/// assembled from it in order — is identical at any width.
///
/// # Panics
///
/// If a job panics, `run_all` panics on the calling thread with a message
/// naming that job (`job 'NAME' panicked: ...`). When several jobs fail
/// concurrently, the lowest-indexed recorded failure is reported. Jobs
/// that had not started when the first failure was observed are skipped.
pub fn run_all<'a, T: Send>(width: usize, jobs: Vec<Job<'a, T>>) -> Vec<T> {
    let n = jobs.len();
    let width = width.max(1).min(n.max(1));
    // Live progress, off unless a `--metrics` sweep (or a test) turned it
    // on before calling in: the process-global atomics a heartbeat thread
    // reads mid-sweep, plus each job's wall time in the metrics
    // accumulator. Host progress only; never simulated results.
    let live = metrics::live::is_active();
    if live {
        metrics::live::add_total(n as u64);
    }
    let queue: Mutex<VecDeque<(usize, Job<'a, T>)>> =
        Mutex::new(jobs.into_iter().enumerate().collect());
    let slots: Mutex<Vec<Outcome<T>>> = Mutex::new((0..n).map(|_| Outcome::Skipped).collect());
    let failed = AtomicBool::new(false);

    let worker = || loop {
        if failed.load(Ordering::SeqCst) {
            break;
        }
        let popped = queue
            .lock()
            .expect("jobs run outside the queue lock")
            .pop_front();
        let Some((idx, job)) = popped else {
            break;
        };
        if live {
            metrics::live::job_started();
        }
        let started_ns = bulksc_prof::clock::now_ns();
        let name = job.name;
        let run = job.run;
        let outcome = match catch_unwind(AssertUnwindSafe(run)) {
            Ok(value) => {
                if live {
                    let wall = bulksc_prof::clock::now_ns().saturating_sub(started_ns);
                    let mut job = MetricsSnapshot::default();
                    job.hist_mut(Hist::JobWallNs).record(wall);
                    metrics::publish(job);
                    metrics::live::job_finished();
                }
                Outcome::Done(value)
            }
            Err(payload) => {
                if live {
                    metrics::live::job_panicked();
                }
                failed.store(true, Ordering::SeqCst);
                Outcome::Panicked(name, payload_text(payload.as_ref()))
            }
        };
        slots.lock().expect("jobs run outside the slots lock")[idx] = outcome;
    };

    if width == 1 {
        // Serial fast path: same caught-panic semantics, no thread spawn.
        worker();
    } else {
        std::thread::scope(|s| {
            for _ in 0..width {
                s.spawn(worker);
            }
        });
    }

    let slots = slots.into_inner().unwrap();
    // Report the lowest-indexed failure (deterministic at width 1, and the
    // canonical choice when several jobs fail concurrently).
    for slot in &slots {
        if let Outcome::Panicked(name, msg) = slot {
            panic!("job '{name}' panicked: {msg}");
        }
    }
    slots
        .into_iter()
        .map(|slot| match slot {
            Outcome::Done(v) => v,
            // Unreachable: no recorded failure means every job was pulled
            // from the queue and completed.
            _ => unreachable!("job skipped without a recorded failure"),
        })
        .collect()
}

/// The default pool width: `BULKSC_JOBS` if set to a positive integer,
/// else the host's available parallelism, else 1.
pub fn default_width() -> usize {
    if let Ok(v) = std::env::var("BULKSC_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
        eprintln!("warning: ignoring invalid BULKSC_JOBS={v:?} (want a positive integer)");
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parse a `--jobs N` / `--jobs=N` flag out of an argument list.
/// `Ok(None)` means the flag was absent; `Err` carries a usage message.
pub fn parse_jobs_flag<I: IntoIterator<Item = String>>(args: I) -> Result<Option<usize>, String> {
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let value = if arg == "--jobs" {
            it.next().ok_or("--jobs needs a value")?
        } else if let Some(v) = arg.strip_prefix("--jobs=") {
            v.to_string()
        } else {
            continue;
        };
        return match value.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(format!("--jobs wants a positive integer, got {value:?}")),
        };
    }
    Ok(None)
}

/// Pool width for a binary: the `--jobs` flag from the process arguments,
/// else [`default_width`]. Exits with status 2 on a malformed flag.
pub fn jobs_from_cli() -> usize {
    match parse_jobs_flag(std::env::args().skip(1)) {
        Ok(Some(n)) => n,
        Ok(None) => default_width(),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn results_come_back_in_job_order_at_any_width() {
        for width in [1, 2, 3, 8, 64] {
            let jobs: Vec<Job<usize>> = (0..17)
                .map(|i| {
                    Job::new(format!("square {i}"), move || {
                        // Stagger completion so later jobs can finish first.
                        if i % 3 == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                        i * i
                    })
                })
                .collect();
            let got = run_all(width, jobs);
            let want: Vec<usize> = (0..17).map(|i| i * i).collect();
            assert_eq!(got, want, "width {width}");
        }
    }

    #[test]
    fn empty_job_list_is_fine() {
        let got: Vec<u32> = run_all(4, Vec::new());
        assert!(got.is_empty());
    }

    #[test]
    fn jobs_can_borrow_caller_data() {
        let inputs = [10u64, 20, 30];
        let jobs: Vec<Job<u64>> = inputs
            .iter()
            .map(|v| Job::new("borrow", move || v + 1))
            .collect();
        assert_eq!(run_all(2, jobs), vec![11, 21, 31]);
    }

    #[test]
    #[should_panic(expected = "job 'fig9 ocean' panicked: boom")]
    fn panic_names_the_failed_job() {
        let jobs = vec![
            Job::new("fig9 barnes", || 1),
            Job::new("fig9 ocean", || -> i32 { panic!("boom") }),
        ];
        let _ = run_all(2, jobs);
    }

    #[test]
    fn failure_aborts_the_sweep_before_remaining_jobs_run() {
        // Serial width: job 0 panics, so jobs 1.. must never start.
        let started = AtomicUsize::new(0);
        let jobs: Vec<Job<()>> = (0..10)
            .map(|i| {
                let started = &started;
                Job::new(format!("case {i}"), move || {
                    started.fetch_add(1, Ordering::SeqCst);
                    if i == 0 {
                        panic!("first job fails");
                    }
                })
            })
            .collect();
        let err = catch_unwind(AssertUnwindSafe(|| run_all(1, jobs))).unwrap_err();
        let msg = payload_text(err.as_ref());
        assert!(msg.contains("case 0"), "{msg}");
        assert_eq!(started.load(Ordering::SeqCst), 1, "fail-fast");
    }

    #[test]
    fn width_is_clamped() {
        // Zero width still runs everything (clamped to 1).
        let jobs: Vec<Job<u8>> = (0..3).map(|i| Job::new("j", move || i)).collect();
        assert_eq!(run_all(0, jobs), vec![0, 1, 2]);
    }

    #[test]
    fn jobs_flag_parses_both_spellings() {
        assert_eq!(parse_jobs_flag(args(&["--jobs", "4"])), Ok(Some(4)));
        assert_eq!(parse_jobs_flag(args(&["--jobs=8"])), Ok(Some(8)));
        assert_eq!(parse_jobs_flag(args(&["fast", "--json"])), Ok(None));
        assert_eq!(
            parse_jobs_flag(args(&["--json", "--jobs", "2", "fast"])),
            Ok(Some(2))
        );
    }

    #[test]
    fn jobs_flag_rejects_garbage() {
        assert!(parse_jobs_flag(args(&["--jobs"])).is_err());
        assert!(parse_jobs_flag(args(&["--jobs", "zero"])).is_err());
        assert!(parse_jobs_flag(args(&["--jobs", "0"])).is_err());
        assert!(parse_jobs_flag(args(&["--jobs=-1"])).is_err());
    }
}
