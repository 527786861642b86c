//! Run a child process to completion and measure it from outside: wall
//! time and the child's own peak resident set.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::Instant;

/// A finished child.
pub struct Finished {
    pub stdout: String,
    /// Exit code; `None` if a signal ended it.
    pub code: Option<i32>,
    pub wall: f64,
    /// The child's peak resident set in MiB (0 where the platform cannot
    /// tell).
    pub rss_mib: f64,
}

/// Run `cmd` with stdout captured and stderr inherited, and reap it.
pub fn run(cmd: &mut Command) -> std::io::Result<Finished> {
    let t0 = Instant::now();
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_string(&mut stdout);
    let (code, rss_kib) = wait(child)?;
    read?;
    Ok(Finished {
        stdout,
        code,
        wall: t0.elapsed().as_secs_f64(),
        rss_mib: rss_kib as f64 / 1024.0,
    })
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    pub struct Rusage {
        pub times: [i64; 4],
        pub maxrss: i64,
        pub rest: [i64; 13],
    }

    extern "C" {
        pub fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    }
}

/// Reap `child` and return its exit code and peak resident set (KiB).
/// `wait4` is the one call that reports the resource use of a single
/// child; `std` only offers the exit status.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn wait(child: std::process::Child) -> std::io::Result<(Option<i32>, u64)> {
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let mut status = 0i32;
    let mut usage = sys::Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child (std never waits on it
        // after this point: `child` is dropped without `wait`), and both
        // out-pointers refer to live, writable locals of the layout the
        // kernel ABI defines for 64-bit Linux.
        let ret = unsafe { sys::wait4(pid, &mut status, 0, &mut usage) };
        if ret == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    drop(child);
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok((code, u64::try_from(usage.maxrss).unwrap_or(0)))
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn wait(mut child: std::process::Child) -> std::io::Result<(Option<i32>, u64)> {
    Ok((child.wait()?.code(), 0))
}
