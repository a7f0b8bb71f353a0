//! Process accounting read from outside the program: CPU time and peak
//! resident set of the harness (`getrusage`, `/proc/self/status`) and
//! of each joiner child (`wait4`, which reports the child's own
//! rusage). Linux only; std has no rusage API, so the two libc calls
//! are declared here.

use std::process::Child;
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const WNOHANG: i32 = 1;

fn cpu_of(r: &Rusage) -> f64 {
    let t = |tv: &Timeval| tv.sec as f64 + tv.usec as f64 * 1e-6;
    t(&r.utime) + t(&r.stime)
}

/// User + system CPU seconds the harness process has used so far.
pub fn self_cpu_s() -> f64 {
    let mut r = Rusage::default();
    // SAFETY: getrusage fills the caller-owned struct, whose layout
    // matches the kernel's 64-bit `struct rusage`.
    if unsafe { getrusage(RUSAGE_SELF, &mut r) } != 0 {
        return 0.0;
    }
    cpu_of(&r)
}

/// The harness process's resident-set high-water mark in MiB
/// (`VmHWM`).
pub fn self_peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// How a reaped child ended, with its own resource usage.
#[derive(Clone, Debug)]
pub struct ChildExit {
    /// Exit code, or `None` when the child was killed by a signal.
    pub code: Option<i32>,
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Resident-set high-water mark, MiB.
    pub peak_rss_mib: f64,
}

/// Reap `pid` with `wait4`, polling until `deadline`. `None` if the
/// child is still running at the deadline (the caller kills it and
/// calls again).
fn reap(pid: u32, deadline: Instant) -> Option<ChildExit> {
    loop {
        let mut status = 0i32;
        let mut r = Rusage::default();
        // SAFETY: wait4 on our own child pid, writing into caller-owned
        // status and rusage storage.
        let got = unsafe { wait4(pid as i32, &mut status, WNOHANG, &mut r) };
        if got == pid as i32 {
            let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
            return Some(ChildExit {
                code,
                cpu_s: cpu_of(&r),
                peak_rss_mib: r.maxrss_kib as f64 / 1024.0,
            });
        }
        if got < 0 {
            // Not our child (already reaped): nothing left to account.
            return Some(ChildExit {
                code: None,
                cpu_s: 0.0,
                peak_rss_mib: 0.0,
            });
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Reap `child` by `deadline`; a child still running then is killed
/// and reaped. The flag says whether it had to be killed.
pub fn reap_or_kill(child: &mut Child, deadline: Instant) -> (ChildExit, bool) {
    let pid = child.id();
    if let Some(exit) = reap(pid, deadline) {
        return (exit, false);
    }
    let _ = child.kill();
    let exit = reap(pid, Instant::now() + Duration::from_secs(10)).unwrap_or(ChildExit {
        code: None,
        cpu_s: 0.0,
        peak_rss_mib: 0.0,
    });
    (exit, true)
}
