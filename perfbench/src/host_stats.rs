//! Process-level host measurements: CPU time and peak resident set
//! size. Linux only; both read as zero where unavailable.

use std::fs;
use std::os::raw::{c_int, c_long};

/// User + system CPU seconds this process (all its threads, live and
/// exited) has consumed, from `getrusage(RUSAGE_SELF)` at microsecond
/// resolution.
pub fn process_cpu_secs() -> f64 {
    let mut usage = Rusage::default();
    // SAFETY: `getrusage` writes one `struct rusage` through the pointer,
    // which points at a live, writable `Rusage` laid out exactly like the
    // C struct (two `timeval`s then fourteen `long`s).
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    let secs = |t: Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    secs(usage.ru_utime) + secs(usage.ru_stime)
}

const RUSAGE_SELF: c_int = 0;

#[repr(C)]
#[derive(Debug, Default, Clone, Copy)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

#[repr(C)]
#[derive(Debug, Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_rest: [c_long; 14],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

/// Peak resident set size (`VmHWM`) of this process, kilobytes.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}
