//! What the harness asks the operating system: process CPU time, memory
//! high-water marks and the machine shape. Linux only, like `/proc`.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Linux clock ids.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock_id: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target), both callers pass a valid
    // constant clock id, and the call writes nothing else.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// User plus system CPU time of every thread of this process, exited
/// ones included, at nanosecond resolution. `/proc/self/stat` ticks at
/// 10 ms, too coarse for a one-second repeat.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread alone.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resident set size now, in KiB.
pub fn rss_kib() -> u64 {
    status_kib("VmRSS:").expect("VmRSS in /proc/self/status")
}

/// Peak resident set size since start (or the last reset), in KiB.
pub fn rss_peak_kib() -> u64 {
    status_kib("VmHWM:").expect("VmHWM in /proc/self/status")
}

/// Returns the heap's free pages to the kernel, so that a reading of
/// [`rss_kib`] counts what is held and not what was freed. What the
/// generator frees (the evaluation set, the oracle's scratch) would
/// otherwise stay resident as holes the program's allocations fill
/// without the resident set growing; how much of the program hid there
/// moved a megabyte run to run.
pub fn trim_heap() {
    // SAFETY: glibc's `malloc_trim` takes no pointers and only returns
    // free heap pages to the kernel; no allocation is invalidated.
    unsafe { malloc_trim(0) };
}

/// Resets the peak to the current RSS so that building the models and
/// inputs, which only the generator needs, does not set it. Returns
/// whether the kernel took the reset; when it does not, every run on
/// that machine reports the unreset peak, which still compares.
pub fn reset_rss_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where a result was measured.
pub struct Machine {
    pub nproc: usize,
    pub cpu_model: String,
    pub commit: String,
}

pub fn machine() -> Machine {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    // The driver's checkout is not a git repository; run.sh passes the
    // commit when it can find one.
    let commit = std::env::var("UNFOLD_BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string());
    Machine {
        nproc: nproc(),
        cpu_model,
        commit,
    }
}
