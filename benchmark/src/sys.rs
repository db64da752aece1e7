//! What the harness reads from the host: process CPU time, peak RSS,
//! core count, and a switchable allocation counter.
//!
//! The counter is not `bandana-bench`'s `alloc_track`: that one sits behind
//! a Cargo feature of a crate this package does not link, counts per thread
//! only, and cannot be switched off for the untraced run. This one counts
//! for the whole process (`serve.allocs_per_request` spans the shard
//! workers) and only while a traced phase asks it to.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// `/proc/*/stat` reports times in `USER_HZ` ticks, a fixed 100 in the
/// Linux ABI on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// Counts allocations only while [`count_allocations`] has switched it
/// on, so the untraced run pays one relaxed load per allocation and no
/// shared-cache-line write.
struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn bump() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `bump` touches only two atomics and
// does not allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: as `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `layout` is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Switches allocation counting on or off for the whole process.
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations by every thread while counting was on.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// User + system CPU seconds consumed by the process so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may hold spaces; fields are counted after
    // its closing parenthesis, where utime and stime are the 12th and 13th.
    let after = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = after.split_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields.next().and_then(|f| f.parse().ok()).expect("stat carries utime and stime")
    };
    (ticks() + ticks()) / USER_HZ
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status carries VmHWM");
    kb / 1024.0
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
