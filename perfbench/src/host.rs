//! Host-side measurement: process CPU time, a counting allocator for the
//! live-heap high-water mark, the `/proc/stat` steal counter, and the
//! order statistics every metric is reported with.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: CPU time of every thread of the
/// process, at the kernel's scheduler resolution (µs or better), unlike
/// `/proc/self/stat` (10 ms ticks) or `/proc/thread-self/schedstat`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds consumed by this process so far, across all threads.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` with the C layout
    // (`repr(C)`, two 64-bit fields on 64-bit Linux), and the clock id is
    // a constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A point on both clocks at once.
#[derive(Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu_s: f64,
}

impl Stamp {
    pub fn now() -> Self {
        Stamp {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    /// `(cpu seconds, wall seconds)` elapsed since this stamp.
    pub fn elapsed(&self) -> (f64, f64) {
        let cpu = process_cpu_s() - self.cpu_s;
        (cpu, self.wall.elapsed().as_secs_f64())
    }
}

/// Times `f` on both clocks: `(result, cpu seconds, wall seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let start = Stamp::now();
    let out = f();
    let (cpu, wall) = start.elapsed();
    (out, cpu, wall)
}

/// The system allocator plus a live-byte count and its high-water mark.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// statistics and publish no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                let grow = new_size - layout.size();
                let live = LIVE.fetch_add(grow, Ordering::Relaxed) + grow;
                PEAK.fetch_max(live, Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Restarts the high-water mark at the current live heap.
pub fn reset_heap_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Highest live heap, in bytes, since the last [`reset_heap_peak`].
pub fn heap_peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Aggregate `(steal, total)` jiffies of the host from the first line of
/// `/proc/stat`; `None` where the file is unavailable.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already included in user/nice.
    let total: u64 = fields.iter().take(8).sum();
    Some((fields.get(7).copied().unwrap_or(0), total))
}

/// Share of host CPU time stolen by the hypervisor between two
/// [`cpu_jiffies`] samples.
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}
