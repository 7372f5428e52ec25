//! Global allocation counter (feature `counting-alloc`, on by default).
//!
//! The workspace budgets heap traffic on the packet hot path —
//! `allocs/request` is a pinned regression threshold, not just a bench
//! statistic. Counting from *inside* the process is the only way to assert
//! it in `cargo test`: a wrapper over the [`std::alloc::System`] allocator
//! bumps a relaxed atomic on every `alloc`/`realloc`. One counter for the
//! whole workspace lives here (feature-unification would reject two crates
//! both claiming `#[global_allocator]`), and both the testbed's per-phase
//! profile and the `cityscale` bench read it. Beside the call count it keeps
//! the bytes currently live (requested sizes, so exact for a seed where RSS
//! is not) and their high-water mark: what a memory bound is asserted on.
//!
//! Cost when enabled: two relaxed `fetch_add`s and a load per allocation,
//! one `fetch_sub` per free — noise next to the allocation itself. Builds
//! that want the pristine system allocator can opt out with
//! `default-features = false`.

use std::alloc::{GlobalAlloc, Layout, System};
// edgelint: allow(threading) — a monotone diagnostics counter: allocation
// totals are read as before/after diffs and never feed a trace or schedule
use std::sync::atomic::{AtomicU64, Ordering};

// edgelint: allow(threading) — same counter as above (directives scope per line)
static ALLOCS: AtomicU64 = AtomicU64::new(0);
// edgelint: allow(threading) — same justification: diagnostics only
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
// edgelint: allow(threading) — same justification: diagnostics only
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    if live > PEAK_BYTES.load(Ordering::Relaxed) {
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: delegates directly to `System`; the counters have no effect on the
// returned pointers or layouts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        shrank(layout.size());
        grew(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Total heap allocations (`alloc` + `realloc`) since process start.
/// Monotone; diff two reads to attribute a region of work.
pub fn total() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Heap bytes live right now, as requested from the allocator. Diff two
/// reads to size what a region of work keeps.
#[doc(hidden)] // the `memory_bound` and `alloc_regression` allocation binaries read it
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// The most [`live_bytes`] has been since process start.
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_an_allocation() {
        let before = total();
        let v = std::hint::black_box(vec![0u8; 4096]);
        let after = total();
        assert!(after > before, "boxed vec was not counted");
        drop(v);
    }

    #[test]
    fn live_bytes_follow_alloc_grow_and_free() {
        // Other tests allocate concurrently, so use a size they cannot mask.
        const BIG: u64 = 64 << 20;
        let before = live_bytes();
        let mut v: Vec<u8> = std::hint::black_box(Vec::with_capacity(BIG as usize));
        assert!(live_bytes() >= before + BIG / 2, "alloc not counted");
        v.reserve_exact(2 * BIG as usize);
        assert!(
            live_bytes() >= before + BIG + BIG / 2,
            "realloc not counted"
        );
        assert!(peak_bytes() >= before + BIG + BIG / 2);
        drop(v);
        assert!(live_bytes() < before + BIG / 2, "free not counted");
        assert!(peak_bytes() >= before + BIG + BIG / 2, "the peak stays");
    }
}
