//! Counting global allocator: live and peak heap bytes of the whole process.
//!
//! Wraps the system allocator with two relaxed counters. They publish no
//! other data, so `Relaxed` is enough; the peak is a `fetch_max` over the
//! live count, exact up to the interleaving of concurrent allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator plus live/peak byte counters.
pub struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAlloc {
    /// A counter pair starting at zero.
    pub const fn new() -> Self {
        CountingAlloc {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Bytes currently allocated.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Highest live byte count since the last [`CountingAlloc::reset_peak`].
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Restarts peak tracking from the current live count.
    pub fn reset_peak(&self) {
        self.peak.store(self.live(), Ordering::Relaxed);
    }

    fn grow(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            self.grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            self.grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence by `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        self.shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` came from this
        // allocator and `new_size` is valid for `layout.align()`.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            self.shrink(layout.size());
            self.grow(new_size);
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_the_high_water_mark_and_resets_to_live() {
        let counter = CountingAlloc::new();
        let small = Layout::from_size_align(64, 8).unwrap();
        let big = Layout::from_size_align(4096, 8).unwrap();
        // SAFETY: each pointer is freed once, with the layout it was
        // allocated with.
        unsafe {
            let a = counter.alloc(small);
            let b = counter.alloc(big);
            assert_eq!(counter.live(), 64 + 4096);
            counter.dealloc(b, big);
            assert_eq!(counter.live(), 64);
            assert_eq!(counter.peak(), 64 + 4096);

            counter.reset_peak();
            assert_eq!(counter.peak(), 64);
            let c = counter.realloc(a, small, 1024);
            assert_eq!(counter.live(), 1024);
            assert_eq!(counter.peak(), 1024);
            counter.dealloc(c, Layout::from_size_align(1024, 8).unwrap());
        }
        assert_eq!(counter.live(), 0);
        assert_eq!(counter.peak(), 1024);
    }

    #[test]
    fn zeroed_allocations_are_counted() {
        let counter = CountingAlloc::new();
        let layout = Layout::from_size_align(256, 16).unwrap();
        // SAFETY: allocated and freed once with the same layout.
        unsafe {
            let p = counter.alloc_zeroed(layout);
            assert!(std::slice::from_raw_parts(p, 256).iter().all(|&b| b == 0));
            assert_eq!(counter.live(), 256);
            counter.dealloc(p, layout);
        }
        assert_eq!(counter.live(), 0);
    }
}
