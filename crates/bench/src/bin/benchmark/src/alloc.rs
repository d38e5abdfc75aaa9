//! A counting global allocator, switched on only while the traced rounds
//! run, so per-layer allocation counts cost nothing in the timed passes.
//!
//! The switch and the counter are per thread: a traced round runs on one
//! thread, and allocations made concurrently elsewhere (the test
//! harness's other tests, say) must not leak into its counts.

// A `GlobalAlloc` impl is inherently unsafe; this one delegates to
// `System` unchanged and only adds a counter.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const`-initialised, `Drop`-free cells: reading them never
    // allocates, so the allocator may touch them without recursing.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn note(&self) {
        // `try_with` fails only while the thread's locals are being torn
        // down; those allocations are not counted.
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
            }
        });
    }
}

// SAFETY: every method forwards its arguments to `System` unchanged, so
// `System`'s guarantees hold; the counter touches no allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note();
        // SAFETY: the caller passes a block this allocator (that is,
        // `System`) returned, with its layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Starts or stops counting, on the calling thread, the allocator calls
/// that obtain memory (`alloc`, `alloc_zeroed`, `realloc`).
pub fn set_counting(on: bool) {
    COUNTING.with(|c| c.set(on));
}

/// Allocator calls counted so far on the calling thread.
pub fn count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_switched_on() {
        let before = count();
        let uncounted: Vec<Box<u64>> = (0..16).map(Box::new).collect();
        assert_eq!(count(), before, "counting is off by default");
        set_counting(true);
        let counted: Vec<Box<u64>> = (0..64).map(Box::new).collect();
        set_counting(false);
        // 64 boxes plus the vector's own buffer.
        assert_eq!(count() - before, 65);
        drop((uncounted, counted));
    }
}
