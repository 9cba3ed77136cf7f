//! A `#[global_allocator]` that records the largest single allocation
//! each thread has asked for (the per-thread accounting of
//! `crates/serve/tests/stress.rs`, by size), so a decoder can be shown not
//! to trust a length prefix. Shared by the test binaries that include it
//! with `#[path]`; per-thread, so sibling tests cannot pollute a reading.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // Never allocates: a const-initialised Cell needs no lazy init.
    LARGEST.with(|c| c.set(c.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; `note` only updates a const thread-local and
// never allocates, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// Run `f` and return its result with the largest single allocation the
/// calling thread made while it ran.
pub fn largest_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|c| c.set(0));
    let out = f();
    (out, LARGEST.with(|c| c.get()))
}
