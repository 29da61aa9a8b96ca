//! A counting global allocator: a binary or test binary installs
//! [`CountingAlloc`] as its `#[global_allocator]` and reads how many heap
//! blocks a piece of code asked for with [`thread_allocations`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], counting each allocation and reallocation per thread.
#[derive(Debug)]
pub struct CountingAlloc;

/// Allocations and reallocations this thread has made so far (always 0
/// unless [`CountingAlloc`] is the global allocator).
#[must_use]
pub fn thread_allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// thread-local `Cell` with a const initializer, so touching it never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract is `System::realloc`'s.
        unsafe { System.realloc(ptr, layout, size) }
    }
}
