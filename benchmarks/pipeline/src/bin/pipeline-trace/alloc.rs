//! A counting global allocator for the traced binary only.
//!
//! Counts are per thread: the traced re-composition runs on one thread, so
//! a thread-local counter attributes exactly its allocations and the farm
//! threads of the untraced comparison runs never contend on a shared
//! counter (which would slow the very runs `speedup_vs_seq` is read from).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisation and no destructor: safe to touch from inside
    // the allocator (no lazy init, so no allocation and no recursion).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocating call.
pub struct Counting;

fn count() {
    // `try_with`: a thread being torn down may allocate after its TLS is
    // gone; those allocations are simply not counted.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a `Cell` in
// const-initialised TLS and cannot allocate or unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocating calls (alloc, zeroed alloc, realloc) made by this thread.
pub fn allocations() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations_exactly() {
        let before = allocations();
        let boxed = std::hint::black_box(Box::new(7u64));
        let mut v: Vec<u64> = std::hint::black_box(Vec::with_capacity(4));
        assert_eq!(allocations() - before, 2);
        v.extend([1, 2, 3, 4, 5]); // grows past capacity: one realloc
        assert_eq!(allocations() - before, 3);
        drop((boxed, v)); // frees are not allocations
        assert_eq!(allocations() - before, 3);
    }

    #[test]
    fn other_threads_do_not_leak_into_this_count() {
        let spawn_cost = |work: fn()| {
            let before = allocations();
            std::thread::scope(|s| {
                s.spawn(work);
            });
            allocations() - before
        };
        spawn_cost(|| ()); // one-time runtime initialisation, not measured
                           // Spawning allocates on this thread (handle, packet); whatever the
                           // spawned thread allocates over there must not show up here.
        let idle = spawn_cost(|| ());
        let busy = spawn_cost(|| {
            std::hint::black_box((0..100).map(|i| vec![i; 8]).collect::<Vec<_>>());
        });
        assert_eq!(idle, busy);
    }
}
