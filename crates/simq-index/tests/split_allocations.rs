//! One node split's heap traffic, pinned.
//!
//! An insert that overflows a node runs Beckmann's split, which weighs
//! every distribution of every sort order. Folding each candidate group's
//! MBR afresh, with a rectangle of two `Vec`s per union, once made a
//! single split of a full 6-dimensional leaf cost thousands of allocator
//! calls, and the heap churn moved the benchmark's peak RSS. This test
//! counts the allocator calls one split makes on the calling thread, so a
//! change that brings the churn back fails here instead of only in a
//! memory reading.

use simq_index::RTree;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator and, while the calling thread is
/// recording, counts each call. Per-thread state keeps the test harness's
/// other threads out of the count.
struct Counting;

thread_local! {
    static RECORDING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static REALLOCS: Cell<usize> = const { Cell::new(0) };
    static DEALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count(counter: &'static std::thread::LocalKey<Cell<usize>>) {
    if RECORDING.with(Cell::get) {
        counter.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; counting touches only thread-local `Cell`s of
// `Copy` data (no destructor, no allocation) and cannot re-enter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCS);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCS);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(&REALLOCS);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(&DEALLOCS);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract, and
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocs, reallocs, deallocs)` that `f` makes on this thread.
fn calls_of(f: impl FnOnce()) -> (usize, usize, usize) {
    for counter in [&ALLOCS, &REALLOCS, &DEALLOCS] {
        counter.with(|c| c.set(0));
    }
    RECORDING.with(|r| r.set(true));
    f();
    RECORDING.with(|r| r.set(false));
    (
        ALLOCS.with(Cell::get),
        REALLOCS.with(Cell::get),
        DEALLOCS.with(Cell::get),
    )
}

/// 33 six-dimensional LCG points on the integer lattice 0..100.
fn points() -> Vec<[f64; 6]> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    (0..33)
        .map(|_| {
            std::array::from_fn(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((state >> 33) % 100) as f64
            })
        })
        .collect()
}

#[test]
fn one_leaf_split_allocates_as_pinned() {
    let points = points();
    let mut tree = RTree::with_dims(6);
    for (id, p) in points[..32].iter().enumerate() {
        tree.insert_point(p, id as u64);
    }
    assert_eq!(tree.height(), 1);
    // The 33rd point overflows the root leaf (M = 32), which splits: the
    // root is never reinserted.
    let calls = calls_of(|| tree.insert_point(&points[32], 32));
    assert_eq!(tree.height(), 2);
    assert_eq!(tree.nodes_built(), 3);
    // 43 allocations are the split's: the sort-order buffer and the
    // winning order's copy (2); 2 × 8 distribution slots and the running
    // MBR, two `Vec`s each, and the two slot arrays (36); the first
    // group's membership flags (1); the two groups' entry arrays (2); the
    // sibling's MBR (2). The insert around it makes 6: the point (2), the
    // `reinserted` flags (1), the old root's MBR (2) and the new root's
    // entries (1). The reallocations grow the leaf past 32 entries and
    // the node arena. (Refolding every candidate group instead made 6,949
    // allocations.)
    assert_eq!(calls, (49, 2, 41));
    tree.check_invariants().unwrap();
}
