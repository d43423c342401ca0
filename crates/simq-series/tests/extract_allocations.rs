//! One extraction's heap traffic, pinned.
//!
//! `FeatureScheme::extract` runs once per stored row, insert, replayed WAL
//! record and literal query, so the buffers it allocates shape the
//! process's heap. A change that adds, drops, resizes or reorders one of
//! them has moved the benchmark's peak RSS on its own before, with no
//! change in speed. This test records every allocator call one extraction
//! makes on the calling thread, in order and with its size, and compares
//! the sequence with the one pinned below: a speed-up of the extraction
//! kernels must leave it exactly as it is.

use simq_series::FeatureScheme;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator and, while the calling thread is
/// recording, logs each call. The log is a fixed array so that logging
/// never allocates; per-thread state keeps the test harness's other
/// threads out of it.
struct Counting;

const CAPACITY: usize = 32;

/// One allocator call: what it was and its size in bytes (the new size
/// for a `realloc`).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Call {
    Alloc(usize),
    Realloc(usize),
    Dealloc(usize),
}

thread_local! {
    static RECORDING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<[Option<Call>; CAPACITY]> = const { Cell::new([None; CAPACITY]) };
    static LEN: Cell<usize> = const { Cell::new(0) };
}

fn log(call: Call) {
    if !RECORDING.with(Cell::get) {
        return;
    }
    let len = LEN.with(Cell::get);
    if len < CAPACITY {
        CALLS.with(|calls| {
            let mut all = calls.get();
            all[len] = Some(call);
            calls.set(all);
        });
    }
    LEN.with(|l| l.set(len + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; logging touches only thread-local `Cell`s of
// `Copy` data (no destructor, no allocation) and cannot re-enter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        log(Call::Alloc(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        log(Call::Alloc(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        log(Call::Realloc(new_size));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        log(Call::Dealloc(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract, and
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocator calls of `f` on this thread, in order.
fn calls_of(f: impl FnOnce()) -> Vec<Call> {
    LEN.with(|l| l.set(0));
    RECORDING.with(|r| r.set(true));
    f();
    RECORDING.with(|r| r.set(false));
    let len = LEN.with(Cell::get);
    assert!(len <= CAPACITY, "{len} allocator calls overflow the log");
    CALLS.with(Cell::get)[..len]
        .iter()
        .flatten()
        .copied()
        .collect()
}

fn walk(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.37).sin() * 10.0 + i as f64)
        .collect()
}

/// The calls one extraction of a length-`n` series makes. The series and
/// the returned features are allocated and freed outside the window.
fn extraction(n: usize) -> Vec<Call> {
    let scheme = FeatureScheme::paper_default();
    let series = walk(n);
    let mut features = None;
    let calls = calls_of(|| features = Some(scheme.extract(&series).unwrap()));
    drop(features);
    calls
}

#[test]
fn extraction_of_a_power_of_two_length_allocates_as_pinned() {
    use Call::*;
    // The normal form (128 × f64), the complex copy of it, the radix-2
    // buffer that becomes the spectrum; the copy is freed, the index point
    // (6 × f64) allocated and the normal form freed.
    assert_eq!(
        extraction(128),
        vec![
            Alloc(1024),
            Alloc(2048),
            Alloc(2048),
            Dealloc(2048),
            Alloc(48),
            Dealloc(1024),
        ]
    );
}

#[test]
fn extraction_of_a_bluestein_length_allocates_as_pinned() {
    use Call::*;
    // The normal form, its complex copy, Bluestein's chirp, its two
    // length-256 convolution buffers and the spectrum; the buffers, the
    // chirp and the copy are freed, then as at n = 128.
    assert_eq!(
        extraction(100),
        vec![
            Alloc(800),
            Alloc(1600),
            Alloc(1600),
            Alloc(4096),
            Alloc(4096),
            Alloc(1600),
            Dealloc(4096),
            Dealloc(4096),
            Dealloc(1600),
            Dealloc(1600),
            Alloc(48),
            Dealloc(800),
        ]
    );
}
