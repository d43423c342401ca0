//! A checkpoint's peak heap, bounded.
//!
//! A checkpoint streams each shard's image into its file page by page. An
//! image built whole in memory, plus its paged copy, is megabytes per
//! shard; allocated at once, such buffers outgrow the holes earlier work
//! left in the heap and raise the process's peak RSS. This test measures
//! the peak of live heap bytes while `DurableDir::checkpoint` writes a
//! 2,000-row relation and its tree: it must stay below what encoding the
//! tree's blob alone costs plus 64 KiB, far below the image's size.

use simq_index::{serial, RTreeConfig};
use simq_series::features::FeatureScheme;
use simq_storage::{CheckpointSource, DurableDir, SeriesRelation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator and, while the calling thread is
/// recording, tracks its live bytes and their peak. Per-thread state keeps
/// the test harness's other threads out of it.
struct Tracking;

thread_local! {
    static RECORDING: Cell<bool> = const { Cell::new(false) };
    /// Bytes allocated minus bytes freed since recording began; frees of
    /// older blocks can take it below zero.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    if RECORDING.with(Cell::get) {
        let live = LIVE.with(Cell::get) + delta;
        LIVE.with(|l| l.set(live));
        PEAK.with(|p| p.set(p.get().max(live)));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; tracking touches only thread-local `Cell`s of
// `Copy` data (no destructor, no allocation) and cannot re-enter.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract, and
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// The peak of live heap bytes while `f` runs on this thread, counted
/// from what was live when it started.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    RECORDING.with(|r| r.set(true));
    let out = f();
    RECORDING.with(|r| r.set(false));
    (out, PEAK.with(Cell::get) as usize)
}

/// 2,000 deterministic random walks of length 64.
fn relation() -> SeriesRelation {
    let mut rel = SeriesRelation::new("walks", 64, FeatureScheme::paper_default());
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for i in 0..2000 {
        let mut level = 0.0;
        let series: Vec<f64> = (0..64)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                level += ((state >> 40) % 17) as f64 / 4.0 - 2.0;
                level
            })
            .collect();
        rel.insert(format!("W{i}"), series).unwrap();
    }
    rel
}

#[test]
fn checkpoint_heap_peak_is_the_tree_blob_plus_a_few_pages() {
    let rel = relation();
    let tree = rel.build_index(RTreeConfig::default());
    let dir = std::env::temp_dir().join(format!("simq-checkpoint-heap-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut store = DurableDir::create(&dir).unwrap();
    let source = [CheckpointSource {
        name: "walks",
        sharded: false,
        shards: vec![(&rel, Some(&tree), true)],
    }];
    // The first checkpoint also sets up what a process does once (the
    // metrics registry); the second is the one measured.
    store.checkpoint(&source).unwrap();
    let (report, peak) = peak_of(|| store.checkpoint(&source).unwrap());
    assert_eq!(report.shards_written, 1);

    let (blob, blob_peak) = peak_of(|| serial::to_bytes(&tree));
    let image_len = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap())
        .find(|e| e.file_name().to_string_lossy().ends_with(".snap"))
        .map(|e| e.metadata().unwrap().len() as usize)
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let bound = blob_peak + 64 * 1024;
    // The bound has teeth: the image is many times larger.
    assert!(
        image_len > 4 * bound,
        "image {image_len} B, bound {bound} B"
    );
    assert!(
        peak < bound,
        "checkpoint peak {peak} B; the tree blob ({} B) costs {blob_peak} B to encode",
        blob.len()
    );
}
