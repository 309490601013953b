//! A warmed-up `DirStorage` allocates nothing: not on the caller's
//! thread, and not on either writer thread. Records and snapshots go
//! through buffers the writers hand back, the snapshot writer's paths
//! are joined once at `open`, and every system call it makes takes its
//! path from the stack. A writer thread that allocated would also get a
//! malloc arena of its own.
//!
//! One test in its own binary: the allocator counts every thread of the
//! process.

use rekey_storage::{DirStorage, Storage};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting every allocation of the process (a
/// `realloc` is one).
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only an atomic and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` and `layout` come from this allocator, which
        // is `System`'s, and the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Three durable records, a snapshot and the switch behind it: the
/// durable interval's calls, and every eighth interval's hand-off.
fn cycle(storage: &mut DirStorage, record: &[u8], blob: &[u8]) {
    for _ in 0..3 {
        storage.append_wal(record).expect("append");
        storage.sync_wal().expect("sync");
    }
    storage.write_snapshot(blob).expect("snapshot");
    storage.reset_wal().expect("reset");
}

#[test]
fn a_warm_snapshot_cycle_allocates_nothing_on_any_thread() {
    let dir = std::env::temp_dir().join(format!("rekey-storage-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut storage = DirStorage::open(&dir).expect("open");
    let record = vec![7u8; 300];
    let blob = vec![9u8; 256 * 1024];
    // Both threads spawned, every buffer handed back once.
    for _ in 0..3 {
        cycle(&mut storage, &record, &blob);
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    // Each switch waits for the segment the snapshot before it empties:
    // the window holds whole snapshot chains.
    for _ in 0..4 {
        cycle(&mut storage, &record, &blob);
    }
    storage.append_wal(&record).expect("append");
    storage.sync_wal().expect("sync");
    let allocated = ALLOCATIONS.load(Ordering::SeqCst) - before;
    drop(storage);
    std::fs::remove_dir_all(&dir).expect("cleanup");
    assert_eq!(allocated, 0, "four warm snapshot cycles allocated");
}
