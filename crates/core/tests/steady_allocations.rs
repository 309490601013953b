//! A steady interval allocates a fixed number of times, whatever its
//! size: the tree batch path keeps its working memory in a handful of
//! buffers sized once per batch, so a `Vec` per member change or per
//! wrap shows up here as a count that grows with the batch.
//!
//! The TT manager at the end-to-end benchmark's parameters (N = 4 096,
//! d = 4, K = 10) is run past the S→L migration of its bootstrap
//! cohort; then one interval of 180 joins and 180 leaves and one of
//! twice that are counted on this thread.
//!
//! The snapshot path keeps its buffers too: after the first snapshot
//! cycle, a durable run allocates no buffer of a snapshot's size.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rekey_core::{GroupKeyManager, Join, Journal, Scheme, SchemeConfig};
use rekey_crypto::Key;
use rekey_keytree::MemberId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations this thread asks of
/// it (a `realloc` is one).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Allocations of at least [`LARGE_FROM`] bytes.
    static LARGE: Cell<usize> = const { Cell::new(0) };
    static LARGE_FROM: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn count(size: usize) {
    let _ = ALLOCATIONS.try_with(|total| total.set(total.get() + 1));
    if LARGE_FROM
        .try_with(Cell::get)
        .is_ok_and(|from| size >= from)
    {
        let _ = LARGE.try_with(|total| total.set(total.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only thread-local
// `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

const N: u64 = 4_096;
const CHURN: usize = 180;
/// What a batch may allocate beyond one half its size: buffers a
/// larger batch outgrows once (a doubling each), not per change.
const SLACK: usize = 16;

struct Group {
    manager: Box<dyn GroupKeyManager>,
    present: Vec<MemberId>,
    next: u64,
    rng: StdRng,
}

impl Group {
    /// A TT group at the benchmark's degree and S-period over members
    /// `0..n`, not yet bootstrapped.
    fn new(n: u64) -> Group {
        Group {
            manager: Scheme::Tt.build(&SchemeConfig::new().degree(4).s_period(10)),
            present: (0..n).map(MemberId).collect(),
            next: n,
            rng: StdRng::seed_from_u64(0xA110C),
        }
    }

    /// The bootstrap batch: every present member joins.
    fn bootstrap(&mut self) -> Vec<Join> {
        let present = self.present.clone();
        present
            .into_iter()
            .map(|member| Join::new(member, Key::generate(&mut self.rng)))
            .collect()
    }

    /// The interval's input, drawn before anything is counted.
    fn batch(&mut self, size: usize) -> (Vec<Join>, Vec<MemberId>) {
        let leaves = (0..size)
            .map(|_| {
                let at = self.rng.gen_range(0..self.present.len());
                self.present.swap_remove(at)
            })
            .collect();
        let joins = (0..size as u64)
            .map(|i| Join::new(MemberId(self.next + i), Key::generate(&mut self.rng)))
            .collect::<Vec<_>>();
        self.next += size as u64;
        self.present.extend(joins.iter().map(|join| join.member));
        (joins, leaves)
    }

    /// Allocations one interval of `size` joins and leaves makes.
    fn interval(&mut self, size: usize) -> usize {
        let (joins, leaves) = self.batch(size);
        let mut rng = StdRng::seed_from_u64(self.next);
        let before = ALLOCATIONS.with(Cell::get);
        let outcome = self
            .manager
            .process_interval(&joins, &leaves, &mut rng)
            .expect("consistent batch");
        let allocations = ALLOCATIONS.with(Cell::get) - before;
        drop(outcome);
        allocations
    }
}

#[test]
fn a_steady_interval_allocates_the_same_count_at_twice_the_churn() {
    let mut group = Group::new(N);
    let bootstrap = group.bootstrap();
    group
        .manager
        .process_interval(&bootstrap, &[], &mut StdRng::seed_from_u64(0))
        .expect("bootstrap");
    // The bootstrap cohort leaves the S-tree at epoch 11; four more
    // intervals bring the S-tree to its steady size.
    for _ in 0..14 {
        group.interval(CHURN);
    }
    let steady = group.interval(CHURN);
    let doubled = group.interval(2 * CHURN);
    println!(
        "allocations per steady interval: {steady} at {CHURN} joins and leaves, {doubled} at {}",
        2 * CHURN
    );
    assert!(
        doubled <= steady + SLACK,
        "{doubled} allocations at {} joins and leaves against {steady} at {CHURN}: \
         something allocates per change",
        2 * CHURN
    );
}

/// The journal serializes every snapshot into one kept buffer, and
/// `DirStorage` copies it into the buffer its snapshot writer hands
/// back, so past the first snapshot cycle a durable run allocates no
/// buffer of a snapshot's size on the driver's thread. (The writer
/// threads allocate nothing at all: `rekey-storage`'s `allocations`
/// test.)
#[test]
fn snapshot_cycles_after_the_first_allocate_no_snapshot_sized_buffer() {
    const SNAPSHOT_EVERY: u64 = 4;
    let dir = std::env::temp_dir().join(format!("rekey-alloc-snapshots-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let storage = rekey_storage::DirStorage::open(&dir).expect("open");
    let mut journal = Journal::new(storage, SNAPSHOT_EVERY);
    let mut group = Group::new(1_024);
    let mut rng = StdRng::seed_from_u64(1);
    let bootstrap = group.bootstrap();
    journal
        .durable_interval(&mut *group.manager, &bootstrap, &[], &mut rng, &mut |_| {})
        .expect("bootstrap");
    let mut cycles = |group: &mut Group, cycles: u64| {
        for _ in 0..cycles * SNAPSHOT_EVERY {
            let (joins, leaves) = group.batch(16);
            journal
                .durable_interval(&mut *group.manager, &joins, &leaves, &mut rng, &mut |_| {})
                .expect("durable interval");
        }
    };
    // Past the S → L migration at epoch 11, with four snapshots behind.
    cycles(&mut group, 4);
    let mut state = Vec::new();
    group.manager.save_state(&mut state).expect("save");
    let snapshot_len = state.len();
    drop(state);
    LARGE_FROM.with(|from| from.set(snapshot_len / 2));
    let before = LARGE.with(Cell::get);
    cycles(&mut group, 5);
    let large = LARGE.with(Cell::get) - before;
    LARGE_FROM.with(|from| from.set(usize::MAX));
    drop(journal);
    std::fs::remove_dir_all(&dir).expect("cleanup");
    assert_eq!(
        large, 0,
        "five snapshot cycles allocated {large} buffers of at least half a {snapshot_len}-byte snapshot"
    );
}
