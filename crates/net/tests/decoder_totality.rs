//! Every decoder of the workspace is total: fed a strict prefix of a
//! valid blob, the blob with one byte more, or a huge count over an
//! empty tail, it returns its typed error, never panics, and allocates
//! in proportion to its input, not to a count the input claims.
//!
//! One table covers the rekey message and its entry blocks, the key
//! tree, server and queue, every scheme's engine state, the snapshot,
//! the WAL record and its head, every session frame, the scenario and
//! the trace.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_core::persist::{record_head, split_snapshot, EpochRecord};
use rekey_core::{DurationClass, GroupKeyManager, Join, Journal, Scheme, SchemeConfig};
use rekey_crypto::Key;
use rekey_keytree::message::codec::{self, Reader};
use rekey_keytree::message::RekeyMessage;
use rekey_keytree::queue::KeyQueue;
use rekey_keytree::server::LkhServer;
use rekey_keytree::tree::KeyTree;
use rekey_keytree::MemberId;
use rekey_net::proto::{self, Frame};
use rekey_net::RejectReason;
use rekey_storage::{MemStorage, Storage};
use rekey_testkit::{GenParams, Scenario, Trace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting what this thread asks of it.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|total| total.set(total.get().saturating_add(bytes)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only a thread-local
// `Cell` and never allocates.
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
        count(new_size.saturating_sub(layout.size()));
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

/// A decoder under test: `Ok` or its error, printed.
type Decode = Box<dyn Fn(&[u8]) -> Result<(), String>>;

struct Row {
    name: String,
    blob: Vec<u8>,
    /// Offsets in `blob` of the counts and lengths it carries.
    counts: Vec<usize>,
    /// The error a huge count over an empty tail must give, where the
    /// decoder names one.
    count_error: Option<&'static str>,
    decode: Decode,
}

fn row(name: &str, blob: Vec<u8>, counts: Vec<usize>, decode: Decode) -> Row {
    Row {
        name: name.to_string(),
        blob,
        counts,
        count_error: None,
        decode,
    }
}

fn debug<E: std::fmt::Debug>(e: E) -> String {
    format!("{e:?}")
}

/// Counts this thread's allocations from zero again: a decoder under
/// test calls it once the manager it restores into is built.
fn recount() {
    ALLOCATED.with(|total| total.set(0));
}

/// Runs `decode` on `input`, returning its result and the bytes this
/// thread allocated meanwhile.
fn measured(decode: &Decode, input: &[u8]) -> (Result<(), String>, usize) {
    recount();
    let result = decode(input);
    (result, ALLOCATED.with(Cell::get))
}

/// What a decoder may allocate for `input`: a constant factor over its
/// length, for the structures it decodes into.
fn allocation_bound(input: &[u8]) -> usize {
    4096 + 64 * input.len()
}

/// A `scheme` manager after a bootstrap and twelve churn intervals,
/// with the first message that carried advances and derivations.
fn churned(scheme: Scheme, rng: &mut StdRng) -> (Box<dyn GroupKeyManager>, RekeyMessage) {
    let mut manager = scheme.build(&SchemeConfig::default());
    let mut next = 0u64;
    let mut joins = |n: u64, rng: &mut StdRng| -> Vec<Join> {
        let joins = (next..next + n)
            .map(|id| {
                Join::new(MemberId(id), Key::generate(rng))
                    .with_class(DurationClass::Short)
                    .with_loss_rate(0.1)
            })
            .collect();
        next += n;
        joins
    };
    let bootstrap = joins(24, rng);
    let mut rich = manager
        .process_interval(&bootstrap, &[], rng)
        .unwrap()
        .message;
    for interval in 0..12u64 {
        let leaves = [MemberId(interval * 2), MemberId(interval * 2 + 1)];
        let js = joins(3, rng);
        let message = manager.process_interval(&js, &leaves, rng).unwrap().message;
        if rich.advances.is_empty() || rich.derivations.is_empty() {
            rich = message;
        }
    }
    (manager, rich)
}

fn rows() -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(40);
    let mut rows = Vec::new();

    // The rekey message and an entry block.
    let (tt, message) = churned(Scheme::Tt, &mut rng);
    assert!(message.entries.len() > 1 && !message.advances.is_empty());
    assert!(!message.derivations.is_empty());
    let wire = codec::encode_message(&message);
    let entries_only = RekeyMessage {
        advances: Vec::new(),
        derivations: Vec::new(),
        ..message.clone()
    };
    let no_derivations = RekeyMessage {
        derivations: Vec::new(),
        ..message.clone()
    };
    let counts = vec![
        codec::MESSAGE_HEADER_LEN - 4,
        codec::encode_message(&entries_only).len() - 2,
        codec::encode_message(&no_derivations).len() - 1,
    ];
    rows.push(row(
        "message",
        wire.clone(),
        counts,
        Box::new(|b| codec::decode_message(b).map(drop).ok_or(debug(None::<()>))),
    ));
    let mut block = Vec::new();
    codec::encode_block(&message.entries, &mut block);
    rows.push(row(
        "block",
        block,
        vec![1],
        Box::new(|b| {
            let mut rest = b;
            codec::decode_block(&mut rest)
                .filter(|_| rest.is_empty())
                .map(drop)
                .ok_or(debug(None::<()>))
        }),
    ));

    // The key tree, its server and the key queue.
    let mut server = LkhServer::new(3, 5);
    let joins: Vec<(MemberId, Key)> = (0..20)
        .map(|id| (MemberId(id), Key::generate(&mut rng)))
        .collect();
    server.apply_batch(&joins, &[], &mut rng);
    server.apply_batch(&[], &[MemberId(4), MemberId(11)], &mut rng);
    let mut tree = Vec::new();
    server.tree().encode_into(&mut tree);
    rows.push(row(
        "tree",
        tree,
        vec![1 + 4 + 4 + 8],
        Box::new(|b| {
            let mut r = Reader::new(b);
            KeyTree::decode(&mut r)
                .and_then(|_| r.finish())
                .map_err(debug)
        }),
    ));
    let mut blob = Vec::new();
    server.encode_into(&mut blob);
    rows.push(row(
        "server",
        blob,
        vec![1 + 8 + 1 + 4 + 4 + 8],
        Box::new(|b| {
            let mut r = Reader::new(b);
            LkhServer::decode(&mut r)
                .and_then(|_| r.finish())
                .map_err(debug)
        }),
    ));
    let mut queue = KeyQueue::new(9);
    for id in 0..6 {
        queue
            .push(MemberId(id), Key::generate(&mut rng), id)
            .unwrap();
    }
    queue.remove(MemberId(2)).unwrap();
    let mut blob = Vec::new();
    queue.encode_into(&mut blob);
    rows.push(Row {
        count_error: Some("Truncated"),
        ..row(
            "queue",
            blob,
            vec![1 + 4 + 8],
            Box::new(|b| {
                let mut r = Reader::new(b);
                KeyQueue::decode(&mut r)
                    .and_then(|_| r.finish())
                    .map_err(debug)
            }),
        )
    });

    // Every scheme's engine state, and a snapshot as recovery reads it.
    for scheme in Scheme::ALL {
        let (manager, _) = churned(scheme, &mut rng);
        let mut state = Vec::new();
        manager.save_state(&mut state).unwrap();
        rows.push(row(
            &format!("{scheme} state"),
            state,
            vec![1],
            Box::new(move |b| {
                let mut fresh = scheme.build(&SchemeConfig::default());
                recount();
                fresh.restore_state(b).map_err(debug)
            }),
        ));
    }
    let mut journal = Journal::new(MemStorage::new(), 0);
    journal.snapshot(&*tt, &rng).unwrap();
    let snapshot = journal.storage_mut().load_snapshot().unwrap().unwrap();
    rows.push(row(
        "snapshot",
        snapshot,
        Vec::new(),
        Box::new(|b| {
            let (_, _, state) = split_snapshot(b).map_err(debug)?;
            let mut fresh = Scheme::Tt.build(&SchemeConfig::default());
            recount();
            fresh.restore_state(state).map_err(debug)
        }),
    ));

    // The WAL record and its head.
    let mut record = EpochRecord {
        epoch: 7,
        rng_state: [3; 32],
        joins: vec![
            Join::new(MemberId(70), Key::generate(&mut rng)),
            Join::new(MemberId(71), Key::generate(&mut rng))
                .with_class(DurationClass::Long)
                .with_loss_rate(0.25),
        ],
        leaves: Vec::new(),
    };
    let mut no_leaves = Vec::new();
    record.encode_into(&mut no_leaves);
    record.leaves = vec![MemberId(5), MemberId(9)];
    let mut blob = Vec::new();
    record.encode_into(&mut blob);
    let counts = vec![1 + 8 + 32, no_leaves.len() - 4];
    rows.push(Row {
        count_error: Some(r#"Codec { what: "WAL record", error: Truncated }"#),
        ..row(
            "record",
            blob.clone(),
            counts.clone(),
            Box::new(|b| EpochRecord::decode(b).map(drop).map_err(debug)),
        )
    });
    rows.push(row(
        "record head",
        blob,
        counts,
        Box::new(|b| record_head(b).map(drop).map_err(debug)),
    ));

    // Every session frame; a `Rekey` frame's payload is read on as the
    // client reads it.
    let frames = [
        Frame::ServerHello { nonce: [9; 32] },
        Frame::Hello {
            member: MemberId(42),
            tag: [7; 32],
            next_epoch: 9,
        },
        Frame::Welcome { latest_epoch: 17 },
        Frame::Reject {
            reason: RejectReason::BadAuth,
        },
        Frame::Nack {
            epochs: vec![3, 4, 9],
        },
        Frame::Gap {
            oldest: 5,
            requested: 2,
        },
        Frame::Ack {
            epoch: 17,
            lag_ns: 250_000,
        },
        Frame::Bye,
    ];
    for frame in frames {
        let counts = if matches!(frame, Frame::Nack { .. }) {
            vec![1]
        } else {
            Vec::new()
        };
        rows.push(row(
            &format!("{frame:?} frame"),
            proto::encode(&frame),
            counts,
            Box::new(|b| proto::decode(b).map(drop).map_err(debug)),
        ));
    }
    let rekey = proto::encode(&Frame::Rekey {
        stamp_unix_ns: 1_700_000_000_000_000_000,
        payload: wire,
    });
    rows.push(row(
        "rekey frame",
        rekey,
        vec![1 + 8 + codec::MESSAGE_HEADER_LEN - 4],
        Box::new(|b| match proto::decode(b).map_err(debug)? {
            Frame::Rekey { payload, .. } => codec::decode_message(&payload)
                .map(drop)
                .ok_or(debug(None::<()>)),
            other => Err(debug(other)),
        }),
    ));

    // The scenario and the trace.
    let scenario = Scenario::generate(5, 6, &GenParams::default());
    rows.push(row(
        "scenario",
        scenario.encode(),
        vec![4 + 1 + 8 + 1 + 2, 4 + 1 + 8 + 1 + 2 + 4],
        Box::new(|b| Scenario::decode(b).map(drop).map_err(debug)),
    ));
    let trace = Trace {
        generator: "uniform".to_string(),
        scenario,
    };
    rows.push(Row {
        count_error: Some("Truncated"),
        ..row(
            "trace",
            trace.encode(),
            vec![4 + 1, 4 + 1 + 1 + "uniform".len()],
            Box::new(|b| Trace::decode(b).map(drop).map_err(debug)),
        )
    });
    rows
}

#[test]
fn every_decoder_is_total_over_prefixes_extra_bytes_and_huge_counts() {
    let huge_u32 = u32::MAX.to_be_bytes().to_vec();
    let mut huge_varint = Vec::new();
    codec::put_varint(&mut huge_varint, u64::MAX);
    for row in rows() {
        let Row {
            name, blob, decode, ..
        } = &row;
        assert_eq!(decode(blob), Ok(()), "{name}: the valid blob decodes");
        let check = |input: &[u8], what: &str| {
            let (result, allocated) = measured(decode, input);
            assert!(
                allocated <= allocation_bound(input),
                "{name}, {what}: {allocated} bytes allocated for {} input bytes",
                input.len()
            );
            result
        };

        for cut in 0..blob.len() {
            assert!(
                check(&blob[..cut], "prefix").is_err(),
                "{name}: prefix of {cut} decoded"
            );
        }
        let mut longer = blob.clone();
        longer.push(0);
        assert!(
            check(&longer, "extra byte").is_err(),
            "{name}: extra byte decoded"
        );

        // A huge count at every offset: where a count stands it must
        // be refused; anywhere else before the end the input is too
        // short. Offset 0 is a version or a tag, and a WAL record of
        // another version has a head, so that one input may decode.
        for at in 0..blob.len() {
            for huge in [&huge_u32, &huge_varint] {
                let input = [&blob[..at], &huge[..]].concat();
                let result = check(&input, "huge count");
                if row.counts.contains(&at) {
                    let error = result.expect_err(&format!("{name}: huge count at {at} decoded"));
                    if let Some(expected) = row.count_error {
                        if huge == &huge_u32 {
                            assert_eq!(error, expected, "{name}: huge count at {at}");
                        }
                    }
                } else if at > 0 && input.len() < blob.len() {
                    assert!(result.is_err(), "{name}: {:02x?} at {at} decoded", huge);
                }
            }
        }
    }
}
