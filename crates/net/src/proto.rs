//! The rekey-net session protocol: typed frames inside the length
//! prefix of [`crate::frame`].
//!
//! A session always opens with the server's challenge and the client's
//! authenticated response:
//!
//! ```text
//! server → client   ServerHello { version, nonce }
//! client → server   Hello { version, member, tag = HMAC(ik.derive("net-hello"), ...), next_epoch }
//! server → client   Welcome { latest_epoch }   (or Reject { reason })
//! server → client   Rekey / Gap for next_epoch..=latest_epoch  (resubscribe)
//! ```
//!
//! The `Hello` says which epoch the client wants next, so the session
//! starts with the frames it missed already queued — a reconnecting
//! client pays no NACK round trip (and no wait for the shard's next
//! socket poll) to catch up. After the handshake the server pushes `Rekey` frames (one per
//! epoch, payload = the `rekey_keytree::message::codec` message
//! encoding, prefixed by the server's publish wall-clock stamp), the
//! client may `Nack` missed epochs at any time, and the server answers
//! NACKs either with the retransmitted `Rekey` frames or a `Gap` when
//! the epoch has left its retransmission window. After installing an
//! epoch's DEK the client reports the measured end-to-end propagation
//! lag with an `Ack` — the server folds those into its
//! `net_propagation_seconds` histogram. `Bye` closes either direction
//! gracefully.
//!
//! Every frame leads with a one-byte type tag; the two handshake
//! frames additionally carry [`PROTO_VERSION`] so incompatible
//! endpoints fail fast with a typed error instead of misparsing.
//! All integers are big-endian, matching the key-tree codec.

use crate::error::{NetError, RejectReason};
use crate::frame::FRAME_HEADER_LEN;
use rekey_crypto::hmac::HmacSha256;
use rekey_crypto::Key;
use rekey_keytree::message::codec::{self, ensure, DecodeError, Reader};
use rekey_keytree::message::RekeyMessage;
use rekey_keytree::MemberId;

/// Protocol version spoken by this build. Bumped on any wire change.
/// v2: `Rekey` gained the publish wall-clock stamp, `Ack` was added.
/// v3: `Rekey` payloads are `codec::WIRE_VERSION` 2, which a v2 peer
/// cannot parse — it is turned away at the handshake
/// ([`RejectReason::BadVersion`]) instead of failing on its first epoch.
/// v4: rekey entries are sealed with ChaCha20-Poly1305 over their
/// header, which a v3 peer cannot open (it would fail `BadTag` on its
/// first epoch), and the `Hello` tag is keyed by a derived key
/// ([`hello_tag`]).
/// v5: `Rekey` payloads are `codec::WIRE_VERSION` 3 — keys that only
/// joins changed advance by F and arrive as advance records, which a v4
/// peer can neither parse nor apply — and `Hello` carries the client's
/// next wanted epoch, which replaces the resubscribe `Nack`.
/// v6: `Rekey` payloads are `codec::WIRE_VERSION` 4 — each entry's key
/// stream and Poly1305 key come from one ChaCha20 block — whose tags a
/// v5 peer cannot verify (every entry would fail `BadTag`).
/// v7: `Rekey` payloads are `codec::WIRE_VERSION` 5 — a refreshed key
/// whose child was refreshed too is derived from that child's new key
/// by G and arrives as a derivation record, which a v6 peer can
/// neither parse nor apply.
pub const PROTO_VERSION: u8 = 7;

/// Server nonce length (the HMAC challenge).
pub const NONCE_LEN: usize = 32;

/// Authentication tag length (HMAC-SHA256).
pub const TAG_LEN: usize = 32;

/// Most epochs one `Nack` frame may carry. A client missing more
/// re-NACKs after draining the first batch.
pub const MAX_NACK_EPOCHS: usize = 1024;

const T_SERVER_HELLO: u8 = 1;
const T_HELLO: u8 = 2;
const T_WELCOME: u8 = 3;
const T_REJECT: u8 = 4;
const T_REKEY: u8 = 5;
const T_NACK: u8 = 6;
const T_GAP: u8 = 7;
const T_BYE: u8 = 8;
const T_ACK: u8 = 9;

/// One protocol frame (the payload of one length-prefixed wire frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Server challenge, first frame of every connection.
    ServerHello {
        /// Fresh random challenge the client must HMAC.
        nonce: [u8; NONCE_LEN],
    },
    /// Client authentication response.
    Hello {
        /// The member identifying itself.
        member: MemberId,
        /// [`hello_tag`]: `HMAC(individual_key.derive("net-hello"),
        /// HELLO_CONTEXT ‖ nonce ‖ member)`.
        tag: [u8; TAG_LEN],
        /// The first epoch the client still needs: the server queues
        /// it and its successors (at most [`MAX_NACK_EPOCHS`]) out of
        /// its retransmission window before the first live frame.
        next_epoch: u64,
    },
    /// Handshake accepted; the session is live.
    Welcome {
        /// Latest epoch the server has published (0 = none yet).
        latest_epoch: u64,
    },
    /// Handshake refused; the server closes after sending this.
    Reject {
        /// Why.
        reason: RejectReason,
    },
    /// One epoch's multicast rekey message, encoded with
    /// `rekey_keytree::message::codec::encode_message`.
    Rekey {
        /// Server wall clock at fan-out (UNIX nanoseconds), stamped
        /// once into the shared frame so clients can measure true
        /// end-to-end rekey propagation. 0 when unknown (e.g. a clock
        /// before the epoch).
        stamp_unix_ns: u64,
        /// The codec bytes, decoded lazily by the receiver.
        payload: Vec<u8>,
    },
    /// Client asks for retransmission of specific epochs.
    Nack {
        /// Epochs the client is missing, at most [`MAX_NACK_EPOCHS`].
        epochs: Vec<u64>,
    },
    /// Server cannot retransmit a NACKed epoch: it has been evicted
    /// from the retransmission window.
    Gap {
        /// Oldest epoch still retransmittable.
        oldest: u64,
        /// The evicted epoch the client asked for.
        requested: u64,
    },
    /// Client report after installing an epoch's DEK: the measured
    /// propagation lag from the server's fan-out stamp to DEK install.
    /// Purely observational — the server records it and never replies.
    Ack {
        /// The installed epoch.
        epoch: u64,
        /// Measured install-minus-publish lag in nanoseconds (clamped
        /// to 0 on clock skew).
        lag_ns: u64,
    },
    /// Graceful close.
    Bye,
}

/// Current wall clock as UNIX nanoseconds (0 if the clock reads before
/// the epoch), the timebase of [`Frame::Rekey::stamp_unix_ns`].
pub fn unix_now_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Domain-separation context for the handshake HMAC.
pub const HELLO_CONTEXT: &[u8] = b"rekey-net hello v1";

/// Computes the `Hello` authentication tag: an HMAC over the server
/// nonce and the member id, bound to this protocol by
/// [`HELLO_CONTEXT`], keyed by `individual_key.derive(b"net-hello")`.
/// The individual key's raw bytes key the key-wrap AEAD and nothing
/// else (one key, one primitive), so the handshake takes a labelled
/// sub-key.
pub fn hello_tag(individual_key: &Key, nonce: &[u8; NONCE_LEN], member: MemberId) -> [u8; TAG_LEN] {
    let mut mac = HmacSha256::new(individual_key.derive(b"net-hello").as_ref());
    mac.update(HELLO_CONTEXT);
    mac.update(nonce);
    mac.update(&member.0.to_be_bytes());
    mac.finalize()
}

/// Serializes a frame into a payload buffer (no length prefix).
pub fn encode(frame: &Frame) -> Vec<u8> {
    match frame {
        Frame::ServerHello { nonce } => {
            let mut buf = Vec::with_capacity(2 + NONCE_LEN);
            buf.push(T_SERVER_HELLO);
            buf.push(PROTO_VERSION);
            buf.extend_from_slice(nonce);
            buf
        }
        Frame::Hello {
            member,
            tag,
            next_epoch,
        } => {
            let mut buf = Vec::with_capacity(2 + 8 + TAG_LEN + 8);
            buf.push(T_HELLO);
            buf.push(PROTO_VERSION);
            buf.extend_from_slice(&member.0.to_be_bytes());
            buf.extend_from_slice(tag);
            buf.extend_from_slice(&next_epoch.to_be_bytes());
            buf
        }
        Frame::Welcome { latest_epoch } => {
            let mut buf = Vec::with_capacity(1 + 8);
            buf.push(T_WELCOME);
            buf.extend_from_slice(&latest_epoch.to_be_bytes());
            buf
        }
        Frame::Reject { reason } => vec![T_REJECT, reason.code()],
        Frame::Rekey {
            stamp_unix_ns,
            payload,
        } => {
            let mut buf = Vec::with_capacity(1 + 8 + payload.len());
            buf.push(T_REKEY);
            buf.extend_from_slice(&stamp_unix_ns.to_be_bytes());
            buf.extend_from_slice(payload);
            buf
        }
        Frame::Nack { epochs } => {
            debug_assert!(epochs.len() <= MAX_NACK_EPOCHS);
            let mut buf = Vec::with_capacity(1 + 4 + 8 * epochs.len());
            buf.push(T_NACK);
            buf.extend_from_slice(&(epochs.len() as u32).to_be_bytes());
            for &epoch in epochs {
                buf.extend_from_slice(&epoch.to_be_bytes());
            }
            buf
        }
        Frame::Gap { oldest, requested } => {
            let mut buf = Vec::with_capacity(1 + 16);
            buf.push(T_GAP);
            buf.extend_from_slice(&oldest.to_be_bytes());
            buf.extend_from_slice(&requested.to_be_bytes());
            buf
        }
        Frame::Ack { epoch, lag_ns } => {
            let mut buf = Vec::with_capacity(1 + 16);
            buf.push(T_ACK);
            buf.extend_from_slice(&epoch.to_be_bytes());
            buf.extend_from_slice(&lag_ns.to_be_bytes());
            buf
        }
        Frame::Bye => vec![T_BYE],
    }
}

/// Builds the complete wire frame of one epoch — length prefix, type
/// tag, stamp, codec bytes — in a single buffer: byte for byte
/// `encode_frame(&encode(&Frame::Rekey { .. }), max)`, without that
/// path's two intermediate copies of the message.
///
/// # Errors
///
/// [`NetError::FrameTooLarge`] if the payload exceeds `max`.
pub fn encode_rekey_frame(
    stamp_unix_ns: u64,
    message: &RekeyMessage,
    max: usize,
) -> Result<Vec<u8>, NetError> {
    let mut buf = vec![0; FRAME_HEADER_LEN];
    buf.push(T_REKEY);
    buf.extend_from_slice(&stamp_unix_ns.to_be_bytes());
    codec::encode_message_into(message, &mut buf);
    let len = buf.len() - FRAME_HEADER_LEN;
    match u32::try_from(len) {
        Ok(prefix) if len <= max => buf[..FRAME_HEADER_LEN].copy_from_slice(&prefix.to_be_bytes()),
        _ => return Err(NetError::FrameTooLarge { len, max }),
    }
    Ok(buf)
}

/// Reads a handshake frame's [`PROTO_VERSION`] byte.
fn expect_version(r: &mut Reader<'_>) -> Result<(), NetError> {
    match r.u8()? {
        PROTO_VERSION => Ok(()),
        _ => Err(NetError::Malformed {
            what: "protocol version mismatch",
        }),
    }
}

/// Parses a frame payload.
///
/// # Errors
///
/// [`NetError::UnknownFrame`] for an unrecognized type tag and
/// [`NetError::Malformed`] for truncated fields, trailing garbage,
/// version mismatches, an empty `Rekey` payload, or a NACK list above
/// [`MAX_NACK_EPOCHS`].
pub fn decode(payload: &[u8]) -> Result<Frame, NetError> {
    let mut r = Reader::new(payload);
    let tag = r.u8()?;
    let frame = match tag {
        T_SERVER_HELLO => {
            expect_version(&mut r)?;
            Frame::ServerHello { nonce: *r.array()? }
        }
        T_HELLO => {
            expect_version(&mut r)?;
            Frame::Hello {
                member: MemberId(r.u64()?),
                tag: *r.array()?,
                next_epoch: r.u64()?,
            }
        }
        T_WELCOME => Frame::Welcome {
            latest_epoch: r.u64()?,
        },
        T_REJECT => Frame::Reject {
            reason: RejectReason::from_code(r.u8()?).ok_or(DecodeError::Invalid)?,
        },
        T_REKEY => {
            let stamp_unix_ns = r.u64()?;
            ensure(!r.rest().is_empty())?;
            let payload = r.bytes(r.rest().len())?.to_vec();
            Frame::Rekey {
                stamp_unix_ns,
                payload,
            }
        }
        T_NACK => {
            let count = r.u32()?;
            ensure(count as usize <= MAX_NACK_EPOCHS)?;
            Frame::Nack {
                epochs: r.list(count.into(), 8, Reader::u64)?,
            }
        }
        T_GAP => Frame::Gap {
            oldest: r.u64()?,
            requested: r.u64()?,
        },
        T_ACK => Frame::Ack {
            epoch: r.u64()?,
            lag_ns: r.u64()?,
        },
        T_BYE => Frame::Bye,
        other => return Err(NetError::UnknownFrame(other)),
    };
    r.finish()?;
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        assert_eq!(decode(&encode(&frame)).unwrap(), frame);
    }

    #[test]
    fn every_frame_roundtrips() {
        roundtrip(Frame::ServerHello { nonce: [9; 32] });
        roundtrip(Frame::Hello {
            member: MemberId(42),
            tag: [7; 32],
            next_epoch: 9,
        });
        roundtrip(Frame::Welcome { latest_epoch: 17 });
        roundtrip(Frame::Reject {
            reason: RejectReason::BadAuth,
        });
        roundtrip(Frame::Rekey {
            stamp_unix_ns: 1_700_000_000_000_000_000,
            payload: vec![1, 2, 3],
        });
        roundtrip(Frame::Ack {
            epoch: 17,
            lag_ns: 250_000,
        });
        roundtrip(Frame::Nack {
            epochs: vec![3, 4, 9],
        });
        roundtrip(Frame::Nack { epochs: vec![] });
        roundtrip(Frame::Gap {
            oldest: 5,
            requested: 2,
        });
        roundtrip(Frame::Bye);
    }

    #[test]
    fn truncation_and_garbage_are_typed_errors() {
        assert!(matches!(decode(&[]), Err(NetError::Malformed { .. })));
        assert!(matches!(decode(&[99]), Err(NetError::UnknownFrame(99))));
        // Truncated at every prefix of a valid frame: never a panic.
        let wire = encode(&Frame::Hello {
            member: MemberId(3),
            tag: [1; 32],
            next_epoch: 1,
        });
        for cut in 0..wire.len() {
            assert!(decode(&wire[..cut]).is_err());
        }
        // Trailing garbage rejected.
        let mut wire = encode(&Frame::Welcome { latest_epoch: 1 });
        wire.push(0);
        assert!(matches!(decode(&wire), Err(NetError::Malformed { .. })));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut wire = encode(&Frame::ServerHello { nonce: [0; 32] });
        wire[1] = PROTO_VERSION + 1;
        assert!(matches!(decode(&wire), Err(NetError::Malformed { .. })));

        use crate::frame::{encode_frame, read_frame_deadline, FrameReader, DEFAULT_MAX_FRAME};
        use std::io::Write;
        use std::time::{Duration, Instant};
        let daemon = crate::Rekeyd::bind("127.0.0.1:0", crate::ServerConfig::default()).unwrap();
        let key = Key::from_bytes([5; 32]);
        daemon.register(MemberId(1), key.clone());
        let deadline = Instant::now() + Duration::from_secs(5);
        // Connects, answers the server's challenge with `hello(nonce)`,
        // and expects to be turned away for its version.
        let assert_bad_version = |hello: &dyn Fn([u8; NONCE_LEN]) -> Vec<u8>| {
            let mut stream = std::net::TcpStream::connect(daemon.local_addr()).unwrap();
            let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
            let server_hello =
                read_frame_deadline(&mut stream, &mut reader, deadline, "server hello").unwrap();
            let Frame::ServerHello { nonce } = decode(&server_hello).unwrap() else {
                panic!("expected a server hello");
            };
            stream
                .write_all(&encode_frame(&hello(nonce), DEFAULT_MAX_FRAME).unwrap())
                .unwrap();
            let reply = read_frame_deadline(&mut stream, &mut reader, deadline, "reject").unwrap();
            assert_eq!(
                decode(&reply).unwrap(),
                Frame::Reject {
                    reason: RejectReason::BadVersion
                }
            );
            assert_eq!(daemon.session_count(), 0);
        };
        // Correctly authenticated: only the version byte is wrong.
        let hello_at = |version: u8, nonce: [u8; NONCE_LEN]| {
            let mut hello = encode(&Frame::Hello {
                member: MemberId(1),
                tag: hello_tag(&key, &nonce, MemberId(1)),
                next_epoch: 1,
            });
            assert_eq!(hello[1], PROTO_VERSION);
            hello[1] = version;
            hello
        };

        // A protocol-5 peer seals and opens entries with RFC 8439's
        // two-block construction: every entry it received would fail
        // `BadTag`. It must be turned away at the handshake with a
        // typed reason — not let in to fail on its first Rekey.
        assert_bad_version(&|nonce| hello_at(5, nonce));

        // A peer built before the key advance says protocol 4 in its
        // Hello, which had no next_epoch.
        assert_bad_version(&|nonce| {
            let mut hello = hello_at(4, nonce);
            hello.truncate(hello.len() - 8);
            hello
        });

        // A protocol-3 peer cannot open a ChaCha20-Poly1305 entry. Its
        // Hello is authenticated the way version 3 did it — HMAC keyed
        // by the individual key's raw bytes — and must be turned away
        // for its version, not for its tag.
        assert_bad_version(&|nonce| {
            let mut v3_mac = HmacSha256::new(key.as_bytes());
            v3_mac.update(HELLO_CONTEXT);
            v3_mac.update(&nonce);
            v3_mac.update(&1u64.to_be_bytes());
            let mut v3_hello = encode(&Frame::Hello {
                member: MemberId(1),
                tag: v3_mac.finalize(),
                next_epoch: 1,
            });
            v3_hello[1] = 3;
            v3_hello.truncate(v3_hello.len() - 8); // no next_epoch before v5
            v3_hello
        });
    }

    #[test]
    fn rekey_frame_built_in_one_buffer_equals_the_layered_encoding() {
        use crate::frame::{encode_frame, DEFAULT_MAX_FRAME};
        use rekey_crypto::keywrap;
        use rekey_keytree::message::RekeyEntry;
        use rekey_keytree::NodeId;
        let entry = |i: u64| RekeyEntry {
            target: NodeId::from_parts(1, 10 + i / 2),
            target_version: 4,
            under: NodeId::from_parts(1, 40 + i),
            under_version: i,
            under_is_leaf: i == 3,
            recipient: (i == 3).then_some(MemberId(99)),
            audience: 7,
            target_depth: 2,
            wrapped: keywrap::wrap_with_nonce(
                &Key::from_bytes([i as u8; 32]),
                &Key::from_bytes([9; 32]),
                [i as u8; 12],
            ),
        };
        for count in [0, 1, 5] {
            let message = RekeyMessage {
                entries: (0..count).map(entry).collect(),
                ..RekeyMessage::new(17)
            };
            let stamp_unix_ns = 1_700_000_000_000_000_123;
            let layered = encode_frame(
                &encode(&Frame::Rekey {
                    stamp_unix_ns,
                    payload: codec::encode_message(&message),
                }),
                DEFAULT_MAX_FRAME,
            )
            .unwrap();
            let framed = encode_rekey_frame(stamp_unix_ns, &message, DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(framed, layered);
            let payload_len = framed.len() - FRAME_HEADER_LEN;
            assert!(matches!(
                encode_rekey_frame(stamp_unix_ns, &message, payload_len - 1),
                Err(NetError::FrameTooLarge { len, max }) if len == payload_len && max == len - 1
            ));
        }
    }

    #[test]
    fn oversized_nack_count_is_rejected_without_allocating() {
        let mut wire = vec![6u8]; // T_NACK
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(decode(&wire), Err(NetError::Malformed { .. })));
    }

    #[test]
    fn hello_tag_binds_nonce_and_member() {
        let key = Key::from_bytes([3; 32]);
        let tag = hello_tag(&key, &[1; 32], MemberId(7));
        assert_ne!(tag, hello_tag(&key, &[2; 32], MemberId(7)));
        assert_ne!(tag, hello_tag(&key, &[1; 32], MemberId(8)));
        assert_ne!(
            tag,
            hello_tag(&Key::from_bytes([4; 32]), &[1; 32], MemberId(7))
        );
    }
}
