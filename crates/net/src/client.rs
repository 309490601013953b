//! `RekeyClient` — a real [`GroupMember`] fed over a socket.
//!
//! The client owns the member's key ring and a TCP connection to a
//! [`crate::server::Rekeyd`]. It reconnects with capped exponential
//! backoff (deterministic jitter, see [`crate::backoff`]), and on
//! every (re)connect it resubscribes by naming in its `Hello` the
//! next epoch it needs: the server starts the session with the epochs
//! between that and its `Welcome` head already queued — reconnect
//! recovery and late-join catch-up are the same code path, and neither
//! waits a NACK round trip.
//!
//! Epochs are applied strictly in order: an out-of-order `Rekey` frame
//! (retransmissions can overtake the live fan-out) is parked in a
//! pending buffer and the missing prefix is NACKed; `process` runs
//! only when the next expected epoch is available. The client also
//! maintains a SHA-256 digest over the codec bytes of every applied
//! epoch, so tests can compare a socket-fed member byte-for-byte
//! against an in-process delivery path.
//!
//! Every `Rekey` frame carries the server's fan-out wall-clock stamp;
//! at DEK-install time the client measures the end-to-end propagation
//! lag, records it under `net.client.propagation_ns`, and reports it
//! back to the server with a best-effort `Ack`. Connection-health
//! counters (`net.client.connect_attempts`, `.backoff_sleeps`,
//! `.handshake_retries`, `.replayed_frames`, …) go to the global
//! recorder when one is installed.

use crate::backoff::{Backoff, BackoffConfig};
use crate::error::NetError;
use crate::frame::{self, encode_frame, FrameReader};
use crate::proto::{self, Frame, MAX_NACK_EPOCHS};
use rekey_crypto::sha256::Sha256;
use rekey_crypto::Key;
use rekey_keytree::member::GroupMember;
use rekey_keytree::message::{codec, RekeyMessage};
use rekey_keytree::MemberId;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// Client configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientConfig {
    /// Reconnect backoff policy.
    pub backoff: BackoffConfig,
}

/// Budget for one TCP connect attempt.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Budget for one handshake (after connect).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// Bytes asked of the socket per `read`: an epoch's frame is tens to
/// hundreds of KB, so a 16 k-member frame arrives in a handful of
/// reads instead of one per 4 KiB.
const READ_CHUNK: usize = 64 * 1024;

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    /// Read buffer, [`READ_CHUNK`] bytes, allocated once per connection.
    chunk: Vec<u8>,
    /// The read timeout the socket currently has, so `poll` pays the
    /// `setsockopt` only when the slice it wants changes. `None` after
    /// the handshake, which sets its own.
    read_timeout: Option<Duration>,
}

/// A key-distribution client wrapping one real group member.
pub struct RekeyClient {
    addr: SocketAddr,
    member: GroupMember,
    individual_key: Key,
    conn: Option<Conn>,
    backoff: Backoff,
    /// Next epoch to apply (everything below is done).
    next_epoch: u64,
    /// Out-of-order arrivals: epoch → (fan-out stamp, codec bytes, the
    /// message they decode to). The bytes feed the digest.
    pending: BTreeMap<u64, (u64, Vec<u8>, RekeyMessage)>,
    /// Epochs we have NACKed and not yet seen arrive, to count
    /// retransmission-window replays distinctly from live fan-out.
    nacked: BTreeSet<u64>,
    digest: Sha256,
    applied: u64,
    reconnects: u64,
    server_latest: u64,
    server_closed: bool,
    connected_once: bool,
}

impl RekeyClient {
    /// A client for `member` whose first wanted epoch is
    /// `start_epoch` (engine epochs are 1-based; a member admitted at
    /// interval `t` wants epochs from `t + 1` on). No I/O happens
    /// until the first [`RekeyClient::poll`].
    pub fn new(
        addr: SocketAddr,
        member: MemberId,
        individual_key: Key,
        start_epoch: u64,
        config: ClientConfig,
    ) -> Self {
        let backoff = Backoff::new(BackoffConfig {
            // Decorrelate clients without losing determinism.
            seed: config.backoff.seed ^ member.0,
            ..config.backoff
        });
        RekeyClient {
            addr,
            member: GroupMember::new(member, individual_key.clone()),
            individual_key,
            conn: None,
            backoff,
            next_epoch: start_epoch.max(1),
            pending: BTreeMap::new(),
            nacked: BTreeSet::new(),
            digest: Sha256::new(),
            applied: 0,
            reconnects: 0,
            server_latest: 0,
            server_closed: false,
            connected_once: false,
        }
    }

    /// The wrapped member (key ring, DEK lookups).
    pub fn member(&self) -> &GroupMember {
        &self.member
    }

    /// Next epoch the client still needs.
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Epochs applied so far.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Successful connections beyond the first.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Whether the server said `Bye`.
    pub fn server_closed(&self) -> bool {
        self.server_closed
    }

    /// SHA-256 over the codec bytes of every applied epoch, in order.
    pub fn digest(&self) -> [u8; 32] {
        self.digest.clone().finalize()
    }

    /// Points the client at a different server address, dropping any
    /// live connection. All epoch state (next wanted epoch, digest,
    /// pending buffer) is kept: the next poll connects to the new
    /// address, re-authenticates, and NACKs whatever is missing — the
    /// recovery path a client takes when a crashed daemon restarts on
    /// a new port.
    pub fn redirect(&mut self, addr: SocketAddr) {
        self.addr = addr;
        self.conn = None;
        // A Bye from the old (crashed or drained) server is void: the
        // new address is a new stream.
        self.server_closed = false;
        self.backoff.reset();
        rekey_obs::count("net.client.redirects", 1);
    }

    /// Drops the connection without telling the server — simulates a
    /// crash mid-epoch. The next poll reconnects and NACKs the gap.
    pub fn inject_disconnect(&mut self) {
        if self.conn.take().is_some() {
            rekey_obs::count("net.client.injected_disconnects", 1);
        }
    }

    /// Graceful close: best-effort `Bye`, then drop the connection.
    pub fn close(&mut self) {
        if let Some(mut conn) = self.conn.take() {
            if let Ok(bye) = encode_frame(&proto::encode(&Frame::Bye), frame::DEFAULT_MAX_FRAME) {
                let _ = conn.stream.write_all(&bye);
            }
        }
    }

    /// Connects (with handshake and resubscribe-NACK), retrying with
    /// backoff until `deadline`.
    fn ensure_connected(&mut self, deadline: Instant) -> Result<(), NetError> {
        if self.conn.is_some() {
            return Ok(());
        }
        loop {
            match self.connect_once() {
                Ok(()) => return Ok(()),
                Err(NetError::Rejected(reason)) => {
                    // Authentication and version failures are not
                    // transient; retrying would loop forever.
                    return Err(NetError::Rejected(reason));
                }
                Err(e) => {
                    rekey_obs::count("net.client.handshake_retries", 1);
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(e);
                    }
                    let delay = self.backoff.next_delay().min(deadline - now);
                    rekey_obs::count("net.client.backoff_sleeps", 1);
                    thread::sleep(delay);
                }
            }
        }
    }

    fn connect_once(&mut self) -> Result<(), NetError> {
        rekey_obs::count("net.client.connect_attempts", 1);
        let stream = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        let mut stream = stream;
        stream.set_write_timeout(Some(HANDSHAKE_TIMEOUT))?;
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        let mut reader = FrameReader::new(frame::DEFAULT_MAX_FRAME);

        let payload =
            frame::read_frame_deadline(&mut stream, &mut reader, deadline, "server hello")?;
        let nonce = match proto::decode(&payload)? {
            Frame::ServerHello { nonce } => nonce,
            Frame::Reject { reason } => return Err(NetError::Rejected(reason)),
            _ => {
                return Err(NetError::Malformed {
                    what: "expected server hello",
                })
            }
        };

        let tag = proto::hello_tag(&self.individual_key, &nonce, self.member.id());
        let hello = encode_frame(
            &proto::encode(&Frame::Hello {
                member: self.member.id(),
                tag,
                next_epoch: self.next_epoch,
            }),
            frame::DEFAULT_MAX_FRAME,
        )?;
        stream.write_all(&hello)?;

        let payload = frame::read_frame_deadline(&mut stream, &mut reader, deadline, "welcome")?;
        let latest = match proto::decode(&payload)? {
            Frame::Welcome { latest_epoch } => latest_epoch,
            Frame::Reject { reason } => return Err(NetError::Rejected(reason)),
            _ => {
                return Err(NetError::Malformed {
                    what: "expected welcome",
                })
            }
        };
        self.server_latest = latest;

        if self.connected_once {
            self.reconnects += 1;
            rekey_obs::count("net.client.reconnects", 1);
        }
        self.connected_once = true;
        self.backoff.reset();
        self.conn = Some(Conn {
            stream,
            reader,
            chunk: vec![0; READ_CHUNK],
            read_timeout: None,
        });

        // Resubscribe: the Hello named our next epoch, and the server
        // queued everything from it to its head (at most
        // `MAX_NACK_EPOCHS`; the hole logic NACKs the rest). Late join
        // and reconnect are the same path.
        let resent = (self.next_epoch..=latest).take(MAX_NACK_EPOCHS);
        self.nacked.extend(resent);
        Ok(())
    }

    /// NACKs every epoch in `[next_epoch, upto]` not already pending,
    /// bounded by [`MAX_NACK_EPOCHS`] (the rest follows once the first
    /// batch lands and uncovers the still-missing suffix).
    fn nack_missing(&mut self, upto: u64) -> Result<(), NetError> {
        if self.next_epoch > upto {
            return Ok(());
        }
        let epochs: Vec<u64> = (self.next_epoch..=upto)
            .filter(|e| !self.pending.contains_key(e))
            .take(MAX_NACK_EPOCHS)
            .collect();
        if epochs.is_empty() {
            return Ok(());
        }
        rekey_obs::count("net.client.nacks", 1);
        self.nacked.extend(epochs.iter().copied());
        let nack = encode_frame(
            &proto::encode(&Frame::Nack { epochs }),
            frame::DEFAULT_MAX_FRAME,
        )?;
        let Some(conn) = self.conn.as_mut() else {
            return Err(NetError::Closed);
        };
        conn.stream.write_all(&nack)?;
        Ok(())
    }

    /// Reads the socket until progress is made (at least one epoch
    /// applied), `wait` elapses, the server says `Bye`, or a fatal
    /// error occurs; transient connection failures trigger
    /// reconnect-with-backoff internally. Returns the number of epochs
    /// applied during this call.
    ///
    /// # Errors
    ///
    /// Fatal conditions only: handshake rejection,
    /// [`NetError::EpochEvicted`] (the window has moved past what we
    /// need), codec failures, and key-tree rejections. Socket drops
    /// are handled by reconnecting.
    pub fn poll(&mut self, wait: Duration) -> Result<u64, NetError> {
        let deadline = Instant::now() + wait;
        let mut applied = 0u64;
        loop {
            if self.server_closed {
                return Ok(applied);
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(applied);
            }
            if self.conn.is_none() {
                self.ensure_connected(deadline)?;
                // The resubscribed epochs may have arrived with the
                // `Welcome`, in the handshake's read buffer.
                applied += self.drain_frames()?;
                if applied > 0 {
                    return Ok(applied);
                }
                if self.conn.is_none() {
                    continue;
                }
            }
            let conn = self.conn.as_mut().expect("just connected");
            // A zero Duration means "no timeout" to the socket API; clamp up.
            let slice = (deadline - now).clamp(Duration::from_millis(1), Duration::from_millis(20));
            if conn.read_timeout != Some(slice) {
                conn.stream.set_read_timeout(Some(slice))?;
                conn.read_timeout = Some(slice);
            }
            match conn.stream.read(&mut conn.chunk) {
                Ok(0) => {
                    self.conn = None;
                    continue;
                }
                Ok(n) => {
                    rekey_obs::count("net.client.bytes_in", n as u64);
                    conn.reader.push(&conn.chunk[..n]);
                }
                Err(e) if frame::retryable(&e) => continue,
                Err(_) => {
                    self.conn = None;
                    continue;
                }
            }
            applied += self.drain_frames()?;
            if applied > 0 {
                return Ok(applied);
            }
        }
    }

    /// Polls until `target` is applied (i.e. `next_epoch > target`).
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] if the budget runs out, plus every fatal
    /// error of [`RekeyClient::poll`].
    pub fn sync_to(&mut self, target: u64, budget: Duration) -> Result<(), NetError> {
        let deadline = Instant::now() + budget;
        while self.next_epoch <= target {
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::Timeout { what: "epoch sync" });
            }
            self.poll((deadline - now).min(Duration::from_millis(50)))?;
        }
        Ok(())
    }

    /// Decodes and dispatches every complete frame in the read buffer.
    fn drain_frames(&mut self) -> Result<u64, NetError> {
        let mut applied = 0u64;
        loop {
            let next = match self.conn.as_mut() {
                Some(conn) => conn.reader.next_frame()?,
                None => return Ok(applied),
            };
            let Some(payload) = next else {
                return Ok(applied);
            };
            match proto::decode(&payload)? {
                Frame::Rekey {
                    stamp_unix_ns,
                    payload,
                } => applied += self.on_rekey(stamp_unix_ns, payload)?,
                Frame::Gap { oldest, requested } => {
                    if requested >= self.next_epoch {
                        return Err(NetError::EpochEvicted { requested, oldest });
                    }
                    // Stale gap for an epoch we already have: ignore.
                }
                Frame::Bye => {
                    self.server_closed = true;
                    self.conn = None;
                    return Ok(applied);
                }
                _ => {
                    return Err(NetError::Malformed {
                        what: "unexpected frame from server",
                    })
                }
            }
        }
    }

    /// Ingests one epoch payload: apply in order, park out-of-order
    /// arrivals and NACK the uncovered prefix. Applied epochs measure
    /// and report end-to-end propagation against the fan-out stamp.
    fn on_rekey(&mut self, stamp_unix_ns: u64, payload: Vec<u8>) -> Result<u64, NetError> {
        // The epoch sits in the envelope: a duplicate (e.g. a
        // double-NACKed epoch, or one already parked) is dropped on it,
        // before the whole frame is decoded.
        let epoch = codec::message_epoch(&payload).ok_or(NetError::Codec { epoch: None })?;
        self.server_latest = self.server_latest.max(epoch);
        if self.nacked.remove(&epoch) {
            rekey_obs::count("net.client.replayed_frames", 1);
        }
        if epoch < self.next_epoch || self.pending.contains_key(&epoch) {
            return Ok(0);
        }
        let message =
            codec::decode_message(&payload).ok_or(NetError::Codec { epoch: Some(epoch) })?;
        self.pending
            .insert(epoch, (stamp_unix_ns, payload, message));

        let mut applied = 0u64;
        while let Some((stamp, bytes, message)) = self.pending.remove(&self.next_epoch) {
            self.member.process(&message)?;
            self.digest.update(&bytes);
            let installed_epoch = self.next_epoch;
            self.applied += 1;
            self.next_epoch += 1;
            applied += 1;
            self.report_propagation(installed_epoch, stamp);
        }
        if applied == 0 {
            // Still blocked on a hole below `epoch`: ask for it.
            self.nack_missing(epoch.saturating_sub(1))?;
        }
        Ok(applied)
    }

    /// The DEK for `epoch` is installed: measure the lag against the
    /// server's fan-out stamp, record it locally, and report it back
    /// with a best-effort `Ack` (an unsendable ack is dropped — the
    /// measurement is observability, not protocol state).
    fn report_propagation(&mut self, epoch: u64, stamp_unix_ns: u64) {
        if stamp_unix_ns == 0 {
            return; // server clock was unusable at publish
        }
        let lag_ns = proto::unix_now_ns().saturating_sub(stamp_unix_ns);
        rekey_obs::time_ns("net.client.propagation_ns", lag_ns);
        let ack = proto::encode(&Frame::Ack { epoch, lag_ns });
        if let (Some(conn), Ok(framed)) = (
            self.conn.as_mut(),
            encode_frame(&ack, frame::DEFAULT_MAX_FRAME),
        ) {
            let _ = conn.stream.write_all(&framed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The envelope of an `epoch` message followed by garbage where its
    /// entries should be.
    fn garbled(epoch: u64) -> Vec<u8> {
        let mut payload = codec::encode_message(&RekeyMessage::new(epoch));
        payload.truncate(codec::MESSAGE_HEADER_LEN - 4);
        payload.extend_from_slice(&[0xFF; 9]);
        payload
    }

    /// A duplicate is dropped on its envelope's epoch, so bytes behind
    /// the epoch are never read; the same bytes in an epoch the client
    /// still needs are a codec error.
    #[test]
    fn a_duplicate_frame_is_dropped_before_it_is_decoded() {
        let addr = "127.0.0.1:9".parse().unwrap();
        let mut client = RekeyClient::new(
            addr,
            MemberId(1),
            Key::from_bytes([1; 32]),
            5,
            ClientConfig::default(),
        );
        client.nacked.insert(3);
        assert_eq!(client.on_rekey(0, garbled(3)).ok(), Some(0));
        assert!(
            client.nacked.is_empty(),
            "a replayed frame is still counted"
        );
        assert_eq!(client.on_rekey(0, garbled(4)).ok(), Some(0));
        assert!(matches!(
            client.on_rekey(0, garbled(6)),
            Err(NetError::Codec { epoch: Some(6) })
        ));
        assert!(matches!(
            client.on_rekey(0, vec![codec::WIRE_VERSION, 0]),
            Err(NetError::Codec { epoch: None })
        ));
        // A genuine epoch 7 is parked (the NACK for 5..=6 finds no
        // connection); a second copy of it is a duplicate too.
        let parked = codec::encode_message(&RekeyMessage::new(7));
        assert!(matches!(client.on_rekey(0, parked), Err(NetError::Closed)));
        assert_eq!(client.on_rekey(0, garbled(7)).ok(), Some(0));
        assert_eq!((client.next_epoch(), client.applied()), (5, 0));
    }
}
