//! `rekeyd` — the threaded TCP key-distribution daemon.
//!
//! ```text
//!                       ┌─────────────┐
//!   key server thread ──│  publish()  │── frames the epoch once,
//!                       └──────┬──────┘   stores it in the window
//!                  ┌───────────┼───────────┐
//!            ┌─────▼────┐ ┌────▼─────┐ ┌───▼──────┐
//!            │ shard 0  │ │ shard 1  │ │ shard N  │   worker threads
//!            └─────┬────┘ └────┬─────┘ └───┬──────┘
//!              sessions     sessions    sessions      (member % N)
//! ```
//!
//! One accept thread owns the listener, parks in a blocking `accept()`
//! (no poll interval between a client's connect and its handshake; a
//! connection the daemon makes to its own port is what wakes it for
//! shutdown) and runs the challenge/response handshake under blocking
//! socket timeouts; authenticated sessions are handed to a worker
//! *shard* chosen by hashing the member id.
//! Each shard owns its sessions outright — their nonblocking sockets,
//! read buffers, and bounded send queues — so fan-out needs no
//! per-session locking: [`Rekeyd::publish`] frames the epoch once into
//! an `Arc<[u8]>` and every shard enqueues the same allocation. A shard
//! turn reads every session before it writes it, so the frames a NACK
//! asks for leave in the turn that read the NACK.
//!
//! Backpressure is a disconnect: a session whose send queue is full is
//! dropped rather than allowed to stall the shard or buffer without
//! bound. The client reconnects, re-authenticates with the epoch it
//! wants next, and its session starts with what it missed out of the
//! retransmission window of the last `window` epochs already queued
//! (late joiners take the same path; later holes are NACKed; an
//! evicted epoch answers with a `Gap` frame).
//!
//! # Observability
//!
//! The daemon owns an [`rekey_obs::Collector`] and a lock-free
//! [`FlightRecorder`] and records into both directly — no reliance on
//! the process-global recorder, so `/metrics` is live even when global
//! tracing is off. With [`ServerConfig::admin_addr`] set, an admin
//! HTTP plane ([`rekey_obs::admin`]) serves `/metrics`, `/healthz`,
//! `/readyz`, `/vars`, and `/flightrec` on a separate port. True
//! end-to-end rekey latency comes from the wire: `publish` stamps the
//! fan-out wall clock into each `Rekey` frame, clients measure the lag
//! at DEK install and report it back with an `Ack`, and the daemon
//! folds those into `net.propagation` (aggregate and per shard) — a
//! lag above ten minutes is counted as `net.acks.implausible` instead.

use crate::error::{NetError, RejectReason};
use crate::frame::{self, encode_frame, FrameReader};
use crate::proto::{self, Frame};
use rekey_crypto::sha256::Sha256;
use rekey_crypto::Key;
use rekey_keytree::message::RekeyMessage;
use rekey_keytree::MemberId;
use rekey_obs::admin::{AdminServer, AdminState};
use rekey_obs::{Collector, FlightKind, FlightRecorder, HealthFlags, Recorder};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant, SystemTime};

/// Largest client-reported propagation lag recorded as a sample: ten
/// minutes. `lag_ns` is a difference of two hosts' wall clocks sent by
/// any authenticated client, so a skewed or hostile one can report
/// anything up to `u64::MAX`; a larger value is counted under
/// `net.acks.implausible` instead of saturating `net.propagation`.
const MAX_PLAUSIBLE_LAG_NS: u64 = 600 * 1_000_000_000;

/// Bound on a session's send queue, in frames. A session that falls
/// this far behind is disconnected (backpressure policy).
const SEND_QUEUE_FRAMES: usize = 1024;

/// A handshake must complete within this budget.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// Flight-recorder ring capacity, in events (40 bytes each).
const FLIGHT_EVENTS: usize = 4096;

/// Daemon configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker shards fanning out rekey frames (≥ 1).
    pub workers: usize,
    /// Retransmission window: how many recent epochs stay NACKable.
    pub window: usize,
    /// Graceful-shutdown budget for flushing session queues.
    pub drain_timeout: Duration,
    /// Where to serve the admin HTTP plane (`/metrics`, `/healthz`,
    /// `/readyz`, `/vars`, `/flightrec`). `None` disables it; metrics
    /// and the flight recorder are still collected either way.
    pub admin_addr: Option<SocketAddr>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            window: 128,
            drain_timeout: Duration::from_secs(1),
            admin_addr: None,
        }
    }
}

/// Retransmission window: the last `cap` published epochs, pre-framed.
struct Window {
    cap: usize,
    latest: u64,
    frames: VecDeque<(u64, Arc<[u8]>)>,
}

impl Window {
    fn push(&mut self, epoch: u64, framed: Arc<[u8]>) {
        self.frames.push_back((epoch, framed));
        while self.frames.len() > self.cap {
            self.frames.pop_front();
        }
        self.latest = epoch;
    }

    fn get(&self, epoch: u64) -> Option<Arc<[u8]>> {
        // Epochs are consecutive, so the deque is indexable.
        let (front, _) = self.frames.front()?;
        let idx = epoch.checked_sub(*front)? as usize;
        self.frames.get(idx).map(|(_, f)| f.clone())
    }

    fn oldest(&self) -> u64 {
        self.frames.front().map(|(e, _)| *e).unwrap_or(0)
    }
}

/// State shared between the accept thread, shards, and the handle.
struct Shared {
    registry: Mutex<HashMap<MemberId, Key>>,
    window: RwLock<Window>,
    shutdown: AtomicBool,
    sessions: AtomicUsize,
    nonce_counter: AtomicU64,
    metrics: Arc<Collector>,
    flight: Arc<FlightRecorder>,
    health: Arc<HealthFlags>,
    /// Per-shard propagation histogram names (`net.propagation.shardN`),
    /// interned because the recorder keys on `&'static str`.
    shard_prop_names: Vec<&'static str>,
}

impl Shared {
    fn new(config: &ServerConfig, metrics: Arc<Collector>) -> Shared {
        let shard_prop_names = (0..config.workers.max(1))
            .map(|i| rekey_obs::intern(format!("net.propagation.shard{i}")))
            .collect();
        Shared {
            registry: Mutex::new(HashMap::new()),
            window: RwLock::new(Window {
                cap: config.window.max(1),
                latest: 0,
                frames: VecDeque::new(),
            }),
            shutdown: AtomicBool::new(false),
            sessions: AtomicUsize::new(0),
            nonce_counter: AtomicU64::new(0),
            metrics,
            flight: Arc::new(FlightRecorder::new(FLIGHT_EVENTS)),
            health: HealthFlags::up(),
            shard_prop_names,
        }
    }

    /// Publishes the live session count as a gauge after a change.
    fn sample_sessions(&self) {
        let live = self.sessions.load(Ordering::SeqCst);
        self.metrics
            .sample("net.sessions.live", rekey_obs::now_ns(), live as f64);
    }
}

/// An in-flight (possibly partially written) outbound frame.
struct Outbound {
    bytes: Arc<[u8]>,
    offset: usize,
}

/// One authenticated connection, owned by exactly one shard.
struct Session {
    member: MemberId,
    stream: TcpStream,
    reader: FrameReader,
    queue: VecDeque<Outbound>,
    dead: bool,
}

impl Session {
    /// Enqueues a pre-framed buffer, applying the backpressure bound.
    fn enqueue(&mut self, bytes: Arc<[u8]>, shared: &Shared) {
        if self.dead {
            return;
        }
        if self.queue.len() >= SEND_QUEUE_FRAMES {
            shared.metrics.count("net.sessions.dropped_backpressure", 1);
            shared.flight.record(
                FlightKind::BackpressureDrop,
                self.member.0,
                self.queue.len() as u64,
            );
            self.dead = true;
            return;
        }
        self.queue.push_back(Outbound { bytes, offset: 0 });
    }

    /// Writes as much queued data as the socket accepts right now.
    fn pump_write(&mut self, shared: &Shared) {
        while let Some(front) = self.queue.front_mut() {
            match self.stream.write(&front.bytes[front.offset..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    shared.metrics.count("net.bytes_out", n as u64);
                    front.offset += n;
                    if front.offset == front.bytes.len() {
                        self.queue.pop_front();
                    }
                }
                Err(e) if frame::retryable(&e) => return,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Drains readable bytes and reacts to client frames (NACKs,
    /// propagation ACKs, Bye).
    fn pump_read(&mut self, shared: &Shared) {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    shared.metrics.count("net.bytes_in", n as u64);
                    self.reader.push(&chunk[..n]);
                }
                Err(e) if frame::retryable(&e) => break,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        loop {
            match self.reader.next_frame() {
                Ok(Some(payload)) => {
                    if self.handle_frame(&payload, shared).is_err() {
                        self.dead = true;
                        return;
                    }
                }
                Ok(None) => return,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Queues `epochs` out of the retransmission window — a `Gap` for
    /// one it has evicted, nothing for one not yet published (the live
    /// fan-out brings it).
    fn retransmit(
        &mut self,
        epochs: impl IntoIterator<Item = u64>,
        shared: &Shared,
    ) -> Result<(), NetError> {
        let window = shared.window.read().expect("window lock");
        for epoch in epochs {
            match window.get(epoch) {
                Some(framed) => {
                    shared.metrics.count("net.retransmit.frames", 1);
                    shared
                        .flight
                        .record(FlightKind::Retransmit, self.member.0, epoch);
                    self.enqueue(framed, shared);
                }
                None if epoch > window.latest => {}
                None => {
                    shared.metrics.count("net.retransmit.gaps", 1);
                    shared.flight.record(FlightKind::Gap, self.member.0, epoch);
                    let gap = proto::encode(&Frame::Gap {
                        oldest: window.oldest(),
                        requested: epoch,
                    });
                    let framed: Arc<[u8]> = encode_frame(&gap, usize::MAX)?.into();
                    self.enqueue(framed, shared);
                }
            }
        }
        Ok(())
    }

    fn handle_frame(&mut self, payload: &[u8], shared: &Shared) -> Result<(), NetError> {
        match proto::decode(payload)? {
            Frame::Nack { epochs } => {
                shared.metrics.count("net.nacks", 1);
                shared
                    .flight
                    .record(FlightKind::Nack, self.member.0, epochs.len() as u64);
                self.retransmit(epochs, shared)?;
                Ok(())
            }
            Frame::Ack { epoch, lag_ns } => {
                // End-to-end propagation as measured by the client:
                // fan-out stamp to DEK install. Aggregate + per shard.
                shared.metrics.count("net.acks", 1);
                shared
                    .flight
                    .record(FlightKind::PropagationAck, epoch, lag_ns);
                if lag_ns > MAX_PLAUSIBLE_LAG_NS {
                    shared.metrics.count("net.acks.implausible", 1);
                    return Ok(());
                }
                shared.metrics.time("net.propagation", lag_ns);
                let shards = shared.shard_prop_names.len() as u64;
                let shard = (self.member.0 % shards) as usize;
                shared.metrics.time(shared.shard_prop_names[shard], lag_ns);
                Ok(())
            }
            Frame::Bye => {
                self.dead = true;
                Ok(())
            }
            // Anything else from an authenticated client is a
            // protocol violation.
            _ => Err(NetError::Malformed {
                what: "unexpected frame from client",
            }),
        }
    }
}

/// Commands a shard receives from the accept thread and the handle.
enum ShardCmd {
    Adopt(Box<Session>),
    Publish(Arc<[u8]>),
    Shutdown,
}

/// The daemon handle. Dropping it shuts the daemon down gracefully.
pub struct Rekeyd {
    shared: Arc<Shared>,
    shards: Vec<Sender<ShardCmd>>,
    shard_threads: Vec<JoinHandle<()>>,
    accept_thread: Option<JoinHandle<()>>,
    addr: SocketAddr,
    admin: Option<AdminServer>,
    stopped: bool,
}

impl Rekeyd {
    /// Binds the listener, spawns the accept thread and `workers`
    /// shard threads, and starts admitting sessions. The daemon
    /// records into a fresh [`Collector`]; use [`Rekeyd::bind_with`]
    /// to share one with other instrumentation.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> Result<Rekeyd, NetError> {
        Rekeyd::bind_with(addr, config, Arc::new(Collector::new()))
    }

    /// [`Rekeyd::bind`] recording into a caller-supplied collector —
    /// the admin plane then exposes the caller's counters alongside
    /// the daemon's own.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding the listener or the
    /// admin port.
    pub fn bind_with<A: ToSocketAddrs>(
        addr: A,
        config: ServerConfig,
        metrics: Arc<Collector>,
    ) -> Result<Rekeyd, NetError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;

        let workers = config.workers.max(1);
        let shared = Arc::new(Shared::new(&config, metrics));

        let admin = match config.admin_addr {
            Some(admin_addr) => Some(
                AdminServer::bind(
                    admin_addr,
                    AdminState {
                        collector: shared.metrics.clone(),
                        flight: Some(shared.flight.clone()),
                        health: shared.health.clone(),
                    },
                )
                .map_err(NetError::Io)?,
            ),
            None => None,
        };

        let mut shards = Vec::with_capacity(workers);
        let mut shard_threads = Vec::with_capacity(workers);
        for index in 0..workers {
            let (tx, rx) = mpsc::channel();
            shards.push(tx);
            let shared = shared.clone();
            shard_threads.push(
                thread::Builder::new()
                    .name(format!("rekeyd-shard-{index}"))
                    .spawn(move || shard_main(rx, shared, config))
                    .map_err(NetError::Io)?,
            );
        }

        let accept_thread = {
            let shared = shared.clone();
            let shards = shards.clone();
            thread::Builder::new()
                .name("rekeyd-accept".into())
                .spawn(move || accept_main(listener, shared, shards))
                .map_err(NetError::Io)?
        };

        Ok(Rekeyd {
            shared,
            shards,
            shard_threads,
            accept_thread: Some(accept_thread),
            addr,
            admin,
            stopped: false,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound admin-plane address, when one was configured.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin.as_ref().map(AdminServer::local_addr)
    }

    /// The collector the daemon records into.
    pub fn collector(&self) -> Arc<Collector> {
        self.shared.metrics.clone()
    }

    /// The daemon's flight recorder (for dumps on signal/panic).
    pub fn flight(&self) -> Arc<FlightRecorder> {
        self.shared.flight.clone()
    }

    /// Registers a member's individual key; only registered members
    /// pass the handshake. Safe to call while serving.
    pub fn register(&self, member: MemberId, individual_key: Key) {
        self.shared
            .registry
            .lock()
            .expect("registry lock")
            .insert(member, individual_key);
    }

    /// Removes a member from the handshake registry. Live sessions are
    /// unaffected (departed members keep receiving ciphertext they can
    /// no longer use — exactly the model the testkit's farm assumes).
    pub fn deregister(&self, member: MemberId) {
        self.shared
            .registry
            .lock()
            .expect("registry lock")
            .remove(&member);
    }

    /// Publishes one epoch: frames the message once and fans it out to
    /// every live session, retaining it in the retransmission window.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] if the daemon has shut down, and framing
    /// errors if the encoded message exceeds the frame limit.
    pub fn publish(&self, message: &RekeyMessage) -> Result<(), NetError> {
        let started = Instant::now();
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(NetError::Closed);
        }
        // The wall-clock stamp rides in the shared frame: every client
        // measures install-time lag against the same fan-out instant.
        let framed: Arc<[u8]> =
            proto::encode_rekey_frame(proto::unix_now_ns(), message, frame::DEFAULT_MAX_FRAME)?
                .into();
        self.shared
            .metrics
            .count("net.fanout.bytes", framed.len() as u64);
        self.shared.metrics.count("net.epochs_published", 1);
        self.shared
            .flight
            .record(FlightKind::EpochPublish, message.epoch, framed.len() as u64);
        self.shared
            .window
            .write()
            .expect("window lock")
            .push(message.epoch, framed.clone());
        for shard in &self.shards {
            shard
                .send(ShardCmd::Publish(framed.clone()))
                .map_err(|_| NetError::Closed)?;
        }
        self.shared
            .metrics
            .time("net.fanout", started.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Latest epoch published so far (0 = none).
    pub fn latest_epoch(&self) -> u64 {
        self.shared.window.read().expect("window lock").latest
    }

    /// Currently live authenticated sessions.
    pub fn session_count(&self) -> usize {
        self.shared.sessions.load(Ordering::SeqCst)
    }

    /// Starts the drain without tearing anything down yet: new
    /// handshakes are refused, `/healthz` and `/readyz` flip to 503,
    /// and [`Rekeyd::publish`] returns [`NetError::Closed`] — but
    /// existing sessions, the admin plane, and all threads stay up so
    /// operators (and the integration tests) can watch the drain.
    /// Follow with [`Rekeyd::shutdown`] to finish.
    pub fn begin_shutdown(&self) {
        self.shared.health.begin_drain();
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Graceful shutdown: stop accepting, drain session queues (each
    /// session gets a `Bye`), join all threads. The admin plane is
    /// stopped last so `/metrics` stays scrapeable through the drain.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] if a worker thread panicked,
    /// [`NetError::Io`] if the accept thread could not be woken (it is
    /// then left to exit at the next connection instead of joined).
    pub fn shutdown(mut self) -> Result<(), NetError> {
        self.stop()
    }

    /// Returns the accept thread from its blocking `accept()`: with the
    /// shutdown flag up, the next connection it accepts ends its loop,
    /// and this is that connection. A connect that finds the listener
    /// closing ([`listener_closing`]) means the thread has already
    /// returned (a client connected during the drain).
    fn wake_accept(&self) -> std::io::Result<()> {
        let mut addr = self.addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        match TcpStream::connect(addr) {
            Err(e) if !listener_closing(e.kind()) => Err(e),
            _ => Ok(()),
        }
    }

    fn stop(&mut self) -> Result<(), NetError> {
        if self.stopped {
            return Ok(());
        }
        self.stopped = true;
        self.begin_shutdown();
        for shard in &self.shards {
            // A dead shard already stopped; that is shutdown enough.
            let _ = shard.send(ShardCmd::Shutdown);
        }
        let woken = self.wake_accept();
        let mut panicked = false;
        for handle in self.shard_threads.drain(..) {
            panicked |= handle.join().is_err();
        }
        if let (Ok(()), Some(handle)) = (&woken, self.accept_thread.take()) {
            panicked |= handle.join().is_err();
        }
        if let Some(admin) = self.admin.take() {
            admin.shutdown();
        }
        if panicked {
            return Err(NetError::Closed);
        }
        woken.map_err(NetError::Io)
    }
}

/// Whether a wake-up connect that failed with `kind` met a listener
/// that is closing or closed: refused once it is gone, reset or aborted
/// while it goes with the connection still in its backlog.
fn listener_closing(kind: std::io::ErrorKind) -> bool {
    use std::io::ErrorKind::{ConnectionAborted, ConnectionRefused, ConnectionReset};
    matches!(
        kind,
        ConnectionRefused | ConnectionReset | ConnectionAborted
    )
}

impl Drop for Rekeyd {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Accept loop: blocking accept + blocking handshake, then hand the
/// session to `member % shards`. Parked in `accept()`, the thread sees
/// the shutdown flag only when a connection arrives; `Rekeyd::stop`
/// raises the flag and then makes one.
fn accept_main(listener: TcpListener, shared: Arc<Shared>, shards: Vec<Sender<ShardCmd>>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    // The wake-up connection, or a client arriving
                    // during the drain: neither gets a session.
                    return;
                }
                let started = Instant::now();
                match handshake(stream, &shared) {
                    Ok(session) => {
                        let shard = (session.member.0 % shards.len() as u64) as usize;
                        shared.sessions.fetch_add(1, Ordering::SeqCst);
                        shared.metrics.count("net.sessions.opened", 1);
                        shared
                            .flight
                            .record(FlightKind::Accept, session.member.0, 0);
                        shared.sample_sessions();
                        if shards[shard]
                            .send(ShardCmd::Adopt(Box::new(session)))
                            .is_err()
                        {
                            shared.sessions.fetch_sub(1, Ordering::SeqCst);
                            shared.sample_sessions();
                        }
                    }
                    Err(e) => {
                        shared.metrics.count("net.sessions.rejected", 1);
                        let reason = match e {
                            NetError::Rejected(reason) => u64::from(reason.code()),
                            _ => 0,
                        };
                        shared.flight.record(FlightKind::HandshakeFail, reason, 0);
                    }
                }
                shared
                    .metrics
                    .time("net.accept", started.elapsed().as_nanos() as u64);
            }
            // Out of descriptors, or a connection reset in the backlog.
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Challenge/response handshake, run on the accept thread under
/// blocking socket timeouts. On success the socket flips to
/// nonblocking and the session is ready for a shard.
fn handshake(mut stream: TcpStream, shared: &Shared) -> Result<Session, NetError> {
    let started = Instant::now();
    let deadline = started + HANDSHAKE_TIMEOUT;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(HANDSHAKE_TIMEOUT))?;

    let nonce = fresh_nonce(shared);
    let hello = encode_frame(&proto::encode(&Frame::ServerHello { nonce }), usize::MAX)?;
    stream.write_all(&hello)?;

    let mut reader = FrameReader::new(frame::DEFAULT_MAX_FRAME);
    let payload = frame::read_frame_deadline(&mut stream, &mut reader, deadline, "client hello")?;
    let (member, tag, next_epoch) = match proto::decode(&payload) {
        Ok(Frame::Hello {
            member,
            tag,
            next_epoch,
        }) => (member, tag, next_epoch),
        Ok(_) => {
            return Err(NetError::Malformed {
                what: "expected hello frame",
            })
        }
        Err(e) => {
            // A version mismatch deserves an explicit reject so the
            // client reports the right cause.
            let _ = reject(&mut stream, RejectReason::BadVersion);
            return Err(e);
        }
    };

    let key = shared
        .registry
        .lock()
        .expect("registry lock")
        .get(&member)
        .cloned();
    let Some(key) = key else {
        let _ = reject(&mut stream, RejectReason::UnknownMember);
        return Err(NetError::Rejected(RejectReason::UnknownMember));
    };
    let expected = proto::hello_tag(&key, &nonce, member);
    if !constant_time_eq(&expected, &tag) {
        let _ = reject(&mut stream, RejectReason::BadAuth);
        return Err(NetError::Rejected(RejectReason::BadAuth));
    }
    if shared.shutdown.load(Ordering::SeqCst) {
        let _ = reject(&mut stream, RejectReason::ShuttingDown);
        return Err(NetError::Rejected(RejectReason::ShuttingDown));
    }

    let latest_epoch = shared.window.read().expect("window lock").latest;
    let welcome = encode_frame(&proto::encode(&Frame::Welcome { latest_epoch }), usize::MAX)?;
    stream.write_all(&welcome)?;
    stream.set_nonblocking(true)?;
    shared
        .metrics
        .time("net.session.handshake", started.elapsed().as_nanos() as u64);

    // Resubscribe: the shard's first turn writes what the client
    // missed, the way it answers a NACK, without waiting for one.
    let mut session = Session {
        member,
        stream,
        reader,
        queue: VecDeque::new(),
        dead: false,
    };
    let missed = next_epoch.max(1)..=latest_epoch;
    session.retransmit(missed.take(proto::MAX_NACK_EPOCHS), shared)?;
    Ok(session)
}

fn reject(stream: &mut TcpStream, reason: RejectReason) -> Result<(), NetError> {
    let frame = encode_frame(&proto::encode(&Frame::Reject { reason }), usize::MAX)?;
    stream.write_all(&frame)?;
    Ok(())
}

/// A fresh 32-byte challenge: SHA-256 over wall clock, a process-wide
/// counter, and the shared state's address. Unpredictable enough for a
/// liveness challenge (the secret in the handshake is the HMAC key,
/// not the nonce).
fn fresh_nonce(shared: &Shared) -> [u8; proto::NONCE_LEN] {
    let mut hasher = Sha256::new();
    let now = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .unwrap_or_default();
    hasher.update(&now.as_nanos().to_be_bytes());
    hasher.update(
        &shared
            .nonce_counter
            .fetch_add(1, Ordering::SeqCst)
            .to_be_bytes(),
    );
    hasher.update(&(shared as *const Shared as usize).to_be_bytes());
    hasher.finalize()
}

fn constant_time_eq(a: &[u8; 32], b: &[u8; 32]) -> bool {
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Shard main loop: owns its sessions, multiplexing channel commands
/// with socket polling.
fn shard_main(rx: Receiver<ShardCmd>, shared: Arc<Shared>, config: ServerConfig) {
    let mut sessions: Vec<Session> = Vec::new();
    loop {
        // Idle shards block on the channel; busy shards poll it.
        let first = if sessions.is_empty() {
            match rx.recv() {
                Ok(cmd) => Some(cmd),
                Err(_) => return,
            }
        } else {
            match rx.recv_timeout(Duration::from_millis(1)) {
                Ok(cmd) => Some(cmd),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => return,
            }
        };
        let mut commands: Vec<ShardCmd> = first.into_iter().collect();
        while let Ok(cmd) = rx.try_recv() {
            commands.push(cmd);
        }

        let mut max_depth = 0usize;
        for cmd in commands {
            match cmd {
                ShardCmd::Adopt(session) => sessions.push(*session),
                ShardCmd::Publish(framed) => {
                    for session in &mut sessions {
                        session.enqueue(framed.clone(), &shared);
                        max_depth = max_depth.max(session.queue.len());
                    }
                }
                ShardCmd::Shutdown => {
                    drain(&mut sessions, &shared, config.drain_timeout);
                    return;
                }
            }
        }
        if max_depth > 0 {
            shared
                .metrics
                .sample("net.queue.depth", rekey_obs::now_ns(), max_depth as f64);
        }

        pump_sessions(&mut sessions, &shared);
        let before = sessions.len();
        sessions.retain(|s| {
            if s.dead {
                shared
                    .flight
                    .record(FlightKind::SessionClosed, s.member.0, 0);
            }
            !s.dead
        });
        let removed = before - sessions.len();
        if removed > 0 {
            shared.sessions.fetch_sub(removed, Ordering::SeqCst);
            shared.metrics.count("net.sessions.closed", removed as u64);
            shared.sample_sessions();
        }
    }
}

/// The socket half of a shard turn. Each session is read before it is
/// written, so whatever a client frame enqueues (the frames a NACK
/// asks for, a `Gap`) is on the wire in the turn that read it rather
/// than one channel poll later.
fn pump_sessions(sessions: &mut [Session], shared: &Shared) {
    for session in sessions {
        if !session.dead {
            session.pump_read(shared);
        }
        if !session.dead {
            session.pump_write(shared);
        }
    }
}

/// Graceful drain: append a `Bye` to every queue and flush until done
/// or the budget runs out.
fn drain(sessions: &mut Vec<Session>, shared: &Shared, budget: Duration) {
    if let Ok(bye) = encode_frame(&proto::encode(&Frame::Bye), usize::MAX) {
        let bye: Arc<[u8]> = bye.into();
        for session in sessions.iter_mut() {
            // Bypass the backpressure bound: the Bye must go out even
            // on a full queue if the socket drains in time.
            session.queue.push_back(Outbound {
                bytes: bye.clone(),
                offset: 0,
            });
        }
    }
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline {
        let mut pending = false;
        for session in sessions.iter_mut() {
            if !session.dead && !session.queue.is_empty() {
                session.pump_write(shared);
                pending |= !session.dead && !session.queue.is_empty();
            }
        }
        if !pending {
            break;
        }
        thread::sleep(Duration::from_millis(1));
    }
    for session in sessions.iter() {
        shared
            .flight
            .record(FlightKind::SessionClosed, session.member.0, 0);
    }
    let count = sessions.len();
    sessions.clear();
    shared.sessions.fetch_sub(count, Ordering::SeqCst);
    shared.metrics.count("net.sessions.closed", count as u64);
    shared.sample_sessions();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connected loopback pair: the daemon-side end as a [`Session`]
    /// (non-blocking, as `handshake` leaves it) and the client's end.
    fn session_pair(member: u64) -> (Session, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let session = Session {
            member: MemberId(member),
            stream,
            reader: FrameReader::new(frame::DEFAULT_MAX_FRAME),
            queue: VecDeque::new(),
            dead: false,
        };
        (session, client)
    }

    /// Blocks until `len` bytes wait in the session's socket, so the
    /// turn under test finds the whole client frame — no sleep, no poll
    /// interval.
    fn await_readable(session: &Session, len: usize) {
        session.stream.set_nonblocking(false).expect("blocking");
        let mut seen = vec![0u8; len];
        while session.stream.peek(&mut seen).expect("peek") < len {}
        session.stream.set_nonblocking(true).expect("nonblocking");
    }

    #[test]
    fn a_nack_is_answered_in_the_turn_that_reads_it() {
        let config = ServerConfig::default();
        let shared = Shared::new(&config, Arc::new(Collector::new()));
        let published: Vec<Arc<[u8]>> = (1..=3)
            .map(|epoch| {
                let framed: Arc<[u8]> = proto::encode_rekey_frame(
                    0,
                    &RekeyMessage::new(epoch),
                    frame::DEFAULT_MAX_FRAME,
                )
                .expect("frame")
                .into();
                shared
                    .window
                    .write()
                    .expect("window lock")
                    .push(epoch, framed.clone());
                framed
            })
            .collect();

        let (session, mut client) = session_pair(7);
        let nack = encode_frame(
            &proto::encode(&Frame::Nack { epochs: vec![2, 3] }),
            usize::MAX,
        )
        .expect("frame");
        client.write_all(&nack).expect("send nack");
        await_readable(&session, nack.len());

        let mut sessions = vec![session];
        pump_sessions(&mut sessions, &shared);

        assert!(!sessions[0].dead);
        assert!(
            sessions[0].queue.is_empty(),
            "the retransmitted frames must not wait for the next turn"
        );
        let snap = shared.metrics.snapshot();
        assert_eq!(snap.counter("net.nacks"), 1);
        assert_eq!(snap.counter("net.retransmit.frames"), 2);
        let expected = [&published[1][..], &published[2][..]].concat();
        assert_eq!(snap.counter("net.bytes_out"), expected.len() as u64);
        let mut received = vec![0u8; expected.len()];
        client.read_exact(&mut received).expect("retransmission");
        assert_eq!(received, expected);
    }

    #[test]
    fn shutdown_returns_with_the_accept_thread_parked_in_accept() {
        // No client ever connects: the accept thread sits in a blocking
        // accept() for the daemon's whole life, and shutdown has to
        // fetch it out to join it.
        let daemon = Rekeyd::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = daemon.local_addr();
        daemon.shutdown().expect("shutdown joins every thread");
        // Joined means returned, and returning dropped the listener.
        let refused = TcpStream::connect(addr).expect_err("listener closed");
        assert_eq!(refused.kind(), std::io::ErrorKind::ConnectionRefused);
    }

    /// Only the three ways a closing listener answers a connect count
    /// as woken; every other error still fails the shutdown.
    #[test]
    fn a_refused_reset_or_aborted_wake_up_means_the_listener_is_closing() {
        use std::io::ErrorKind::*;
        for kind in [ConnectionRefused, ConnectionReset, ConnectionAborted] {
            assert!(listener_closing(kind), "{kind:?}");
        }
        for kind in [
            TimedOut,
            AddrNotAvailable,
            PermissionDenied,
            NotConnected,
            Interrupted,
            WouldBlock,
            Other,
        ] {
            assert!(!listener_closing(kind), "{kind:?}");
        }
    }

    #[test]
    fn shutdown_joins_an_accept_thread_a_drain_time_client_already_ended() {
        let daemon = Rekeyd::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        daemon.begin_shutdown();
        // A draining daemon answers a late client with a closed
        // connection (accepted and dropped, or refused or reset if the
        // listener is already gone); the read returns once it has.
        if let Ok(mut late) = TcpStream::connect(daemon.local_addr()) {
            let mut byte = [0u8; 1];
            assert!(!matches!(late.read(&mut byte), Ok(n) if n > 0));
        }
        daemon.shutdown().expect("nothing left to wake");
    }
}
