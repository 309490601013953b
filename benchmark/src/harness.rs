//! The system under test, driven exactly as `rekey serve --data-dir`
//! drives it, using only public functions:
//!
//! `Scheme::Tt.build(d=4, K=10)` → `Journal<DirStorage>::durable_interval`
//! (snapshot every 8) → `Rekeyd::publish` → loopback TCP →
//! `RekeyClient::sync_to`.
//!
//! Closed loop, one interval in flight: one driver thread runs the
//! engine and then polls the two sentinel clients in turn. The daemon
//! has one shard and the engine one worker.

use crate::trace::{TracedManager, TracedStorage, Tracer};
use crate::workload::{Batch, Script, Spec, DEGREE, S_PERIOD};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_core::{GroupKeyManager, IntervalOutcome, Join, Journal, Scheme, SchemeConfig};
use rekey_crypto::sha256::Sha256;
use rekey_crypto::Key;
use rekey_keytree::member::GroupMember;
use rekey_keytree::message::{codec, RekeyMessage};
use rekey_keytree::MemberId;
use rekey_net::{ClientConfig, RekeyClient, Rekeyd, ServerConfig};
use rekey_storage::DirStorage;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Snapshot cadence of the journal: the daemon's default.
pub const SNAPSHOT_EVERY: usize = 8;
/// Socket clients following the daemon (one per core of the reference
/// host). They join in the first measured interval and never leave.
pub const SENTINELS: u64 = 2;
/// Sentinel member ids start here, far above any scripted id.
pub const SENTINEL_BASE: u64 = 1 << 40;
/// The daemon refuses larger frames; every measured frame must fit.
pub const MAX_FRAME: usize = rekey_net::frame::DEFAULT_MAX_FRAME;

const SYNC_BUDGET: Duration = Duration::from_secs(30);

/// A data directory under `out/tmp/`, removed when dropped.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `out_dir/tmp/<label>`, empty.
    pub fn create(out_dir: &Path, label: &str) -> std::io::Result<TempDir> {
        let path = out_dir.join("tmp").join(label);
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one measured interval did and cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// `t0` just before `durable_interval(batch)` → `t1` when the last
    /// sentinel's `sync_to(epoch)` returned. `None` for the interval a
    /// crash interrupts: its frame is delivered by the recovery.
    pub interval_ns: Option<u64>,
    /// Joins in the batch.
    pub joins: usize,
    /// Leaves in the batch.
    pub leaves: usize,
    /// Encrypted keys in the rekey message: the paper's metric.
    pub encrypted_keys: usize,
    /// Size of the encoded rekey message.
    pub wire_bytes: usize,
    /// Members the scheme moved between partitions.
    pub migrations: usize,
}

impl Sample {
    /// Joins plus leaves.
    pub fn changes(&self) -> usize {
        self.joins + self.leaves
    }
}

/// Daemon-side counts that must stay zero outside recoveries, plus the
/// bytes the daemon wrote.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetCounts {
    /// `net.nacks` outside recoveries.
    pub steady_nacks: u64,
    /// `net.retransmit.frames` outside recoveries.
    pub steady_retransmits: u64,
    /// Client reconnects outside recoveries.
    pub steady_reconnects: u64,
    /// `net.sessions.dropped_backpressure`.
    pub backpressure_drops: u64,
    /// `net.bytes_out`.
    pub bytes_out: u64,
    /// Sum and count of the `net.session.handshake` timer.
    pub handshake_ns: u64,
    /// Handshakes timed.
    pub handshakes: u64,
}

impl std::ops::AddAssign for NetCounts {
    fn add_assign(&mut self, other: NetCounts) {
        self.steady_nacks += other.steady_nacks;
        self.steady_retransmits += other.steady_retransmits;
        self.steady_reconnects += other.steady_reconnects;
        self.backpressure_drops += other.backpressure_drops;
        self.bytes_out += other.bytes_out;
        self.handshake_ns += other.handshake_ns;
        self.handshakes += other.handshakes;
    }
}

/// The server half, dropped as one on a crash.
struct Server {
    manager: TracedManager,
    journal: Journal<TracedStorage<DirStorage>>,
    daemon: Rekeyd,
    /// `(nacks, retransmits)` this daemon had served when the recovery
    /// that started it completed.
    recovery_counts: (u64, u64),
}

/// One set-up of the system under test: a data directory, the server
/// half, two socket clients and the script feeding them.
pub struct World {
    tracer: Tracer,
    dir: TempDir,
    server: Option<Server>,
    clients: Vec<RekeyClient>,
    sentinels: Vec<(MemberId, Key)>,
    /// Reconnects each client is allowed to have made: one per recovery.
    recoveries: u64,
    rng: StdRng,
    script: Script,
    pending_sentinel_joins: Vec<Join>,
    /// Encoded messages of the epochs since the last snapshot, i.e.
    /// what a recovery must re-derive byte for byte. Empty placeholders
    /// stand for the unpublished set-up epochs.
    tail: Vec<Vec<u8>>,
    wire: Sha256,
    batches: Sha256,
    shadow: Option<GroupMember>,
    net: NetCounts,
    generate: Duration,
}

fn build_manager(tracer: &Tracer) -> TracedManager {
    let mut manager = TracedManager::new(
        Scheme::Tt.build(&SchemeConfig::new().degree(DEGREE).s_period(S_PERIOD)),
        tracer.clone(),
    );
    manager.set_parallelism(1);
    manager
}

fn open_journal(dir: &Path, tracer: &Tracer) -> Result<Journal<TracedStorage<DirStorage>>, String> {
    let storage = {
        let _span = tracer.span("storage.open");
        DirStorage::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?
    };
    Ok(Journal::new(
        TracedStorage::new(storage, tracer.clone()),
        SNAPSHOT_EVERY as u64,
    ))
}

fn bind_daemon(tracer: &Tracer, sentinels: &[(MemberId, Key)]) -> Result<Rekeyd, String> {
    let _span = tracer.span("net.bind");
    let config = ServerConfig {
        workers: 1,
        // The harness only ever stops a daemon to simulate a crash or
        // after the last frame was delivered: nothing to drain.
        drain_timeout: Duration::ZERO,
        ..ServerConfig::default()
    };
    let daemon = Rekeyd::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
    for (member, key) in sentinels {
        daemon.register(*member, key.clone());
    }
    Ok(daemon)
}

impl World {
    /// Sets the system up for `spec`: generates the script from `seed`,
    /// bootstraps the group and runs the warm-up intervals through the
    /// journal without publishing them (the bootstrap epoch of a large
    /// group exceeds the daemon's frame cap, and `tt` migrates nearly
    /// the whole bootstrap population in interval `K`), then starts
    /// the daemon and connects the sentinels.
    pub fn set_up(
        spec: &Spec,
        seed: u64,
        tracer: Tracer,
        out_dir: &Path,
        label: &str,
    ) -> Result<World, String> {
        let _root = tracer.span("setup");
        let generate_start = Instant::now();
        let script = Script::new(spec, seed);
        let generate = generate_start.elapsed();

        let dir = TempDir::create(out_dir, label).map_err(|e| format!("data dir: {e}"))?;
        let mut key_rng = StdRng::seed_from_u64(seed ^ 0x7365_6E74_696E_656C);
        let sentinels: Vec<(MemberId, Key)> = (0..SENTINELS)
            .map(|i| (MemberId(SENTINEL_BASE + i), Key::generate(&mut key_rng)))
            .collect();
        let journal = open_journal(dir.path(), &tracer)?;
        let manager = build_manager(&tracer);
        let daemon = bind_daemon(&tracer, &sentinels)?;
        let shadow = tracer
            .is_on()
            .then(|| GroupMember::new(sentinels[0].0, sentinels[0].1.clone()));
        let mut world = World {
            tracer,
            dir,
            server: Some(Server {
                manager,
                journal,
                daemon,
                recovery_counts: (0, 0),
            }),
            clients: Vec::new(),
            sentinels,
            recoveries: 0,
            rng: StdRng::seed_from_u64(seed ^ 0x656E_6769_6E65_2121),
            script,
            pending_sentinel_joins: Vec::new(),
            tail: Vec::new(),
            wire: Sha256::new(),
            batches: Sha256::new(),
            shadow,
            net: NetCounts::default(),
            generate,
        };

        let bootstrap = world.script.bootstrap();
        world.hash_batch(&bootstrap);
        world.durable(&bootstrap, false)?;
        for _ in 0..spec.warmup {
            let batch = world.next_batch().ok_or("script ended during warm-up")?;
            world.durable(&batch, false)?;
        }

        let server = world.server.as_ref().expect("server is up");
        let addr = server.daemon.local_addr();
        let first_epoch = server.journal.epoch() + 1;
        for (member, key) in &world.sentinels {
            let mut client = RekeyClient::new(
                addr,
                *member,
                key.clone(),
                first_epoch,
                ClientConfig::default(),
            );
            // The first poll connects and authenticates; nothing is
            // published yet, so it applies nothing.
            client
                .poll(Duration::from_millis(1))
                .map_err(|e| format!("sentinel {} connect: {e}", member.0))?;
            world.clients.push(client);
        }
        // A session counts once the accept thread hands it to its
        // shard, so frames published from here on reach both clients.
        let deadline = Instant::now() + SYNC_BUDGET;
        while server.daemon.session_count() < world.clients.len() {
            if Instant::now() >= deadline {
                return Err("sentinel sessions never reached the shard".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        world.pending_sentinel_joins = world
            .sentinels
            .iter()
            .map(|(member, key)| Join::new(*member, key.clone()))
            .collect();
        Ok(world)
    }

    /// Time spent generating batches so far.
    pub fn generate_time(&self) -> Duration {
        self.generate
    }

    /// Batches left in a finite script; `None` for an endless one.
    pub fn remaining_batches(&self) -> Option<usize> {
        self.script.remaining()
    }

    /// Intervals since the last snapshot, i.e. WAL records a crash now
    /// would leave to replay.
    pub fn wal_tail_len(&self) -> usize {
        self.tail.len()
    }

    /// The next batch of the script. The first one after set-up also
    /// carries the sentinels' joins.
    pub fn next_batch(&mut self) -> Option<Batch> {
        let start = Instant::now();
        let mut batch = self.script.next_batch()?;
        batch.joins.append(&mut self.pending_sentinel_joins);
        self.generate += start.elapsed();
        self.hash_batch(&batch);
        Some(batch)
    }

    fn hash_batch(&mut self, batch: &Batch) {
        let mut bytes = Vec::new();
        batch.encode_into(&mut bytes);
        self.batches.update(&bytes);
    }

    /// One interval through the journal. With `publish`, the sink hands
    /// the message to the daemon, as `rekey serve` does; without, the
    /// message stays in the process (set-up only).
    fn durable(&mut self, batch: &Batch, publish: bool) -> Result<IntervalOutcome, String> {
        self.tracer.set_epoch(self.next_epoch());
        let server = self.server.as_mut().expect("server is up");
        let _span = self.tracer.span("core.persist.durable_interval");
        let tracer = &self.tracer;
        let daemon = &server.daemon;
        let mut publish_error = None;
        let mut sink = |message: &RekeyMessage| {
            if publish {
                let _span = tracer.span("net.publish");
                publish_error = daemon.publish(message).err();
            }
        };
        let outcome = server
            .journal
            .durable_interval(
                &mut server.manager,
                &batch.joins,
                &batch.leaves,
                &mut self.rng,
                &mut sink,
            )
            .map_err(|e| format!("durable_interval: {e}"))?;
        if let Some(e) = publish_error {
            return Err(format!("publish epoch {}: {e}", outcome.message.epoch));
        }
        if !publish {
            self.push_tail(Vec::new());
        }
        Ok(outcome)
    }

    fn next_epoch(&self) -> u64 {
        self.server.as_ref().expect("server is up").journal.epoch() + 1
    }

    fn push_tail(&mut self, payload: Vec<u8>) {
        self.tail.push(payload);
        if self.tail.len() == SNAPSHOT_EVERY {
            self.tail.clear(); // the journal just snapshotted
        }
    }

    /// Checks of a published epoch that need its encoded bytes: the
    /// frame cap, the running wire digest, and (traced) the shadow
    /// member's decode and install. Runs between timed regions.
    fn account(&mut self, outcome: &IntervalOutcome, batch: &Batch) -> Result<Sample, String> {
        let _root = self.tracer.span("verify");
        let payload = {
            let _span = self.tracer.span("keytree.codec.encode_message");
            codec::encode_message(&outcome.message)
        };
        if payload.len() >= MAX_FRAME {
            return Err(format!(
                "epoch {}: frame of {} bytes reaches the {MAX_FRAME}-byte cap",
                outcome.message.epoch,
                payload.len()
            ));
        }
        if let Some(shadow) = self.shadow.as_mut() {
            let decoded = {
                let _span = self.tracer.span("keytree.codec.decode_message");
                codec::decode_message(&payload).ok_or("shadow decode failed")?
            };
            let _span = self.tracer.span("keytree.member.process");
            shadow
                .process(&decoded)
                .map_err(|e| format!("shadow member: {e}"))?;
        }
        self.wire.update(&payload);
        let sample = Sample {
            interval_ns: None,
            joins: batch.joins.len(),
            leaves: batch.leaves.len(),
            encrypted_keys: outcome.stats.encrypted_keys,
            wire_bytes: payload.len(),
            migrations: outcome.stats.migrations,
        };
        self.push_tail(payload);
        Ok(sample)
    }

    /// Both sentinels must hold the manager's DEK and must not have
    /// reconnected except once per recovery.
    fn check_sentinels(&self, epoch: u64) -> Result<(), String> {
        let manager = &self.server.as_ref().expect("server is up").manager;
        for client in &self.clients {
            let id = client.member().id().0;
            if client.member().key_for(manager.dek_node()) != Some(manager.dek()) {
                return Err(format!(
                    "epoch {epoch}: sentinel {id} does not hold the DEK"
                ));
            }
            if client.reconnects() != self.recoveries {
                return Err(format!(
                    "epoch {epoch}: sentinel {id} reconnected outside a recovery"
                ));
            }
        }
        Ok(())
    }

    /// One measured interval: durable, published, delivered to both
    /// sentinels, then verified.
    pub fn interval(&mut self, batch: &Batch) -> Result<Sample, String> {
        let epoch = self.next_epoch();
        self.tracer.set_epoch(epoch);
        let root = self.tracer.span("interval");
        let t0 = Instant::now();
        let outcome = self.durable(batch, true)?;
        for client in &mut self.clients {
            let _span = self.tracer.span("net.client.sync_to");
            client
                .sync_to(epoch, SYNC_BUDGET)
                .map_err(|e| format!("epoch {epoch}: sync_to: {e}"))?;
        }
        let interval_ns = t0.elapsed().as_nanos() as u64;
        drop(root);
        let mut sample = self.account(&outcome, batch)?;
        sample.interval_ns = Some(interval_ns);
        self.check_sentinels(epoch)?;
        Ok(sample)
    }

    fn fold_daemon_counts(&mut self, server: &Server) {
        let snap = server.daemon.collector().snapshot();
        let (recovery_nacks, recovery_retransmits) = server.recovery_counts;
        self.net.steady_nacks += snap.counter("net.nacks") - recovery_nacks;
        self.net.steady_retransmits += snap.counter("net.retransmit.frames") - recovery_retransmits;
        self.net.backpressure_drops += snap.counter("net.sessions.dropped_backpressure");
        self.net.bytes_out += snap.counter("net.bytes_out");
        if let Some(hist) = snap.hists.get("net.session.handshake") {
            self.net.handshake_ns += hist.sum();
            self.net.handshakes += hist.count();
        }
    }

    /// An interval a crash interrupts, and the recovery. The interval
    /// is made durable and published but not delivered; then daemon,
    /// manager and journal are dropped without the drain snapshot.
    /// Timed: `DirStorage::open` → `Journal::recover` on a fresh
    /// manager → `Rekeyd::bind` → re-register the sentinels →
    /// republish `Recovery.messages` → each client `redirect` +
    /// `sync_to(latest)`. Returns the interval's sample and the
    /// recovery time in nanoseconds.
    pub fn crash_and_recover(&mut self, batch: &Batch) -> Result<(Sample, u64), String> {
        let outcome = self.durable(batch, true)?;
        let epoch = outcome.message.epoch;
        let sample = self.account(&outcome, batch)?;
        let crashed = self.server.take().expect("server is up");
        let dek_before = crashed.manager.dek().clone();
        self.fold_daemon_counts(&crashed);
        drop(crashed);

        let recovery_ns = {
            let _root = self.tracer.span("recovery");
            let t0 = Instant::now();
            let mut journal = open_journal(self.dir.path(), &self.tracer)?;
            let mut manager = build_manager(&self.tracer);
            let recovery = {
                let _span = self.tracer.span("core.persist.recover");
                journal
                    .recover(&mut manager)
                    .map_err(|e| format!("epoch {epoch}: recover: {e}"))?
            };
            let daemon = bind_daemon(&self.tracer, &self.sentinels)?;
            for message in &recovery.messages {
                let _span = self.tracer.span("net.publish");
                daemon
                    .publish(message)
                    .map_err(|e| format!("republish epoch {}: {e}", message.epoch))?;
            }
            let addr = daemon.local_addr();
            for client in &mut self.clients {
                let _span = self.tracer.span("net.client.sync_to");
                client.redirect(addr);
                client
                    .sync_to(recovery.epoch, SYNC_BUDGET)
                    .map_err(|e| format!("epoch {epoch}: sync_to after recovery: {e}"))?;
            }
            let recovery_ns = t0.elapsed().as_nanos() as u64;

            if recovery.epoch != epoch {
                return Err(format!(
                    "recovered epoch {} ≠ crashed epoch {epoch}",
                    recovery.epoch
                ));
            }
            if manager.dek() != &dek_before {
                return Err(format!("epoch {epoch}: recovered DEK differs"));
            }
            let rederived: Vec<Vec<u8>> = recovery
                .messages
                .iter()
                .map(codec::encode_message)
                .collect();
            if rederived != self.tail {
                return Err(format!(
                    "epoch {epoch}: {} recovered message(s) are not byte-identical to the {} published",
                    rederived.len(),
                    self.tail.len()
                ));
            }
            self.rng = recovery.rng.ok_or("recovery returned no RNG state")?;
            let snap = daemon.collector().snapshot();
            self.server = Some(Server {
                manager,
                journal,
                daemon,
                recovery_counts: (
                    snap.counter("net.nacks"),
                    snap.counter("net.retransmit.frames"),
                ),
            });
            recovery_ns
        };
        self.recoveries += 1;
        self.check_sentinels(epoch)?;
        Ok((sample, recovery_ns))
    }

    /// Ends the round: every client's digest must equal the SHA-256
    /// over the payloads the harness saw published, and the daemon must
    /// have served no NACK outside a recovery. Returns the daemon-side
    /// counts, the wire digest and the digest over all batches.
    pub fn finish(mut self) -> Result<(NetCounts, [u8; 32], [u8; 32]), String> {
        let server = self.server.take().expect("server is up");
        self.fold_daemon_counts(&server);
        drop(server);
        let wire = self.wire.clone().finalize();
        for client in &mut self.clients {
            client.close();
            self.net.steady_reconnects += client.reconnects() - self.recoveries;
            if client.digest() != wire {
                return Err(format!(
                    "sentinel {} digest differs from the published payloads",
                    client.member().id().0
                ));
            }
        }
        if self.net.steady_nacks > 0 || self.net.steady_retransmits > 0 {
            return Err(format!(
                "{} NACK(s) and {} retransmitted frame(s) outside recoveries",
                self.net.steady_nacks, self.net.steady_retransmits
            ));
        }
        if self.net.backpressure_drops > 0 {
            return Err(format!(
                "{} session(s) dropped for backpressure",
                self.net.backpressure_drops
            ));
        }
        Ok((self.net, wire, self.batches.clone().finalize()))
    }
}
