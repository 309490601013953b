//! `rekey-net` — key distribution over real sockets.
//!
//! The rest of the workspace produces and verifies rekey messages
//! in-process; this crate puts the existing versioned
//! `rekey_keytree::message::codec` envelopes on TCP, std-only and
//! zero-dependency:
//!
//! - [`server::Rekeyd`] — a threaded daemon: one accept thread
//!   running an HMAC challenge/response handshake (under a key derived
//!   from the member's registered individual key, via
//!   [`rekey_crypto::hmac`]), N worker
//!   shards owning sessions hashed by member id, per-session bounded
//!   send queues whose overflow policy is *disconnect* (backpressure),
//!   and a retransmission window of the last W epochs served to NACKs.
//! - [`client::RekeyClient`] — wraps a real
//!   [`rekey_keytree::member::GroupMember`]; reconnects with capped
//!   exponential backoff and deterministic jitter, and resubscribes on
//!   every (re)connect by naming its next epoch in the `Hello`: the
//!   daemon starts the session with the missed range already queued.
//! - [`frame`] — `u32` length-prefixed framing with a strict size
//!   limit and an incremental [`frame::FrameReader`].
//! - [`proto`] — the typed session frames (`ServerHello`/`Hello`/
//!   `Welcome`/`Reject`/`Rekey`/`Nack`/`Gap`/`Bye`/`Ack`). Protocol
//!   v2: `Rekey` carries the publish wall-clock stamp and clients
//!   answer with `Ack{epoch, lag_ns}` after installing the DEK.
//! - [`backoff`] — the reconnect schedule.
//! - [`NetError`] — one typed error for the whole layer; no
//!   stringly-typed results.
//!
//! # Observability
//!
//! The daemon owns a live [`rekey_obs::Collector`] and a lock-free
//! [`rekey_obs::FlightRecorder`]; with [`ServerConfig::admin_addr`]
//! set it also serves an admin plane (`/metrics`, `/healthz`,
//! `/readyz`, `/vars`, `/flightrec`). Server-side metrics include
//! `net.fanout` / `net.session.handshake` timings, byte and session
//! counters, queue-depth gauges, and the end-to-end
//! `net.propagation` histogram (publish stamp → client DEK install,
//! reported back in `Ack` frames, also split per shard as
//! `net.propagation.shardN`). The client feeds the global recorder:
//! `net.client.connect_attempts`, `net.client.handshake_retries`,
//! `net.client.backoff_sleeps`, `net.client.replayed_frames`, and the
//! `net.client.propagation_ns` histogram.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod client;
pub mod frame;
pub mod proto;
pub mod server;

mod error;

pub use backoff::{Backoff, BackoffConfig};
pub use client::{ClientConfig, RekeyClient};
pub use error::{NetError, RejectReason};
pub use server::{Rekeyd, ServerConfig};

use rekey_crypto::Key;
use rekey_keytree::MemberId;

/// Derives the demo individual key for `member` from a shared secret
/// seed — how the `rekey serve` / `rekey client` CLI pair agree on
/// member keys without a registration service. Real deployments
/// register per-member keys out of band; this is for demos, smoke
/// tests, and the loopback CI job.
pub fn demo_member_key(key_seed: u64, member: MemberId) -> Key {
    let mut out = [0u8; 32];
    rekey_crypto::hkdf::derive(
        b"rekey-net demo member keys",
        &key_seed.to_be_bytes(),
        &member.0.to_be_bytes(),
        &mut out,
    );
    Key::from_bytes(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_keys_differ_by_member_and_seed() {
        let a = demo_member_key(1, MemberId(1));
        assert_eq!(a, demo_member_key(1, MemberId(1)));
        assert_ne!(a, demo_member_key(1, MemberId(2)));
        assert_ne!(a, demo_member_key(2, MemberId(1)));
    }
}
