//! Reliable rekey transport protocols for secure multicast (§2.2 of
//! the paper).
//!
//! Rekey payloads differ from generic multicast traffic in two ways
//! the protocols here exploit: delivery has a *soft real-time*
//! deadline (the next rekey interval), and the payload is *sparse* —
//! each receiver only needs the handful of entries on its own key
//! path. This crate provides executable implementations of the three
//! protocols the paper discusses, all driven by simulated per-receiver
//! Bernoulli packet loss:
//!
//! - [`wka_bkr`] — WKA-BKR \[SZJ02\]: weighted key assignment
//!   (proactively replicate valuable keys) plus batched key
//!   retransmission (retransmit *keys*, not packets),
//! - [`fec`] — proactive FEC \[YLZL01\] over real Reed–Solomon erasure
//!   codes ([`rs`], on [`gf256`] arithmetic),
//! - [`multisend`] — the naive multi-send baseline \[MSEC\],
//!
//! together with the supporting pieces: [`packet`] (wire encoding and
//! packetization), [`loss`] (receiver populations), and [`interest`]
//! (per-receiver interest sets — the sparseness property).
//!
//! The measured outputs ([`DeliveryReport`]) are directly comparable
//! to the analytic predictions in `rekey-analytic::appendix_b`; the
//! integration tests cross-validate the two.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fec;
pub mod gf256;
pub mod interest;
pub mod loss;
pub mod multisend;
pub mod packet;
pub mod rs;
pub mod wka_bkr;

/// Outcome of delivering one rekey message to every receiver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryReport {
    /// Number of multicast rounds (1 = everything arrived
    /// proactively).
    pub rounds: usize,
    /// Packets transmitted across all rounds.
    pub packets: usize,
    /// Encrypted keys transmitted (counting replicas and
    /// retransmissions) — the paper's bandwidth metric.
    pub keys_transmitted: usize,
    /// Whether every receiver obtained all its keys within the round
    /// budget.
    pub complete: bool,
}
