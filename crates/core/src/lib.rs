//! Performance-optimized group key management for secure multicast.
//!
//! This crate is the primary contribution of *"Performance
//! Optimizations for Group Key Management Schemes for Secure
//! Multicast"* (Zhu, Setia, Jajodia; ICDCS 2003), built on the LKH
//! substrate of [`rekey_keytree`]:
//!
//! - [`partition`] — the **two-partition key tree** (§3): short-term
//!   members live in an S-partition, survivors of the S-period migrate
//!   to an L-partition, so the frequent departures of short-lived
//!   members only perturb the small S-partition. Three constructions:
//!   [`partition::TtManager`] (tree + tree), [`partition::QtManager`]
//!   (queue + tree) and [`partition::PtManager`] (oracle placement).
//! - [`loss_forest`] — the **loss-homogenized key forest** (§4): one
//!   key tree per loss class keeps high-loss receivers from inflating
//!   the proactive replication of keys destined for low-loss
//!   receivers.
//! - [`combined`] — the §4.2 composition of the two: members estimate
//!   their loss rate from transport feedback while in the S-partition
//!   and migrate into loss-class L-trees.
//! - [`adaptive`] — the deployment loop of §3.4: estimate the
//!   membership-duration mixture from the observed trace, evaluate the
//!   analytic model, and place the next joiners as the best scheme
//!   would (S-tree, key queue or straight into the L-tree) — a switch
//!   moves nobody.
//! - [`one_tree`] — the unoptimized single balanced key tree, the
//!   baseline every optimization is measured against.
//! - [`membership`] — the two-class exponential join/leave process of
//!   §3.3.1 (\[AA97\]'s MBone behaviour) the paper's costs come from,
//!   generated per rekey interval.
//!
//! All seven schemes are [`engine::PlacementPolicy`] implementations
//! over the shared [`engine::RekeyEngine`] pipeline (route → rekey each
//! tree → merge → refresh the DEK); every manager is a type alias of
//! the engine and implements [`GroupKeyManager`] — persistence
//! included — through its one blanket `impl`, so simulations and
//! applications can switch schemes freely.
//!
//! # Example
//!
//! ```
//! use rekey_core::{GroupKeyManager, Join};
//! use rekey_core::partition::TtManager;
//! use rekey_keytree::{member::GroupMember, MemberId};
//! use rekey_crypto::Key;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(5);
//! let mut manager = TtManager::new(4, 10);
//!
//! let ik = Key::generate(&mut rng);
//! let joins = vec![Join::new(MemberId(1), ik.clone())];
//! let outcome = manager.process_interval(&joins, &[], &mut rng)?;
//!
//! let mut alice = GroupMember::new(MemberId(1), ik);
//! alice.process(&outcome.message)?;
//! assert_eq!(alice.key_for(manager.dek_node()), Some(manager.dek()));
//! # Ok::<(), rekey_keytree::KeyTreeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod combined;
pub mod engine;
pub mod loss_forest;
pub mod membership;
pub mod one_tree;
pub mod partition;
pub mod persist;
pub mod scheme;

mod dek;
mod events;

pub use persist::{Journal, PersistError, Recovery};
pub use scheme::{Scheme, SchemeConfig, SchemeParseError};

use rand::RngCore;
use rekey_crypto::Key;
use rekey_keytree::message::RekeyMessage;
use rekey_keytree::{KeyTreeError, MemberId, NodeId};

/// Information a joining member (or its access history) provides to
/// the key server. Managers use what they understand and ignore the
/// rest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JoinHint {
    /// Expected membership-duration class, if known in advance — used
    /// by the oracle PT-scheme (\[SMS00\]-style placement).
    pub expected_class: Option<DurationClass>,
    /// Estimated packet-loss rate, e.g. from a previous session or
    /// from the member's stay in the S-partition (§4.2) — used by the
    /// loss-homogenized forest.
    pub loss_rate: Option<f64>,
}

/// Membership-duration classes of the two-class model (§3.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurationClass {
    /// Short-lived (class `Cs`, mean `Ms`).
    Short,
    /// Long-lived (class `Cl`, mean `Ml`).
    Long,
}

/// A join request: the member, its registered individual key, and
/// optional hints.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// The joining member.
    pub member: MemberId,
    /// The individual key established at registration.
    pub individual_key: Key,
    /// Optional characteristics.
    pub hint: JoinHint,
}

impl Join {
    /// A join with no hints.
    pub fn new(member: MemberId, individual_key: Key) -> Self {
        Join {
            member,
            individual_key,
            hint: JoinHint::default(),
        }
    }

    /// Attaches a duration-class hint.
    pub fn with_class(mut self, class: DurationClass) -> Self {
        self.hint.expected_class = Some(class);
        self
    }

    /// Attaches a loss-rate hint.
    pub fn with_loss_rate(mut self, loss: f64) -> Self {
        self.hint.loss_rate = Some(loss);
        self
    }
}

/// Statistics for one rekey interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntervalStats {
    /// Members that joined.
    pub joins: usize,
    /// Members that departed.
    pub leaves: usize,
    /// Members migrated between partitions (two-partition schemes).
    pub migrations: usize,
    /// Encrypted keys in the interval's rekey message — the paper's
    /// key-server bandwidth metric.
    pub encrypted_keys: usize,
    /// Serialized size of the interval's rekey message in bytes
    /// (`RekeyMessage::byte_len`) — the wire-level counterpart of
    /// `encrypted_keys`: per entry a 48-byte sealed key, a
    /// run/delta-coded header and, where it is not the previous
    /// entry's successor, the 12-byte nonce.
    pub message_bytes: usize,
}

/// Result of processing one rekey interval.
#[derive(Debug, Clone)]
pub struct IntervalOutcome {
    /// The merged multicast rekey message for the interval.
    pub message: RekeyMessage,
    /// Bandwidth and churn statistics.
    pub stats: IntervalStats,
}

/// Common interface of all group-key management schemes.
///
/// One call to [`GroupKeyManager::process_interval`] corresponds to
/// one periodic batch rekeying (\[SKJ00\]): all joins and leaves of the
/// interval are applied, partitions are maintained (migrations,
/// placement), the group data-encryption key (DEK) is refreshed, and a
/// single rekey message is produced.
pub trait GroupKeyManager {
    /// Applies one interval's membership changes and rekeys the group.
    ///
    /// # Errors
    ///
    /// Returns [`KeyTreeError`] if the batch is inconsistent (unknown
    /// leaver, duplicate joiner).
    fn process_interval(
        &mut self,
        joins: &[Join],
        leaves: &[MemberId],
        rng: &mut dyn RngCore,
    ) -> Result<IntervalOutcome, KeyTreeError>;

    /// No-op: every manager rekeys on the calling thread and none
    /// overrides this. It stays in the trait because the end-to-end
    /// benchmark (`benchmark/`) implements and calls it.
    fn set_parallelism(&mut self, workers: usize) {
        let _ = workers;
    }

    /// Node id under which the group DEK is distributed (stable).
    fn dek_node(&self) -> NodeId;

    /// The current group data-encryption key.
    fn dek(&self) -> &Key;

    /// Number of members currently in the group.
    fn member_count(&self) -> usize;

    /// Whether `member` is currently in the group.
    fn contains(&self, member: MemberId) -> bool;

    /// Audience oracle: the members holding the key of `node` —
    /// drives the transport layer's interest maps.
    fn members_under(&self, node: NodeId) -> Vec<MemberId>;

    /// Buffer-reusing variant of [`GroupKeyManager::members_under`]:
    /// appends the audience of `node` to `out` instead of allocating a
    /// fresh `Vec`. Hot loops (the sim driver queries one node per
    /// rekey entry per interval) clear and reuse a single buffer. The
    /// default delegates to `members_under`; managers with cheap
    /// append paths override it.
    fn members_under_into(&self, node: NodeId, out: &mut Vec<MemberId>) {
        out.extend(self.members_under(node));
    }

    /// A short human-readable scheme name for reports.
    fn scheme_name(&self) -> &'static str;

    /// Serializes the manager's full durable state (epoch, trees,
    /// policy bookkeeping, DEK) onto `buf`, such that a freshly-built
    /// manager of the same configuration restored from these bytes is
    /// behaviourally indistinguishable — it emits byte-identical rekey
    /// messages for any future input.
    ///
    /// # Errors
    ///
    /// None from the engine; a delegating manager forwards whatever
    /// its inner manager reports.
    fn save_state(&self, buf: &mut Vec<u8>) -> Result<(), PersistError>;

    /// Restores state serialized by [`GroupKeyManager::save_state`]
    /// into this manager, which must have been built with the same
    /// configuration (scheme, degree, namespaces).
    ///
    /// # Errors
    ///
    /// [`PersistError::SchemeMismatch`] if the bytes belong to another
    /// scheme, [`PersistError::Codec`] if they do not parse.
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), PersistError>;
}
