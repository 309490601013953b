//! Wire-bytes member farm.
//!
//! Instantiates a real [`GroupMember`] per scenario member and feeds
//! it nothing but encoded rekey messages — the same bytes a receiver
//! would pull off the multicast channel — through a configurable
//! delivery model. Departed members stay in the farm and keep
//! receiving *every* message losslessly: they model an adversary that
//! records all traffic and replays old state, so the secrecy checks
//! run against their rings forever.

use crate::oracle::{KnowledgeOracle, ObserveReport};
use rand::Rng;
use rekey_core::GroupKeyManager;
use rekey_crypto::Key;
use rekey_keytree::member::GroupMember;
use rekey_keytree::message::RekeyMessage;
use rekey_keytree::MemberId;
use rekey_keytree::{KeyTreeError, NodeId};
use rekey_transport::interest::interest_map;
use rekey_transport::loss::Population;
use rekey_transport::wka_bkr::{self, WkaBkrConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// An invariant or protocol violation detected by the farm.
///
/// Each variant pins the failing member/key so harnesses can react
/// structurally instead of grepping message text; [`fmt::Display`]
/// renders the same human-readable description the farm used to return
/// as a bare `String`.
#[derive(Debug, Clone, PartialEq)]
pub enum FarmError {
    /// A member rejected wire bytes the server multicast.
    MemberRejected {
        /// The member that failed to process the message.
        member: MemberId,
        /// Whether the member had already departed (replay tape).
        departed: bool,
        /// The underlying processing error.
        source: KeyTreeError,
    },
    /// The reliable transport exhausted its round budget.
    TransportIncomplete {
        /// Rounds spent before giving up.
        rounds: usize,
    },
    /// The manager's membership view diverged from the farm's.
    Bookkeeping {
        /// What diverged.
        detail: String,
    },
    /// A departed member is entitled to a key born after it left.
    ForwardSecrecy {
        /// The departed member.
        member: MemberId,
        /// The freshly distributed node.
        node: NodeId,
        /// The fresh key version.
        version: u64,
    },
    /// A member's ring holds a key the oracle does not entitle it to.
    RingSoundness {
        /// The offending member.
        member: MemberId,
        /// The held node.
        node: NodeId,
        /// The held version.
        version: u64,
    },
    /// The group is non-empty but no DEK was ever multicast.
    DekNeverDistributed,
    /// The entitled set of the latest DEK diverges from the present
    /// membership.
    DekConfinement {
        /// The DEK node.
        node: NodeId,
        /// The latest DEK version.
        version: u64,
        /// Entitled members that are not present.
        extra: Vec<MemberId>,
        /// Present members that are not entitled.
        missing: Vec<MemberId>,
    },
    /// A departed member still holds the live DEK.
    DekLeak {
        /// The departed member.
        member: MemberId,
    },
    /// After a complete delivery, a present member misses a key it is
    /// entitled to.
    Liveness {
        /// The lagging member.
        member: MemberId,
        /// What the member should hold.
        detail: String,
    },
}

impl fmt::Display for FarmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FarmError::MemberRejected {
                member,
                departed,
                source,
            } => {
                let kind = if *departed {
                    "departed member"
                } else {
                    "member"
                };
                write!(f, "{kind} {member:?} rejected message: {source}")
            }
            FarmError::TransportIncomplete { rounds } => {
                write!(f, "transport incomplete after {rounds} rounds")
            }
            FarmError::Bookkeeping { detail } => write!(f, "bookkeeping: {detail}"),
            FarmError::ForwardSecrecy {
                member,
                node,
                version,
            } => write!(
                f,
                "forward secrecy: departed {member:?} entitled to fresh {node:?}@{version}"
            ),
            FarmError::RingSoundness {
                member,
                node,
                version,
            } => write!(
                f,
                "ring soundness: {member:?} holds {node:?}@{version} without entitlement"
            ),
            FarmError::DekNeverDistributed => write!(f, "DEK never appeared on the wire"),
            FarmError::DekConfinement {
                node,
                version,
                extra,
                missing,
            } => write!(
                f,
                "DEK confinement: {node:?}@{version} entitled set diverges \
                 (extra: {extra:?}, missing: {missing:?})"
            ),
            FarmError::DekLeak { member } => {
                write!(f, "departed {member:?} holds the live DEK")
            }
            FarmError::Liveness { member, detail } => {
                write!(f, "liveness: present {member:?} {detail}")
            }
        }
    }
}

impl std::error::Error for FarmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FarmError::MemberRejected { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// How rekey messages reach present members.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Delivery {
    /// Every member receives every entry. Liveness checks apply.
    #[default]
    Lossless,
    /// Each present member independently drops each entry with its
    /// configured loss probability — raw lossy multicast with no
    /// recovery. Only the secrecy checks apply.
    Bernoulli,
    /// Entries travel through the WKA-BKR replicated transport with
    /// per-member loss; a complete delivery report re-arms the
    /// liveness checks.
    WkaBkr,
}

impl Delivery {
    /// Command-line name of the mode.
    pub fn name(self) -> &'static str {
        match self {
            Delivery::Lossless => "lossless",
            Delivery::Bernoulli => "bernoulli",
            Delivery::WkaBkr => "wka",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Delivery> {
        match name {
            "lossless" => Some(Delivery::Lossless),
            "bernoulli" => Some(Delivery::Bernoulli),
            "wka" => Some(Delivery::WkaBkr),
            _ => None,
        }
    }
}

/// The farm: every member ever admitted, present or departed.
#[derive(Debug, Default)]
pub struct MemberFarm {
    members: BTreeMap<MemberId, GroupMember>,
    present: BTreeSet<MemberId>,
    departed: BTreeSet<MemberId>,
    loss: BTreeMap<MemberId, f64>,
}

impl MemberFarm {
    /// An empty farm.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admits a member with its individual key and loss rate.
    pub fn admit(&mut self, member: MemberId, individual_key: Key, loss: f64) {
        self.members
            .insert(member, GroupMember::new(member, individual_key));
        self.present.insert(member);
        self.departed.remove(&member);
        self.loss.insert(member, loss);
    }

    /// Marks a member departed. Its state is kept and it continues to
    /// receive all traffic (replay adversary).
    pub fn depart(&mut self, member: MemberId) {
        self.present.remove(&member);
        self.departed.insert(member);
    }

    /// Updates a member's loss rate.
    pub fn set_loss(&mut self, member: MemberId, loss: f64) {
        self.loss.insert(member, loss);
    }

    /// Members currently in the group.
    pub fn present(&self) -> &BTreeSet<MemberId> {
        &self.present
    }

    /// Members that have left.
    pub fn departed(&self) -> &BTreeSet<MemberId> {
        &self.departed
    }

    /// The farm's [`GroupMember`] for `member`, if it was ever
    /// admitted. External harnesses (e.g. the `rekey-net` loopback
    /// test) compare these rings against members fed by other
    /// transports.
    pub fn member(&self, member: MemberId) -> Option<&GroupMember> {
        self.members.get(&member)
    }

    /// Delivers one decoded message to the farm under `mode`.
    /// Returns whether delivery was complete for all present members
    /// (which re-arms the liveness checks); errors are protocol
    /// violations (a member rejected wire bytes, or the transport
    /// exhausted its round budget).
    pub fn deliver<R: Rng>(
        &mut self,
        message: &RekeyMessage,
        mode: Delivery,
        manager: &dyn GroupKeyManager,
        net_rng: &mut R,
    ) -> Result<bool, FarmError> {
        let rejected = |member: MemberId, departed: bool| {
            move |source: KeyTreeError| FarmError::MemberRejected {
                member,
                departed,
                source,
            }
        };
        let complete = match mode {
            Delivery::Lossless => {
                for (&id, member) in &mut self.members {
                    if self.present.contains(&id) {
                        member.process(message).map_err(rejected(id, false))?;
                    }
                }
                true
            }
            Delivery::Bernoulli => {
                for (&id, member) in &mut self.members {
                    if !self.present.contains(&id) {
                        continue;
                    }
                    let loss = self.loss.get(&id).copied().unwrap_or(0.0);
                    let received: Vec<_> = message
                        .entries
                        .iter()
                        .filter(|_| net_rng.gen::<f64>() >= loss)
                        .collect();
                    // Advances and derivations travel with the envelope,
                    // not in packets.
                    member
                        .process_advances(&message.advances)
                        .and_then(|_| member.process_entries(received, &message.derivations))
                        .map_err(rejected(id, false))?;
                }
                false
            }
            Delivery::WkaBkr => {
                if message.is_empty() {
                    true
                } else {
                    let interest =
                        interest_map(message, |node, out| manager.members_under_into(node, out));
                    let population = Population::from_map(
                        interest
                            .keys()
                            .map(|m| (*m, self.loss.get(m).copied().unwrap_or(0.0)))
                            .collect(),
                    );
                    let outcome = wka_bkr::deliver(
                        message,
                        &interest,
                        &population,
                        &WkaBkrConfig::default(),
                        net_rng,
                    );
                    for (&id, member) in &mut self.members {
                        if !self.present.contains(&id) {
                            continue;
                        }
                        member
                            .process_advances(&message.advances)
                            .map_err(rejected(id, false))?;
                        if let Some(indices) = outcome.delivered.get(&id) {
                            member
                                .process_entries(
                                    indices.iter().map(|&i| &message.entries[i]),
                                    &message.derivations,
                                )
                                .map_err(rejected(id, false))?;
                        }
                    }
                    if !outcome.report.complete {
                        return Err(FarmError::TransportIncomplete {
                            rounds: outcome.report.rounds,
                        });
                    }
                    true
                }
            }
        };

        // Departed members replay the full tape regardless of mode.
        for (&id, member) in &mut self.members {
            if self.departed.contains(&id) {
                member.process(message).map_err(rejected(id, true))?;
            }
        }
        Ok(complete)
    }

    /// Runs the interval invariants against the oracle.
    ///
    /// * bookkeeping — the manager's membership view matches the farm;
    /// * forward secrecy — no pair born this interval is decryptable
    ///   by a departed member;
    /// * ring soundness — no member (present *or* departed) holds a
    ///   key the oracle does not entitle it to;
    /// * DEK confinement — the entitled set of the latest DEK version
    ///   is exactly the present membership, and no departed ring holds
    ///   the live DEK;
    /// * liveness (`complete` deliveries only) — every present member
    ///   newly entitled to a latest-version key actually holds it, and
    ///   holds the manager's current DEK.
    pub fn check(
        &self,
        oracle: &KnowledgeOracle,
        manager: &dyn GroupKeyManager,
        report: &ObserveReport,
        liveness: bool,
    ) -> Result<(), FarmError> {
        if manager.member_count() != self.present.len() {
            return Err(FarmError::Bookkeeping {
                detail: format!(
                    "manager reports {} members, farm has {}",
                    manager.member_count(),
                    self.present.len()
                ),
            });
        }
        for &m in &self.present {
            if !manager.contains(m) {
                return Err(FarmError::Bookkeeping {
                    detail: format!("manager lost present member {m:?}"),
                });
            }
        }
        for &m in &self.departed {
            if manager.contains(m) {
                return Err(FarmError::Bookkeeping {
                    detail: format!("manager retains departed {m:?}"),
                });
            }
        }

        for &(node, version) in &report.born {
            if let Some(entitled) = oracle.entitled(node, version) {
                if let Some(&leak) = entitled.iter().find(|m| self.departed.contains(m)) {
                    return Err(FarmError::ForwardSecrecy {
                        member: leak,
                        node,
                        version,
                    });
                }
            }
        }

        for (&id, member) in &self.members {
            for (node, version) in member.held_keys() {
                if !oracle.is_entitled(id, node, version) {
                    return Err(FarmError::RingSoundness {
                        member: id,
                        node,
                        version,
                    });
                }
            }
        }

        let dek_node = manager.dek_node();
        if !self.present.is_empty() {
            let Some(dek_version) = oracle.latest(dek_node) else {
                return Err(FarmError::DekNeverDistributed);
            };
            let entitled = oracle.entitled(dek_node, dek_version).unwrap();
            if entitled != &self.present {
                return Err(FarmError::DekConfinement {
                    node: dek_node,
                    version: dek_version,
                    extra: entitled.difference(&self.present).copied().collect(),
                    missing: self.present.difference(entitled).copied().collect(),
                });
            }
        }
        let dek = manager.dek();
        for &m in &self.departed {
            if self.members[&m].key_for(dek_node) == Some(dek) {
                return Err(FarmError::DekLeak { member: m });
            }
        }

        if liveness {
            for &(m, node, version) in &report.granted {
                if !self.present.contains(&m) || oracle.latest(node) != Some(version) {
                    continue;
                }
                if self.members[&m].version_for(node) != Some(version) {
                    return Err(FarmError::Liveness {
                        member: m,
                        detail: format!(
                            "entitled to {node:?}@{version} but ring has {:?}",
                            self.members[&m].version_for(node)
                        ),
                    });
                }
            }
            for &m in &self.present {
                if self.members[&m].key_for(dek_node) != Some(dek) {
                    return Err(FarmError::Liveness {
                        member: m,
                        detail: "lacks the current DEK after complete delivery".into(),
                    });
                }
            }
        }
        Ok(())
    }
}
