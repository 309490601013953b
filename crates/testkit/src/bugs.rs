//! Deliberately broken manager wrappers.
//!
//! These exist to prove the oracle can actually catch the bug classes
//! it was built for: each wrapper injects a realistic server defect
//! while keeping the server's *bookkeeping* self-consistent, so only
//! the wire-level knowledge model can notice.

use rand::RngCore;
use rekey_core::{GroupKeyManager, IntervalOutcome, Join, PersistError};
use rekey_crypto::Key;
use rekey_keytree::{KeyTreeError, MemberId, NodeId};

/// Simulates "forgot to refresh the path keys for one leave": the
/// first leaver ever processed is silently dropped from the batch
/// handed to the inner manager, so none of the keys on its path
/// rotate — but the wrapper *lies* about membership (count, contains,
/// members-under) exactly the way a server with this bug would: its
/// bookkeeping says the member left while its tree still encrypts to
/// it.
pub struct SkipOneLeave<M> {
    inner: M,
    skipped: Option<MemberId>,
}

impl<M> SkipOneLeave<M> {
    /// Wraps `inner`.
    pub fn new(inner: M) -> Self {
        SkipOneLeave {
            inner,
            skipped: None,
        }
    }

    fn hidden(&self, member: MemberId) -> bool {
        self.skipped == Some(member)
    }
}

impl<M: GroupKeyManager> GroupKeyManager for SkipOneLeave<M> {
    fn process_interval(
        &mut self,
        joins: &[Join],
        leaves: &[MemberId],
        rng: &mut dyn RngCore,
    ) -> Result<IntervalOutcome, KeyTreeError> {
        if self.skipped.is_none() {
            if let Some((&first, rest)) = leaves.split_first() {
                let mut out = self.inner.process_interval(joins, rest, rng)?;
                self.skipped = Some(first);
                out.stats.leaves = leaves.len();
                return Ok(out);
            }
        }
        self.inner.process_interval(joins, leaves, rng)
    }

    fn dek_node(&self) -> NodeId {
        self.inner.dek_node()
    }

    fn dek(&self) -> &Key {
        self.inner.dek()
    }

    fn member_count(&self) -> usize {
        let hidden = self.skipped.is_some_and(|m| self.inner.contains(m)) as usize;
        self.inner.member_count() - hidden
    }

    fn contains(&self, member: MemberId) -> bool {
        !self.hidden(member) && self.inner.contains(member)
    }

    fn members_under(&self, node: NodeId) -> Vec<MemberId> {
        let mut members = self.inner.members_under(node);
        members.retain(|&m| !self.hidden(m));
        members
    }

    fn members_under_into(&self, node: NodeId, out: &mut Vec<MemberId>) {
        let start = out.len();
        self.inner.members_under_into(node, out);
        if let Some(skipped) = self.skipped {
            let mut idx = start;
            while idx < out.len() {
                if out[idx] == skipped {
                    out.remove(idx);
                } else {
                    idx += 1;
                }
            }
        }
    }

    fn scheme_name(&self) -> &'static str {
        self.inner.scheme_name()
    }

    fn save_state(&self, buf: &mut Vec<u8>) -> Result<(), PersistError> {
        self.inner.save_state(buf)
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        self.inner.restore_state(bytes)
    }
}
