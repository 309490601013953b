//! Logical key hierarchies (LKH) for scalable secure-multicast group
//! rekeying.
//!
//! This crate implements the substrate that the paper *"Performance
//! Optimizations for Group Key Management Schemes for Secure
//! Multicast"* (Zhu, Setia, Jajodia; ICDCS 2003) builds on:
//!
//! - [`tree::KeyTree`] — a balanced d-ary logical key tree whose root
//!   is a (sub)group key, whose leaves are individual member keys, and
//!   whose interior nodes are auxiliary key-encryption keys,
//! - [`server::LkhServer`] — the key-server side: single and
//!   **periodic batched** rekeying (\[SKJ00, YLZL01\]) producing
//!   group-oriented rekey messages (\[WGL98\]),
//! - [`member::GroupMember`] — the receiver side: processes rekey
//!   messages, maintaining exactly the keys on its leaf-to-root path,
//! - [`queue::KeyQueue`] — the linear-queue partition used by the
//!   paper's QT-scheme for short-duration members.
//!
//! # Example
//!
//! A key server admits three members, rekeys a batch with one
//! departure, and a remaining member recovers the new group key:
//!
//! ```
//! use rekey_keytree::{server::LkhServer, member::GroupMember, MemberId};
//! use rekey_crypto::Key;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut server = LkhServer::new(4, 0);
//!
//! let iks: Vec<Key> = (0..3).map(|_| Key::generate(&mut rng)).collect();
//! let joins: Vec<_> = (0..3u64)
//!     .map(|id| (MemberId(id), iks[id as usize].clone()))
//!     .collect();
//! let outcome = server.apply_batch(&joins, &[], &mut rng);
//!
//! let mut alice = GroupMember::new(MemberId(2), iks[2].clone());
//! alice.process(&outcome.message)?;
//!
//! // Member 0 departs; Alice follows the rekey.
//! let outcome = server.apply_batch(&[], &[MemberId(0)], &mut rng);
//! alice.process(&outcome.message)?;
//! assert_eq!(alice.key_for(server.root_node()), Some(server.root_key()));
//! # Ok::<(), rekey_keytree::KeyTreeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod member;
pub mod message;
pub mod queue;
pub mod server;
pub mod tree;

mod ids;

pub use ids::{MemberId, NodeId};

use std::error::Error;
use std::fmt;

/// Errors produced by key-tree operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum KeyTreeError {
    /// The member is not present in the tree / queue.
    UnknownMember(MemberId),
    /// The member is already present.
    DuplicateMember(MemberId),
    /// A rekey entry could not be decrypted with the keys held.
    Crypto(rekey_crypto::CryptoError),
    /// A rekey message referenced a key (node, version) the member
    /// does not hold; the message stream is out of sync.
    MissingKey {
        /// Node whose key was required.
        node: NodeId,
        /// Version that was required.
        version: u64,
    },
}

impl fmt::Display for KeyTreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyTreeError::UnknownMember(m) => write!(f, "unknown member {m}"),
            KeyTreeError::DuplicateMember(m) => write!(f, "member {m} already present"),
            KeyTreeError::Crypto(e) => write!(f, "cryptographic failure: {e}"),
            KeyTreeError::MissingKey { node, version } => {
                write!(f, "missing key for node {node} version {version}")
            }
        }
    }
}

impl Error for KeyTreeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            KeyTreeError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<rekey_crypto::CryptoError> for KeyTreeError {
    fn from(e: rekey_crypto::CryptoError) -> Self {
        KeyTreeError::Crypto(e)
    }
}
