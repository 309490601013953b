//! Group data-encryption key (DEK) state shared by the managers.
//!
//! Multi-tree managers keep the DEK *above* their partition/forest
//! roots: every interval the DEK is refreshed and wrapped once under
//! each occupied subtree root (plus, for queue partitions, once per
//! queued member).

use rand::RngCore;
use rekey_crypto::Key;
use rekey_keytree::NodeId;

/// The DEK node id, its current key, and version.
#[derive(Debug, Clone)]
pub(crate) struct DekState {
    pub node: NodeId,
    pub key: Key,
    pub version: u64,
}

impl DekState {
    /// Creates the DEK in `namespace` with a placeholder key (replaced
    /// on the first interval).
    pub fn new(namespace: u32) -> Self {
        DekState {
            node: NodeId::from_parts(namespace, 0),
            key: Key::from_bytes([0; 32]),
            version: 0,
        }
    }

    /// Installs a fresh DEK, returning the previous key and version
    /// (for join-only intervals that re-wrap under the old DEK).
    pub fn refresh(&mut self, mut rng: &mut dyn RngCore) -> (Key, u64) {
        let old = (self.key.clone(), self.version);
        self.key = Key::generate(&mut rng);
        self.version += 1;
        old
    }
}
