//! Typed errors for the network layer.

use rekey_keytree::message::codec::DecodeError;
use rekey_keytree::KeyTreeError;
use std::error::Error;
use std::fmt;
use std::io;

/// Why a server refused a handshake. Carried on the wire as a one-byte
/// code inside a `Reject` frame, so both sides agree on the cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The client spoke an unknown protocol version.
    BadVersion,
    /// The member id is not registered with the daemon.
    UnknownMember,
    /// The HMAC over the server nonce did not verify.
    BadAuth,
    /// The server is shutting down and no longer admits sessions.
    ShuttingDown,
}

impl RejectReason {
    /// Wire code of the reason.
    pub fn code(self) -> u8 {
        match self {
            RejectReason::BadVersion => 1,
            RejectReason::UnknownMember => 2,
            RejectReason::BadAuth => 3,
            RejectReason::ShuttingDown => 4,
        }
    }

    /// Parses a wire code back into a reason.
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            1 => RejectReason::BadVersion,
            2 => RejectReason::UnknownMember,
            3 => RejectReason::BadAuth,
            4 => RejectReason::ShuttingDown,
            _ => return None,
        })
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RejectReason::BadVersion => "unsupported protocol version",
            RejectReason::UnknownMember => "member not registered",
            RejectReason::BadAuth => "handshake authentication failed",
            RejectReason::ShuttingDown => "server shutting down",
        };
        f.write_str(s)
    }
}

/// Everything that can go wrong on the socket path: transport
/// failures, framing violations, malformed protocol frames, handshake
/// rejections, and rekey payloads the key tree refuses.
#[derive(Debug)]
pub enum NetError {
    /// An underlying socket operation failed.
    Io(io::Error),
    /// A peer announced a frame longer than the negotiated maximum.
    FrameTooLarge {
        /// Announced payload length.
        len: usize,
        /// Maximum this endpoint accepts.
        max: usize,
    },
    /// A frame decoded structurally but its contents are invalid.
    Malformed {
        /// Which invariant the frame violates.
        what: &'static str,
    },
    /// A frame carried an unknown type tag.
    UnknownFrame(u8),
    /// The peer rejected our handshake.
    Rejected(RejectReason),
    /// A `Rekey` frame's payload failed the `rekey_keytree` codec.
    Codec {
        /// Epoch the sender claimed, if the envelope got that far.
        epoch: Option<u64>,
    },
    /// Applying a rekey message to the local member state failed.
    KeyTree(KeyTreeError),
    /// A NACKed epoch has been evicted from the server's
    /// retransmission window; the client cannot catch up over this
    /// protocol and must re-bootstrap out of band.
    EpochEvicted {
        /// The epoch the client asked for.
        requested: u64,
        /// Oldest epoch the server still holds.
        oldest: u64,
    },
    /// An operation did not complete before its deadline.
    Timeout {
        /// The operation that timed out.
        what: &'static str,
    },
    /// The connection (or the whole daemon) is closed.
    Closed,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            NetError::Malformed { what } => write!(f, "malformed frame: {what}"),
            NetError::UnknownFrame(tag) => write!(f, "unknown frame type {tag:#04x}"),
            NetError::Rejected(reason) => write!(f, "handshake rejected: {reason}"),
            NetError::Codec { epoch: Some(e) } => {
                write!(f, "rekey payload for epoch {e} failed to decode")
            }
            NetError::Codec { epoch: None } => write!(f, "rekey payload failed to decode"),
            NetError::KeyTree(e) => write!(f, "rekey message rejected: {e}"),
            NetError::EpochEvicted { requested, oldest } => write!(
                f,
                "epoch {requested} evicted from retransmission window (oldest retained: {oldest})"
            ),
            NetError::Timeout { what } => write!(f, "timed out waiting for {what}"),
            NetError::Closed => f.write_str("connection closed"),
        }
    }
}

impl Error for NetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::KeyTree(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for NetError {
    fn from(e: DecodeError) -> Self {
        let what = match e {
            DecodeError::Truncated => "truncated frame",
            DecodeError::Trailing => "trailing bytes after frame",
            DecodeError::Invalid => "invalid frame field",
        };
        NetError::Malformed { what }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<KeyTreeError> for NetError {
    fn from(e: KeyTreeError) -> Self {
        NetError::KeyTree(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reject_codes_roundtrip() {
        for reason in [
            RejectReason::BadVersion,
            RejectReason::UnknownMember,
            RejectReason::BadAuth,
            RejectReason::ShuttingDown,
        ] {
            assert_eq!(RejectReason::from_code(reason.code()), Some(reason));
        }
        assert_eq!(RejectReason::from_code(0), None);
        assert_eq!(RejectReason::from_code(200), None);
    }

    #[test]
    fn display_names_the_failure() {
        let err = NetError::EpochEvicted {
            requested: 3,
            oldest: 9,
        };
        assert!(err.to_string().contains("epoch 3"));
        assert!(err.to_string().contains("oldest retained: 9"));
        let err = NetError::FrameTooLarge { len: 10, max: 4 };
        assert!(err.to_string().contains("10"));
        assert!(NetError::Rejected(RejectReason::BadAuth)
            .to_string()
            .contains("authentication"));
    }
}
