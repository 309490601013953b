//! Replayable workload trace files.
//!
//! A [`Trace`] pairs a compiled [`Scenario`] with the name of the
//! generator that produced it, in a compact versioned byte format
//! modelled on the scenario codec: any sweep cell can be dumped to a
//! file and replayed byte-identically anywhere (`rekey workload
//! --trace file.bin --scheme all`). Decoding is total — truncated,
//! corrupt, or future-versioned inputs return a typed [`TraceError`]
//! instead of panicking.

use crate::scenario::Scenario;
use rekey_keytree::message::codec::{DecodeError, Reader};
use std::fmt;

const MAGIC: &[u8] = b"RKWT";
const VERSION: u8 = 1;

/// A replayable workload trace: the generator name plus the compiled
/// scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Name of the generator that produced the scenario (recorded for
    /// reporting; replay does not re-run the generator).
    pub generator: String,
    /// The compiled churn scenario.
    pub scenario: Scenario,
}

/// Decoding errors for the trace file format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The input does not start with the `RKWT` magic.
    BadMagic,
    /// The version byte is newer than this build understands.
    UnsupportedVersion(u8),
    /// The input ended before the encoded length was reached.
    Truncated,
    /// Bytes remain after the encoded trace.
    TrailingBytes(usize),
    /// The generator name is not valid UTF-8.
    BadGeneratorName,
    /// The embedded scenario bytes failed to decode.
    BadScenario,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a workload trace (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (this build reads {VERSION})"
                )
            }
            TraceError::Truncated => write!(f, "trace truncated"),
            TraceError::TrailingBytes(n) => {
                write!(f, "{n} trailing byte(s) after the encoded trace")
            }
            TraceError::BadGeneratorName => write!(f, "generator name is not valid UTF-8"),
            TraceError::BadScenario => write!(f, "embedded scenario failed to decode"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Reading a trace's own fields fails only by running out of input.
impl From<DecodeError> for TraceError {
    fn from(_: DecodeError) -> Self {
        TraceError::Truncated
    }
}

impl Trace {
    /// Serializes the trace:
    /// `RKWT | version | name_len:u8 | name | scenario_len:u32 | scenario`.
    pub fn encode(&self) -> Vec<u8> {
        let name = self.generator.as_bytes();
        let name = &name[..name.len().min(u8::MAX as usize)];
        let scenario = self.scenario.encode();
        let mut buf = Vec::with_capacity(MAGIC.len() + 6 + name.len() + scenario.len());
        buf.extend_from_slice(MAGIC);
        buf.push(VERSION);
        buf.push(name.len() as u8);
        buf.extend_from_slice(name);
        buf.extend_from_slice(&(scenario.len() as u32).to_be_bytes());
        buf.extend_from_slice(&scenario);
        buf
    }

    /// Deserializes a trace written by [`Trace::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] pinning what is wrong with the input;
    /// never panics, whatever the bytes.
    pub fn decode(bytes: &[u8]) -> Result<Trace, TraceError> {
        let mut r = Reader::new(bytes.strip_prefix(MAGIC).ok_or(TraceError::BadMagic)?);
        let version = r.u8()?;
        if version != VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let name_len = r.u8()?;
        let generator = std::str::from_utf8(r.bytes(name_len.into())?)
            .map_err(|_| TraceError::BadGeneratorName)?
            .to_string();
        let scenario_len = r.u32()?;
        let scenario_bytes = r.bytes(scenario_len as usize)?;
        if !r.rest().is_empty() {
            return Err(TraceError::TrailingBytes(r.rest().len()));
        }
        let scenario = Scenario::decode(scenario_bytes).map_err(|_| TraceError::BadScenario)?;
        Ok(Trace {
            generator,
            scenario,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::GenParams;

    fn sample() -> Trace {
        Trace {
            generator: "diurnal".into(),
            scenario: Scenario::generate(11, 20, &GenParams::default()),
        }
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let trace = sample();
        let bytes = trace.encode();
        let decoded = Trace::decode(&bytes).unwrap();
        assert_eq!(decoded, trace);
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let err = Trace::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    TraceError::BadMagic | TraceError::Truncated | TraceError::BadScenario
                ),
                "cut {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn bad_version_and_trailing_bytes_rejected() {
        let mut bytes = sample().encode();
        bytes[4] = 99;
        assert_eq!(
            Trace::decode(&bytes),
            Err(TraceError::UnsupportedVersion(99))
        );
        let mut padded = sample().encode();
        padded.extend_from_slice(&[0, 0]);
        assert_eq!(Trace::decode(&padded), Err(TraceError::TrailingBytes(2)));
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(Trace::decode(b"NOPE"), Err(TraceError::BadMagic));
        assert_eq!(Trace::decode(&[]), Err(TraceError::BadMagic));
    }

    #[test]
    fn corrupt_scenario_rejected() {
        let trace = sample();
        let mut bytes = trace.encode();
        // Flip a byte inside the embedded scenario's magic.
        let scenario_start = 4 + 1 + 1 + trace.generator.len() + 4;
        bytes[scenario_start] ^= 0xFF;
        assert_eq!(Trace::decode(&bytes), Err(TraceError::BadScenario));
    }
}
