//! Unified scheme construction: one enum, one config, one factory.
//!
//! Before this module every driver (the CLI, the fuzz testkit, the
//! benches) carried its own `match`-arm factory from a scheme name to
//! a concrete manager constructor, and each kept a private list of
//! valid names. [`Scheme`] is the single source of truth: the enum
//! enumerates every scheme in the crate, [`Scheme::ALL`] drives help
//! text and sweeps, [`FromStr`] parses the command-line names, and
//! [`Scheme::build`] constructs the manager from a [`SchemeConfig`].
//!
//! # Example
//!
//! ```
//! use rekey_core::scheme::{Scheme, SchemeConfig};
//!
//! let scheme: Scheme = "qt".parse()?;
//! let config = SchemeConfig::new().degree(4).s_period(10);
//! let manager = scheme.build(&config);
//! assert_eq!(manager.member_count(), 0);
//! assert_eq!(scheme.name(), "qt");
//! # Ok::<(), rekey_core::scheme::SchemeParseError>(())
//! ```

use crate::adaptive::AdaptiveManager;
use crate::combined::CombinedManager;
use crate::loss_forest::LossForestManager;
use crate::one_tree::OneTreeManager;
use crate::partition::{PtManager, QtManager, TtManager};
use crate::GroupKeyManager;
use rekey_keytree::tree::MAX_DEGREE;
use std::fmt;
use std::str::FromStr;

/// Every group-key management scheme this crate implements.
///
/// The variants mirror the paper's constructions: the single balanced
/// key tree baseline, the §3 two-partition schemes (TT/QT/PT), the §4
/// loss-homogenized forest, the §4.2 combination, and the §3.4
/// adaptive deployment loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Single balanced key tree — the unoptimized baseline.
    OneTree,
    /// Tree + tree two-partition scheme (§3.2).
    Tt,
    /// Queue + tree two-partition scheme (§3.2).
    Qt,
    /// Oracle-placement two-partition scheme (\[SMS00\]-style hints).
    Pt,
    /// Loss-homogenized key forest: one tree per loss class (§4).
    LossForest,
    /// Combined two-partition + loss forest (§4.2).
    Combined,
    /// Adaptive scheme selection from the observed mixture (§3.4).
    Adaptive,
}

impl Scheme {
    /// Every scheme, in the canonical reporting order. Drivers sweep
    /// this instead of maintaining their own lists.
    pub const ALL: [Scheme; 7] = [
        Scheme::OneTree,
        Scheme::Tt,
        Scheme::Qt,
        Scheme::Pt,
        Scheme::LossForest,
        Scheme::Combined,
        Scheme::Adaptive,
    ];

    /// The command-line name of the scheme (what [`FromStr`] accepts).
    pub fn name(self) -> &'static str {
        match self {
            Scheme::OneTree => "one",
            Scheme::Tt => "tt",
            Scheme::Qt => "qt",
            Scheme::Pt => "pt",
            Scheme::LossForest => "forest",
            Scheme::Combined => "combined",
            Scheme::Adaptive => "adaptive",
        }
    }

    /// Constructs the manager for this scheme from `config`.
    ///
    /// Out-of-range config values are clamped to the nearest valid
    /// value (degree 2 to [`MAX_DEGREE`], S-period at least 1) so a
    /// scheme can always be built.
    pub fn build(self, config: &SchemeConfig) -> Box<dyn GroupKeyManager> {
        let degree = config.degree.clamp(2, MAX_DEGREE);
        let k = config.s_period.max(1);
        match self {
            Scheme::OneTree => Box::new(OneTreeManager::new(degree)),
            Scheme::Tt => Box::new(TtManager::new(degree, k)),
            Scheme::Qt => Box::new(QtManager::new(degree, k)),
            Scheme::Pt => Box::new(PtManager::new(degree)),
            Scheme::LossForest => Box::new(LossForestManager::two_trees(degree)),
            Scheme::Combined => Box::new(CombinedManager::two_loss_classes(degree, k)),
            Scheme::Adaptive => Box::new(AdaptiveManager::paper_default(degree)),
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A scheme name that did not parse. The error message lists every
/// valid name, derived from [`Scheme::ALL`] — there is no
/// hand-maintained list to fall out of sync.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeParseError {
    input: String,
}

impl SchemeParseError {
    /// The rejected input.
    pub fn input(&self) -> &str {
        &self.input
    }
}

impl fmt::Display for SchemeParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown scheme {:?} (valid schemes: ", self.input)?;
        for (i, scheme) in Scheme::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(scheme.name())?;
        }
        f.write_str(")")
    }
}

impl std::error::Error for SchemeParseError {}

impl FromStr for Scheme {
    type Err = SchemeParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Scheme::ALL
            .into_iter()
            .find(|scheme| scheme.name() == s)
            .ok_or_else(|| SchemeParseError {
                input: s.to_string(),
            })
    }
}

/// Construction parameters shared by every scheme. Built fluently;
/// fields a scheme does not use are ignored (the one-tree baseline has
/// no S-period).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeConfig {
    degree: usize,
    s_period: u64,
}

impl SchemeConfig {
    /// The paper's defaults: degree-4 trees, S-period of 10 intervals.
    pub fn new() -> Self {
        SchemeConfig {
            degree: 4,
            s_period: 10,
        }
    }

    /// Sets the key-tree degree (clamped to 2..=[`MAX_DEGREE`] at build
    /// time).
    pub fn degree(mut self, degree: usize) -> Self {
        self.degree = degree;
        self
    }

    /// Sets the S-period `k` in rekey intervals for the partitioned
    /// schemes (clamped to at least 1 at build time).
    pub fn s_period(mut self, k: u64) -> Self {
        self.s_period = k;
        self
    }
}

impl Default for SchemeConfig {
    fn default() -> Self {
        SchemeConfig::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_roundtrips() {
        for scheme in Scheme::ALL {
            assert_eq!(scheme.name().parse::<Scheme>(), Ok(scheme));
            assert_eq!(scheme.to_string(), scheme.name());
        }
    }

    #[test]
    fn parse_error_lists_all_variants() {
        let err = "lkh++".parse::<Scheme>().unwrap_err();
        let message = err.to_string();
        assert!(message.contains("lkh++"));
        for scheme in Scheme::ALL {
            assert!(
                message.contains(scheme.name()),
                "error message {message:?} misses {}",
                scheme.name()
            );
        }
        assert_eq!(err.input(), "lkh++");
    }

    #[test]
    fn build_constructs_every_scheme() {
        let config = SchemeConfig::new().degree(3).s_period(5);
        for scheme in Scheme::ALL {
            let manager = scheme.build(&config);
            assert_eq!(manager.member_count(), 0);
            assert!(!manager.scheme_name().is_empty());
        }
    }

    #[test]
    fn degenerate_config_is_clamped() {
        let config = SchemeConfig::new().degree(0).s_period(0);
        for scheme in Scheme::ALL {
            // Must not panic: the degenerate values are clamped.
            let _ = scheme.build(&config);
        }
        let wide = SchemeConfig::new().degree(usize::MAX);
        for scheme in Scheme::ALL {
            let _ = scheme.build(&wide);
        }
    }
}
