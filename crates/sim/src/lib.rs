//! The §3.3.1 membership process, re-exported from
//! [`rekey_core::membership`]; the crate exists only because
//! `benchmark/`'s frozen `Cargo.lock` names it, and goes when that lock
//! is regenerated. The path the benchmark imports:
//!
//! ```
//! use rand::SeedableRng;
//! use rekey_sim::membership::{MembershipGenerator, MembershipParams};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let params = MembershipParams {
//!     target_size: 256,
//!     ..MembershipParams::paper_default()
//! };
//! let mut generator = MembershipGenerator::new(params, &mut rng);
//! assert_eq!(generator.population(), 256);
//! assert!(!generator.next_interval(&mut rng).joins.is_empty());
//! ```

pub use rekey_core::membership;
