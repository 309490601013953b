//! Cross-validation of the paper's analytic models (what the paper's
//! figures are computed from) against the executable system (what the
//! paper did not have).
//!
//! The real key server — actual trees, actual key wrapping, actual
//! migrations — driven through the paper's own membership process (the
//! testkit's `paper` workload) must land close to the closed-form
//! steady-state costs of §3.3.1, and preserve the paper's scheme
//! ordering. Every comparison sweeps several workload seeds and
//! reports the worst-case model/sim deviation, so a single lucky draw
//! can neither pass nor fail the suite.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_analytic::partition::PartitionParams;
use rekey_core::membership::{MembershipGenerator, MembershipParams};
use rekey_core::Scheme;
use rekey_testkit::{drive, factory_for, GenParams, Paper, Workload};
use std::sync::OnceLock;

const N: usize = 2048;
/// Independent workload seeds; deviation bounds must hold for all.
const SEEDS: [u64; 3] = [20030412, 7, 424242];
const WARMUP: usize = 15;
const MEASURED: usize = 50;
/// The schemes under test, in the order of [`measured`]'s rows.
const SCHEMES: [(Scheme, &str); 3] = [
    (Scheme::OneTree, "one-keytree"),
    (Scheme::Tt, "tt-scheme"),
    (Scheme::Qt, "qt-scheme"),
];

fn model(k: u32) -> PartitionParams {
    PartitionParams {
        group_size: N as u64,
        k,
        ..PartitionParams::paper_default()
    }
}

/// Mean encrypted keys per measured interval of the `paper` workload
/// (Table 1, K = 10), by scheme and then by seed. Each of the nine runs
/// is computed once and shared by every test.
fn measured() -> &'static [[f64; 3]; 3] {
    static RUNS: OnceLock<[[f64; 3]; 3]> = OnceLock::new();
    RUNS.get_or_init(|| SCHEMES.map(|(scheme, _)| SEEDS.map(|seed| simulate(scheme, seed))))
}

fn simulate(scheme: Scheme, seed: u64) -> f64 {
    let params = GenParams {
        bootstrap: N,
        degree: 4,
        k: 10,
        ..GenParams::default()
    };
    let scenario = Paper::default().compile(seed, WARMUP + MEASURED, &params);
    let mut keys = 0usize;
    drive(factory_for(scheme), &scenario, |step| {
        if step.interval > WARMUP {
            keys += step.outcome.stats.encrypted_keys;
        }
        Ok(())
    })
    .expect("compiled batches are consistent");
    keys as f64 / MEASURED as f64
}

/// Requires every seed's measured cost of `SCHEMES[scheme]` within
/// `tolerance` of the model, and reports the worst-case deviation.
///
/// The simulation runs a slightly lighter workload than the model
/// (members joining and leaving within one interval are never
/// admitted), so the band is a modest one.
fn assert_close_over_seeds(scheme: usize, predicted: f64, tolerance: f64) {
    let label = SCHEMES[scheme].1;
    let mut worst_dev = 0.0f64;
    let mut worst_seed = SEEDS[0];
    for (&seed, &measured) in SEEDS.iter().zip(&measured()[scheme]) {
        let ratio = measured / predicted;
        let dev = (ratio - 1.0).abs();
        if dev > worst_dev {
            worst_dev = dev;
            worst_seed = seed;
        }
        assert!(
            dev <= tolerance,
            "{label} @ seed {seed}: measured {measured:.0} vs model {predicted:.0} \
             (ratio {ratio:.3})"
        );
    }
    println!(
        "{label}: worst-case model/sim deviation {:.1}% (seed {worst_seed}) over {} seeds",
        100.0 * worst_dev,
        SEEDS.len()
    );
}

#[test]
fn one_keytree_cost_matches_model() {
    assert_close_over_seeds(0, model(10).cost_one_keytree(), 0.15);
}

#[test]
fn tt_cost_matches_model() {
    assert_close_over_seeds(1, model(10).cost_tt(), 0.15);
}

#[test]
fn qt_cost_matches_model() {
    assert_close_over_seeds(2, model(10).cost_qt(), 0.15);
}

#[test]
fn scheme_ordering_is_preserved() {
    // Fig. 3 at K = 10, α = 0.8: both partition schemes beat the
    // one-keytree scheme, on the executable system too — for every
    // workload seed, with the TT gain tracking the model's prediction.
    let predicted_gain = 1.0 - model(10).cost_tt() / model(10).cost_one_keytree();
    let [one, tt, qt] = measured();
    let mut worst_gap = 0.0f64;
    for (i, &seed) in SEEDS.iter().enumerate() {
        let (one, tt, qt) = (one[i], tt[i], qt[i]);
        assert!(
            tt < one,
            "seed {seed}: TT ({tt:.0}) should beat one-keytree ({one:.0})"
        );
        assert!(
            qt < one,
            "seed {seed}: QT ({qt:.0}) should beat one-keytree ({one:.0})"
        );
        let measured_gain = 1.0 - tt / one;
        let gap = (measured_gain - predicted_gain).abs();
        worst_gap = worst_gap.max(gap);
        assert!(
            gap < 0.08,
            "seed {seed}: TT gain measured {measured_gain:.3} vs model {predicted_gain:.3}"
        );
    }
    println!(
        "tt gain: worst-case gap to model {:.1}% over {} seeds",
        100.0 * worst_gap,
        SEEDS.len()
    );
}

#[test]
fn join_rate_matches_queueing_model() {
    // The generator reproduces the J of equations (1)–(5) under every
    // seed.
    let params = MembershipParams {
        target_size: N,
        ..MembershipParams::paper_default()
    };
    let expected = params.joins_per_interval();
    let mut worst = 0.0f64;
    for &seed in &SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut generator = MembershipGenerator::new(params, &mut rng);
        let mut joins = 0usize;
        let mut transient = 0usize;
        let rounds = 150;
        for _ in 0..rounds {
            let ev = generator.next_interval(&mut rng);
            joins += ev.joins.len();
            transient += ev.transient;
        }
        let measured = (joins + transient) as f64 / rounds as f64;
        let dev = (measured / expected - 1.0).abs();
        worst = worst.max(dev);
        assert!(
            dev < 0.1,
            "seed {seed}: arrival rate {measured:.1} vs model J {expected:.1}"
        );
    }
    println!(
        "join rate: worst-case deviation {:.1}% over {} seeds",
        100.0 * worst,
        SEEDS.len()
    );
}
