//! The paper's claims, asserted on the series `rekey reproduce` prints.
//!
//! This is the one place a claim is checked: every test reads a
//! `rekey_bench::figures` entry and names the claim and where it
//! appears in the paper. We do not demand digit-exact matches (the
//! paper reports curve peaks read from Matlab plots); we demand each
//! claimed percentage within one band and each qualitative statement
//! exactly.

use rekey_bench::figures::{self, partition_gain, CombinedScheme, MultigroupFairness};
use std::sync::OnceLock;

/// The two executable runs two tests each read, computed once.
fn combined() -> &'static CombinedScheme {
    static RUN: OnceLock<CombinedScheme> = OnceLock::new();
    RUN.get_or_init(figures::combined_scheme)
}

fn multigroup() -> &'static MultigroupFairness {
    static RUN: OnceLock<MultigroupFairness> = OnceLock::new();
    RUN.get_or_init(figures::ext_multigroup_fairness)
}

/// Abstract + §5: "a performance improvement of up to 31.4% … when a
/// majority fraction of members in a group have short durations"
/// (Fig. 4 peak, α = 0.9, K = 10).
#[test]
fn claim_31_4_percent_partition_peak() {
    let gain = partition_gain(&figures::fig4_heterogeneity().at(0.9));
    assert!(
        (gain - 0.314).abs() < 0.03,
        "peak partition gain {:.1}% vs paper's 31.4%",
        gain * 100.0
    );
}

/// §3.3.2 (a): "the TT-scheme can achieve up to 25% bandwidth
/// reduction (at K = 10) over the one-keytree scheme."
#[test]
fn claim_25_percent_tt_at_k10() {
    let costs = figures::fig3_speriod().at(10);
    let gain = 1.0 - costs.tt / costs.one_keytree;
    assert!(
        (gain - 0.25).abs() < 0.03,
        "TT gain at K=10 {:.1}% vs paper's 25%",
        gain * 100.0
    );
}

/// §3.3.2 (a): "the PT-scheme works the best, up to 40% performance
/// gain."
#[test]
fn claim_40_percent_pt() {
    let costs = figures::fig3_speriod().at(10);
    let gain = 1.0 - costs.pt / costs.one_keytree;
    assert!(
        (gain - 0.40).abs() < 0.04,
        "PT gain {:.1}% vs paper's 40%",
        gain * 100.0
    );
}

/// §3.3.2 (a): "the TT-scheme outperforms the QT-scheme for a large
/// K" — and the converse for small K (Fig. 3 crossover).
#[test]
fn claim_qt_tt_crossover_in_k() {
    let fig3 = figures::fig3_speriod();
    let small_k = fig3.at(2);
    assert!(
        small_k.qt < small_k.tt,
        "QT should win at small K: qt={:.0} tt={:.0}",
        small_k.qt,
        small_k.tt
    );
    let large_k = fig3.at(16);
    assert!(
        large_k.tt < large_k.qt,
        "TT should win at large K: tt={:.0} qt={:.0}",
        large_k.tt,
        large_k.qt
    );
}

/// Fig. 3: with no S-period (K = 0) every joiner goes straight to the
/// L-partition, so TT and QT cost what one keytree costs.
#[test]
fn claim_k0_falls_back_to_one_keytree() {
    let c = figures::fig3_speriod().at(0);
    for (name, cost) in [("TT", c.tt), ("QT", c.qt)] {
        assert!(
            (cost - c.one_keytree).abs() / c.one_keytree < 1e-6,
            "{name} at K=0 costs {cost:.1}, one-keytree {:.1}",
            c.one_keytree
        );
    }
}

/// §3.3.2 (b): "when α is greater than 0.6, both the TT-scheme and
/// the QT-scheme outperform the one-keytree scheme … the one-keytree
/// scheme works better when α ≤ 0.4."
#[test]
fn claim_alpha_crossover() {
    let fig4 = figures::fig4_heterogeneity();
    for alpha in [0.7, 0.8, 0.9] {
        let c = fig4.at(alpha);
        assert!(c.tt < c.one_keytree, "TT should win at α={alpha}");
        assert!(c.qt < c.one_keytree, "QT should win at α={alpha}");
    }
    for alpha in [0.1, 0.2, 0.3, 0.4] {
        let c = fig4.at(alpha);
        assert!(
            c.one_keytree < c.tt && c.one_keytree < c.qt,
            "one-keytree should win at α={alpha}"
        );
    }
}

/// §3.3.2 (b): "the PT-scheme works the best" — over the mixed range
/// of Fig. 4 (at α = 0 and α = 1 it coincides with one keytree by
/// construction).
#[test]
fn claim_pt_is_best_over_mixed_alpha() {
    for (alpha, c) in figures::fig4_heterogeneity().points {
        if alpha == 0.0 || alpha == 1.0 {
            continue;
        }
        assert!(
            c.pt <= c.one_keytree + 1.0 && c.pt <= c.tt + 1.0 && c.pt <= c.qt + 1.0,
            "PT should be best at α={alpha}: {c:?}"
        );
    }
}

/// §3.3.2 (c): "the group size has little impact on the relative
/// performance … in average there are more than 22% bandwidth savings
/// in the default scenarios" (Fig. 5, N = 1K..256K).
#[test]
fn claim_22_percent_across_group_sizes() {
    let reductions = figures::fig5_group_size().reductions();
    for &(n, qt, tt) in &reductions {
        // "Little impact": every point within Fig. 5's 0.20–0.30 band.
        assert!(
            (0.20..0.30).contains(&qt) && (0.20..0.30).contains(&tt),
            "N={n}: qt {qt:.3}, tt {tt:.3} outside Fig. 5 band"
        );
    }
    let avg =
        reductions.iter().map(|(_, qt, tt)| qt + tt).sum::<f64>() / (2 * reductions.len()) as f64;
    assert!(avg > 0.22, "average reduction {avg:.3} below paper's 22%");
}

/// Abstract + §4.3.1 (a): the loss-homogenized scheme "can outperform
/// the one-keytree scheme by up to 12.1%" (Fig. 6, α ≈ 0.3).
#[test]
fn claim_12_1_percent_loss_homogenized() {
    let peak = figures::fig6_loss_heterogeneity()
        .points
        .iter()
        .map(|(_, s)| s.gain())
        .fold(0.0, f64::max);
    assert!(
        (peak - 0.121).abs() < 0.03,
        "loss-homogenized peak gain {:.1}% vs paper's 12.1%",
        peak * 100.0
    );
}

/// §4.3.1 (a): "the two-random-keytree scheme works even slightly
/// worse than the one-keytree scheme", and all schemes coincide at
/// α = 0 and α = 1.
#[test]
fn claim_random_split_does_not_help() {
    let fig6 = figures::fig6_loss_heterogeneity();
    for alpha in [0.2, 0.5, 0.8] {
        let s = fig6.at(alpha);
        assert!(
            s.two_random >= s.one_keytree && s.two_random < s.one_keytree * 1.05,
            "α={alpha}: random {:.0} vs one {:.0}",
            s.two_random,
            s.one_keytree
        );
    }
    // Homogeneous extremes: the homogenized scheme degenerates to one
    // tree and costs the same.
    for alpha in [0.0, 1.0] {
        let s = fig6.at(alpha);
        assert!(
            (s.homogenized - s.one_keytree).abs() / s.one_keytree < 1e-9,
            "α={alpha}: homogenized {:.1} differs from one-keytree {:.1}",
            s.homogenized,
            s.one_keytree
        );
    }
}

/// §4.3.1 (b), Fig. 7: misplacement degrades the gain; for small β the
/// scheme still wins, while large β makes it slightly worse than the
/// one-keytree scheme.
#[test]
fn claim_misplacement_degrades_gracefully() {
    let fig7 = figures::fig7_misplacement();
    let one = fig7.one_keytree;
    assert!(fig7.at(0.0) < one, "correctly partitioned must win");
    // Small misplacement: still better than one keytree.
    assert!(fig7.at(0.1) < one, "β=0.1 should still win");
    // Cost grows with β over the paper's plotted range.
    assert!(fig7.at(0.4) > fig7.at(0.1));
    // Large misplacement: at β = 0.8 the scheme is no better (paper:
    // "works even slightly worse than the one-keytree scheme").
    assert!(fig7.at(0.8) > one * 0.99, "β=0.8 should erase the benefit");
}

/// Fig. 7's closing observation: fully swapped trees (β = 1) are
/// loss-homogenized again, just mislabeled, so they beat β = 0.8.
#[test]
fn claim_fully_swapped_trees_beat_beta_0_8() {
    let fig7 = figures::fig7_misplacement();
    assert!(
        fig7.at(1.0) < fig7.at(0.8),
        "β=1.0 {:.0} vs β=0.8 {:.0}",
        fig7.at(1.0),
        fig7.at(0.8)
    );
}

/// §4.4: with proactive-FEC transport, loss homogenization gains more
/// than with WKA-BKR — "up to 25.7% when ph = 20%, pl = 2% and
/// α = 0.1". The sentence pins α = 0.1, so the band is on that point.
#[test]
fn claim_fec_gain_exceeds_wka_gain() {
    let (fec_gain, wka_gain) = figures::fec_extension().at(0.1);
    assert!(
        fec_gain > wka_gain,
        "FEC gain {fec_gain:.3} should exceed WKA gain {wka_gain:.3}"
    );
    assert!(
        (0.15..0.40).contains(&fec_gain),
        "FEC gain {:.1}% vs paper's 25.7%",
        fec_gain * 100.0
    );
}

/// §2.1: LKH reduces rekeying from O(N) to O(log N) — the premise of
/// everything else.
#[test]
fn claim_logarithmic_rekeying() {
    use rekey_analytic::appendix_a::ne;
    // Single departure: about d·log_d(N) keys, vs N for naive unicast.
    for &n in &[1024u64, 65536, 262144] {
        let cost = ne(n, 1.0, 4);
        let h = (n as f64).log(4.0);
        assert!(cost <= 4.0 * (h + 1.0), "N={n}: {cost:.1} not logarithmic");
        assert!(cost < n as f64 / 10.0);
    }
}

/// Ablation 2, generalizing §4 to k trees: one tree per loss class
/// beats one mixed tree.
#[test]
fn ablation_three_loss_trees_beat_one() {
    let k = figures::ablation_k_trees();
    assert!(
        k.three < k.one,
        "three trees {:.0} vs one {:.0}",
        k.three,
        k.one
    );
}

/// Ablation 8: the paper's d = 4 beats both extremes of the degree
/// sweep on the Table 1 workload.
#[test]
fn ablation_degree_4_beats_2_and_16() {
    let sweep = figures::ablation_degree_sweep();
    let (d2, d4, d16) = (sweep.at(2), sweep.at(4), sweep.at(16));
    assert!(d4 < d2 && d4 < d16, "d2={d2:.0} d4={d4:.0} d16={d16:.0}");
}

/// §4.2: the two optimizations compose — the combined manager beats
/// one keytree on key-server *and* transport cost, measured.
#[test]
fn claim_combined_scheme_wins_on_both_metrics() {
    let run = combined();
    assert!(
        run.combined.server_keys < run.one_keytree.server_keys,
        "server keys: combined {:.0} vs one-keytree {:.0}",
        run.combined.server_keys,
        run.one_keytree.server_keys
    );
    assert!(
        run.combined.transport_keys < run.one_keytree.transport_keys,
        "transport keys: combined {:.0} vs one-keytree {:.0}",
        run.combined.transport_keys,
        run.one_keytree.transport_keys
    );
}

/// §4.4 ([YSI99]): serving each loss-homogenized tree on its own
/// multicast group spares low-loss receivers the redundancy provisioned
/// for high-loss ones.
#[test]
fn claim_multigroup_delivery_cuts_low_loss_volume() {
    let run = multigroup();
    assert!(
        run.per_class < run.mixed,
        "per-class groups {:.1} vs one group {:.1}",
        run.per_class,
        run.mixed
    );
}

/// Every executable WKA-BKR and FEC delivery behind a table reached
/// every receiver, so no mean above averages a partial delivery.
#[test]
fn every_wka_and_fec_delivery_completes() {
    assert!(figures::ablation_packing().complete, "ablation 3");
    assert!(figures::ext_fec_deadline().complete, "extension 2");
    assert!(multigroup().complete, "extension 1");
    assert!(combined().complete, "combined scheme");
}
