//! The two-partition steady-state model of §3.3.1 (Figs. 2–5).
//!
//! Group members belong to two classes with exponentially distributed
//! membership durations: class `Cs` with small mean `Ms` and class
//! `Cl` with large mean `Ml`; a fraction `α` of joins are short-lived
//! (the \[AA97\] MBone observation). The key server rekeys every `Tp`
//! seconds and migrates members older than the S-period `Ts = K·Tp`
//! from the S-partition to the L-partition.
//!
//! [`PartitionParams::steady_state`] solves the open queueing system
//! of Fig. 2 (equations (1)–(7)); the `cost_*` methods evaluate the
//! per-interval rekeying cost of each scheme (equations (8)–(10)), and
//! the `cost_*_chained` ones the same equations over
//! [`ne_chained`], the cost of the live
//! planner, which derives an updated key from an updated child's.

use crate::appendix_a::{ne, ne_chained};
use serde::{Deserialize, Serialize};

/// Parameters of the two-partition evaluation (Table 1 defaults via
/// [`PartitionParams::paper_default`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionParams {
    /// Group size `N`.
    pub group_size: u64,
    /// Key tree degree `d`.
    pub degree: u32,
    /// Rekey period `Tp` in seconds.
    pub rekey_period: f64,
    /// S-period in rekey intervals: `K = Ts / Tp`.
    pub k: u32,
    /// Mean short membership duration `Ms` in seconds.
    pub mean_short: f64,
    /// Mean long membership duration `Ml` in seconds.
    pub mean_long: f64,
    /// Fraction `α` of joins that are short-lived (class `Cs`).
    pub alpha: f64,
}

impl PartitionParams {
    /// The paper's Table 1 defaults: `Tp = 60 s`, `N = 65536`, `d = 4`,
    /// `K = 10`, `Ms = 3 min`, `Ml = 3 h`, `α = 0.8`.
    pub fn paper_default() -> Self {
        PartitionParams {
            group_size: 65536,
            degree: 4,
            rekey_period: 60.0,
            k: 10,
            mean_short: 3.0 * 60.0,
            mean_long: 3.0 * 3600.0,
            alpha: 0.8,
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics on non-positive durations, `degree < 2`, or `alpha`
    /// outside `[0, 1]`.
    pub fn validate(&self) {
        assert!(self.group_size >= 2, "group too small");
        assert!(self.degree >= 2, "degree must be >= 2");
        assert!(self.rekey_period > 0.0, "rekey period must be positive");
        assert!(
            self.mean_short > 0.0 && self.mean_long > 0.0,
            "mean durations must be positive"
        );
        assert!((0.0..=1.0).contains(&self.alpha), "alpha must be in [0, 1]");
    }

    /// `Pr(t, M)`: probability an exponential member with mean `m`
    /// departs within `t` seconds (equation 2).
    fn pr(t: f64, m: f64) -> f64 {
        1.0 - (-t / m).exp()
    }

    /// Solves the steady-state queueing system (equations (1)–(7)).
    pub fn steady_state(&self) -> SteadyState {
        self.validate();
        let n = self.group_size as f64;
        let tp = self.rekey_period;
        let (ms, ml, alpha) = (self.mean_short, self.mean_long, self.alpha);
        let ts = self.k as f64 * tp;

        // N = Ncs + Ncl with Lcs = α·J = Ncs·Pr(Tp, Ms), etc.
        let denom = alpha / Self::pr(tp, ms) + (1.0 - alpha) / Self::pr(tp, ml);
        let j = n / denom;
        let n_cs = alpha * j / Self::pr(tp, ms);
        let n_cl = (1.0 - alpha) * j / Self::pr(tp, ml);

        // S-partition population: cohorts aged 0..K-1 intervals (6).
        let mut n_s = 0.0;
        for i in 0..self.k {
            let age = i as f64 * tp;
            n_s += j * (alpha * (-age / ms).exp() + (1.0 - alpha) * (-age / ml).exp());
        }
        let n_l = (n - n_s).max(0.0);

        // Migration: survivors of the full S-period (7).
        let l_m = j * (alpha * (-ts / ms).exp() + (1.0 - alpha) * (-ts / ml).exp());
        let l_s = (j - l_m).max(0.0);
        let l_l = l_m; // steady state
        let l_cs = alpha * j;
        let l_cl = (1.0 - alpha) * j;

        SteadyState {
            joins_per_period: j,
            n_cs,
            n_cl,
            n_s,
            n_l,
            l_m,
            l_s,
            l_l,
            l_cs,
            l_cl,
        }
    }

    /// Rekey cost per interval for the unoptimized one-keytree scheme:
    /// `Ne(N, J)`.
    pub fn cost_one_keytree(&self) -> f64 {
        self.one_keytree_over(ne)
    }

    /// [`PartitionParams::cost_one_keytree`] over
    /// [`ne_chained`].
    pub fn cost_one_keytree_chained(&self) -> f64 {
        self.one_keytree_over(ne_chained)
    }

    fn one_keytree_over(&self, ne: fn(u64, f64, u32) -> f64) -> f64 {
        let ss = self.steady_state();
        ne(self.group_size, ss.joins_per_period, self.degree)
    }

    /// Rekey cost per interval for the QT-scheme (equation 8):
    /// `Ns + Ne(Nl, Ll)` — the queue costs one encryption per resident
    /// member, the L-tree is a normal batched LKH tree.
    pub fn cost_qt(&self) -> f64 {
        self.qt_over(ne)
    }

    /// [`PartitionParams::cost_qt`] over
    /// [`ne_chained`].
    pub fn cost_qt_chained(&self) -> f64 {
        self.qt_over(ne_chained)
    }

    fn qt_over(&self, ne: fn(u64, f64, u32) -> f64) -> f64 {
        let ss = self.steady_state();
        ss.n_s + ne(ss.n_l.round() as u64, ss.l_l, self.degree)
    }

    /// Rekey cost per interval for the TT-scheme (equation 9):
    /// `Ne(Ns, J) + Ne(Nl, Ll)`.
    pub fn cost_tt(&self) -> f64 {
        self.tt_over(ne)
    }

    /// [`PartitionParams::cost_tt`] over
    /// [`ne_chained`].
    pub fn cost_tt_chained(&self) -> f64 {
        self.tt_over(ne_chained)
    }

    fn tt_over(&self, ne: fn(u64, f64, u32) -> f64) -> f64 {
        let ss = self.steady_state();
        ne(ss.n_s.round() as u64, ss.joins_per_period, self.degree)
            + ne(ss.n_l.round() as u64, ss.l_l, self.degree)
    }

    /// Rekey cost per interval for the oracle PT-scheme (equation 10):
    /// `Ne(Ncs, Lcs) + Ne(Ncl, Lcl)`.
    pub fn cost_pt(&self) -> f64 {
        let ss = self.steady_state();
        ne(ss.n_cs.round() as u64, ss.l_cs, self.degree)
            + ne(ss.n_cl.round() as u64, ss.l_cl, self.degree)
    }

    /// All four scheme costs at once.
    pub fn costs(&self) -> SchemeCosts {
        SchemeCosts {
            one_keytree: self.cost_one_keytree(),
            qt: self.cost_qt(),
            tt: self.cost_tt(),
            pt: self.cost_pt(),
        }
    }
}

/// Solution of the steady-state queueing system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SteadyState {
    /// Join (and departure) rate per rekey interval, `J`.
    pub joins_per_period: f64,
    /// Class-`Cs` population `Ncs`.
    pub n_cs: f64,
    /// Class-`Cl` population `Ncl`.
    pub n_cl: f64,
    /// S-partition population `Ns`.
    pub n_s: f64,
    /// L-partition population `Nl`.
    pub n_l: f64,
    /// Members migrated S→L per interval, `Lm`.
    pub l_m: f64,
    /// Departures from the S-partition per interval, `Ls`.
    pub l_s: f64,
    /// Departures from the L-partition per interval, `Ll`.
    pub l_l: f64,
    /// Class-`Cs` departures per interval, `Lcs`.
    pub l_cs: f64,
    /// Class-`Cl` departures per interval, `Lcl`.
    pub l_cl: f64,
}

/// Per-interval rekey cost of each scheme, in encrypted keys.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchemeCosts {
    /// The unoptimized single balanced key tree.
    pub one_keytree: f64,
    /// Queue S-partition + tree L-partition.
    pub qt: f64,
    /// Tree S-partition + tree L-partition.
    pub tt: f64,
    /// Oracle placement by class (upper bound).
    pub pt: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_balances_flows() {
        let p = PartitionParams::paper_default();
        let ss = p.steady_state();
        // Population conservation (1).
        assert!((ss.n_cs + ss.n_cl - p.group_size as f64).abs() < 1e-6);
        // Joins split by class (4)-(5).
        assert!((ss.l_cs + ss.l_cl - ss.joins_per_period).abs() < 1e-6);
        // S-partition flow: in = J, out = Ls + Lm.
        assert!((ss.l_s + ss.l_m - ss.joins_per_period).abs() < 1e-6);
        // Partition populations sum to N.
        assert!((ss.n_s + ss.n_l - p.group_size as f64).abs() < 1e-6);
    }

    #[test]
    fn paper_default_join_rate() {
        // J = N / (α/Pr(Tp,Ms) + (1-α)/Pr(Tp,Ml)) ≈ 1684 under
        // Table 1 defaults.
        let ss = PartitionParams::paper_default().steady_state();
        assert!(
            (1600.0..1800.0).contains(&ss.joins_per_period),
            "J = {}",
            ss.joins_per_period
        );
    }

    #[test]
    fn k_zero_falls_back_to_one_keytree() {
        // §3.4: the one-keytree scheme is the special case Ts = 0.
        let mut p = PartitionParams::paper_default();
        p.k = 0;
        let costs = p.costs();
        assert!((costs.qt - costs.one_keytree).abs() / costs.one_keytree < 1e-6);
        assert!((costs.tt - costs.one_keytree).abs() / costs.one_keytree < 1e-6);
    }

    #[test]
    fn tt_beats_one_keytree_at_default() {
        // Fig. 3 at K = 10: TT ≈ 25% below one-keytree.
        let p = PartitionParams::paper_default();
        let costs = p.costs();
        let gain = 1.0 - costs.tt / costs.one_keytree;
        assert!(
            (0.15..0.35).contains(&gain),
            "TT gain {gain:.3} out of the paper's range"
        );
    }

    #[test]
    fn pt_is_best_everywhere() {
        // Fig. 3/4: PT has no migration overhead and always wins.
        for k in [1u32, 5, 10, 20] {
            for alpha in [0.2, 0.5, 0.8] {
                let p = PartitionParams {
                    k,
                    alpha,
                    ..PartitionParams::paper_default()
                };
                let costs = p.costs();
                assert!(costs.pt <= costs.tt + 1.0, "k={k} α={alpha}");
                assert!(costs.pt <= costs.qt + 1.0, "k={k} α={alpha}");
                assert!(costs.pt <= costs.one_keytree + 1.0, "k={k} α={alpha}");
            }
        }
    }

    #[test]
    fn one_keytree_wins_for_stable_groups() {
        // Fig. 4: for α ≤ 0.4 the one-keytree scheme is preferable.
        let p = PartitionParams {
            alpha: 0.2,
            ..PartitionParams::paper_default()
        };
        let costs = p.costs();
        assert!(costs.one_keytree < costs.tt);
        assert!(costs.one_keytree < costs.qt);
    }

    #[test]
    fn peak_improvement_matches_headline() {
        // The abstract's headline: up to 31.4% reduction (at α = 0.9,
        // K = 10). Allow a modest band around it.
        let p = PartitionParams {
            alpha: 0.9,
            ..PartitionParams::paper_default()
        };
        let costs = p.costs();
        let best = costs.tt.min(costs.qt);
        let gain = 1.0 - best / costs.one_keytree;
        assert!(
            (0.25..0.40).contains(&gain),
            "peak gain {gain:.3} vs paper's 31.4%"
        );
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_rejected() {
        let p = PartitionParams {
            alpha: 1.5,
            ..PartitionParams::paper_default()
        };
        p.steady_state();
    }
}
