//! The two-class exponential membership workload of §3.3.1.
//!
//! Joins arrive as a Poisson process whose rate is chosen so the group
//! holds `target_size` members in steady state (the `J` of the paper's
//! queueing model, Fig. 2); each joiner is short-lived with
//! probability `alpha` and draws its membership duration from the
//! exponential distribution of its class. This is the synthetic
//! equivalent of the MBone traces \[AA97\] the paper's model is fitted
//! to — see DESIGN.md (substitutions). The testkit compiles it into a
//! replayable scenario as its `paper` workload.

use crate::events::EventQueue;
use crate::DurationClass;
use rand::Rng;
use rekey_analytic::partition::PartitionParams;
use rekey_keytree::MemberId;
use serde::{Deserialize, Serialize};

/// Workload parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MembershipParams {
    /// Steady-state group size to aim for.
    pub target_size: usize,
    /// Fraction of short-lived joins (`α`).
    pub alpha: f64,
    /// Mean short duration `Ms` (seconds).
    pub mean_short: f64,
    /// Mean long duration `Ml` (seconds).
    pub mean_long: f64,
    /// Rekey interval `Tp` (seconds).
    pub rekey_period: f64,
}

impl MembershipParams {
    /// Table 1 defaults (with the paper's 65536-member group).
    pub fn paper_default() -> Self {
        MembershipParams {
            target_size: 65536,
            alpha: 0.8,
            mean_short: 180.0,
            mean_long: 10_800.0,
            rekey_period: 60.0,
        }
    }

    /// The steady-state join count per rekey interval (`J`).
    pub fn joins_per_interval(&self) -> f64 {
        let p = PartitionParams {
            group_size: self.target_size.max(2) as u64,
            degree: 4, // irrelevant for the queueing solution
            rekey_period: self.rekey_period,
            k: 1,
            mean_short: self.mean_short,
            mean_long: self.mean_long,
            alpha: self.alpha,
        };
        p.steady_state().joins_per_period
    }
}

/// One rekey interval's membership changes.
#[derive(Debug, Clone, Default)]
pub struct IntervalEvents {
    /// Members joining this interval, with their (ground-truth)
    /// duration classes — managers that are not oracles must ignore
    /// the class.
    pub joins: Vec<(MemberId, DurationClass)>,
    /// Members departing this interval.
    pub leaves: Vec<MemberId>,
    /// Arrivals whose membership ended within the same interval: with
    /// periodic batch rekeying they are never admitted, so they appear
    /// in neither `joins` nor `leaves`.
    pub transient: usize,
}

/// Generates per-interval joins and leaves.
#[derive(Debug)]
pub struct MembershipGenerator {
    params: MembershipParams,
    departures: EventQueue<MemberId>,
    now: f64,
    next_id: u64,
    population: usize,
}

impl MembershipGenerator {
    /// Creates a generator pre-populated at the steady state: the
    /// group starts with ~`target_size` members whose residual
    /// lifetimes follow the stationary distribution (exponential
    /// residuals, memorylessness).
    pub fn new<R: Rng>(params: MembershipParams, rng: &mut R) -> Self {
        assert!((0.0..=1.0).contains(&params.alpha), "alpha out of range");
        assert!(params.mean_short > 0.0 && params.mean_long > 0.0);
        assert!(params.rekey_period > 0.0);
        let mut generator = MembershipGenerator {
            params,
            departures: EventQueue::new(),
            now: 0.0,
            next_id: 0,
            population: 0,
        };
        // Stationary class mix of the *population* (not of joins):
        // long-lived members accumulate, so their population share
        // exceeds 1 - α.
        let p = PartitionParams {
            group_size: params.target_size.max(2) as u64,
            degree: 4,
            rekey_period: params.rekey_period,
            k: 1,
            mean_short: params.mean_short,
            mean_long: params.mean_long,
            alpha: params.alpha,
        };
        let ss = p.steady_state();
        let frac_short_pop = ss.n_cs / (ss.n_cs + ss.n_cl);
        for _ in 0..params.target_size {
            let class = if rng.gen::<f64>() < frac_short_pop {
                DurationClass::Short
            } else {
                DurationClass::Long
            };
            // Memorylessness: residual lifetime is exponential with
            // the class mean.
            let residual = exponential(rng, generator.class_mean(class));
            let id = generator.fresh_id();
            generator.departures.schedule(residual, id);
            generator.population += 1;
        }
        generator
    }

    fn fresh_id(&mut self) -> MemberId {
        let id = MemberId(self.next_id);
        self.next_id += 1;
        id
    }

    fn class_mean(&self, class: DurationClass) -> f64 {
        match class {
            DurationClass::Short => self.params.mean_short,
            DurationClass::Long => self.params.mean_long,
        }
    }

    /// Current population size.
    pub fn population(&self) -> usize {
        self.population
    }

    /// The workload parameters.
    pub fn params(&self) -> &MembershipParams {
        &self.params
    }

    /// Advances one rekey interval and returns its joins and leaves.
    pub fn next_interval<R: Rng>(&mut self, rng: &mut R) -> IntervalEvents {
        let end = self.now + self.params.rekey_period;
        let mut events = IntervalEvents::default();

        // Poisson joins over the interval.
        let rate = self.params.joins_per_interval() / self.params.rekey_period;
        let mut t = self.now + exponential(rng, 1.0 / rate.max(1e-12));
        while t <= end {
            let class = if rng.gen::<f64>() < self.params.alpha {
                DurationClass::Short
            } else {
                DurationClass::Long
            };
            let duration = exponential(rng, self.class_mean(class));
            if t + duration <= end {
                // Joined and left within one interval: never admitted
                // under periodic batch rekeying.
                events.transient += 1;
            } else {
                let id = self.fresh_id();
                self.departures.schedule(t + duration, id);
                events.joins.push((id, class));
                self.population += 1;
            }
            t += exponential(rng, 1.0 / rate.max(1e-12));
        }

        for (_, id) in self.departures.pop_until(end) {
            events.leaves.push(id);
            self.population -= 1;
        }
        self.now = end;
        events
    }
}

/// Samples an exponential with the given mean.
pub fn exponential<R: Rng>(rng: &mut R, mean: f64) -> f64 {
    -mean * (1.0 - rng.gen::<f64>()).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_params() -> MembershipParams {
        MembershipParams {
            target_size: 1000,
            ..MembershipParams::paper_default()
        }
    }

    #[test]
    fn population_stays_near_target() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut gen = MembershipGenerator::new(small_params(), &mut rng);
        for _ in 0..100 {
            gen.next_interval(&mut rng);
        }
        let pop = gen.population() as f64;
        assert!(
            (700.0..1300.0).contains(&pop),
            "population {pop} drifted from target 1000"
        );
    }

    #[test]
    fn join_rate_matches_model() {
        let mut rng = StdRng::seed_from_u64(2);
        let params = small_params();
        let expected_j = params.joins_per_interval();
        let mut gen = MembershipGenerator::new(params, &mut rng);
        let mut joins = 0usize;
        let intervals = 200;
        for _ in 0..intervals {
            joins += gen.next_interval(&mut rng).joins.len();
        }
        let measured = joins as f64 / intervals as f64;
        assert!(
            (measured - expected_j).abs() / expected_j < 0.15,
            "measured J {measured} vs model {expected_j}"
        );
    }

    #[test]
    fn leave_rate_balances_join_rate() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut gen = MembershipGenerator::new(small_params(), &mut rng);
        let (mut joins, mut leaves) = (0usize, 0usize);
        for _ in 0..300 {
            let ev = gen.next_interval(&mut rng);
            joins += ev.joins.len();
            leaves += ev.leaves.len();
        }
        let ratio = leaves as f64 / joins as f64;
        assert!(
            (0.85..1.15).contains(&ratio),
            "leave/join ratio {ratio} not balanced"
        );
    }

    #[test]
    fn class_mix_matches_alpha() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut gen = MembershipGenerator::new(small_params(), &mut rng);
        let mut short = 0usize;
        let mut total = 0usize;
        for _ in 0..200 {
            for (_, class) in gen.next_interval(&mut rng).joins {
                total += 1;
                if class == DurationClass::Short {
                    short += 1;
                }
            }
        }
        let frac = short as f64 / total as f64;
        assert!((frac - 0.8).abs() < 0.05, "short fraction {frac}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| exponential(&mut rng, 42.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 42.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn ids_are_unique() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut gen = MembershipGenerator::new(small_params(), &mut rng);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            for (id, _) in gen.next_interval(&mut rng).joins {
                assert!(seen.insert(id), "duplicate id {id}");
            }
        }
    }
}
