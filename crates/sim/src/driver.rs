//! Drives a [`GroupKeyManager`] over a membership workload and
//! collects the paper's bandwidth metric per interval.

use crate::membership::{IntervalEvents, MembershipGenerator};
use crate::metrics::Summary;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rekey_core::{GroupKeyManager, IntervalStats, Join};
use rekey_crypto::Key;
use rekey_keytree::member::GroupMember;
use rekey_keytree::MemberId;
use rekey_obs::Collector;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Simulation configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Measured intervals (after warm-up).
    pub intervals: usize,
    /// Warm-up intervals excluded from statistics (lets partitions
    /// fill and migrations reach steady state).
    pub warmup: usize,
    /// Maintain full receiver states and assert that every present
    /// member holds the DEK after every interval (and no departed
    /// member does). Quadratic-ish; use with small groups.
    pub verify_members: bool,
    /// Attach ground-truth duration-class hints to joins (for the
    /// oracle PT-scheme).
    pub oracle_hints: bool,
    /// Write a Chrome `trace_event` JSON trace of the run to this
    /// path (load it in `about:tracing` or Perfetto). `None` disables
    /// tracing; the run's reported metrics are identical either way.
    pub trace: Option<String>,
    /// Write a Prometheus-style text dump of counters, histograms,
    /// and gauges to this path after the run.
    pub metrics: Option<String>,
}

impl SimConfig {
    /// A small, fast configuration for tests and examples.
    pub fn quick() -> Self {
        SimConfig {
            intervals: 20,
            warmup: 5,
            verify_members: false,
            oracle_hints: false,
            trace: None,
            metrics: None,
        }
    }
}

/// Wall clock spent in each phase of `LkhServer::try_apply_batch`
/// over a whole run, from the observability recorder. All zeros when
/// no recorder was active during the run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Tree mutation + fresh key generation (sequential).
    pub mutate_s: f64,
    /// Encryption planning (sequential).
    pub plan_s: f64,
    /// Encryption execution (sequential).
    pub execute_s: f64,
}

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Per-interval stats over the measured window.
    pub intervals: Vec<IntervalStats>,
    /// Mean encrypted keys per interval — comparable to the analytic
    /// `Ne`-based costs.
    pub mean_keys_per_interval: f64,
    /// Summary of the keys-per-interval series.
    pub keys_summary: Summary,
    /// Group size at the end of the run.
    pub final_size: usize,
    /// Per-phase rekey-engine wall clock over the run (zeros without
    /// an active recorder). Derived from timing, so unlike every other
    /// field it is *not* deterministic across runs.
    pub phases: PhaseBreakdown,
}

/// Phase span names recorded by `rekey_keytree::server::LkhServer`.
const PHASE_SPANS: [&str; 3] = ["rekey.mutate", "rekey.plan", "rekey.execute"];

/// Observability bookkeeping for one simulation run: installs a
/// [`Collector`] when the config asks for trace/metrics output,
/// snapshots pre-run phase totals (a recorder may already be serving
/// other runs), and on `finish` exports files and computes the run's
/// phase-breakdown delta.
struct ObsRun {
    installed: Option<Arc<Collector>>,
    base_ns: [u64; 3],
}

impl ObsRun {
    fn start(config: &SimConfig) -> Self {
        let installed = if config.trace.is_some() || config.metrics.is_some() {
            let collector = Arc::new(Collector::new());
            rekey_obs::install(collector.clone());
            Some(collector)
        } else {
            None
        };
        ObsRun {
            installed,
            base_ns: PHASE_SPANS.map(rekey_obs::total_time_ns),
        }
    }

    fn finish(self, config: &SimConfig) -> PhaseBreakdown {
        let delta = |i: usize| {
            rekey_obs::total_time_ns(PHASE_SPANS[i]).saturating_sub(self.base_ns[i]) as f64 / 1e9
        };
        let phases = PhaseBreakdown {
            mutate_s: delta(0),
            plan_s: delta(1),
            execute_s: delta(2),
        };
        if let Some(collector) = self.installed {
            if let Some(path) = &config.trace {
                collector
                    .write_chrome_trace(path)
                    .unwrap_or_else(|e| panic!("writing trace file {path:?}: {e}"));
            }
            if let Some(path) = &config.metrics {
                collector
                    .write_metrics(path)
                    .unwrap_or_else(|e| panic!("writing metrics file {path:?}: {e}"));
            }
            rekey_obs::uninstall();
        }
        phases
    }
}

/// Emits the per-interval gauge series (Chrome counter tracks / last
/// value in the metrics dump). No-ops when no recorder is installed.
fn sample_interval(stats: &IntervalStats) {
    rekey_obs::sample("sim.joins", stats.joins as f64);
    rekey_obs::sample("sim.leaves", stats.leaves as f64);
    rekey_obs::sample("sim.migrations", stats.migrations as f64);
    rekey_obs::sample("sim.encrypted_keys", stats.encrypted_keys as f64);
    rekey_obs::sample("sim.message_bytes", stats.message_bytes as f64);
}

/// Runs `manager` over `generator`'s workload.
///
/// The workload draws from a stream of its own, forked from `rng` once
/// on entry: how many bytes a manager draws (fresh keys, nonce starts)
/// differs per scheme, and must not change who joins and leaves — two
/// schemes run from the same seed see the same membership trace.
///
/// # Panics
///
/// Panics if the manager rejects a generated batch (that would be a
/// bug in manager/generator bookkeeping), or if `verify_members` is on
/// and a member loses synchronization — the end-to-end correctness
/// property.
pub fn run_scheme<R: Rng>(
    manager: &mut dyn GroupKeyManager,
    generator: &mut MembershipGenerator,
    config: &SimConfig,
    rng: &mut R,
) -> SimReport {
    let mut states: BTreeMap<MemberId, GroupMember> = BTreeMap::new();
    let mut measured: Vec<IntervalStats> = Vec::with_capacity(config.intervals);
    let obs = ObsRun::start(config);
    let mut workload_rng = StdRng::seed_from_u64(rng.next_u64());

    // Admit the pre-populated steady-state members in one bootstrap
    // interval (excluded from measurement).
    let bootstrap: Vec<MemberId> = (0..generator.population() as u64).map(MemberId).collect();
    let joins: Vec<Join> = bootstrap
        .iter()
        .map(|&m| {
            let ik = Key::generate(rng);
            if config.verify_members {
                states.insert(m, GroupMember::new(m, ik.clone()));
            }
            Join::new(m, ik)
        })
        .collect();
    let out = manager
        .process_interval(&joins, &[], rng)
        .expect("bootstrap batch");
    if config.verify_members {
        for s in states.values_mut() {
            let _ = s.process(&out.message);
        }
    }

    for step in 0..(config.warmup + config.intervals) {
        let events = generator.next_interval(&mut workload_rng);
        let out = apply_interval(manager, &events, config, &mut states, rng);
        sample_interval(&out);
        if config.verify_members {
            verify(manager, &states, &events.leaves);
            // Drop departed members' states to keep memory bounded.
            for m in &events.leaves {
                states.remove(m);
            }
        }
        if step >= config.warmup {
            measured.push(out);
        }
    }

    let phases = obs.finish(config);
    let series: Vec<f64> = measured.iter().map(|s| s.encrypted_keys as f64).collect();
    let keys_summary = Summary::of(&series);
    SimReport {
        mean_keys_per_interval: keys_summary.mean,
        intervals: measured,
        keys_summary,
        final_size: manager.member_count(),
        phases,
    }
}

fn apply_interval<R: Rng>(
    manager: &mut dyn GroupKeyManager,
    events: &IntervalEvents,
    config: &SimConfig,
    states: &mut BTreeMap<MemberId, GroupMember>,
    rng: &mut R,
) -> IntervalStats {
    let joins: Vec<Join> = events
        .joins
        .iter()
        .map(|&(m, class)| {
            let ik = Key::generate(rng);
            if config.verify_members {
                states.insert(m, GroupMember::new(m, ik.clone()));
            }
            let mut join = Join::new(m, ik);
            if config.oracle_hints {
                join = join.with_class(class);
            }
            join
        })
        .collect();
    let out = manager
        .process_interval(&joins, &events.leaves, rng)
        .expect("generated batch is consistent");
    if config.verify_members {
        for s in states.values_mut() {
            let _ = s.process(&out.message);
        }
    }
    out.stats
}

fn verify(
    manager: &dyn GroupKeyManager,
    states: &BTreeMap<MemberId, GroupMember>,
    just_departed: &[MemberId],
) {
    let dek_node = manager.dek_node();
    let dek = manager.dek();
    for (id, state) in states {
        if just_departed.contains(id) {
            assert_ne!(
                state.key_for(dek_node),
                Some(dek),
                "departed member {id} still holds the DEK"
            );
        } else if manager.contains(*id) {
            assert_eq!(
                state.key_for(dek_node),
                Some(dek),
                "member {id} lost the DEK under {}",
                manager.scheme_name()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::MembershipParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rekey_core::one_tree::OneTreeManager;
    use rekey_core::partition::{QtManager, TtManager};

    fn params(n: usize) -> MembershipParams {
        MembershipParams {
            target_size: n,
            ..MembershipParams::paper_default()
        }
    }

    #[test]
    fn one_tree_simulation_runs_verified() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut gen = MembershipGenerator::new(params(200), &mut rng);
        let mut mgr = OneTreeManager::new(4);
        let cfg = SimConfig {
            intervals: 10,
            warmup: 2,
            verify_members: true,
            ..SimConfig::quick()
        };
        let report = run_scheme(&mut mgr, &mut gen, &cfg, &mut rng);
        assert!(report.mean_keys_per_interval > 0.0);
        assert_eq!(report.intervals.len(), 10);
    }

    #[test]
    fn tt_simulation_runs_verified() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut gen = MembershipGenerator::new(params(200), &mut rng);
        let mut mgr = TtManager::new(4, 5);
        let cfg = SimConfig {
            intervals: 12,
            warmup: 3,
            verify_members: true,
            ..SimConfig::quick()
        };
        let report = run_scheme(&mut mgr, &mut gen, &cfg, &mut rng);
        assert!(report.final_size > 0);
    }

    /// The workload is a function of the seed alone: schemes that draw
    /// different amounts of key-server randomness still see the same
    /// joins and leaves every interval.
    #[test]
    fn schemes_at_one_seed_see_the_same_membership_trace() {
        let trace = |mgr: &mut dyn GroupKeyManager| -> Vec<(usize, usize)> {
            let mut rng = StdRng::seed_from_u64(424242);
            let mut gen = MembershipGenerator::new(params(300), &mut rng);
            let cfg = SimConfig {
                warmup: 0,
                ..SimConfig::quick()
            };
            run_scheme(mgr, &mut gen, &cfg, &mut rng)
                .intervals
                .iter()
                .map(|s| (s.joins, s.leaves))
                .collect()
        };
        let one = trace(&mut OneTreeManager::new(4));
        assert_eq!(one.len(), 20);
        assert!(one.iter().any(|&(joins, leaves)| joins > 0 && leaves > 0));
        assert_eq!(trace(&mut TtManager::new(4, 5)), one);
        assert_eq!(trace(&mut QtManager::new(4, 5)), one);
    }

    #[test]
    fn qt_simulation_runs_verified() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut gen = MembershipGenerator::new(params(200), &mut rng);
        let mut mgr = QtManager::new(4, 5);
        let cfg = SimConfig {
            intervals: 12,
            warmup: 3,
            verify_members: true,
            ..SimConfig::quick()
        };
        run_scheme(&mut mgr, &mut gen, &cfg, &mut rng);
    }
}
