//! Drives a [`GroupKeyManager`] over a membership workload and
//! collects the paper's bandwidth metric per interval.

use crate::membership::{IntervalEvents, MembershipGenerator};
use crate::metrics::Summary;
use rand::Rng;
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
    /// Encryption planning (sequential, allocation-free).
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
        let events = generator.next_interval(rng);
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

/// Result of a simulation that also delivers every rekey message over
/// a lossy channel with the WKA-BKR protocol.
#[derive(Debug, Clone)]
pub struct TransportSimReport {
    /// The key-server report.
    pub server: SimReport,
    /// Mean encrypted-key transmissions per interval (replication and
    /// retransmission included) — the §4 metric.
    pub mean_transport_keys: f64,
    /// Mean delivery rounds per interval.
    pub mean_rounds: f64,
}

/// Like [`run_scheme`], but additionally delivers every interval's
/// rekey message with the executable WKA-BKR protocol over a two-point
/// loss population, feeding the per-member NACK feedback to
/// `feedback` (managers that learn loss rates — e.g.
/// `rekey_core::combined::CombinedManager` — hook in here; others pass
/// `|_, _, _| {}`).
///
/// Member loss rates are assigned at join time: high (`p_high`) with
/// probability `high_fraction`, else `p_low`.
///
/// # Panics
///
/// Panics if a delivery fails to complete within the protocol's round
/// budget, or on the same conditions as [`run_scheme`].
#[allow(clippy::too_many_arguments)]
pub fn run_scheme_with_transport<M, R, F>(
    manager: &mut M,
    generator: &mut MembershipGenerator,
    config: &SimConfig,
    high_fraction: f64,
    p_high: f64,
    p_low: f64,
    mut feedback: F,
    rng: &mut R,
) -> TransportSimReport
where
    M: GroupKeyManager,
    R: Rng,
    F: FnMut(&mut M, MemberId, u64, u64),
{
    use rekey_transport::interest::interest_map;
    use rekey_transport::loss::Population;
    use rekey_transport::wka_bkr::{self, WkaBkrConfig};

    let obs = ObsRun::start(config);
    let mut losses: BTreeMap<MemberId, f64> = BTreeMap::new();
    let assign = |losses: &mut BTreeMap<MemberId, f64>, m: MemberId, rng: &mut R| {
        let p = if rng.gen::<f64>() < high_fraction {
            p_high
        } else {
            p_low
        };
        losses.insert(m, p);
    };

    // Bootstrap.
    let joins: Vec<Join> = (0..generator.population() as u64)
        .map(|i| {
            assign(&mut losses, MemberId(i), rng);
            Join::new(MemberId(i), Key::generate(rng))
        })
        .collect();
    manager
        .process_interval(&joins, &[], rng)
        .expect("bootstrap batch");

    let mut measured: Vec<IntervalStats> = Vec::new();
    let (mut transport_keys, mut rounds) = (0u64, 0u64);
    for step in 0..(config.warmup + config.intervals) {
        let events = generator.next_interval(rng);
        let joins: Vec<Join> = events
            .joins
            .iter()
            .map(|&(m, _)| {
                assign(&mut losses, m, rng);
                Join::new(m, Key::generate(rng))
            })
            .collect();
        let out = manager
            .process_interval(&joins, &events.leaves, rng)
            .expect("generated batch is consistent");
        for m in &events.leaves {
            losses.remove(m);
        }

        sample_interval(&out.stats);
        let interest = interest_map(&out.message, |node, out| {
            manager.members_under_into(node, out)
        });
        let pop = Population::from_map(
            interest
                .keys()
                .map(|m| (*m, losses.get(m).copied().unwrap_or(p_low)))
                .collect(),
        );
        let delivery =
            wka_bkr::deliver(&out.message, &interest, &pop, &WkaBkrConfig::default(), rng);
        assert!(delivery.report.complete, "rekey delivery incomplete");
        for (&m, &(lost, seen)) in &delivery.lost_packets {
            feedback(manager, m, lost, seen);
        }

        if step >= config.warmup {
            measured.push(out.stats);
            transport_keys += delivery.report.keys_transmitted as u64;
            rounds += delivery.report.rounds as u64;
        }
    }

    let phases = obs.finish(config);
    let series: Vec<f64> = measured.iter().map(|s| s.encrypted_keys as f64).collect();
    let keys_summary = Summary::of(&series);
    let n = measured.len().max(1) as f64;
    TransportSimReport {
        server: SimReport {
            mean_keys_per_interval: keys_summary.mean,
            intervals: measured,
            keys_summary,
            final_size: manager.member_count(),
            phases,
        },
        mean_transport_keys: transport_keys as f64 / n,
        mean_rounds: rounds as f64 / n,
    }
}

/// Compares the measured mean rekey cost of several managers on the
/// *same* workload (same seed), returning `(name, mean keys)` pairs.
pub fn compare_schemes<R: Rng + rand::SeedableRng + Clone>(
    managers: Vec<Box<dyn GroupKeyManager>>,
    params: crate::membership::MembershipParams,
    config: &SimConfig,
    seed: u64,
) -> Vec<(&'static str, f64)> {
    let mut results = Vec::new();
    for mut manager in managers {
        let mut rng = R::seed_from_u64(seed);
        let mut generator = MembershipGenerator::new(params, &mut rng);
        let report = run_scheme(manager.as_mut(), &mut generator, config, &mut rng);
        results.push((manager.scheme_name(), report.mean_keys_per_interval));
    }
    results
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

    #[test]
    fn transport_in_the_loop_runs() {
        use rekey_core::combined::CombinedManager;
        let mut rng = StdRng::seed_from_u64(7);
        let mut gen = MembershipGenerator::new(params(300), &mut rng);
        let mut mgr = CombinedManager::two_loss_classes(4, 3);
        let report = run_scheme_with_transport(
            &mut mgr,
            &mut gen,
            &SimConfig::quick(),
            0.3,
            0.2,
            0.02,
            |m, member, lost, seen| m.record_feedback(member, lost, seen),
            &mut rng,
        );
        assert!(report.mean_transport_keys >= report.server.mean_keys_per_interval);
        assert!(report.mean_rounds >= 1.0);
        // The feedback loop placed migrated members into both classes.
        assert!(mgr.l_class_size(0) + mgr.l_class_size(1) > 0);
    }

    #[test]
    fn compare_runs_same_workload() {
        let results = compare_schemes::<StdRng>(
            vec![
                Box::new(OneTreeManager::new(4)),
                Box::new(TtManager::new(4, 5)),
            ],
            params(300),
            &SimConfig::quick(),
            7,
        );
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].0, "one-keytree");
        assert!(results.iter().all(|&(_, cost)| cost > 0.0));
    }
}
