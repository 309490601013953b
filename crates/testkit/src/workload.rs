//! Trace-driven workload generators.
//!
//! The fuzzer's uniform random churn ([`Scenario::generate`]) is a
//! good bug-finder but a poor performance workload: real group
//! membership follows diurnal curves, flash crowds at pay-per-view
//! boundaries, mobile flap, and regionally correlated loss — and the
//! retrieved optimal-tree and batch-insertion papers show scheme
//! rankings flip under exactly these non-uniform dynamics. This module
//! adds a [`Workload`] trait — a named, seed-deterministic generator of
//! interval-by-interval churn — and six implementations:
//!
//! - [`Uniform`] — byte-identical to [`Scenario::generate`], the
//!   fuzzer's behaviour, kept as the baseline;
//! - [`Paper`] — the paper's own §3.3.1 two-class exponential process
//!   ([`rekey_core::membership`], Table 1 by default), the workload its
//!   costs and the analytic model come from;
//! - [`Diurnal`] — sinusoidal join/leave rates with configurable
//!   period and amplitude (daily audience curve);
//! - [`FlashCrowd`] — a mass-join ramp into a plateau followed by a
//!   mass departure (pay-per-view start/end);
//! - [`MobileFlap`] — short-lived rejoin-heavy sessions: flappy
//!   members leave after 1–3 intervals and usually rejoin at once;
//! - [`RegionalLoss`] — correlated loss-class shifts over member
//!   cohorts (a region degrades and later recovers as one event).
//!
//! Every workload **compiles down to the existing [`Scenario`]**
//! representation, so the shadow [`KnowledgeOracle`], the
//! [`MemberFarm`], the shrinker, and the trace codec all work
//! unchanged; [`crate::trace::Trace`] wraps the compiled scenario with
//! the generator name in a replayable file format.
//!
//! [`KnowledgeOracle`]: crate::oracle::KnowledgeOracle
//! [`MemberFarm`]: crate::farm::MemberFarm

use crate::runner::{run_scenario_with, ManagerFactory, RunOptions, RunStats, Violation};
use crate::scenario::{GenParams, IntervalOps, JoinOp, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rekey_core::membership::{MembershipGenerator, MembershipParams};
use rekey_core::DurationClass;
use rekey_obs::hist::Log2Histogram;
use std::f64::consts::PI;

/// Live group bookkeeping handed to [`Workload::interval`].
///
/// The helpers guarantee the compiled scenario is valid by
/// construction: join ids are fresh, leaves only remove members that
/// were present *before* the interval (never same-interval joiners, so
/// [`Scenario::sanitize`] is a no-op on compiled output), and loss
/// changes only reference members present after the interval's ops.
#[derive(Debug)]
pub struct GroupState {
    /// Members present after all ops emitted so far (joins included).
    present: Vec<u64>,
    /// Members still eligible to leave this interval: present at the
    /// interval start and not yet departed this interval.
    eligible: Vec<u64>,
    next_id: u64,
    classes: Vec<f64>,
}

impl GroupState {
    fn new(params: &GenParams) -> Self {
        GroupState {
            present: Vec::new(),
            eligible: Vec::new(),
            next_id: 0,
            classes: if params.loss_classes.is_empty() {
                vec![0.0]
            } else {
                params.loss_classes.clone()
            },
        }
    }

    /// Snapshot the leave-eligible set for a fresh interval.
    fn begin_interval(&mut self) {
        self.eligible.clear();
        self.eligible.extend_from_slice(&self.present);
    }

    /// Members present right now (start-of-interval membership plus
    /// joins emitted so far, minus leaves emitted so far).
    pub fn present(&self) -> &[u64] {
        &self.present
    }

    /// Members that may still leave this interval.
    pub fn leavable(&self) -> usize {
        self.eligible.len()
    }

    /// A loss rate drawn from the configured loss classes.
    pub fn pick_loss(&self, rng: &mut StdRng) -> f64 {
        self.classes[rng.gen_range(0..self.classes.len())]
    }

    /// Admits a fresh member with a random duration-class hint and a
    /// loss rate drawn from the configured classes.
    pub fn join(&mut self, rng: &mut StdRng) -> JoinOp {
        let loss = self.pick_loss(rng);
        let class = match rng.gen_range(0u32..3) {
            0 => None,
            1 => Some(DurationClass::Short),
            _ => Some(DurationClass::Long),
        };
        self.join_with(class, loss)
    }

    /// Admits a fresh member with an explicit hint and loss rate.
    pub fn join_with(&mut self, class: Option<DurationClass>, loss: f64) -> JoinOp {
        let member = self.next_id;
        self.next_id += 1;
        self.present.push(member);
        JoinOp {
            member,
            class,
            loss,
        }
    }

    /// Departs a uniformly random eligible member, if any.
    pub fn leave_random(&mut self, rng: &mut StdRng) -> Option<u64> {
        if self.eligible.is_empty() {
            return None;
        }
        let idx = rng.gen_range(0..self.eligible.len());
        let member = self.eligible.swap_remove(idx);
        self.present.retain(|&m| m != member);
        Some(member)
    }

    /// Departs a specific member. Returns `false` (and emits nothing)
    /// if the member is not eligible — already departed, or joined
    /// only this interval.
    pub fn leave_member(&mut self, member: u64) -> bool {
        let Some(idx) = self.eligible.iter().position(|&m| m == member) else {
            return false;
        };
        self.eligible.swap_remove(idx);
        self.present.retain(|&m| m != member);
        true
    }

    /// A uniformly random currently-present member, if any.
    pub fn pick_present(&self, rng: &mut StdRng) -> Option<u64> {
        if self.present.is_empty() {
            None
        } else {
            Some(self.present[rng.gen_range(0..self.present.len())])
        }
    }
}

/// Stochastic rounding: `floor(x)` plus one with probability
/// `fract(x)` — preserves fractional rates without bias.
fn round_rate(x: f64, rng: &mut StdRng) -> usize {
    let base = x.max(0.0);
    let floor = base.floor();
    let extra = usize::from(rng.gen::<f64>() < base - floor);
    floor as usize + extra
}

/// A named, seed-deterministic churn generator.
///
/// Implementations emit one [`IntervalOps`] per churn interval through
/// [`Workload::interval`]; [`Workload::compile`] drives the bootstrap
/// and interval loop and assembles the final [`Scenario`]. The same
/// `(seed, intervals, params)` triple always compiles to a
/// byte-identical scenario.
pub trait Workload {
    /// Command-line name of the generator.
    fn name(&self) -> &'static str;

    /// Members admitted in the bootstrap interval.
    fn bootstrap(&self, params: &GenParams) -> usize {
        params.bootstrap
    }

    /// Emits the ops of churn interval `t` (`1..=total`; the bootstrap
    /// is interval 0 and handled by [`Workload::compile`]). All joins
    /// and leaves must go through the [`GroupState`] helpers so the
    /// compiled scenario stays valid by construction.
    fn interval(
        &mut self,
        t: usize,
        total: usize,
        group: &mut GroupState,
        rng: &mut StdRng,
    ) -> IntervalOps;

    /// Compiles the workload into a replayable [`Scenario`]. The
    /// default drives [`Workload::interval`] over a name-salted RNG;
    /// [`Uniform`] and [`Paper`] override it to keep the draw order of
    /// the generators they wrap.
    fn compile(&mut self, seed: u64, intervals: usize, params: &GenParams) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed ^ name_salt(self.name()));
        let mut group = GroupState::new(params);
        let mut out: Vec<IntervalOps> = Vec::with_capacity(intervals + 1);

        group.begin_interval();
        let bootstrap = self.bootstrap(params);
        out.push(IntervalOps {
            joins: (0..bootstrap).map(|_| group.join(&mut rng)).collect(),
            ..IntervalOps::default()
        });

        for t in 1..=intervals {
            group.begin_interval();
            let mut ops = self.interval(t, intervals, &mut group, &mut rng);
            ops.leaves.sort_unstable();
            out.push(ops);
        }

        Scenario {
            seed,
            degree: params.degree,
            k: params.k,
            intervals: out,
        }
    }
}

/// FNV-1a of the generator name: distinct workloads with the same seed
/// draw from distinct RNG streams.
fn name_salt(name: &str) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The fuzzer's uniform random churn, unchanged: compiles
/// byte-identically to [`Scenario::generate`].
#[derive(Debug, Clone, Default)]
pub struct Uniform;

impl Workload for Uniform {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn interval(&mut self, _: usize, _: usize, _: &mut GroupState, _: &mut StdRng) -> IntervalOps {
        unreachable!("Uniform overrides compile()")
    }

    fn compile(&mut self, seed: u64, intervals: usize, params: &GenParams) -> Scenario {
        Scenario::generate(seed, intervals, params)
    }
}

/// The paper's §3.3.1 membership process: Poisson joins at the rate
/// that holds [`GenParams::bootstrap`] members in steady state, each
/// joiner short-lived with probability `alpha`, and an exponential
/// stay of its class's mean. `alpha` defaults to Table 1; the stay
/// means and the rekey period are always Table 1's.
///
/// The group starts in steady state: the bootstrap admits the
/// generator's initial population, members `0..bootstrap`, with no
/// class hint. Every later join carries its ground-truth class (only
/// the oracle PT-scheme reads it), every loss rate is 0, and leaves
/// come in departure order. The draws are those of
/// [`MembershipGenerator`] seeded with `seed`, the churn drawn from a
/// stream forked off it with one `next_u64` after construction.
#[derive(Debug, Clone)]
pub struct Paper {
    /// Fraction of short-lived joins (`α`).
    pub alpha: f64,
}

impl Default for Paper {
    fn default() -> Self {
        Paper {
            alpha: MembershipParams::paper_default().alpha,
        }
    }
}

impl Workload for Paper {
    fn name(&self) -> &'static str {
        "paper"
    }

    fn interval(&mut self, _: usize, _: usize, _: &mut GroupState, _: &mut StdRng) -> IntervalOps {
        unreachable!("Paper overrides compile()")
    }

    fn compile(&mut self, seed: u64, intervals: usize, params: &GenParams) -> Scenario {
        let membership = MembershipParams {
            target_size: params.bootstrap,
            alpha: self.alpha,
            ..MembershipParams::paper_default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut generator = MembershipGenerator::new(membership, &mut rng);
        let mut churn = StdRng::seed_from_u64(rng.next_u64());
        let join = |member: u64, class| JoinOp {
            member,
            class,
            loss: 0.0,
        };
        let mut out = Vec::with_capacity(intervals + 1);
        out.push(IntervalOps {
            joins: (0..generator.population() as u64)
                .map(|m| join(m, None))
                .collect(),
            ..IntervalOps::default()
        });
        for _ in 0..intervals {
            let events = generator.next_interval(&mut churn);
            out.push(IntervalOps {
                joins: events
                    .joins
                    .iter()
                    .map(|&(m, class)| join(m.0, Some(class)))
                    .collect(),
                leaves: events.leaves.iter().map(|m| m.0).collect(),
                loss_changes: Vec::new(),
            });
        }
        Scenario {
            seed,
            degree: params.degree,
            k: params.k,
            intervals: out,
        }
    }
}

/// Sinusoidal join/leave rates: the daily audience curve. Joins peak
/// at the crest, leaves peak a quarter period later.
#[derive(Debug, Clone)]
pub struct Diurnal {
    /// Intervals per full day cycle.
    pub period: usize,
    /// Modulation depth in `[0, 1]`: 0 = flat, 1 = rate swings to 0.
    pub amplitude: f64,
    /// Mean joins per interval at the curve midpoint.
    pub base_joins: f64,
    /// Fraction of the group leaving per interval at the midpoint.
    pub leave_frac: f64,
}

impl Default for Diurnal {
    fn default() -> Self {
        Diurnal {
            period: 24,
            amplitude: 0.8,
            base_joins: 3.0,
            leave_frac: 0.05,
        }
    }
}

impl Workload for Diurnal {
    fn name(&self) -> &'static str {
        "diurnal"
    }

    fn interval(
        &mut self,
        t: usize,
        _total: usize,
        group: &mut GroupState,
        rng: &mut StdRng,
    ) -> IntervalOps {
        let mut ops = IntervalOps::default();
        let phase = 2.0 * PI * t as f64 / self.period.max(1) as f64;
        let join_rate = self.base_joins * (1.0 + self.amplitude * phase.sin());
        // Departures trail arrivals by a quarter period: the audience
        // drains after the peak, not during it.
        let leave_rate = group.leavable() as f64
            * self.leave_frac
            * (1.0 + self.amplitude * (phase - PI / 2.0).sin());

        for _ in 0..round_rate(leave_rate, rng) {
            if let Some(m) = group.leave_random(rng) {
                ops.leaves.push(m);
            }
        }
        for _ in 0..round_rate(join_rate, rng) {
            ops.joins.push(group.join(rng));
        }
        if rng.gen::<f64>() < 0.1 {
            if let Some(m) = group.pick_present(rng) {
                ops.loss_changes.push((m, group.pick_loss(rng)));
            }
        }
        ops
    }
}

/// Pay-per-view dynamics: background churn, then a mass-join ramp to a
/// plateau, then a mass departure of the crowd.
#[derive(Debug, Clone)]
pub struct FlashCrowd {
    /// Total members joining during the ramp.
    pub crowd_size: usize,
    /// Fraction of the run before the ramp starts.
    pub ramp_start: f64,
    /// Fraction of the run the ramp lasts.
    pub ramp_len: f64,
    /// Fraction of the run the plateau lasts (drain follows).
    pub plateau_len: f64,
    /// Fraction of the remaining crowd leaving per drain interval.
    pub drain_frac: f64,
    /// Crowd members joined during the ramp, not yet departed.
    crowd: Vec<u64>,
}

impl Default for FlashCrowd {
    fn default() -> Self {
        FlashCrowd {
            crowd_size: 192,
            ramp_start: 0.25,
            ramp_len: 0.15,
            plateau_len: 0.35,
            drain_frac: 0.4,
            crowd: Vec::new(),
        }
    }
}

impl Workload for FlashCrowd {
    fn name(&self) -> &'static str {
        "flash-crowd"
    }

    fn interval(
        &mut self,
        t: usize,
        total: usize,
        group: &mut GroupState,
        rng: &mut StdRng,
    ) -> IntervalOps {
        let mut ops = IntervalOps::default();
        let frac = t as f64 / total.max(1) as f64;
        let ramp_end = self.ramp_start + self.ramp_len;
        let drain_start = ramp_end + self.plateau_len;

        if frac < self.ramp_start || frac >= drain_start {
            // Background churn (and the post-drain cooldown).
            for _ in 0..rng.gen_range(0u32..3) {
                ops.joins.push(group.join(rng));
            }
            if rng.gen::<f64>() < 0.3 {
                if let Some(m) = group.leave_random(rng) {
                    self.crowd.retain(|&c| c != m);
                    ops.leaves.push(m);
                }
            }
        } else if frac < ramp_end {
            // Ramp: the crowd arrives in equal per-interval slices
            // (±ramp jitter), mostly short sessions with mixed loss.
            let ramp_intervals = (self.ramp_len * total as f64).ceil().max(1.0);
            let slice = self.crowd_size as f64 / ramp_intervals;
            for _ in 0..round_rate(slice * rng.gen_range(0.8..1.2), rng) {
                let loss = group.pick_loss(rng);
                let join = group.join_with(Some(DurationClass::Short), loss);
                self.crowd.push(join.member);
                ops.joins.push(join);
            }
        } else {
            // Plateau: near-silent, the occasional zapper.
            if rng.gen::<f64>() < 0.2 {
                ops.joins.push(group.join(rng));
            }
            if rng.gen::<f64>() < 0.1 {
                if let Some(m) = group.leave_random(rng) {
                    self.crowd.retain(|&c| c != m);
                    ops.leaves.push(m);
                }
            }
        }

        if frac >= drain_start && !self.crowd.is_empty() {
            // Mass departure: a large slice of the remaining crowd
            // leaves every interval until it is gone.
            let n = round_rate(self.crowd.len() as f64 * self.drain_frac, rng).max(1);
            for _ in 0..n.min(self.crowd.len()) {
                let idx = rng.gen_range(0..self.crowd.len());
                let member = self.crowd.swap_remove(idx);
                if group.leave_member(member) {
                    ops.leaves.push(member);
                }
            }
        }
        ops
    }
}

/// Short-lived rejoin-heavy sessions: each arrival is flappy with some
/// probability, leaves after 1–3 intervals, and usually rejoins in the
/// same interval it left (as a fresh member id — ids are never reused
/// within a scenario, so a flap shows up as leave + join).
#[derive(Debug, Clone)]
pub struct MobileFlap {
    /// Probability an arrival is flappy (short session + rejoin).
    pub flap_prob: f64,
    /// Probability a flappy session ending triggers an immediate
    /// rejoin.
    pub rejoin_prob: f64,
    /// Mean fresh arrivals per interval.
    pub arrivals: f64,
    /// Flappy sessions in flight: `(member, leave_at_interval)`.
    sessions: Vec<(u64, usize)>,
}

impl Default for MobileFlap {
    fn default() -> Self {
        MobileFlap {
            flap_prob: 0.6,
            rejoin_prob: 0.8,
            arrivals: 4.0,
            sessions: Vec::new(),
        }
    }
}

impl MobileFlap {
    fn admit_flappy(&mut self, t: usize, group: &mut GroupState, rng: &mut StdRng) -> JoinOp {
        let loss = group.pick_loss(rng);
        let join = group.join_with(Some(DurationClass::Short), loss);
        self.sessions.push((join.member, t + rng.gen_range(1..4)));
        join
    }
}

impl Workload for MobileFlap {
    fn name(&self) -> &'static str {
        "mobile-flap"
    }

    fn interval(
        &mut self,
        t: usize,
        _total: usize,
        group: &mut GroupState,
        rng: &mut StdRng,
    ) -> IntervalOps {
        let mut ops = IntervalOps::default();

        // Expire due flappy sessions; most rejoin immediately.
        let due: Vec<u64> = self
            .sessions
            .iter()
            .filter(|&&(_, end)| end <= t)
            .map(|&(m, _)| m)
            .collect();
        self.sessions.retain(|&(_, end)| end > t);
        for member in due {
            if group.leave_member(member) {
                ops.leaves.push(member);
                if rng.gen::<f64>() < self.rejoin_prob {
                    ops.joins.push(self.admit_flappy(t, group, rng));
                }
            }
        }

        // Fresh arrivals, each flappy with `flap_prob`.
        for _ in 0..round_rate(self.arrivals * rng.gen_range(0.5..1.5), rng) {
            if rng.gen::<f64>() < self.flap_prob {
                ops.joins.push(self.admit_flappy(t, group, rng));
            } else {
                ops.joins.push(group.join(rng));
            }
        }

        // Stable members trickle out too.
        if rng.gen::<f64>() < 0.15 {
            if let Some(m) = group.leave_random(rng) {
                self.sessions.retain(|&(s, _)| s != m);
                ops.leaves.push(m);
            }
        }
        ops
    }
}

/// Correlated loss-class shifts over member cohorts: members belong to
/// a region (`id % regions`); a region degrades as one event — every
/// present member of the cohort shifts to the degraded loss class in
/// the same interval — and later recovers the same way.
#[derive(Debug, Clone)]
pub struct RegionalLoss {
    /// Number of regions members are hashed into.
    pub regions: u64,
    /// Per-interval probability that some healthy region degrades.
    pub event_prob: f64,
    /// Per-interval probability that some degraded region recovers.
    pub recover_prob: f64,
    /// Loss rate of a degraded region.
    pub degraded_loss: f64,
    /// Loss rate regions recover to.
    pub healthy_loss: f64,
    /// Degraded regions.
    down: Vec<u64>,
}

impl Default for RegionalLoss {
    fn default() -> Self {
        RegionalLoss {
            regions: 4,
            event_prob: 0.15,
            recover_prob: 0.4,
            degraded_loss: 0.25,
            healthy_loss: 0.02,
            down: Vec::new(),
        }
    }
}

impl RegionalLoss {
    /// Shifts every present member of `region` to `loss`.
    fn shift_cohort(&self, region: u64, loss: f64, group: &GroupState, ops: &mut IntervalOps) {
        for &m in group.present() {
            if m % self.regions == region {
                ops.loss_changes.push((m, loss));
            }
        }
    }
}

impl Workload for RegionalLoss {
    fn name(&self) -> &'static str {
        "regional-loss"
    }

    fn interval(
        &mut self,
        _t: usize,
        _total: usize,
        group: &mut GroupState,
        rng: &mut StdRng,
    ) -> IntervalOps {
        let mut ops = IntervalOps::default();

        // Background churn keeps the cohorts evolving.
        if rng.gen::<f64>() < 0.5 {
            if let Some(m) = group.leave_random(rng) {
                ops.leaves.push(m);
            }
        }
        for _ in 0..rng.gen_range(1u32..4) {
            ops.joins.push(group.join(rng));
        }

        // Region recovery first (a region cannot flap within one
        // interval), then degradation of a healthy region.
        if !self.down.is_empty() && rng.gen::<f64>() < self.recover_prob {
            let region = self.down.swap_remove(rng.gen_range(0..self.down.len()));
            self.shift_cohort(region, self.healthy_loss, group, &mut ops);
        }
        let healthy: Vec<u64> = (0..self.regions)
            .filter(|r| !self.down.contains(r))
            .collect();
        if !healthy.is_empty() && rng.gen::<f64>() < self.event_prob {
            let region = healthy[rng.gen_range(0..healthy.len())];
            self.down.push(region);
            self.shift_cohort(region, self.degraded_loss, group, &mut ops);
        }
        ops
    }
}

/// Every named workload generator, in the canonical sweep order.
pub const WORKLOAD_NAMES: [&str; 6] = [
    "uniform",
    "diurnal",
    "flash-crowd",
    "mobile-flap",
    "regional-loss",
    "paper",
];

/// Constructs the named generator with its default tuning, or `None`
/// for an unknown name.
pub fn workload_by_name(name: &str) -> Option<Box<dyn Workload>> {
    match name {
        "uniform" => Some(Box::new(Uniform)),
        "diurnal" => Some(Box::new(Diurnal::default())),
        "flash-crowd" => Some(Box::new(FlashCrowd::default())),
        "mobile-flap" => Some(Box::new(MobileFlap::default())),
        "regional-loss" => Some(Box::new(RegionalLoss::default())),
        "paper" => Some(Box::new(Paper::default())),
        _ => None,
    }
}

/// All named generators with default tuning, in [`WORKLOAD_NAMES`]
/// order.
pub fn all_workloads() -> Vec<Box<dyn Workload>> {
    WORKLOAD_NAMES
        .iter()
        .map(|name| workload_by_name(name).expect("registered name"))
        .collect()
}

/// The per-workload members gauge name (recorded every interval of an
/// observed run). Static names because the obs [`Recorder`] interns
/// `&'static str`; the generator set is closed, so a `match` is the
/// whole intern table.
///
/// [`Recorder`]: rekey_obs::Recorder
pub fn members_gauge(workload: &str) -> &'static str {
    match workload {
        "uniform" => "workload.uniform.members",
        "diurnal" => "workload.diurnal.members",
        "flash-crowd" => "workload.flash_crowd.members",
        "mobile-flap" => "workload.mobile_flap.members",
        "regional-loss" => "workload.regional_loss.members",
        "paper" => "workload.paper.members",
        _ => "workload.other.members",
    }
}

/// The per-workload multicast-bytes counter name.
pub fn bytes_counter(workload: &str) -> &'static str {
    match workload {
        "uniform" => "workload.uniform.bytes",
        "diurnal" => "workload.diurnal.bytes",
        "flash-crowd" => "workload.flash_crowd.bytes",
        "mobile-flap" => "workload.mobile_flap.bytes",
        "regional-loss" => "workload.regional_loss.bytes",
        "paper" => "workload.paper.bytes",
        _ => "workload.other.bytes",
    }
}

/// Aggregates of one observed workload run: the plain [`RunStats`]
/// plus the per-interval series the sweep reports.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// The underlying oracle-checked run.
    pub stats: RunStats,
    /// Largest group size reached after any interval — the peak key
    /// tree size.
    pub peak_members: usize,
    /// Largest multicast payload of any single interval, in bytes.
    pub max_interval_bytes: usize,
    /// Mean multicast bytes per interval.
    pub mean_interval_bytes: f64,
    /// Per-interval `process_interval` wall-clock latency, as a log₂
    /// histogram (p50/p90/p99/max via [`Log2Histogram::quantile`]).
    pub latency_ns: Log2Histogram,
}

/// Runs a compiled workload scenario with per-interval observation:
/// like [`crate::runner::run_scenario`], but additionally tracks peak
/// group size, per-interval bandwidth, and rekey latency percentiles,
/// and records the per-workload obs gauges/counters (visible in any
/// installed [`rekey_obs::Recorder`]).
pub fn run_workload(
    workload_name: &str,
    factory: &ManagerFactory,
    scenario: &Scenario,
    opts: &RunOptions,
) -> Result<WorkloadRun, Violation> {
    let members_gauge = members_gauge(workload_name);
    let bytes_counter = bytes_counter(workload_name);
    let mut peak_members = 0usize;
    let mut max_interval_bytes = 0usize;
    let mut latency_ns = Log2Histogram::new();
    let stats = run_scenario_with(factory, scenario, opts, &mut |obs| {
        peak_members = peak_members.max(obs.members);
        max_interval_bytes = max_interval_bytes.max(obs.bytes);
        latency_ns.record(obs.process_ns);
        rekey_obs::sample(members_gauge, obs.members as f64);
        rekey_obs::count(bytes_counter, obs.bytes as u64);
    })?;
    let mean_interval_bytes = stats.total_bytes as f64 / stats.intervals.max(1) as f64;
    Ok(WorkloadRun {
        stats,
        peak_members,
        max_interval_bytes,
        mean_interval_bytes,
        latency_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_matches_the_fuzzer_generator() {
        let params = GenParams::default();
        let compiled = Uniform.compile(42, 30, &params);
        let direct = Scenario::generate(42, 30, &params);
        assert_eq!(compiled, direct);
        assert_eq!(compiled.encode(), direct.encode());
    }

    #[test]
    fn all_generators_compile_valid_scenarios() {
        let params = GenParams::default();
        for mut workload in all_workloads() {
            let scenario = workload.compile(7, 60, &params);
            let mut sanitized = scenario.clone();
            sanitized.sanitize();
            assert_eq!(
                scenario,
                sanitized,
                "{}: compiled an op sanitize() had to repair",
                workload.name()
            );
            scenario
                .validate()
                .unwrap_or_else(|e| panic!("{}: compiled invalid scenario: {e}", workload.name()));
            assert_eq!(scenario.intervals.len(), 61);
        }
    }

    #[test]
    fn generators_draw_distinct_streams_per_name() {
        let params = GenParams::default();
        let diurnal = Diurnal::default().compile(9, 40, &params);
        let flap = MobileFlap::default().compile(9, 40, &params);
        assert_ne!(diurnal.encode(), flap.encode());
    }

    #[test]
    fn flash_crowd_peaks_then_drains() {
        let params = GenParams::default();
        let scenario = FlashCrowd::default().compile(3, 100, &params);
        let mut present = 0i64;
        let mut sizes = Vec::new();
        for iv in &scenario.intervals {
            present += iv.joins.len() as i64 - iv.leaves.len() as i64;
            sizes.push(present);
        }
        let peak = *sizes.iter().max().unwrap();
        let end = *sizes.last().unwrap();
        assert!(
            peak >= end + 100,
            "no crowd: peak {peak} vs end {end} (expected a mass join + mass leave)"
        );
    }

    #[test]
    fn mobile_flap_is_rejoin_heavy() {
        let params = GenParams::default();
        let scenario = MobileFlap::default().compile(4, 80, &params);
        // Plenty of intervals where a leave and a join land together —
        // the flap signature.
        let flappy = scenario
            .intervals
            .iter()
            .filter(|iv| !iv.leaves.is_empty() && !iv.joins.is_empty())
            .count();
        assert!(flappy >= 20, "only {flappy} flap intervals");
    }

    #[test]
    fn regional_loss_shifts_whole_cohorts() {
        let params = GenParams::default();
        let workload = RegionalLoss::default();
        let regions = workload.regions;
        let scenario = { workload }.compile(5, 80, &params);
        // Find a degradation event and check the cohort moved as one:
        // every loss change of that interval names the same region.
        let mut saw_event = false;
        for iv in &scenario.intervals {
            if iv.loss_changes.len() >= 3 {
                let region = iv.loss_changes[0].0 % regions;
                let same_loss = iv.loss_changes[0].1;
                if iv
                    .loss_changes
                    .iter()
                    .all(|&(m, l)| m % regions == region && l == same_loss)
                {
                    saw_event = true;
                    break;
                }
            }
        }
        assert!(saw_event, "no correlated cohort shift found");
    }

    /// `rekey simulate`'s defaults: 2 048 members, seed 42, d 4, K 10,
    /// 15 warm-up and 40 measured intervals.
    fn simulate_defaults() -> Scenario {
        let params = GenParams {
            bootstrap: 2048,
            degree: 4,
            k: 10,
            ..GenParams::default()
        };
        Paper::default().compile(42, 55, &params)
    }

    /// `paper` reproduces the simulator it replaced: SHA-256 over the
    /// seven schemes' measured per-interval encrypted-key counts (u64
    /// little-endian, schemes in `Scheme::ALL` order) is the digest that
    /// simulator's loop gave at the same defaults. Key bytes differ;
    /// counts do not.
    #[test]
    fn paper_reproduces_the_simulators_key_counts() {
        use rekey_core::Scheme;
        use rekey_crypto::sha256::Sha256;

        let scenario = simulate_defaults();
        let mut hasher = Sha256::new();
        for scheme in Scheme::ALL {
            crate::drive(crate::factory_for(scheme), &scenario, |step| {
                if step.interval > 15 {
                    let keys = step.outcome.stats.encrypted_keys as u64;
                    hasher.update(&keys.to_le_bytes());
                }
                Ok(())
            })
            .unwrap_or_else(|violation| panic!("{scheme}: {violation}"));
        }
        let digest: String = hasher
            .finalize()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            digest,
            "8b373bab1e0d8ff8f377457487212360d75550654ff826c74ece1907621986c4"
        );
    }

    /// The compiled scenario is the membership trace: schemes that draw
    /// different amounts of key-server randomness still hand their
    /// managers the same joiners and leavers every interval.
    #[test]
    fn schemes_at_one_seed_see_the_same_membership_trace() {
        use rekey_core::Scheme;

        let params = GenParams {
            bootstrap: 300,
            ..GenParams::default()
        };
        let scenario = Paper::default().compile(424242, 20, &params);
        let trace = |scheme: Scheme| {
            let mut seen = Vec::new();
            crate::drive(crate::factory_for(scheme), &scenario, |step| {
                let joins: Vec<u64> = step.joins.iter().map(|j| j.member.0).collect();
                let leaves: Vec<u64> = step.leaves.iter().map(|m| m.0).collect();
                seen.push((joins, leaves));
                Ok(())
            })
            .expect("compiled batches are consistent");
            seen
        };
        let one = trace(Scheme::OneTree);
        assert_eq!(one.len(), 21);
        assert!(one.iter().any(|(j, l)| !j.is_empty() && !l.is_empty()));
        for (seen, ops) in one.iter().zip(&scenario.intervals) {
            let joins: Vec<u64> = ops.joins.iter().map(|j| j.member).collect();
            assert_eq!(*seen, (joins, ops.leaves.clone()));
        }
        for scheme in [Scheme::Tt, Scheme::Qt, Scheme::Adaptive] {
            assert_eq!(trace(scheme), one, "{scheme}");
        }
    }

    #[test]
    fn registry_is_complete() {
        for name in WORKLOAD_NAMES {
            let workload = workload_by_name(name).expect("registered");
            assert_eq!(workload.name(), name);
            assert!(members_gauge(name).starts_with("workload."));
            assert!(bytes_counter(name).starts_with("workload."));
        }
        assert!(workload_by_name("nope").is_none());
        assert_eq!(all_workloads().len(), WORKLOAD_NAMES.len());
    }
}
