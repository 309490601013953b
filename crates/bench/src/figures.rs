//! Every table of the reproduction, one function each: Figs 3–7, the
//! §4.4 FEC result, ablations 1–8, the two transport extensions and the
//! combined-scheme run.
//!
//! A function computes its series once. Where a test needs the numbers,
//! it returns them typed and `table()` renders the rows; otherwise it
//! returns the [`Table`] itself. `rekey reproduce` prints every entry of
//! [`TABLES`] and writes it to `target/figures/<name>.csv`;
//! `tests/paper_claims.rs` asserts the paper's claims on the typed
//! values. Nothing here asserts anything.

use crate::fmt;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rekey_analytic::appendix_a::{ne, ne_ideal};
use rekey_analytic::appendix_b::{ev_forest, ev_wka, ForestTree, LossMix};
use rekey_analytic::fec_model::{fec_cost_packets, FecParams};
use rekey_analytic::partition::{PartitionParams, SchemeCosts};
use rekey_core::combined::CombinedManager;
use rekey_core::membership::{MembershipGenerator, MembershipParams};
use rekey_core::one_tree::OneTreeManager;
use rekey_core::partition::{QtManager, TtManager};
use rekey_core::{GroupKeyManager, Join};
use rekey_crypto::Key;
use rekey_keytree::message::RekeyMessage;
use rekey_keytree::oft::OftServer;
use rekey_keytree::server::LkhServer;
use rekey_keytree::MemberId;
use rekey_transport::fec;
use rekey_transport::interest::interest_map;
use rekey_transport::loss::Population;
use rekey_transport::wka_bkr::{self, Packing, WkaBkrConfig};
use std::collections::BTreeMap;

/// One reproduced table: what `rekey reproduce` prints, and the CSV it
/// writes.
#[derive(Debug, Clone)]
pub struct Table {
    /// Printed above the table.
    pub title: &'static str,
    /// Column names (the CSV header line).
    pub headers: &'static [&'static str],
    /// Formatted cells, one `Vec` per row.
    pub rows: Vec<Vec<String>>,
}

/// Computes one table.
pub type TableFn = fn() -> Table;

/// Every table by its CSV name, in the order `rekey reproduce` prints
/// them.
pub const TABLES: [(&str, TableFn); 17] = [
    ("fig3_speriod", || fig3_speriod().table()),
    ("fig4_heterogeneity", || fig4_heterogeneity().table()),
    ("fig5_group_size", || fig5_group_size().table()),
    ("fig6_loss_heterogeneity", || {
        fig6_loss_heterogeneity().table()
    }),
    ("fig7_misplacement", || fig7_misplacement().table()),
    ("fec_extension", || fec_extension().table()),
    ("ablation_qt_tt", ablation_qt_tt),
    ("ablation_k_trees", || ablation_k_trees().table()),
    ("ablation_packing", || ablation_packing().table),
    ("ablation_ne_exact", ablation_ne_exact),
    ("ablation_oft_vs_lkh", || ablation_oft_vs_lkh().table()),
    ("ablation_model_vs_sim", ablation_model_vs_sim),
    ("ablation_probabilistic", ablation_probabilistic),
    ("ablation_degree_sweep", || ablation_degree_sweep().table()),
    ("ext_multigroup_fairness", || {
        ext_multigroup_fairness().table()
    }),
    ("ext_fec_deadline", || ext_fec_deadline().table),
    ("combined_scheme", || combined_scheme().table()),
];

/// The `y` swept at `x`. Sweeps step by `i / n`, which is the same
/// double as the decimal literal, so exact equality finds the point.
fn at<X: PartialEq + std::fmt::Debug + Copy, Y: Copy>(points: &[(X, Y)], x: X) -> Y {
    points
        .iter()
        .find(|(px, _)| *px == x)
        .map(|&(_, y)| y)
        .unwrap_or_else(|| panic!("{x:?} is not a swept point"))
}

/// Cost per interval of the four §3 schemes at each swept point.
#[derive(Debug, Clone)]
pub struct CostSweep<X> {
    /// `(x, costs)` in sweep order.
    pub points: Vec<(X, SchemeCosts)>,
}

impl<X: PartialEq + std::fmt::Debug + Copy> CostSweep<X> {
    /// The costs at `x`.
    pub fn at(&self, x: X) -> SchemeCosts {
        at(&self.points, x)
    }
}

/// Fig. 3: cost against the S-period `K = Ts/Tp`, 0..=20, at the
/// Table 1 defaults.
pub fn fig3_speriod() -> CostSweep<u32> {
    let base = PartitionParams::paper_default();
    CostSweep {
        points: (0..=20u32)
            .map(|k| (k, PartitionParams { k, ..base }.costs()))
            .collect(),
    }
}

impl CostSweep<u32> {
    /// Fig. 3's rows.
    pub fn table(&self) -> Table {
        Table {
            title: "Fig. 3 — rekeying cost (#keys) vs S-period K = Ts/Tp (Table 1: N = 65536, d = 4, Tp = 60 s, Ms = 3 min, Ml = 3 h, alpha = 0.8)",
            headers: &["K", "one-keytree", "TT-scheme", "QT-scheme", "PT-scheme"],
            rows: self
                .points
                .iter()
                .map(|(k, c)| {
                    vec![
                        k.to_string(),
                        fmt(c.one_keytree, 0),
                        fmt(c.tt, 0),
                        fmt(c.qt, 0),
                        fmt(c.pt, 0),
                    ]
                })
                .collect(),
        }
    }
}

/// Fig. 4: cost against α, the fraction of short-lived joins, 0..=1 in
/// steps of 0.05, at K = 10.
pub fn fig4_heterogeneity() -> CostSweep<f64> {
    let base = PartitionParams::paper_default();
    CostSweep {
        points: (0..=20)
            .map(|i| {
                let alpha = i as f64 / 20.0;
                (alpha, PartitionParams { alpha, ..base }.costs())
            })
            .collect(),
    }
}

/// Saving of the better partition scheme (TT or QT) over one keytree.
pub fn partition_gain(c: &SchemeCosts) -> f64 {
    1.0 - c.tt.min(c.qt) / c.one_keytree
}

impl CostSweep<f64> {
    /// Fig. 4's rows.
    pub fn table(&self) -> Table {
        Table {
            title: "Fig. 4 — rekeying cost (#keys) vs fraction of class Cs members (K = 10)",
            headers: &[
                "alpha",
                "one-keytree",
                "TT-scheme",
                "QT-scheme",
                "PT-scheme",
                "best-gain%",
            ],
            rows: self
                .points
                .iter()
                .map(|(alpha, c)| {
                    vec![
                        fmt(*alpha, 2),
                        fmt(c.one_keytree, 0),
                        fmt(c.tt, 0),
                        fmt(c.qt, 0),
                        fmt(c.pt, 0),
                        fmt(partition_gain(c) * 100.0, 1),
                    ]
                })
                .collect(),
        }
    }
}

/// Fig. 5: cost against the group size N = 2^10..=2^18.
pub fn fig5_group_size() -> CostSweep<u64> {
    let base = PartitionParams::paper_default();
    CostSweep {
        points: (10..=18u32)
            .map(|exp| {
                let group_size = 1u64 << exp;
                (group_size, PartitionParams { group_size, ..base }.costs())
            })
            .collect(),
    }
}

impl CostSweep<u64> {
    /// `(QT, TT)` reduction over one keytree at every N.
    pub fn reductions(&self) -> Vec<(u64, f64, f64)> {
        self.points
            .iter()
            .map(|(n, c)| (*n, 1.0 - c.qt / c.one_keytree, 1.0 - c.tt / c.one_keytree))
            .collect()
    }

    /// Fig. 5's rows.
    pub fn table(&self) -> Table {
        Table {
            title:
                "Fig. 5 — relative rekeying-cost reduction vs group size N (K = 10, alpha = 0.8)",
            headers: &["N", "QT reduction", "TT reduction"],
            rows: self
                .reductions()
                .into_iter()
                .map(|(n, qt, tt)| vec![n.to_string(), fmt(qt, 3), fmt(tt, 3)])
                .collect(),
        }
    }
}

/// Group size of the §4 WKA-BKR model (Figs 6–7, §4.4).
const LOSS_N: u64 = 65536;
/// Departures per rekey in the WKA-BKR model.
const LOSS_L: f64 = 256.0;
/// Key-tree degree of the WKA-BKR model.
const LOSS_D: u32 = 4;
/// Loss rate of a high-loss receiver (§4.3).
const P_HIGH: f64 = 0.2;
/// Loss rate of a low-loss receiver (§4.3).
const P_LOW: f64 = 0.02;

/// Expected WKA-BKR transmissions of one key tree over the two-point
/// population with a fraction `alpha` of high-loss receivers.
fn wka_one_keytree(alpha: f64) -> f64 {
    ev_wka(
        LOSS_N,
        LOSS_L,
        LOSS_D,
        &LossMix::two_point(alpha, P_HIGH, P_LOW),
    )
}

/// The same population split into two loss-homogenized trees.
fn wka_homogenized(alpha: f64) -> f64 {
    let n_high = (alpha * LOSS_N as f64).round() as u64;
    ev_forest(
        &[
            ForestTree {
                size: LOSS_N - n_high,
                mix: LossMix::homogeneous(P_LOW),
            },
            ForestTree {
                size: n_high,
                mix: LossMix::homogeneous(P_HIGH),
            },
        ],
        LOSS_L,
        LOSS_D,
    )
}

/// Saving of the loss-homogenized trees over one keytree under WKA-BKR.
fn wka_gain(alpha: f64) -> f64 {
    1.0 - wka_homogenized(alpha) / wka_one_keytree(alpha)
}

/// WKA-BKR transmissions of the three tree organizations of Fig. 6.
#[derive(Debug, Clone, Copy)]
pub struct LossSplit {
    /// One key tree.
    pub one_keytree: f64,
    /// Two trees of N/2 random members each.
    pub two_random: f64,
    /// One tree per loss class.
    pub homogenized: f64,
}

impl LossSplit {
    /// Saving of the loss-homogenized trees over one keytree.
    pub fn gain(&self) -> f64 {
        1.0 - self.homogenized / self.one_keytree
    }
}

/// Fig. 6 (and Figs 6–7's rows).
#[derive(Debug, Clone)]
pub struct LossSweep {
    /// `(alpha, transmissions)` for alpha = 0..=1 in steps of 0.05.
    pub points: Vec<(f64, LossSplit)>,
}

impl LossSweep {
    /// The organizations at `alpha`.
    pub fn at(&self, alpha: f64) -> LossSplit {
        at(&self.points, alpha)
    }
}

/// Fig. 6: WKA-BKR transmissions against the fraction α of high-loss
/// receivers (N = 65536, L = 256, d = 4, p_h = 20 %, p_l = 2 %).
pub fn fig6_loss_heterogeneity() -> LossSweep {
    LossSweep {
        points: (0..=20)
            .map(|i| {
                let alpha = i as f64 / 20.0;
                let mix = LossMix::two_point(alpha, P_HIGH, P_LOW);
                let two_random = ev_forest(
                    &[
                        ForestTree {
                            size: LOSS_N / 2,
                            mix: mix.clone(),
                        },
                        ForestTree {
                            size: LOSS_N / 2,
                            mix,
                        },
                    ],
                    LOSS_L,
                    LOSS_D,
                );
                let split = LossSplit {
                    one_keytree: wka_one_keytree(alpha),
                    two_random,
                    homogenized: wka_homogenized(alpha),
                };
                (alpha, split)
            })
            .collect(),
    }
}

impl LossSweep {
    /// Fig. 6's rows.
    pub fn table(&self) -> Table {
        Table {
            title: "Fig. 6 — rekeying cost (#keys) vs fraction of high-loss receivers (N = 65536, L = 256, d = 4)",
            headers: &[
                "alpha",
                "one-keytree",
                "two-random",
                "loss-homogenized",
                "gain%",
            ],
            rows: self
                .points
                .iter()
                .map(|(alpha, s)| {
                    vec![
                        fmt(*alpha, 2),
                        fmt(s.one_keytree, 0),
                        fmt(s.two_random, 0),
                        fmt(s.homogenized, 0),
                        fmt(s.gain() * 100.0, 1),
                    ]
                })
                .collect(),
        }
    }
}

/// Fig. 7's fraction of high-loss receivers.
const FIG7_ALPHA: f64 = 0.2;

/// Fig. 7: the loss-homogenized trees with a fraction β of each tree's
/// members in the wrong one.
#[derive(Debug, Clone)]
pub struct Misplacement {
    /// One key tree over the same population (flat in β).
    pub one_keytree: f64,
    /// `(beta, transmissions)` for beta = 0..=1 in steps of 0.05.
    pub points: Vec<(f64, f64)>,
}

impl Misplacement {
    /// Transmissions at `beta`.
    pub fn at(&self, beta: f64) -> f64 {
        at(&self.points, beta)
    }

    /// Fig. 7's rows.
    pub fn table(&self) -> Table {
        let correct = self.at(0.0);
        Table {
            title:
                "Fig. 7 — rekeying cost (#keys) vs fraction of misplaced receivers (alpha = 0.2)",
            headers: &["beta", "one-keytree", "mis-partitioned", "correct", "gain%"],
            rows: self
                .points
                .iter()
                .map(|&(beta, mis)| {
                    vec![
                        fmt(beta, 2),
                        fmt(self.one_keytree, 0),
                        fmt(mis, 0),
                        fmt(correct, 0),
                        fmt(100.0 * (1.0 - mis / self.one_keytree), 1),
                    ]
                })
                .collect(),
        }
    }
}

/// Fig. 7 at α = 0.2: the key server mis-estimated a fraction β of the
/// high-loss tree's members (they are low-loss), and the same head
/// count of the low-loss tree's members (they are high-loss).
pub fn fig7_misplacement() -> Misplacement {
    let n_high = (FIG7_ALPHA * LOSS_N as f64).round() as u64;
    let n_low = LOSS_N - n_high;
    let misplaced = |beta: f64| {
        let moved = beta * n_high as f64;
        let high_tree = LossMix::two_point(1.0 - beta, P_HIGH, P_LOW);
        let low_tree = LossMix::two_point(moved / n_low as f64, P_HIGH, P_LOW);
        ev_forest(
            &[
                ForestTree {
                    size: n_low,
                    mix: low_tree,
                },
                ForestTree {
                    size: n_high,
                    mix: high_tree,
                },
            ],
            LOSS_L,
            LOSS_D,
        )
    };
    Misplacement {
        one_keytree: wka_one_keytree(FIG7_ALPHA),
        points: (0..=20)
            .map(|i| {
                let beta = i as f64 / 20.0;
                (beta, misplaced(beta))
            })
            .collect(),
    }
}

/// §4.4: the loss-homogenization gain on proactive-FEC transport beside
/// the WKA-BKR gain, for alpha = 0..=1 in steps of 0.1.
#[derive(Debug, Clone)]
pub struct FecGains {
    /// `(alpha, (FEC gain, WKA-BKR gain))`; both 0 at the homogeneous
    /// extremes.
    pub points: Vec<(f64, (f64, f64))>,
}

impl FecGains {
    /// `(FEC gain, WKA-BKR gain)` at `alpha`.
    pub fn at(&self, alpha: f64) -> (f64, f64) {
        at(&self.points, alpha)
    }

    /// The §4.4 rows.
    pub fn table(&self) -> Table {
        Table {
            title: "§4.4 — loss-homogenization gain: proactive FEC vs WKA-BKR transport",
            headers: &["alpha", "FEC gain%", "WKA-BKR gain%"],
            rows: self
                .points
                .iter()
                .map(|&(alpha, (fec, wka))| {
                    vec![fmt(alpha, 1), fmt(fec * 100.0, 1), fmt(wka * 100.0, 1)]
                })
                .collect(),
        }
    }
}

/// §4.4 with our proactive-FEC cost model ([`FecParams::default`]):
/// 6 000 keys to 65 536 receivers, mixed against split by loss class.
pub fn fec_extension() -> FecGains {
    const KEYS: f64 = 6000.0;
    let params = FecParams::default();
    let n = LOSS_N as f64;
    let fec_gain = |alpha: f64| {
        let mixed = fec_cost_packets(
            LOSS_N,
            KEYS,
            &LossMix::two_point(alpha, P_HIGH, P_LOW),
            &params,
        );
        let split = fec_cost_packets(
            ((1.0 - alpha) * n) as u64,
            (1.0 - alpha) * KEYS,
            &LossMix::homogeneous(P_LOW),
            &params,
        ) + fec_cost_packets(
            (alpha * n) as u64,
            alpha * KEYS,
            &LossMix::homogeneous(P_HIGH),
            &params,
        );
        1.0 - split / mixed
    };
    FecGains {
        points: (0..=10)
            .map(|i| {
                let alpha = i as f64 / 10.0;
                let gains = if alpha == 0.0 || alpha == 1.0 {
                    (0.0, 0.0)
                } else {
                    (fec_gain(alpha), wka_gain(alpha))
                };
                (alpha, gains)
            })
            .collect(),
    }
}

/// Ablation 1: where the queue S-partition (QT) stops paying against the
/// tree one (TT), sweeping the short-class mean `Ms` at K = 10.
pub fn ablation_qt_tt() -> Table {
    let base = PartitionParams::paper_default();
    let rows = [30.0, 60.0, 120.0, 180.0, 300.0, 600.0, 1200.0]
        .into_iter()
        .map(|ms| {
            let p = PartitionParams {
                mean_short: ms,
                ..base
            };
            let (qt, tt) = (p.cost_qt(), p.cost_tt());
            vec![
                fmt(ms, 0),
                fmt(p.steady_state().n_s, 0),
                fmt(qt, 0),
                fmt(tt, 0),
                if qt < tt { "QT" } else { "TT" }.to_string(),
            ]
        })
        .collect();
    Table {
        title: "Ablation 1 — QT vs TT as the S-partition grows (sweep Ms, K = 10)",
        headers: &["Ms (s)", "Ns (model)", "QT cost", "TT cost", "winner"],
        rows,
    }
}

/// Ablation 2: one, two and three loss-homogenized trees on a
/// three-class population (60 % at 1 %, 25 % at 8 %, 15 % at 25 %).
#[derive(Debug, Clone, Copy)]
pub struct KTrees {
    /// One key tree.
    pub one: f64,
    /// Low and mid classes together, high apart.
    pub two: f64,
    /// One tree per class.
    pub three: f64,
}

impl KTrees {
    /// Ablation 2's rows.
    pub fn table(&self) -> Table {
        let gain = |cost: f64| fmt(100.0 * (1.0 - cost / self.one), 1);
        Table {
            title: "Ablation 2 — number of loss-homogenized trees on a 3-class population",
            headers: &["organization", "cost (#keys)", "gain%"],
            rows: vec![
                vec!["one keytree".into(), fmt(self.one, 0), fmt(0.0, 1)],
                vec![
                    "two trees (low+mid | high)".into(),
                    fmt(self.two, 0),
                    gain(self.two),
                ],
                vec![
                    "three trees (one per class)".into(),
                    fmt(self.three, 0),
                    gain(self.three),
                ],
            ],
        }
    }
}

/// Ablation 2 (N = 65536, L = 256, d = 4).
pub fn ablation_k_trees() -> KTrees {
    let classes = [(0.60, 0.01), (0.25, 0.08), (0.15, 0.25)];
    let forest = |split: &[&[(f64, f64)]]| {
        let trees: Vec<ForestTree> = split
            .iter()
            .map(|group| {
                let total: f64 = group.iter().map(|(f, _)| f).sum();
                ForestTree {
                    size: (total * LOSS_N as f64).round() as u64,
                    mix: LossMix {
                        classes: group.iter().map(|&(f, p)| (f / total, p)).collect(),
                    },
                }
            })
            .collect();
        ev_forest(&trees, LOSS_L, LOSS_D)
    };
    KTrees {
        one: ev_wka(
            LOSS_N,
            LOSS_L,
            LOSS_D,
            &LossMix {
                classes: classes.to_vec(),
            },
        ),
        two: forest(&[&classes[..2], &classes[2..]]),
        three: forest(&[&classes[..1], &classes[1..2], &classes[2..]]),
    }
}

/// A table measured on the executable transport, and whether every
/// delivery behind it reached every receiver.
#[derive(Debug, Clone)]
pub struct Delivered {
    /// The rows.
    pub table: Table,
    /// Every delivery completed.
    pub complete: bool,
}

/// A freshly churned LKH tree (d = 4): `n` members, then `l` evicted
/// at ids `0, stride, 2·stride, …`. Callers pick an odd stride, so the
/// evictions scatter across subtrees (a stride that is a power of d
/// evicts whole subtrees, which is artificially cheap). Returns the
/// tree, the eviction's message and the members left.
fn churned_tree(
    n: u64,
    l: u64,
    stride: u64,
    rng: &mut StdRng,
) -> (LkhServer, RekeyMessage, Vec<MemberId>) {
    let mut server = LkhServer::new(4, 0);
    let joins: Vec<(MemberId, Key)> = (0..n).map(|i| (MemberId(i), Key::generate(rng))).collect();
    server.apply_batch(&joins, &[], rng);
    let leavers: Vec<MemberId> = (0..l).map(|i| MemberId(i * stride)).collect();
    let out = server.apply_batch(&[], &leavers, rng);
    let present: Vec<MemberId> = (0..n)
        .map(MemberId)
        .filter(|m| !leavers.contains(m))
        .collect();
    (server, out.message, present)
}

/// Ablation 3: breadth-first against depth-first WKA key packing on the
/// executable protocol (N = 1024, 16 leavers, 12 loss draws each).
pub fn ablation_packing() -> Delivered {
    let (server, message, present) = churned_tree(1024, 16, 63, &mut StdRng::seed_from_u64(5));
    let interest = interest_map(&message, |n, out| server.members_under_into(n, out));

    let runs = 12;
    let mut complete = true;
    let mut rows = Vec::new();
    for (label, packing) in [
        ("breadth-first", Packing::BreadthFirst),
        ("depth-first", Packing::DepthFirst),
    ] {
        let (mut keys, mut rounds) = (0usize, 0usize);
        for seed in 0..runs {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let pop = Population::two_point(&present, 0.2, P_HIGH, P_LOW, &mut rng);
            let cfg = WkaBkrConfig {
                packing,
                ..WkaBkrConfig::default()
            };
            let o = wka_bkr::deliver(&message, &interest, &pop, &cfg, &mut rng);
            complete &= o.report.complete;
            keys += o.report.keys_transmitted;
            rounds += o.report.rounds;
        }
        rows.push(vec![
            label.to_string(),
            fmt(keys as f64 / runs as f64, 0),
            fmt(rounds as f64 / runs as f64, 1),
        ]);
    }
    Delivered {
        table: Table {
            title: "Ablation 3 — WKA packing order on the executable protocol (N=1024, L=16)",
            headers: &["packing", "keys", "rounds"],
            rows,
        },
        complete,
    }
}

/// Ablation 4: the Appendix A closed form against the exact tree-shape
/// evaluation of `Ne`, on full and partially full trees (d = 4).
pub fn ablation_ne_exact() -> Table {
    let full = [(65536u64, 256.0f64), (4096, 64.0), (1024, 16.0)]
        .into_iter()
        .map(|(n, l)| (n, l, fmt(ne_ideal(n, l, 4), 1), "full tree: identical"));
    let partial = [(3000u64, 30.0f64), (100_000, 1000.0), (65535, 256.0)]
        .into_iter()
        .map(|(n, l)| (n, l, "n/a".to_string(), "partially full: exact shape only"));
    Table {
        title: "Ablation 4 — Appendix A closed form vs exact tree-shape evaluation",
        headers: &["N", "L", "Ne exact", "Ne ideal", "note"],
        rows: full
            .chain(partial)
            .map(|(n, l, ideal, note)| {
                vec![
                    n.to_string(),
                    fmt(l, 0),
                    fmt(ne(n, l, 4), 1),
                    ideal,
                    note.to_string(),
                ]
            })
            .collect(),
    }
}

/// Ablation 5: encrypted keys per eviction, averaged over 16 single
/// evictions from 256 members.
#[derive(Debug, Clone, Copy)]
pub struct OftVsLkh {
    /// Binary LKH.
    pub lkh: f64,
    /// Binary one-way function tree.
    pub oft: f64,
}

impl OftVsLkh {
    /// Ablation 5's rows.
    pub fn table(&self) -> Table {
        Table {
            title: "Ablation 5 — per-eviction encrypted keys: OFT vs binary LKH (N=256)",
            headers: &["hierarchy", "keys"],
            rows: vec![
                vec!["LKH (d=2)".into(), fmt(self.lkh, 1)],
                vec!["OFT (binary)".into(), fmt(self.oft, 1)],
            ],
        }
    }
}

/// Ablation 5 (§2.1.1's applicability claim for OFT).
pub fn ablation_oft_vs_lkh() -> OftVsLkh {
    let mut rng = StdRng::seed_from_u64(9);
    let n = 256u64;

    let mut lkh = LkhServer::new(2, 0);
    let joins: Vec<(MemberId, Key)> = (0..n)
        .map(|i| (MemberId(i), Key::generate(&mut rng)))
        .collect();
    lkh.apply_batch(&joins, &[], &mut rng);

    let mut oft = OftServer::new(1);
    for i in 0..n {
        let ik = Key::generate(&mut rng);
        oft.join(MemberId(i), &ik, &mut rng)
            .expect("fresh member joins");
    }

    let (mut lkh_cost, mut oft_cost) = (0usize, 0usize);
    let evictions = 16u64;
    for i in 0..evictions {
        let m = MemberId(i * 3);
        lkh_cost += lkh
            .try_apply_batch(&[], &[m], &mut rng)
            .expect("member present")
            .message
            .encrypted_key_count();
        oft_cost += oft
            .leave(m, &mut rng)
            .expect("member present")
            .encrypted_key_count();
    }
    OftVsLkh {
        lkh: lkh_cost as f64 / evictions as f64,
        oft: oft_cost as f64 / evictions as f64,
    }
}

/// Ablation 6: the executable key server against the §3.3.1 model
/// (N = 2048, K = 10, one membership trace for all three schemes).
/// `tests/model_vs_sim.rs` holds the band, over several seeds.
pub fn ablation_model_vs_sim() -> Table {
    let n = 2048usize;
    let params = MembershipParams {
        target_size: n,
        ..MembershipParams::paper_default()
    };
    let model = PartitionParams {
        group_size: n as u64,
        ..PartitionParams::paper_default()
    }
    .costs();
    const WARMUP: usize = 15;
    const MEASURED: usize = 40;
    // The testkit's `paper` workload, in its draw order but with the
    // individual keys on the manager's stream.
    let simulate = |mgr: &mut dyn GroupKeyManager| {
        let mut rng = StdRng::seed_from_u64(4242);
        let mut generator = MembershipGenerator::new(params, &mut rng);
        let mut churn = StdRng::seed_from_u64(rng.next_u64());
        let bootstrap: Vec<Join> = (0..generator.population() as u64)
            .map(|m| Join::new(MemberId(m), Key::generate(&mut rng)))
            .collect();
        mgr.process_interval(&bootstrap, &[], &mut rng)
            .expect("bootstrap batch is consistent");
        let mut keys = 0usize;
        for step in 0..WARMUP + MEASURED {
            let events = generator.next_interval(&mut churn);
            let joins: Vec<Join> = events
                .joins
                .iter()
                .map(|&(m, _)| Join::new(m, Key::generate(&mut rng)))
                .collect();
            let out = mgr
                .process_interval(&joins, &events.leaves, &mut rng)
                .expect("generated batch is consistent");
            if step >= WARMUP {
                keys += out.stats.encrypted_keys;
            }
        }
        keys as f64 / MEASURED as f64
    };
    let runs = [
        (
            "one-keytree",
            simulate(&mut OneTreeManager::new(4)),
            model.one_keytree,
        ),
        ("tt-scheme", simulate(&mut TtManager::new(4, 10)), model.tt),
        ("qt-scheme", simulate(&mut QtManager::new(4, 10)), model.qt),
    ];
    Table {
        title: "Ablation 6 — executable system vs §3.3.1 model (N=2048, K=10)",
        headers: &["scheme", "simulated", "model", "ratio"],
        rows: runs
            .iter()
            .map(|(name, sim, model)| {
                vec![
                    name.to_string(),
                    fmt(*sim, 0),
                    fmt(*model, 0),
                    fmt(sim / model, 3),
                ]
            })
            .collect(),
    }
}

/// Ablation 7: \[SMS00\]'s Huffman organization by revocation probability
/// against a balanced tree (N = 4096, d = 4), for a churner fraction
/// `ratio`× likelier to be revoked than the rest.
pub fn ablation_probabilistic() -> Table {
    use rekey_analytic::probabilistic::{
        expected_eviction_cost_balanced, expected_eviction_cost_huffman,
    };
    let (n, d) = (4096usize, 4usize);
    let balanced = expected_eviction_cost_balanced(n, d);
    let rows = [(0.1, 10.0), (0.1, 50.0), (0.3, 10.0), (0.5, 5.0)]
        .into_iter()
        .map(|(frac, ratio)| {
            let churners = (frac * n as f64) as usize;
            let mut weights = vec![1.0f64; n];
            weights[..churners].fill(ratio);
            let huff = expected_eviction_cost_huffman(&weights, d);
            vec![
                fmt(frac, 1),
                fmt(ratio, 0),
                fmt(huff, 1),
                fmt(balanced, 1),
                fmt(100.0 * (1.0 - huff / balanced), 1),
            ]
        })
        .collect();
    Table {
        title: "Ablation 7 — probabilistic (Huffman) tree organization [SMS00], N=4096 d=4",
        headers: &[
            "churner fraction",
            "churner weight",
            "Huffman cost",
            "balanced",
            "gain%",
        ],
        rows,
    }
}

/// Ablation 8: `Ne(N, J)` against the key-tree degree for the Table 1
/// workload (N = 65536, J = 1684 departures per interval).
#[derive(Debug, Clone)]
pub struct DegreeSweep {
    /// `(d, Ne)` for d = 2, 3, 4, 6, 8, 16.
    pub points: Vec<(u32, f64)>,
}

impl DegreeSweep {
    /// `Ne` at degree `d`.
    pub fn at(&self, d: u32) -> f64 {
        at(&self.points, d)
    }

    /// Ablation 8's rows.
    pub fn table(&self) -> Table {
        let baseline = self.at(4);
        Table {
            title: "Ablation 8 — key-tree degree sweep (Table 1 workload)",
            headers: &["degree d", "Ne(N, J)", "vs d=4"],
            rows: self
                .points
                .iter()
                .map(|&(d, cost)| {
                    vec![
                        d.to_string(),
                        fmt(cost, 0),
                        format!("{:+.1}%", 100.0 * (cost / baseline - 1.0)),
                    ]
                })
                .collect(),
        }
    }
}

/// Ablation 8.
pub fn ablation_degree_sweep() -> DegreeSweep {
    let (n, l) = (65536u64, 1684.0f64);
    DegreeSweep {
        points: [2u32, 3, 4, 6, 8, 16]
            .into_iter()
            .map(|d| (d, ne(n, l, d)))
            .collect(),
    }
}

/// Extension 1 (\[YSI99\], §4.4): keys an average low-loss receiver gets,
/// with one mixed tree on one multicast group against loss-homogenized
/// trees on a group each (N = 2048, 32 leavers, α = 0.3, 6 runs).
#[derive(Debug, Clone, Copy)]
pub struct MultigroupFairness {
    /// One group, one mixed tree: low-loss receivers also get every
    /// retransmission the high-loss ones provoke.
    pub mixed: f64,
    /// Per-class groups: low-loss receivers get only their tree's
    /// packets.
    pub per_class: f64,
    /// Every delivery completed.
    pub complete: bool,
}

impl MultigroupFairness {
    /// Extension 1's rows.
    pub fn table(&self) -> Table {
        Table {
            title: "Extension 1 — keys received by an average LOW-loss member (N=2048, α=0.3)",
            headers: &["organization", "keys_received"],
            rows: vec![
                vec!["one group, mixed tree".to_string(), fmt(self.mixed, 1)],
                vec![
                    "per-class groups, homogenized trees".to_string(),
                    fmt(self.per_class, 1),
                ],
            ],
        }
    }
}

/// Extension 1.
pub fn ext_multigroup_fairness() -> MultigroupFairness {
    let runs = 6u64;
    let (n, l) = (2048u64, 32u64);
    let alpha = 0.3;
    let mut out = MultigroupFairness {
        mixed: 0.0,
        per_class: 0.0,
        complete: true,
    };
    for seed in 0..runs {
        let mut rng = StdRng::seed_from_u64(seed);
        let (server, message, present) = churned_tree(n, l, (n / l) | 1, &mut rng);
        let interest = interest_map(&message, |node, out| server.members_under_into(node, out));
        let pop = Population::two_point(&present, alpha, P_HIGH, P_LOW, &mut rng);
        let outcome = wka_bkr::deliver(
            &message,
            &interest,
            &pop,
            &WkaBkrConfig::default(),
            &mut rng,
        );
        out.complete &= outcome.report.complete;
        let (mut vol, mut cnt) = (0u64, 0u64);
        for (m, keys) in &outcome.received_keys {
            if pop.loss_of(*m) == P_LOW {
                vol += keys;
                cnt += 1;
            }
        }
        out.mixed += vol as f64 / cnt as f64;

        // The low-loss members as their own tree and group.
        let mut rng = StdRng::seed_from_u64(seed);
        let n_low = ((1.0 - alpha) * n as f64) as u64;
        let l_low = (((1.0 - alpha) * l as f64).round() as u64).max(1);
        let (server, message, present) = churned_tree(n_low, l_low, (n_low / l_low) | 1, &mut rng);
        let interest = interest_map(&message, |node, out| server.members_under_into(node, out));
        let pop = Population::homogeneous(&present, P_LOW);
        let outcome = wka_bkr::deliver(
            &message,
            &interest,
            &pop,
            &WkaBkrConfig::default(),
            &mut rng,
        );
        out.complete &= outcome.report.complete;
        let vol: u64 = outcome.received_keys.values().sum();
        out.per_class += vol as f64 / outcome.received_keys.len() as f64;
    }
    out.mixed /= runs as f64;
    out.per_class /= runs as f64;
    out
}

/// Extension 2 (§2.2's soft real-time requirement): proactive-FEC
/// parity against the chance of delivering within two rounds
/// (N = 1024, 16 leavers, 20 runs per ρ).
pub fn ext_fec_deadline() -> Delivered {
    let runs = 20u64;
    let mut complete = true;
    let mut rows = Vec::new();
    for rho in [1.0f64, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0] {
        let (mut packets, mut rounds, mut within) = (0usize, 0usize, 0usize);
        for seed in 0..runs {
            let mut rng = StdRng::seed_from_u64(7_000 + seed);
            let (server, message, present) = churned_tree(1024, 16, (1024 / 16) | 1, &mut rng);
            let interest = interest_map(&message, |node, out| server.members_under_into(node, out));
            let pop = Population::two_point(&present, 0.2, P_HIGH, P_LOW, &mut rng);
            let cfg = fec::FecConfig {
                proactivity: rho,
                ..fec::FecConfig::default()
            };
            let outcome = fec::deliver(&message, &interest, &pop, &cfg, &mut rng);
            complete &= outcome.report.complete;
            packets += outcome.report.packets;
            rounds += outcome.report.rounds;
            if outcome.report.rounds <= 2 {
                within += 1;
            }
        }
        rows.push(vec![
            fmt(rho, 1),
            fmt(packets as f64 / runs as f64, 1),
            fmt(rounds as f64 / runs as f64, 2),
            fmt(within as f64 / runs as f64, 2),
        ]);
    }
    Delivered {
        table: Table {
            title:
                "Extension 2 — proactive FEC: bandwidth vs soft real-time deadline (N=1024, L=16)",
            headers: &["rho", "mean packets", "mean rounds", "P(rounds<=2)"],
            rows,
        },
        complete,
    }
}

/// Both of the paper's cost metrics for one manager, per measured
/// interval.
#[derive(Debug, Clone, Copy)]
pub struct RunCost {
    /// Encrypted keys the key server emits (§3).
    pub server_keys: f64,
    /// Keys the WKA-BKR transport sends, retransmissions included (§4).
    pub transport_keys: f64,
}

/// The §4.2 combination measured: one churn workload (N = 1024, K = 5,
/// 80 % short-lived members; 30 % of receivers at 20 % loss, the rest at
/// 2 %) through three key servers, every interval delivered by the
/// executable WKA-BKR protocol.
#[derive(Debug, Clone, Copy)]
pub struct CombinedScheme {
    /// The one-keytree baseline.
    pub one_keytree: RunCost,
    /// The TT-scheme.
    pub tt: RunCost,
    /// Two partitions over loss-homogenized L-trees, placing members by
    /// the loss rates their NACKs revealed in the S-partition.
    pub combined: RunCost,
    /// Every delivery completed.
    pub complete: bool,
}

impl CombinedScheme {
    /// The combined-scheme rows.
    pub fn table(&self) -> Table {
        let base = self.one_keytree;
        Table {
            title: "Combined scheme — key-server and transport cost per interval (measured)",
            headers: &[
                "scheme",
                "server_keys",
                "server_saving",
                "transport_keys",
                "transport_saving",
            ],
            rows: [
                ("one-keytree", base),
                ("tt-scheme", self.tt),
                ("combined (§3 + §4.2)", self.combined),
            ]
            .iter()
            .map(|(name, run)| {
                vec![
                    name.to_string(),
                    fmt(run.server_keys, 0),
                    fmt(100.0 * (1.0 - run.server_keys / base.server_keys), 1),
                    fmt(run.transport_keys, 0),
                    fmt(100.0 * (1.0 - run.transport_keys / base.transport_keys), 1),
                ]
            })
            .collect(),
        }
    }
}

/// The combined-scheme run (seed 2003).
pub fn combined_scheme() -> CombinedScheme {
    const K: u64 = 5;
    let seed = 2003;
    let mut complete = true;
    let one_keytree = run_lossy(&mut OneTreeManager::new(4), |_, _| {}, seed, &mut complete);
    let tt = run_lossy(&mut TtManager::new(4, K), |_, _| {}, seed, &mut complete);
    let combined = run_lossy(
        &mut CombinedManager::two_loss_classes(4, K),
        |mgr: &mut CombinedManager, feedback| {
            for (&m, &(lost, seen)) in feedback {
                mgr.record_feedback(m, lost, seen);
            }
        },
        seed,
        &mut complete,
    );
    CombinedScheme {
        one_keytree,
        tt,
        combined,
        complete,
    }
}

/// Runs the combined-scheme workload through one manager, delivering
/// every interval over the lossy channel; `feedback` receives each
/// member's `(lost, seen)` packet counts after every delivery. Clears
/// `complete` if a delivery fell short.
fn run_lossy<M: GroupKeyManager>(
    manager: &mut M,
    mut feedback: impl FnMut(&mut M, &BTreeMap<MemberId, (u64, u64)>),
    seed: u64,
    complete: &mut bool,
) -> RunCost {
    const N: usize = 1024;
    const HIGH_LOSS_FRACTION: f64 = 0.3;
    const WARMUP: usize = 10;
    const MEASURED: usize = 25;

    let mut rng = StdRng::seed_from_u64(seed);
    let params = MembershipParams {
        target_size: N,
        ..MembershipParams::paper_default()
    };
    let mut generator = MembershipGenerator::new(params, &mut rng);
    let mut losses: BTreeMap<MemberId, f64> = BTreeMap::new();
    /// Draws the joiner's loss rate, then its individual key.
    fn join(losses: &mut BTreeMap<MemberId, f64>, id: MemberId, rng: &mut StdRng) -> Join {
        let p = if rng.gen::<f64>() < HIGH_LOSS_FRACTION {
            P_HIGH
        } else {
            P_LOW
        };
        losses.insert(id, p);
        Join::new(id, Key::generate(rng))
    }

    // Bootstrap the steady-state population.
    let joins: Vec<Join> = (0..generator.population() as u64)
        .map(|i| join(&mut losses, MemberId(i), &mut rng))
        .collect();
    manager
        .process_interval(&joins, &[], &mut rng)
        .expect("bootstrap batch is consistent");

    let (mut server_keys, mut transport_keys) = (0u64, 0u64);
    for step in 0..(WARMUP + MEASURED) {
        let events = generator.next_interval(&mut rng);
        let joins: Vec<Join> = events
            .joins
            .iter()
            .map(|&(m, _)| join(&mut losses, m, &mut rng))
            .collect();
        let out = manager
            .process_interval(&joins, &events.leaves, &mut rng)
            .expect("generated batch is consistent");
        for m in &events.leaves {
            losses.remove(m);
        }

        let interest = interest_map(&out.message, |node, out| {
            manager.members_under_into(node, out)
        });
        let pop = Population::from_map(
            interest
                .keys()
                .map(|m| (*m, losses.get(m).copied().unwrap_or(P_LOW)))
                .collect(),
        );
        let delivery = wka_bkr::deliver(
            &out.message,
            &interest,
            &pop,
            &WkaBkrConfig::default(),
            &mut rng,
        );
        *complete &= delivery.report.complete;
        feedback(manager, &delivery.lost_packets);

        if step >= WARMUP {
            server_keys += out.stats.encrypted_keys as u64;
            transport_keys += delivery.report.keys_transmitted as u64;
        }
    }
    RunCost {
        server_keys: server_keys as f64 / MEASURED as f64,
        transport_keys: transport_keys as f64 / MEASURED as f64,
    }
}
