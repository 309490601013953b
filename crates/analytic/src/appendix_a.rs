//! The batched-rekey cost model `Ne(N, L)` of Appendix A.
//!
//! When `L` of `N` members are revoked in one batch (and `J = L`
//! members join), a key node whose subtree covers `S` members is
//! updated with probability `P = 1 − C(N−S, L)/C(N, L)` (equation 11),
//! and every updated key is encrypted once per child (equation 12).
//!
//! Two evaluators are provided:
//!
//! - [`ne_ideal`] — the paper's closed form for a *full* balanced
//!   d-ary tree (`N = d^h`), levels indexed from the root;
//! - [`ne`] — the "simple extension" to partially-full trees the paper
//!   alludes to: the exact balanced tree shape for arbitrary `N` is
//!   constructed (recursively splitting `N` leaves into `d` nearly
//!   equal subtrees) and the per-node cost summed. For `N = d^h` the
//!   two agree exactly;
//! - [`ne_chained`] — [`ne`] for the chain derivation the live planner
//!   runs: an updated node with an updated child derives its key from
//!   that child's and pays `children − 1` (Le Thi–Nguyen's sum over
//!   updated nodes, with the one-way step of Canetti et al., INFOCOM '99).

use crate::math::p_update;
use std::collections::HashMap;

/// Splits `n` leaves into at most `d` nearly equal child subtrees.
///
/// For `n <= d` every child is a single leaf.
pub fn child_sizes(n: u64, d: u64) -> Vec<u64> {
    debug_assert!(n >= 2 && d >= 2);
    let parts = d.min(n);
    let base = n / parts;
    let rem = n % parts;
    (0..parts).map(|i| base + u64::from(i < rem)).collect()
}

/// Expected number of encrypted keys for one batched rekey of a
/// balanced d-ary tree with `n` members and `l` revocations, using the
/// exact tree shape (works for any `n`, real-valued `l`).
///
/// Returns 0 for `n < 2` or `l <= 0`.
pub fn ne(n: u64, l: f64, d: u32) -> f64 {
    batch_cost(n, l, d, false)
}

/// [`ne`] for a server that derives an updated key from an updated
/// child's new key by a one-way function instead of wrapping it under
/// that child (Canetti et al., INFOCOM '99; `LkhServer`'s chain
/// derivation): per node, `children · P(update)` less the probability
/// that a revoked member lies under one of its interior children — the
/// wrap the derivation replaces. A node over leaves alone pays as in
/// [`ne`]. `ne − ne_chained` is the expected number of derivation
/// records.
///
/// Returns 0 for `n < 2` or `l <= 0`.
pub fn ne_chained(n: u64, l: f64, d: u32) -> f64 {
    batch_cost(n, l, d, true)
}

/// [`ne`] or, `chained`, [`ne_chained`]: the sum over the exact tree
/// shape of each node's expected cost.
fn batch_cost(n: u64, l: f64, d: u32, chained: bool) -> f64 {
    if n < 2 || l <= 0.0 {
        return 0.0;
    }
    let l = l.min(n as f64);
    let mut memo: HashMap<u64, f64> = HashMap::new();
    subtree_cost(n, n as f64, l, d as u64, chained, &mut memo)
}

fn subtree_cost(
    s: u64,
    n: f64,
    l: f64,
    d: u64,
    chained: bool,
    memo: &mut HashMap<u64, f64>,
) -> f64 {
    if s < 2 {
        return 0.0; // leaves (individual keys) are never re-issued
    }
    if let Some(&c) = memo.get(&s) {
        return c;
    }
    let children = child_sizes(s, d);
    let mut own = children.len() as f64 * p_update(n, s as f64, l);
    if chained {
        // A leaver under an interior child updates that child too, and
        // this node derives from it: one wrap fewer.
        let interior: u64 = children.iter().filter(|&&c| c >= 2).sum();
        own -= p_update(n, interior as f64, l);
    }
    let below: f64 = children
        .iter()
        .map(|&c| subtree_cost(c, n, l, d, chained, memo))
        .sum();
    let total = own + below;
    memo.insert(s, total);
    total
}

/// The paper's closed form for a full balanced tree: requires
/// `n = d^h` exactly.
///
/// # Panics
///
/// Panics if `n` is not a power of `d`.
pub fn ne_ideal(n: u64, l: f64, d: u32) -> f64 {
    let d64 = d as u64;
    let mut h = 0u32;
    let mut acc = 1u64;
    while acc < n {
        acc *= d64;
        h += 1;
    }
    assert_eq!(acc, n, "ne_ideal requires n to be a power of d");
    if l <= 0.0 {
        return 0.0;
    }
    let l = l.min(n as f64);
    let mut total = 0.0;
    for i in 0..h {
        let s_i = d64.pow(h - i) as f64; // members under a level-i node
        let nodes = d64.pow(i) as f64;
        total += d as f64 * nodes * p_update(n as f64, s_i, l);
    }
    total
}

/// Expected number of *updated* keys (not encryptions) — `Σ_i N_i` in
/// the paper's notation: the sum over updated nodes that [`ne`] weighs
/// by each node's child count.
pub fn updated_keys(n: u64, l: f64, d: u32) -> f64 {
    if n < 2 || l <= 0.0 {
        return 0.0;
    }
    let l = l.min(n as f64);
    let mut memo: HashMap<u64, f64> = HashMap::new();
    fn rec(s: u64, n: f64, l: f64, d: u64, memo: &mut HashMap<u64, f64>) -> f64 {
        if s < 2 {
            return 0.0;
        }
        if let Some(&c) = memo.get(&s) {
            return c;
        }
        let children = child_sizes(s, d);
        let total =
            p_update(n, s as f64, l) + children.iter().map(|&c| rec(c, n, l, d, memo)).sum::<f64>();
        memo.insert(s, total);
        total
    }
    rec(n, n as f64, l, d as u64, &mut memo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, rel: f64) -> bool {
        (a - b).abs() <= rel * b.abs().max(1e-12)
    }

    #[test]
    fn exact_matches_ideal_on_full_trees() {
        for &(n, d) in &[(64u64, 4u32), (256, 4), (65536, 4), (512, 2), (729, 3)] {
            for &l in &[1.0f64, 10.0, 100.0] {
                let l = l.min(n as f64 / 2.0);
                let a = ne(n, l, d);
                let b = ne_ideal(n, l, d);
                assert!(close(a, b, 1e-9), "n={n} d={d} l={l}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn single_departure_costs_about_d_log_n() {
        // The paper: ~d · ceil(log_d N) keys per departure.
        let cost = ne(65536, 1.0, 4);
        assert!(close(cost, 32.0, 0.01), "expected ≈ d·h = 32, got {cost}");
    }

    #[test]
    fn full_revocation_updates_every_interior_key() {
        // L = N revokes everyone: every interior key updates.
        let n = 64u64;
        let d = 4u32;
        let cost = ne(n, n as f64, d);
        // Interior nodes: 1 + 4 + 16 = 21, each with 4 children.
        assert!(close(cost, 84.0, 1e-9), "got {cost}");
    }

    #[test]
    fn batching_is_subadditive() {
        // Batched revocation of L members costs less than L times a
        // single revocation (path overlap — §2.1.1).
        let single = ne(65536, 1.0, 4);
        let batch = ne(65536, 256.0, 4);
        assert!(batch < 256.0 * single * 0.9);
        assert!(batch > single);
    }

    #[test]
    fn monotone_in_l() {
        let mut prev = 0.0;
        for l in [1.0, 4.0, 16.0, 64.0, 256.0, 1024.0] {
            let c = ne(4096, l, 4);
            assert!(c > prev, "l={l}: {c} <= {prev}");
            prev = c;
        }
    }

    #[test]
    fn zero_and_tiny_cases() {
        assert_eq!(ne(0, 10.0, 4), 0.0);
        assert_eq!(ne(1, 10.0, 4), 0.0);
        assert_eq!(ne(4096, 0.0, 4), 0.0);
        assert!(ne(2, 1.0, 4) > 0.0);
    }

    /// A node over leaves alone has nothing to derive from: on a tree
    /// of height 1 the two models agree, and above it each level's
    /// updated node saves the chance that a leaver is under an
    /// interior child — for one leaver on a full tree, one wrap per
    /// level but the lowest.
    #[test]
    fn chained_saves_one_wrap_per_updated_level_above_the_bottom() {
        assert!(close(ne_chained(4, 1.0, 4), ne(4, 1.0, 4), 1e-12));
        assert!(close(ne_chained(65536, 1.0, 4), 32.0 - 7.0, 0.01));
        for &(n, d) in &[(64u64, 4u32), (2048, 4), (1000, 3), (4096, 2)] {
            for &l in &[1.0f64, 8.0, 100.0] {
                let (plain, chained) = (ne(n, l, d), ne_chained(n, l, d));
                let saved = updated_keys(n, l, d) - bottom_updates(n, l, d);
                assert!(close(plain - chained, saved, 1e-9), "n={n} d={d} l={l}");
                assert!(chained < plain);
            }
        }
        assert_eq!(ne_chained(1, 3.0, 4), 0.0);
        assert_eq!(ne_chained(4096, 0.0, 4), 0.0);
    }

    /// Expected updated nodes over leaves alone: the ones a chain
    /// cannot start above.
    fn bottom_updates(n: u64, l: f64, d: u32) -> f64 {
        fn rec(s: u64, n: f64, l: f64, d: u64) -> f64 {
            let children = child_sizes(s, d);
            let interior: Vec<u64> = children.iter().copied().filter(|&c| c >= 2).collect();
            let own =
                p_update(n, s as f64, l) - p_update(n, interior.iter().sum::<u64>() as f64, l);
            own + interior.iter().map(|&c| rec(c, n, l, d)).sum::<f64>()
        }
        rec(n, n as f64, l, d as u64)
    }

    #[test]
    fn child_sizes_even_split() {
        assert_eq!(child_sizes(8, 4), vec![2, 2, 2, 2]);
        assert_eq!(child_sizes(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(child_sizes(3, 4), vec![1, 1, 1]);
        assert_eq!(child_sizes(2, 2), vec![1, 1]);
    }

    #[test]
    fn updated_keys_less_than_encryptions() {
        let n = 4096;
        let l = 64.0;
        let upd = updated_keys(n, l, 4);
        let enc = ne(n, l, 4);
        assert!(upd < enc);
        assert!(close(enc, 4.0 * upd, 1e-9), "full tree: enc = d·updated");
    }

    #[test]
    fn paper_fig3_one_keytree_anchor() {
        // With Table 1 defaults J ≈ 1684; Fig. 3's one-keytree line
        // sits at ≈ 1.65e4 keys.
        let cost = ne(65536, 1684.0, 4);
        assert!(
            (15_500.0..17_500.0).contains(&cost),
            "one-keytree anchor off: {cost}"
        );
    }
}
