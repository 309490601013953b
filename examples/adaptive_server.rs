//! The adaptive deployment loop of §3.4.
//!
//! "At the beginning of a session, the key server just maintains one
//! key tree; later, from its collected trace data it can compute the
//! group statistics such as Ms, Ml, and α. Then using our analytic
//! model, the key server can choose the best scheme to use."
//!
//! `AdaptiveManager` is that loop as a placement policy: the session
//! starts on one key tree, the server fits the two-class mixture to the
//! memberships it sees end, consults the analytic model every eight
//! intervals, and places the *next* joiners as the recommended scheme
//! would. A switch re-admits nobody. This example runs the paper's
//! membership process through it, prints every switch, and sets its
//! bandwidth beside a plain one-keytree run of the same session.
//!
//! Run with: `cargo run --release --example adaptive_server`

use rekey_core::adaptive::AdaptiveManager;
use rekey_core::Scheme;
use rekey_testkit::{drive, factory_for, GenParams, Paper, Workload};

const N: usize = 2048;
const INTERVALS: usize = 90;
/// The session's last intervals, compared between the two servers.
const MEASURED: usize = 30;

fn main() {
    let params = GenParams {
        bootstrap: N,
        degree: 4,
        ..GenParams::default()
    };
    let session = Paper::default().compile(7, INTERVALS, &params);
    println!("Adaptive key server, {N} members under the paper's two-class churn:");

    let mut adaptive = Vec::new();
    let mut choice = None;
    drive(
        |_| Box::new(AdaptiveManager::paper_default(4)),
        &session,
        |step| {
            let now = step.manager.current_choice();
            if choice != Some(now) {
                println!(
                    "  interval {:>2}: next joiners placed as {now:?}",
                    step.interval
                );
                choice = Some(now);
            }
            adaptive.push(step.outcome.stats.encrypted_keys);
            Ok(())
        },
    )
    .expect("compiled batches are consistent");

    let mut one = Vec::new();
    drive(factory_for(Scheme::OneTree), &session, |step| {
        one.push(step.outcome.stats.encrypted_keys);
        Ok(())
    })
    .expect("compiled batches are consistent");

    let mean = |keys: &[usize]| {
        keys[keys.len() - MEASURED..].iter().sum::<usize>() as f64 / MEASURED as f64
    };
    let (one, adaptive) = (mean(&one), mean(&adaptive));
    println!(
        "last {MEASURED} intervals: one-keytree {one:.0} keys/interval, adaptive {adaptive:.0} ({:.1}% fewer)",
        100.0 * (1.0 - adaptive / one)
    );
}
