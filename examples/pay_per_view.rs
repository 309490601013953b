//! A pay-per-view broadcast session (the paper's motivating workload):
//! most viewers sample the stream for a few minutes, a minority stays
//! for hours ([AA97] MBone behaviour).
//!
//! Runs the same simulated session under all four schemes — the
//! one-keytree baseline and the paper's QT / TT / PT two-partition
//! schemes — and reports the key-server bandwidth of each, next to the
//! analytic model's prediction.
//!
//! Run with: `cargo run --release --example pay_per_view`

use rekey_analytic::partition::PartitionParams;
use rekey_core::Scheme;
use rekey_testkit::{drive, factory_for, GenParams, Paper, Scenario, Workload};

const SUBSCRIBERS: usize = 4096;
const K: u16 = 10;
const SEED: u64 = 42;
const WARMUP: usize = 15;
const MEASURED: usize = 40;

/// Mean encrypted keys per measured interval of `scheme` on the session.
fn simulate(scheme: Scheme, session: &Scenario) -> f64 {
    let mut keys = 0usize;
    drive(factory_for(scheme), session, |step| {
        if step.interval > WARMUP {
            keys += step.outcome.stats.encrypted_keys;
        }
        Ok(())
    })
    .expect("compiled batches are consistent");
    keys as f64 / MEASURED as f64
}

fn main() {
    println!("Pay-per-view session: {SUBSCRIBERS} subscribers, 80% channel-surfers");
    println!("(mean stay 3 min) and 20% committed viewers (mean stay 3 h);");
    println!("rekeying every 60 s, S-period K = {K} intervals.\n");

    let model = PartitionParams {
        group_size: SUBSCRIBERS as u64,
        k: u32::from(K),
        ..PartitionParams::paper_default()
    };
    let predicted = model.costs();

    // Every join carries its true duration class; only PT reads it.
    let params = GenParams {
        bootstrap: SUBSCRIBERS,
        degree: 4,
        k: K,
        ..GenParams::default()
    };
    let session = Paper::default().compile(SEED, WARMUP + MEASURED, &params);
    let rows = [
        ("one-keytree", Scheme::OneTree, predicted.one_keytree),
        ("TT-scheme", Scheme::Tt, predicted.tt),
        ("QT-scheme", Scheme::Qt, predicted.qt),
        ("PT-scheme (oracle)", Scheme::Pt, predicted.pt),
    ]
    .map(|(name, scheme, model)| (name, simulate(scheme, &session), model));

    let baseline = rows[0].1;
    println!(
        "{:<20} {:>14} {:>14} {:>10}",
        "scheme", "measured", "model", "savings"
    );
    println!("{}", "-".repeat(62));
    for (name, measured, model) in &rows {
        println!(
            "{:<20} {:>10.0} keys {:>10.0} keys {:>9.1}%",
            name,
            measured,
            model,
            100.0 * (1.0 - measured / baseline)
        );
    }
    println!("\n(measured = mean encrypted keys per 60 s rekey interval over the");
    println!(" simulated session; model = §3.3.1 steady-state prediction)");
}
