//! Crypto kernel benchmark: throughput of SHA-256 on both backends
//! (scalar reference, SHA-NI), of the two kernels a key wrap is made
//! of (a ChaCha20 block, Poly1305), of the two key-wrap shapes the
//! rekey engine produces, and of the single GF(256) bulk routine,
//! written to `BENCH_crypto.json` at the workspace root.
//!
//! The headline metric is **encrypted keys per second** — the
//! denominator of every cost model in the repo (the paper counts
//! rekey cost in encrypted keys; this bench says how many of those a
//! second of CPU buys). Bulk kernels additionally report MB/sec, and
//! keywrap reports the equivalent wire MB/sec (keys/sec × the 60-byte
//! wire size).
//!
//! Key wrap is measured in both shapes a batch takes: `keywrap_batch`
//! wraps 4 096 payloads under **one** KEK (a joiner's path),
//! `kek_setup` wraps 4 096 payloads each under a **distinct** KEK
//! (group-oriented rekeying: a refreshed key goes out once under each
//! child key). A wrap is one ChaCha20 block (key stream, then the
//! Poly1305 key) and Poly1305 over 112 bytes whichever shape it comes
//! in — `WrapKek::new` prepares nothing — so the two rows read alike;
//! they keep their names so the committed file compares row for row
//! with the HKDF → HMAC construction's, where `kek_setup` paid ten
//! SHA-256 compressions per key before its first byte. `keywrap_lanes`
//! is `kek_setup`'s shape sealed the way a batch seals it, eight wraps
//! under eight distinct KEKs per `keywrap::seal_lanes` call, and is
//! labelled with the lane kernel that ran (`avx2` on a CPU with AVX2,
//! else `scalar`).
//!
//! SHA-256 has two backends (swept with `sha256::digest_with`; the
//! `sha_ni` row appears only on a CPU that has the instructions). Every
//! other kernel has one row, labelled `scalar` except `keywrap_lanes`:
//! no SHA-256 runs in a key wrap.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_crypto::keywrap::{self, WrapKek, LANES, WRAPPED_LEN};
use rekey_crypto::simd::{self, Backend, LaneKernel};
use rekey_crypto::{chacha20, poly1305, sha256, Key};
use rekey_keytree::message::BINDING_LEN;
use rekey_transport::gf256;
use std::fmt::Write as _;
use std::time::Instant;

/// Bulk-kernel buffer size: large enough that the SHA-256 block loop
/// and the GF(256) table walk dominate setup cost.
const BUF_LEN: usize = 16 * 1024;

/// Keys wrapped per rep of either key-wrap kernel (`keywrap_batch`:
/// one batch under one KEK; `kek_setup`: as many KEKs).
const WRAP_KEYS: usize = 4096;

/// Associated data of every wrap: a rekey entry binds its header, so a
/// wrap MACs 112 bytes (64 of padded header, 32 of key, 16 of lengths).
const BINDING: [u8; BINDING_LEN] = [0x5A; BINDING_LEN];

const REPS: usize = 5;

struct Row {
    kernel: &'static str,
    /// The kernel's implementation: a [`Backend`] or a [`LaneKernel`]
    /// name.
    backend: &'static str,
    mb_per_s: f64,
    /// Encrypted keys per second; only for the key-wrap kernels.
    keys_per_s: Option<f64>,
}

impl Row {
    /// A kernel with one implementation.
    fn bulk(kernel: &'static str, bytes: usize, secs: f64) -> Row {
        Row {
            kernel,
            backend: Backend::Scalar.name(),
            mb_per_s: bytes as f64 / secs / 1e6,
            keys_per_s: None,
        }
    }

    fn keywrap(kernel: &'static str, secs: f64) -> Row {
        let keys_per_s = WRAP_KEYS as f64 / secs;
        Row {
            kernel,
            backend: Backend::Scalar.name(),
            mb_per_s: keys_per_s * WRAPPED_LEN as f64 / 1e6,
            keys_per_s: Some(keys_per_s),
        }
    }
}

fn nonce_for(i: usize) -> [u8; 12] {
    (i as u128).to_le_bytes()[..12]
        .try_into()
        .expect("12 bytes")
}

/// Minimum wall-clock of `REPS` runs of `f` (seconds).
fn time_min<F: FnMut()>(mut f: F) -> f64 {
    let mut min = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        f();
        min = min.min(start.elapsed().as_secs_f64());
    }
    min
}

fn bench_sha256(backend: Backend, rows: &mut Vec<Row>) {
    let data = vec![0xABu8; BUF_LEN];
    const ITERS: usize = 32;
    let mut sink = 0u8;
    let secs = time_min(|| {
        for _ in 0..ITERS {
            sink ^= sha256::digest_with(backend, &data)[0];
        }
    });
    std::hint::black_box(sink);
    rows.push(Row {
        kernel: "sha256",
        backend: backend.name(),
        mb_per_s: (ITERS * BUF_LEN) as f64 / secs / 1e6,
        keys_per_s: None,
    });
}

/// One ChaCha20 block per call at a wrap's counter, the nonce moving
/// as it does from wrap to wrap: the unit a key wrap spends one of.
fn bench_chacha20_block(rows: &mut Vec<Row>) {
    let key = [0x42u8; 32];
    const ITERS: usize = 8192;
    let mut sink = 0u8;
    let secs = time_min(|| {
        for i in 0..ITERS {
            sink ^= chacha20::block(std::hint::black_box(&key), 1, &nonce_for(i))[0];
        }
    });
    std::hint::black_box(sink);
    rows.push(Row::bulk("chacha20_block", ITERS * 64, secs));
}

/// Poly1305 over a bulk buffer: the per-block multiply, without the
/// per-message set-up and final reduction a 112-byte entry also pays.
fn bench_poly1305(rows: &mut Vec<Row>) {
    let data = vec![0xABu8; BUF_LEN];
    let key = [0x42u8; 32];
    const ITERS: usize = 64;
    let mut sink = 0u8;
    let secs = time_min(|| {
        for _ in 0..ITERS {
            sink ^= poly1305::mac(std::hint::black_box(&key), &data)[0];
        }
    });
    std::hint::black_box(sink);
    rows.push(Row::bulk("poly1305", ITERS * BUF_LEN, secs));
}

/// GF(256) has one implementation, a scalar table walk.
fn bench_gf256(rows: &mut Vec<Row>) {
    let src: Vec<u8> = (0..BUF_LEN).map(|i| (i * 37 + 5) as u8).collect();
    let mut dst = vec![0xC3u8; BUF_LEN];
    const ITERS: usize = 128;
    let secs = time_min(|| {
        for i in 0..ITERS {
            gf256::mul_acc(&mut dst, &src, (i % 254 + 2) as u8);
        }
    });
    std::hint::black_box(&dst);
    rows.push(Row::bulk("gf256_mul_acc", ITERS * BUF_LEN, secs));
}

/// 4 096 wraps under one KEK — a bulk join's per-joiner entries.
fn bench_keywrap(rows: &mut Vec<Row>) {
    let mut rng = StdRng::seed_from_u64(0xD15C);
    let kek = Key::generate(&mut rng);
    let payloads: Vec<Key> = (0..WRAP_KEYS).map(|_| Key::generate(&mut rng)).collect();
    let mut sink = 0u8;
    let secs = time_min(|| {
        let kek = WrapKek::new(&kek);
        for (i, payload) in payloads.iter().enumerate() {
            sink ^= kek.seal(payload, nonce_for(i), &BINDING).to_bytes()[0];
        }
    });
    std::hint::black_box(sink);
    rows.push(Row::keywrap("keywrap_batch", secs));
}

/// One wrap per KEK — the group-oriented batch shape, which is what a
/// leave batch costs.
fn bench_kek_setup(rows: &mut Vec<Row>) {
    let mut rng = StdRng::seed_from_u64(0x5E7);
    let keks: Vec<Key> = (0..WRAP_KEYS).map(|_| Key::generate(&mut rng)).collect();
    let payload = Key::generate(&mut rng);
    let mut sink = 0u8;
    let secs = time_min(|| {
        for (i, kek) in keks.iter().enumerate() {
            let kek = WrapKek::new(std::hint::black_box(kek));
            sink ^= kek.seal(&payload, nonce_for(i), &BINDING).to_bytes()[0];
        }
    });
    std::hint::black_box(sink);
    rows.push(Row::keywrap("kek_setup", secs));
}

/// `kek_setup`'s 4 096 distinct KEKs sealed eight at a time, as a
/// batch seals them, on the lane kernel this CPU selects.
fn bench_keywrap_lanes(rows: &mut Vec<Row>) {
    let mut rng = StdRng::seed_from_u64(0x5E7);
    let keks: Vec<Key> = (0..WRAP_KEYS).map(|_| Key::generate(&mut rng)).collect();
    let payload = Key::generate(&mut rng);
    let kernel = LaneKernel::active();
    let mut sink = 0u8;
    let secs = time_min(|| {
        for (g, group) in std::hint::black_box(&keks).chunks_exact(LANES).enumerate() {
            let sealed = keywrap::seal_lanes_with(
                kernel,
                std::array::from_fn(|i| &group[i]),
                [&payload; LANES],
                std::array::from_fn(|i| nonce_for(g * LANES + i)),
                [&BINDING[..]; LANES],
            );
            sink ^= sealed[LANES - 1].to_bytes()[0];
        }
    });
    std::hint::black_box(sink);
    rows.push(Row {
        backend: kernel.name(),
        ..Row::keywrap("keywrap_lanes", secs)
    });
}

fn main() {
    let host = rekey_bench::emit::HostContext::detect();
    let cores = host.available_parallelism;
    let feats = simd::detect();
    let selected = simd::active();

    let mut backends = vec![Backend::Scalar];
    if feats.sha_ni {
        backends.push(Backend::ShaNi);
    }

    println!(
        "crypto kernel bench ({cores} core(s), sha_ni={}, avx2={}, selected backend {selected}, {})",
        feats.sha_ni, feats.avx2, host.rustc
    );

    let mut rows: Vec<Row> = Vec::new();
    for &backend in &backends {
        bench_sha256(backend, &mut rows);
    }
    bench_chacha20_block(&mut rows);
    bench_poly1305(&mut rows);
    bench_keywrap(&mut rows);
    bench_kek_setup(&mut rows);
    bench_keywrap_lanes(&mut rows);
    bench_gf256(&mut rows);

    for row in &rows {
        match row.keys_per_s {
            Some(k) => println!(
                "{:<20} {:<7} {:>10.1} MB/s  {:>12.0} keys/s",
                row.kernel, row.backend, row.mb_per_s, k
            ),
            None => println!(
                "{:<20} {:<7} {:>10.1} MB/s",
                row.kernel, row.backend, row.mb_per_s
            ),
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"perf_crypto\",");
    host.push_json(
        &mut json,
        &[
            format!(
                "    \"cpu_features\": {{\"sha_ni\": {}, \"avx2\": {}}},",
                feats.sha_ni, feats.avx2
            ),
            format!("    \"selected_backend\": \"{selected}\","),
        ],
    );
    let _ = writeln!(json, "  \"reps_per_point\": {REPS},");
    let _ = writeln!(json, "  \"bulk_buffer_bytes\": {BUF_LEN},");
    let _ = writeln!(json, "  \"keywrap_batch_keys\": {WRAP_KEYS},");
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let keys = match r.keys_per_s {
            Some(k) => format!("{k:.0}"),
            None => "null".to_string(),
        };
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"backend\": \"{}\", \"mb_per_s\": {:.2}, \"keys_per_s\": {keys}}}{sep}",
            r.kernel, r.backend, r.mb_per_s
        );
    }
    json.push_str("  ]\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_crypto.json");
    std::fs::write(path, &json).expect("write BENCH_crypto.json");
    println!("wrote {path}");
}
