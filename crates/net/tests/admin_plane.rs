//! Live-observability integration test: churn runs through a real
//! `rekeyd` with the admin plane enabled, and the admin endpoints are
//! scraped *mid-run* — `/metrics` must validate as Prometheus text
//! with monotonically increasing counters and a non-empty end-to-end
//! propagation histogram, `/flightrec` must dump parseable JSONL, and
//! `/healthz` must flip to 503 during the shutdown drain while
//! `/metrics` stays scrapeable.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_core::{Join, Scheme, SchemeConfig};
use rekey_crypto::Key;
use rekey_keytree::MemberId;
use rekey_net::{BackoffConfig, ClientConfig, RekeyClient, Rekeyd, ServerConfig};
use rekey_obs::admin::http_get;
use rekey_obs::{json, prom};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const HTTP_TIMEOUT: Duration = Duration::from_secs(2);

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let response = http_get(addr, path, HTTP_TIMEOUT).expect("admin endpoint answers");
    (response.status, response.body)
}

fn scrape(addr: SocketAddr) -> prom::PromSummary {
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    prom::validate(&body).expect("served /metrics validates as Prometheus text")
}

/// Polls `/metrics` until the propagation histogram is non-empty
/// (client ACKs travel back asynchronously) or the deadline passes.
fn wait_for_acks(addr: SocketAddr, budget: Duration) -> prom::PromSummary {
    let deadline = Instant::now() + budget;
    loop {
        let summary = scrape(addr);
        if summary
            .histograms
            .get("net_propagation_seconds")
            .is_some_and(|&n| n > 0)
        {
            return summary;
        }
        assert!(
            Instant::now() < deadline,
            "no propagation ACKs reached the server within {budget:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn admin_plane_reports_live_metrics_flight_events_and_drain() {
    let config = ServerConfig {
        admin_addr: Some("127.0.0.1:0".parse().unwrap()),
        ..ServerConfig::default()
    };
    let daemon = Rekeyd::bind("127.0.0.1:0", config).expect("bind rekeyd");
    let admin = daemon.admin_addr().expect("admin plane configured");

    // Health is green from the start.
    assert_eq!(get(admin, "/healthz"), (200, "ok\n".to_string()));
    assert_eq!(get(admin, "/readyz").0, 200);
    assert_eq!(get(admin, "/nothing-here").0, 404);

    // Drive churn: 6 members join at epoch 1, then empty rekey
    // intervals keep publishing epochs that every client applies.
    let mut rng = StdRng::seed_from_u64(77);
    let mut manager = Scheme::Tt.build(&SchemeConfig::new());
    let members: Vec<(MemberId, Key)> = (0..6)
        .map(|i| (MemberId(i), Key::generate(&mut rng)))
        .collect();
    for (member, key) in &members {
        daemon.register(*member, key.clone());
    }
    let joins: Vec<Join> = members
        .iter()
        .map(|(m, k)| Join::new(*m, k.clone()))
        .collect();
    let out = manager
        .process_interval(&joins, &[], &mut rng)
        .expect("rekey");
    daemon.publish(&out.message).expect("publish epoch 1");

    let client_config = ClientConfig {
        backoff: BackoffConfig {
            base: Duration::from_millis(5),
            cap: Duration::from_millis(100),
            seed: 1,
        },
    };
    let mut clients: Vec<RekeyClient> = members
        .iter()
        .map(|(m, k)| RekeyClient::new(daemon.local_addr(), *m, k.clone(), 1, client_config))
        .collect();
    for client in &mut clients {
        client
            .sync_to(1, Duration::from_secs(10))
            .expect("sync epoch 1");
    }

    // Mid-run scrape #1: counters are present and the exposition is
    // parser-valid Prometheus text.
    let first = scrape(admin);
    assert!(first.counters["net_fanout_bytes_total"] > 0.0);
    assert_eq!(first.counters["net_epochs_published_total"], 1.0);
    assert_eq!(first.counters["net_sessions_opened_total"], 6.0);

    // More churn, then scrape #2: every counter is monotonic.
    for epoch in 2..=5u64 {
        let out = manager.process_interval(&[], &[], &mut rng).expect("rekey");
        daemon.publish(&out.message).expect("publish epoch");
        for client in &mut clients {
            client
                .sync_to(epoch, Duration::from_secs(10))
                .expect("client catches up");
        }
    }
    let second = wait_for_acks(admin, Duration::from_secs(5));
    for (family, &value) in &first.counters {
        assert!(
            second.counters[family] >= value,
            "{family} went backwards: {} -> {}",
            value,
            second.counters[family]
        );
    }
    assert_eq!(second.counters["net_epochs_published_total"], 5.0);
    assert!(second.counters["net_acks_total"] > 0.0);
    assert!(second.histograms["net_propagation_seconds"] > 0);
    // Per-shard propagation is exposed too (6 members over 2 shards,
    // ids 0..6 alternate, so both shards saw ACKs).
    assert!(second
        .histograms
        .contains_key("net_propagation_shard0_seconds"));
    assert!(second
        .histograms
        .contains_key("net_propagation_shard1_seconds"));

    // `/vars` carries pre-computed quantiles for pollers.
    let (status, vars) = get(admin, "/vars");
    assert_eq!(status, 200);
    let doc = json::parse(&vars).expect("/vars is JSON");
    let propagation = doc
        .get("hists")
        .and_then(|h| h.get("net.propagation"))
        .expect("propagation hist in /vars");
    assert!(
        propagation
            .get("p99_ns")
            .and_then(json::Value::as_num)
            .unwrap()
            > 0.0
    );
    assert!(
        doc.get("counters")
            .and_then(|c| c.get("net.epochs_published"))
            .and_then(json::Value::as_num)
            == Some(5.0)
    );

    // `/flightrec` dumps JSONL: every line parses, publishes and
    // accepts are on the record.
    let (status, flight) = get(admin, "/flightrec");
    assert_eq!(status, 200);
    assert!(!flight.is_empty());
    for line in flight.lines() {
        json::parse(line).expect("every flight line is JSON");
    }
    assert!(flight.contains("\"kind\":\"epoch_publish\""));
    assert!(flight.contains("\"kind\":\"accept\""));
    assert!(flight.contains("\"kind\":\"propagation_ack\""));

    // Drain: health flips to 503 while metrics stay scrapeable.
    daemon.begin_shutdown();
    assert_eq!(get(admin, "/healthz"), (503, "draining\n".to_string()));
    assert_eq!(get(admin, "/readyz").0, 503);
    let during_drain = scrape(admin);
    assert!(during_drain.counters["net_epochs_published_total"] >= 5.0);

    for client in &mut clients {
        client.close();
    }
    daemon.shutdown().expect("clean shutdown");
}

#[test]
fn rekeyd_without_admin_port_still_collects() {
    let daemon = Rekeyd::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    assert!(daemon.admin_addr().is_none());
    let mut rng = StdRng::seed_from_u64(5);
    let mut manager = Scheme::OneTree.build(&SchemeConfig::new());
    let key = Key::generate(&mut rng);
    daemon.register(MemberId(1), key.clone());
    let out = manager
        .process_interval(&[Join::new(MemberId(1), key)], &[], &mut rng)
        .expect("rekey");
    daemon.publish(&out.message).expect("publish");

    let snap = daemon.collector().snapshot();
    assert_eq!(snap.counter("net.epochs_published"), 1);
    assert!(snap.counter("net.fanout.bytes") > 0);
    assert!(daemon.flight().recorded() > 0);
    daemon.shutdown().expect("clean shutdown");
}

/// `lag_ns` is whatever an authenticated client says it is. A raw
/// socket handshakes and acknowledges with `u64::MAX`: the daemon
/// counts the ACK as implausible, records no propagation sample, and
/// keeps the session — the plausible ACK that follows is sampled.
#[test]
fn absurd_propagation_lag_is_counted_not_sampled() {
    use rekey_net::frame::{encode_frame, read_frame_deadline, FrameReader, DEFAULT_MAX_FRAME};
    use rekey_net::proto::{self, Frame};
    use std::io::Write;

    let daemon = Rekeyd::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let member = MemberId(1);
    let key = Key::generate(&mut StdRng::seed_from_u64(6));
    daemon.register(member, key.clone());

    let mut stream = std::net::TcpStream::connect(daemon.local_addr()).expect("connect");
    let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
    let deadline = Instant::now() + Duration::from_secs(5);
    let send = |stream: &mut std::net::TcpStream, frame: &Frame| {
        let wire = encode_frame(&proto::encode(frame), DEFAULT_MAX_FRAME).expect("frame");
        stream.write_all(&wire).expect("send");
    };
    let hello = read_frame_deadline(&mut stream, &mut reader, deadline, "server hello").unwrap();
    let Frame::ServerHello { nonce } = proto::decode(&hello).unwrap() else {
        panic!("expected a server hello");
    };
    let tag = proto::hello_tag(&key, &nonce, member);
    send(
        &mut stream,
        &Frame::Hello {
            member,
            tag,
            next_epoch: 1,
        },
    );
    let welcome = read_frame_deadline(&mut stream, &mut reader, deadline, "welcome").unwrap();
    assert!(matches!(
        proto::decode(&welcome).unwrap(),
        Frame::Welcome { .. }
    ));

    let collector = daemon.collector();
    let samples = |snap: &rekey_obs::MetricsSnapshot, name: &str| {
        snap.hists.get(name).map_or(0, |h| h.count())
    };
    let wait_until = |what: &str, reached: &dyn Fn(&rekey_obs::MetricsSnapshot) -> bool| loop {
        let snap = collector.snapshot();
        if reached(&snap) {
            return snap;
        }
        assert!(Instant::now() < deadline, "never saw {what}");
        std::thread::sleep(Duration::from_millis(5));
    };

    send(
        &mut stream,
        &Frame::Ack {
            epoch: 1,
            lag_ns: u64::MAX,
        },
    );
    let snap = wait_until("the implausible ACK", &|snap| {
        snap.counter("net.acks.implausible") == 1
    });
    assert_eq!(snap.counter("net.acks"), 1);
    assert_eq!(samples(&snap, "net.propagation"), 0);
    assert_eq!(samples(&snap, "net.propagation.shard1"), 0);
    assert_eq!(daemon.session_count(), 1);

    send(
        &mut stream,
        &Frame::Ack {
            epoch: 1,
            lag_ns: 250_000,
        },
    );
    let snap = wait_until("the plausible ACK's sample", &|snap| {
        samples(snap, "net.propagation.shard1") == 1
    });
    assert_eq!(snap.counter("net.acks.implausible"), 1);
    assert_eq!(snap.total_time_ns("net.propagation"), 250_000);
    assert_eq!(daemon.session_count(), 1);
    daemon.shutdown().expect("clean shutdown");
}
