//! The wire determinism pin: a fleet fed over N TCP connections is
//! **bitwise-identical** — drift offsets, prequential metrics, final
//! report — to the same feed through in-process `StreamClient`s, and to a
//! sequential `PipelineBuilder` run per stream. The serving chain
//! `sequential ≡ 1-process sharded` (pinned in `rbm-im-serve`) is thereby
//! extended one hop toward N-process: `sequential ≡ sharded ≡ TCP-fed`.
//!
//! Shard counts default to 1 and 4 and can be pinned from CI via
//! `RBM_SERVE_SHARDS` (comma-separated), like the serving suite.

use rbm_im_harness::pipeline::{PipelineBuilder, RunConfig, RunResult};
use rbm_im_harness::registry::{DetectorRegistry, DetectorSpec};
use rbm_im_net::{NetClient, NetServer, NetStreamClient};
use rbm_im_serve::{
    deterministic_spec, IngestError, ServeConfig, ServeEventKind, ServeReport, ServerHandle,
};
use rbm_im_streams::generators::RandomRbfGenerator;
use rbm_im_streams::{DataStream, Instance, ReplayStream, StreamExt, StreamSchema};
use std::collections::HashMap;

fn shard_counts() -> Vec<usize> {
    match std::env::var("RBM_SERVE_SHARDS") {
        Ok(raw) => {
            raw.split(',').filter_map(|s| s.trim().parse().ok()).filter(|&n| n >= 1).collect()
        }
        Err(_) => vec![1, 4],
    }
}

fn record_drifting_stream(
    seed: u64,
    features: usize,
    classes: usize,
    drift_at: usize,
    total: usize,
) -> (StreamSchema, Vec<Instance>) {
    let mut gen = RandomRbfGenerator::new(features, classes, 2, 0.0, seed);
    let schema = gen.schema().clone();
    let mut instances = gen.take_instances(drift_at);
    gen.regenerate();
    instances.extend(gen.take_instances(total - drift_at));
    (schema, instances)
}

struct Feed {
    id: String,
    schema: StreamSchema,
    instances: Vec<Instance>,
    spec: DetectorSpec,
}

/// Four drifting feeds with mixed specs: trainable RBM-IM variants (the
/// state-heavy path) and classic detectors (the cheap path).
fn fleet() -> Vec<Feed> {
    let specs = [
        "rbm(mini_batch=25, warmup=4, persistence=1)",
        "rbm-im(minibatch=25, hidden=8, warmup=4, persistence=1)",
        "adwin(delta=0.01)",
        "ddm",
    ];
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let (schema, instances) = record_drifting_stream(100 + i as u64, 8, 4, 2_500, 4_500);
            Feed {
                id: format!("feed-{i:02}"),
                schema,
                instances,
                spec: DetectorSpec::parse(spec).unwrap(),
            }
        })
        .collect()
}

fn run_config() -> RunConfig {
    RunConfig { metric_window: 500, detector_batch: 50, ..Default::default() }
}

/// Sequential ground truth, built with the exact spec the servers build:
/// `deterministic_spec` over the default registry with the default base
/// seed (both serving planes here run `ServeConfig::default()` seeding).
fn sequential_baseline(feed: &Feed, run: RunConfig) -> RunResult {
    let registry = DetectorRegistry::with_defaults();
    let spec =
        deterministic_spec(&registry, ServeConfig::default().base_seed, &feed.id, &feed.spec);
    PipelineBuilder::new()
        .stream(ReplayStream::new(feed.schema.clone(), feed.instances.clone()))
        .stream_label(feed.id.clone())
        .detector_spec(spec)
        .config(run)
        .run()
        .unwrap()
}

fn assert_results_match(context: &str, served: &RunResult, sequential: &RunResult) {
    assert_same_outcome(context, served, sequential);
    assert_eq!(served.detector, sequential.detector, "{context}: detector label");
}

/// Drift offsets and every prequential metric agree bit for bit (the
/// detector labels may differ).
fn assert_same_outcome(context: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.detections, b.detections, "{context}: drift offsets");
    assert_eq!(a.instances, b.instances, "{context}: instance count");
    assert_eq!(a.pm_auc, b.pm_auc, "{context}: pmAUC");
    assert_eq!(a.pm_gmean, b.pm_gmean, "{context}: pmGM");
    assert_eq!(a.accuracy, b.accuracy, "{context}: accuracy");
    assert_eq!(a.kappa, b.kappa, "{context}: kappa");
}

/// Wire-client retry loop mirroring the serving suite's `ingest_all`.
fn net_ingest_all(client: &NetStreamClient, mut batch: Vec<Instance>) {
    loop {
        match client.try_ingest_batch(batch) {
            Ok(()) => return,
            Err(IngestError::Full(rejected)) => {
                batch = rejected;
                std::thread::yield_now();
            }
            Err(IngestError::Closed(_)) => panic!("server closed during ingest"),
        }
    }
}

/// Feeds the fleet over `connections` TCP connections — each feed pinned
/// to one connection (per-stream order is the determinism contract; the
/// interleaving across connections is free), even feeds ingested blocking,
/// odd feeds fail-fast with retry — and returns the final report plus the
/// drift offsets observed on a TCP event subscription.
fn run_over_tcp(
    feeds: &[Feed],
    num_shards: usize,
    connections: usize,
    chunk: usize,
) -> (ServeReport, HashMap<String, Vec<u64>>) {
    let server = NetServer::bind(
        "127.0.0.1:0",
        ServeConfig { num_shards, queue_capacity: 64, run: run_config(), ..Default::default() },
    )
    .expect("bind loopback");
    let control = NetClient::connect(server.local_addr()).expect("connect control");
    let events = control.subscribe().expect("subscribe");
    for feed in feeds {
        control.attach(&feed.id, feed.schema.clone(), &feed.spec).expect("attach");
    }

    std::thread::scope(|scope| {
        for worker in 0..connections {
            let addr = server.local_addr();
            scope.spawn(move || {
                let conn = NetClient::connect(addr).expect("connect feeder");
                let mine: Vec<&Feed> = feeds.iter().skip(worker).step_by(connections).collect();
                let clients: Vec<NetStreamClient> =
                    mine.iter().map(|feed| conn.client(&feed.id)).collect();
                let mut cursors = vec![0usize; mine.len()];
                loop {
                    let mut progressed = false;
                    for (slot, feed) in mine.iter().enumerate() {
                        let cursor = cursors[slot];
                        if cursor >= feed.instances.len() {
                            continue;
                        }
                        let end = (cursor + chunk).min(feed.instances.len());
                        let batch = feed.instances[cursor..end].to_vec();
                        if slot % 2 == 0 {
                            clients[slot].ingest_batch(batch).expect("blocking ingest");
                        } else {
                            net_ingest_all(&clients[slot], batch);
                        }
                        cursors[slot] = end;
                        progressed = true;
                    }
                    if !progressed {
                        break;
                    }
                }
            });
        }
    });

    control.drain().expect("drain barrier");
    let report = control.shutdown().expect("shutdown over the wire");
    server.shutdown();

    let mut drifts: HashMap<String, Vec<u64>> = HashMap::new();
    for event in events {
        if let ServeEventKind::Drift { position, .. } = event.kind {
            drifts.entry(event.stream.to_string()).or_default().push(position);
        }
    }
    (report, drifts)
}

/// The same fleet through in-process `StreamClient`s (same attach order,
/// same per-feed chunking).
fn run_in_process(feeds: &[Feed], num_shards: usize, chunk: usize) -> ServeReport {
    let server = ServerHandle::start(ServeConfig {
        num_shards,
        queue_capacity: 64,
        run: run_config(),
        ..Default::default()
    });
    let clients: Vec<_> = feeds
        .iter()
        .map(|feed| server.attach(&feed.id, feed.schema.clone(), &feed.spec).unwrap())
        .collect();
    let mut cursors = vec![0usize; feeds.len()];
    loop {
        let mut progressed = false;
        for (i, feed) in feeds.iter().enumerate() {
            let cursor = cursors[i];
            if cursor >= feed.instances.len() {
                continue;
            }
            let end = (cursor + chunk).min(feed.instances.len());
            clients[i].ingest_batch(feed.instances[cursor..end].to_vec()).unwrap();
            cursors[i] = end;
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
    server.drain();
    server.shutdown()
}

/// The acceptance-criteria pin: TCP-fed ≡ in-process ≡ sequential, at
/// every shard count, bitwise.
#[test]
fn tcp_fed_fleet_is_bitwise_identical_to_in_process_and_sequential() {
    let feeds = fleet();
    let sequential: HashMap<String, RunResult> = feeds
        .iter()
        .map(|feed| (feed.id.clone(), sequential_baseline(feed, run_config())))
        .collect();
    for feed in &feeds {
        // DDM stays quiet on this fleet (it still pins metric equality);
        // every other detector must fire so the offset pin is meaningful.
        if feed.spec.name != "ddm" {
            assert!(
                !sequential[&feed.id].detections.is_empty(),
                "{}: the injected drift must be detected so the pin is meaningful",
                feed.id
            );
        }
    }

    for (round, &num_shards) in shard_counts().iter().enumerate() {
        let chunk = [17usize, 53][round % 2];
        let (tcp_report, tcp_drifts) = run_over_tcp(&feeds, num_shards, 3, chunk);
        let in_process_report = run_in_process(&feeds, num_shards, chunk);

        // Final report: identical stream summaries (results AND shard
        // placement — timing counters are the one wall-clock-dependent
        // field, skipped like everywhere else), identical diagnostics.
        assert_eq!(tcp_report.streams.len(), in_process_report.streams.len());
        for (tcp, local) in tcp_report.streams.iter().zip(&in_process_report.streams) {
            assert_eq!(tcp.stream, local.stream, "@ {num_shards} shards: summary order");
            assert_eq!(tcp.shard, local.shard, "@ {num_shards} shards: shard placement");
            assert_results_match(
                &format!("{} @ {num_shards} shards TCP vs in-process", tcp.stream),
                &tcp.result,
                &local.result,
            );
        }
        assert_eq!(tcp_report.dropped_unknown, 0, "@ {num_shards} shards");
        assert_eq!(in_process_report.dropped_unknown, 0, "@ {num_shards} shards");
        assert_eq!(tcp_report.frames_dropped, 0, "@ {num_shards} shards: clean wire traffic");
        assert_eq!(tcp_report.panicked_shards, 0, "@ {num_shards} shards");
        assert_eq!(
            tcp_report.workspace_reuse_misses, in_process_report.workspace_reuse_misses,
            "@ {num_shards} shards: workspace accounting"
        );

        // Every stream matches the sequential ground truth, and the drift
        // events observed over the TCP subscription agree with the report.
        assert_eq!(tcp_report.streams.len(), feeds.len());
        for summary in &tcp_report.streams {
            assert_results_match(
                &format!("{} @ {num_shards} shards over TCP", summary.stream),
                &summary.result,
                &sequential[&summary.stream],
            );
            let observed = tcp_drifts.get(&summary.stream).cloned().unwrap_or_default();
            assert_eq!(
                observed, summary.result.detections,
                "{} @ {num_shards} shards: subscribed drift events vs report",
                summary.stream
            );
        }
    }
}

/// Serializes a checkpoint with the wall-clock timing counters zeroed —
/// the only nondeterministic bytes in a checkpoint (the result comparison
/// above skips the same fields).
fn scrubbed(checkpoint: &rbm_im_serve::StreamCheckpoint) -> serde::Value {
    fn scrub(value: &mut serde::Value) {
        match value {
            serde::Value::Object(fields) => {
                for (key, field) in fields.iter_mut() {
                    if matches!(
                        key.as_str(),
                        "detector_update_seconds" | "test_seconds" | "train_seconds"
                    ) {
                        *field = serde::Value::Number(0.0);
                    } else {
                        scrub(field);
                    }
                }
            }
            serde::Value::Array(items) => items.iter_mut().for_each(scrub),
            _ => {}
        }
    }
    let mut value = serde::Serialize::serialize_value(checkpoint);
    scrub(&mut value);
    value
}

/// Checkpoints captured over the wire are bitwise the checkpoints the
/// in-process server captures at the same drain point — and restoring a
/// wire-captured checkpoint resumes the stream to the exact sequential
/// result.
#[test]
fn wire_checkpoints_are_bitwise_and_resumable() {
    let (schema, instances) = record_drifting_stream(7, 8, 4, 1_200, 2_000);
    let spec = DetectorSpec::parse("rbm(mini_batch=25, warmup=4, persistence=1)").unwrap();
    let feed = Feed { id: "ckpt".into(), schema, instances, spec };
    let run = run_config();
    let split = 900usize;

    // Over the wire: feed the first half, drain, checkpoint, detach.
    let net_server =
        NetServer::bind("127.0.0.1:0", ServeConfig { num_shards: 2, run, ..Default::default() })
            .expect("bind");
    let client = NetClient::connect(net_server.local_addr()).expect("connect");
    let ingest = client.attach(&feed.id, feed.schema.clone(), &feed.spec).expect("attach");
    ingest.ingest_batch(feed.instances[..split].to_vec()).expect("ingest");
    client.drain().expect("drain");
    let wire_checkpoint = client.checkpoint_stream(&feed.id).expect("checkpoint over the wire");
    client.shutdown().expect("shutdown");
    net_server.shutdown();

    // In process: identical feed, identical drain point.
    let server = ServerHandle::start(ServeConfig { num_shards: 2, run, ..Default::default() });
    let in_proc = server.attach(&feed.id, feed.schema.clone(), &feed.spec).unwrap();
    in_proc.ingest_batch(feed.instances[..split].to_vec()).unwrap();
    server.drain();
    let local_checkpoint = server.checkpoint_stream(&feed.id).unwrap();
    server.shutdown();
    assert_eq!(
        scrubbed(&wire_checkpoint),
        scrubbed(&local_checkpoint),
        "wire and in-process checkpoints are bitwise (modulo wall-clock timers)"
    );

    // Restore the wire-captured checkpoint and feed the rest: the final
    // result equals the never-interrupted sequential run.
    let resume = ServerHandle::start(ServeConfig { num_shards: 2, run, ..Default::default() });
    let resumed = resume.restore_stream(&wire_checkpoint).unwrap();
    resumed.ingest_batch(feed.instances[split..].to_vec()).unwrap();
    resume.drain();
    let result = resume.detach(&feed.id).unwrap();
    resume.shutdown();
    let sequential = sequential_baseline(&feed, run);
    assert_results_match("resumed wire checkpoint", &result, &sequential);
}

/// Detach over the wire returns the same final summary the sequential
/// pipeline produces, and the detached id stops being servable.
#[test]
fn wire_detach_returns_the_sequential_result() {
    let (schema, instances) = record_drifting_stream(11, 6, 3, 900, 1_500);
    let spec = DetectorSpec::parse("adwin(delta=0.01)").unwrap();
    let feed = Feed { id: "detach-me".into(), schema, instances, spec };
    let run = run_config();

    let server =
        NetServer::bind("127.0.0.1:0", ServeConfig { num_shards: 2, run, ..Default::default() })
            .expect("bind");
    let client = NetClient::connect(server.local_addr()).expect("connect");
    let ingest = client.attach(&feed.id, feed.schema.clone(), &feed.spec).expect("attach");
    ingest.ingest_batch(feed.instances.clone()).expect("ingest");
    client.drain().expect("drain");
    let result = client.detach(&feed.id).expect("detach over the wire");
    assert_results_match("wire detach", &result, &sequential_baseline(&feed, run));

    let err = client.detach(&feed.id).expect_err("second detach must fail");
    assert!(
        matches!(err, rbm_im_net::NetError::Remote { code: rbm_im_net::ErrorCode::Serve, .. }),
        "{err}"
    );
    let report = client.shutdown().expect("shutdown");
    assert!(report.streams.is_empty(), "the detached stream already returned its result");
    server.shutdown();
}

/// The removed kernel knobs still attach over the wire: a TCP `Attach`
/// whose spec carries `parallel=on, threads=2` (and a second feed with
/// `fastmath=on`) produces a report bitwise-identical to the same feeds
/// attached in-process, to the sequential pipeline ground truth, and to the
/// plain spec without the knobs, which are validated and then ignored. The
/// spec grammar's word-valued params round-trip through the frame codec.
#[test]
fn kernel_mode_params_attach_bitwise_identically_over_tcp() {
    const PLAIN: &str = "rbm(mini_batch=25, warmup=4, persistence=1)";
    let specs = [
        "rbm(mini_batch=25, warmup=4, persistence=1, parallel=on, threads=2)",
        "rbm(mini_batch=25, warmup=4, persistence=1, fastmath=on)",
    ];
    let feeds: Vec<Feed> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let (schema, instances) = record_drifting_stream(300 + i as u64, 8, 4, 2_500, 4_500);
            Feed {
                id: format!("mode-{i}"),
                schema,
                instances,
                spec: DetectorSpec::parse(spec).unwrap(),
            }
        })
        .collect();

    let (tcp_report, tcp_drifts) = run_over_tcp(&feeds, 2, 2, 41);
    let in_process_report = run_in_process(&feeds, 2, 41);

    assert_eq!(tcp_report.streams.len(), feeds.len());
    for (tcp, local) in tcp_report.streams.iter().zip(&in_process_report.streams) {
        assert_eq!(tcp.stream, local.stream, "summary order");
        assert_results_match(
            &format!("{} TCP vs in-process", tcp.stream),
            &tcp.result,
            &local.result,
        );
    }
    for (feed, summary) in feeds.iter().zip(&tcp_report.streams) {
        let sequential = sequential_baseline(feed, run_config());
        assert!(
            !sequential.detections.is_empty(),
            "{}: the injected drift must fire for the pin to bite",
            feed.id
        );
        assert_results_match(
            &format!("{} TCP vs sequential", feed.id),
            &summary.result,
            &sequential,
        );
        let observed = tcp_drifts.get(&feed.id).cloned().unwrap_or_default();
        assert_eq!(observed, summary.result.detections, "{}: subscribed drift events", feed.id);
        let plain = Feed {
            id: feed.id.clone(),
            schema: feed.schema.clone(),
            instances: feed.instances.clone(),
            spec: DetectorSpec::parse(PLAIN).unwrap(),
        };
        assert_same_outcome(
            &format!("{} TCP vs plain spec", feed.id),
            &summary.result,
            &sequential_baseline(&plain, run_config()),
        );
    }
}
