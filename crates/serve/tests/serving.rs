//! Integration suite of the sharded serving subsystem.
//!
//! The load-bearing property is **determinism**: for the same seeded
//! streams, serving must produce drift offsets and prequential metrics that
//! are (a) identical at every shard count and under any ingest
//! interleaving, and (b) identical to a sequential
//! [`PipelineBuilder`] run over the same instances — the serving layer adds
//! concurrency, never different results. Shard counts default to 1, 4 and
//! 8 and can be pinned from CI via `RBM_SERVE_SHARDS` (comma-separated).

use rbm_im_detectors::{DetectorState, DriftDetector, Observation};
use rbm_im_harness::pipeline::{PipelineBuilder, RunConfig, RunResult};
use rbm_im_harness::registry::{DetectorRegistry, DetectorSpec};
use rbm_im_serve::{
    IngestError, ServeConfig, ServeEventKind, ServerHandle, SnapshotSink, StreamClient,
};
use rbm_im_streams::generators::RandomRbfGenerator;
use rbm_im_streams::{DataStream, Instance, ReplayStream, StreamExt, StreamSchema};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// Shard counts exercised by the determinism tests: `RBM_SERVE_SHARDS`
/// (comma-separated) when set — CI runs the suite once with `1` and once
/// with `8` — otherwise 1, 4 and 8.
fn shard_counts() -> Vec<usize> {
    match std::env::var("RBM_SERVE_SHARDS") {
        Ok(raw) => {
            raw.split(',').filter_map(|s| s.trim().parse().ok()).filter(|&n| n >= 1).collect()
        }
        Err(_) => vec![1, 4, 8],
    }
}

/// A recorded drifting stream: RBF concept A, then a regenerated concept B
/// (sudden global drift at `drift_at`).
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

/// A small fleet of drifting feeds with mixed detector specs (trainable
/// RBM-IM variants and classic detectors).
fn fleet() -> Vec<Feed> {
    let specs = [
        "rbm(mini_batch=25, warmup=4, persistence=1)",
        "rbm-im(minibatch=25, hidden=8, warmup=4, persistence=1)",
        "adwin(delta=0.01)",
        "rbm(mini_batch=25, warmup=4, persistence=1, learning_rate=0.1)",
        "ddm",
        "adwin",
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

fn run_config(detector_batch: usize) -> RunConfig {
    RunConfig { metric_window: 500, detector_batch, ..Default::default() }
}

/// Sequential ground truth: `PipelineBuilder` over a replay of the recorded
/// instances, using the exact spec the server builds (after deterministic
/// seed injection).
fn sequential_baseline(server: &ServerHandle, feed: &Feed, run: RunConfig) -> RunResult {
    let spec = server.effective_spec(&feed.id, &feed.spec);
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

/// Ingest a micro-batch with bounded-queue backpressure handled by retry.
fn ingest_all(client: &StreamClient, mut batch: Vec<Instance>) {
    loop {
        match client.try_ingest_batch(batch) {
            Ok(()) => return,
            Err(IngestError::Full(rejected)) => {
                batch = rejected;
                std::thread::yield_now();
            }
            Err(IngestError::Closed(_)) => panic!("shard closed during ingest"),
        }
    }
}

/// The acceptance-criteria pin: identical drift offsets and prequential
/// metrics for the same seeded streams at every shard count, matching the
/// sequential pipeline — under round-robin interleaved ingest whose chunk
/// sizes differ per shard count (so the interleaving genuinely varies).
#[test]
fn serving_is_deterministic_across_shard_counts_and_matches_sequential() {
    let feeds = fleet();
    let run = run_config(50);
    let mut per_shard_results: Vec<(usize, HashMap<String, RunResult>)> = Vec::new();

    for (round, &num_shards) in shard_counts().iter().enumerate() {
        let server = ServerHandle::start(ServeConfig {
            num_shards,
            queue_capacity: 64,
            run,
            ..Default::default()
        });
        let events = server.subscribe();
        let clients: Vec<StreamClient> = feeds
            .iter()
            .map(|feed| server.attach(&feed.id, feed.schema.clone(), &feed.spec).unwrap())
            .collect();

        // Round-robin interleaved ingest; chunk size varies per round so
        // each shard count sees a different interleaving of the same
        // per-stream sequences.
        let chunk = [17usize, 31, 53][round % 3];
        let mut cursors = vec![0usize; feeds.len()];
        loop {
            let mut progressed = false;
            for (i, feed) in feeds.iter().enumerate() {
                let cursor = cursors[i];
                if cursor >= feed.instances.len() {
                    continue;
                }
                let end = (cursor + chunk).min(feed.instances.len());
                ingest_all(&clients[i], feed.instances[cursor..end].to_vec());
                cursors[i] = end;
                progressed = true;
            }
            if !progressed {
                break;
            }
        }

        server.drain();
        let report = server.shutdown();
        assert_eq!(report.streams.len(), feeds.len());
        assert_eq!(report.dropped_unknown, 0);

        // Bus drift events must agree with the per-stream summaries.
        let mut bus_drifts: HashMap<String, Vec<u64>> = HashMap::new();
        for event in events.try_iter() {
            if let ServeEventKind::Drift { position, .. } = event.kind {
                bus_drifts.entry(event.stream.to_string()).or_default().push(position);
            }
        }
        let mut results = HashMap::new();
        for summary in report.streams {
            let from_bus = bus_drifts.remove(&summary.stream).unwrap_or_default();
            assert_eq!(
                from_bus, summary.result.detections,
                "{num_shards} shards, {}: bus events vs summary",
                summary.stream
            );
            results.insert(summary.stream.clone(), summary.result);
        }
        per_shard_results.push((num_shards, results));
    }

    // Every shard count agrees with the sequential pipeline (and therefore
    // with every other shard count).
    let reference_server = ServerHandle::start(ServeConfig::default());
    for feed in &feeds {
        let sequential = sequential_baseline(&reference_server, feed, run);
        assert!(
            !sequential.detections.is_empty(),
            "{}: the injected drift must be detected so the pin is meaningful",
            feed.id
        );
        for (num_shards, results) in &per_shard_results {
            let served = &results[&feed.id];
            assert_results_match(
                &format!("{} @ {num_shards} shards", feed.id),
                served,
                &sequential,
            );
        }
    }
    reference_server.shutdown();
}

/// Satellite: drift-event *offsets* stay exact across micro-batch and shard
/// boundaries — a detector micro-batch (37) deliberately misaligned with
/// RBM-IM's internal mini-batch (25), fed in uneven client chunks, must
/// report the same global instance offsets as the sequential run.
#[test]
fn drift_offsets_exact_across_micro_batch_and_shard_boundaries() {
    let (schema, instances) = record_drifting_stream(7, 8, 4, 2_500, 4_500);
    let spec = DetectorSpec::parse("rbm(mini_batch=25, warmup=4, persistence=1)").unwrap();
    let run = run_config(37);

    for num_shards in [1usize, 3] {
        let server = ServerHandle::start(ServeConfig {
            num_shards,
            queue_capacity: 32,
            run,
            ..Default::default()
        });
        let events = server.subscribe();
        let client = server.attach("offsets", schema.clone(), &spec).unwrap();
        let sequential = sequential_baseline(
            &server,
            &Feed {
                id: "offsets".into(),
                schema: schema.clone(),
                instances: instances.clone(),
                spec: spec.clone(),
            },
            run,
        );

        // Uneven chunk sizes crossing both the 37-instance micro-batch and
        // the 25-instance RBM mini-batch boundaries.
        let pattern = [1usize, 7, 13, 29, 3, 41];
        let mut cursor = 0;
        let mut step = 0;
        while cursor < instances.len() {
            let end = (cursor + pattern[step % pattern.len()]).min(instances.len());
            ingest_all(&client, instances[cursor..end].to_vec());
            cursor = end;
            step += 1;
        }
        // Detach (not shutdown) so the trailing partial micro-batch flush
        // path is exercised through the detach flow too.
        server.drain();
        let result = server.detach("offsets").unwrap();
        assert_results_match(&format!("offsets @ {num_shards} shards"), &result, &sequential);
        assert!(!result.detections.is_empty(), "drift must be detected");

        let drift_positions: Vec<u64> = events
            .try_iter()
            .filter_map(|event| match event.kind {
                ServeEventKind::Drift { position, .. } => Some(position),
                _ => None,
            })
            .collect();
        assert_eq!(drift_positions, sequential.detections, "bus offsets @ {num_shards} shards");
        server.shutdown();
    }
}

/// A detector whose `update` blocks on a gate — used to hold a shard worker
/// mid-step so queue backpressure becomes deterministic.
struct GateDetector {
    gate: Arc<(Mutex<GateState>, Condvar)>,
}

#[derive(Default)]
struct GateState {
    open: bool,
    entered: bool,
}

impl DriftDetector for GateDetector {
    fn update(&mut self, _observation: &Observation<'_>) -> DetectorState {
        let (lock, condvar) = &*self.gate;
        let mut state = lock.lock().unwrap();
        state.entered = true;
        condvar.notify_all();
        while !state.open {
            state = condvar.wait(state).unwrap();
        }
        DetectorState::Stable
    }
    fn state(&self) -> DetectorState {
        DetectorState::Stable
    }
    fn reset(&mut self) {}
    fn name(&self) -> &'static str {
        "Gate"
    }
}

/// Backpressure is explicit: once the shard worker is held mid-step and the
/// bounded queue is full, `try_ingest` fails fast with `Full` and returns
/// the rejected instance; after the gate opens, everything queued is
/// processed.
#[test]
fn try_ingest_reports_backpressure_on_a_full_queue() {
    let gate = Arc::new((Mutex::new(GateState::default()), Condvar::new()));
    let mut registry = DetectorRegistry::with_defaults();
    {
        let gate = Arc::clone(&gate);
        registry.register("gate", &[], move |_, _, _| {
            Ok(Box::new(GateDetector { gate: Arc::clone(&gate) }))
        });
    }
    let capacity = 4;
    let server = ServerHandle::start_with_faults(
        ServeConfig {
            num_shards: 1,
            queue_capacity: capacity,
            run: run_config(1),
            ..Default::default()
        },
        Arc::new(registry),
        rbm_im_serve::chaos::env_plane().cloned(),
    );
    let schema = StreamSchema::new("gated", 2, 2);
    let client = server.attach("gated", schema, &DetectorSpec::new("gate")).unwrap();
    let instance = |i: u64| Instance::with_index(vec![0.0, 1.0], 0, i);

    // First instance: wait until the worker is provably holding it inside
    // the detector (so the queue is empty again and counts are exact).
    client.try_ingest(instance(0)).unwrap();
    {
        let (lock, condvar) = &*gate;
        let mut state = lock.lock().unwrap();
        while !state.entered {
            state = condvar.wait(state).unwrap();
        }
    }

    // Fill the queue exactly, then observe explicit backpressure.
    for i in 0..capacity as u64 {
        client.try_ingest(instance(1 + i)).unwrap();
    }
    let rejected = match client.try_ingest(instance(99)) {
        Err(IngestError::Full(rejected)) => rejected,
        other => panic!("expected Full, got {other:?}"),
    };
    assert_eq!(rejected.len(), 1, "the rejected instance rides back to the caller");
    assert_eq!(rejected[0].index, 99);

    // Open the gate; everything queued flows through.
    {
        let (lock, condvar) = &*gate;
        lock.lock().unwrap().open = true;
        condvar.notify_all();
    }
    server.drain();
    let report = server.shutdown();
    assert_eq!(report.streams.len(), 1);
    assert_eq!(report.streams[0].result.instances, 1 + capacity as u64);
}

/// Shard workspace pooling: successive RBM streams on a shard reuse the
/// scratch workspace a detached predecessor returned.
#[test]
fn rbm_workspaces_are_pooled_across_streams_on_a_shard() {
    let server = ServerHandle::start(ServeConfig {
        num_shards: 1,
        run: run_config(25),
        ..Default::default()
    });
    let spec = DetectorSpec::parse("rbm(mini_batch=25)").unwrap();
    let mut gen = RandomRbfGenerator::new(5, 3, 2, 0.0, 3);
    let schema = gen.schema().clone();

    let first = server.attach("pool-a", schema.clone(), &spec).unwrap();
    ingest_all(&first, gen.take_instances(200));
    server.drain();
    server.detach("pool-a").unwrap();

    let second = server.attach("pool-b", schema.clone(), &spec).unwrap();
    ingest_all(&second, gen.take_instances(200));
    server.drain();
    let report = server.shutdown();

    assert_eq!(report.workspace_reuse_misses, 1, "only the first attach allocates");
    if std::env::var("RBM_HIBERNATE").is_ok() {
        // Forced hibernation thrashes the pool (every message returns the
        // workspace and checks it out again), so only the lower bound and
        // the single-allocation invariant above are meaningful.
        assert!(report.workspace_reuse_hits >= 1, "pool-a's workspace is reused");
    } else {
        assert_eq!(report.workspace_reuse_hits, 1, "the second attach reuses pool-a's workspace");
    }
}

/// Attach/detach lifecycle errors and unknown-id ingest accounting.
#[test]
fn lifecycle_errors_and_unknown_ingest_are_surfaced() {
    let server = ServerHandle::start(ServeConfig { num_shards: 2, ..Default::default() });
    let schema = StreamSchema::new("s", 3, 2);
    let spec = DetectorSpec::new("adwin");

    server.attach("dup", schema.clone(), &spec).unwrap();
    let err = server.attach("dup", schema.clone(), &spec).unwrap_err();
    assert!(matches!(err, rbm_im_serve::ServeError::AlreadyAttached(_)), "{err}");

    let err = server.detach("ghost").unwrap_err();
    assert!(matches!(err, rbm_im_serve::ServeError::UnknownStream(_)), "{err}");

    let err = server.attach("bad-spec", schema.clone(), &DetectorSpec::new("nope")).unwrap_err();
    assert!(matches!(err, rbm_im_serve::ServeError::Registry(_)), "{err}");

    // Ingest for an unattached id is dropped and accounted, never lost
    // silently.
    server.try_ingest("ghost", Instance::new(vec![0.0, 0.0, 0.0], 0)).unwrap();
    server.drain();
    let report = server.shutdown();
    assert_eq!(report.dropped_unknown, 1);
    assert_eq!(report.streams.len(), 1, "only `dup` was still attached");
}

/// The bus carries the full lifecycle: attach notice, periodic metric
/// snapshots at the configured cadence, and the detach notice with the
/// final result.
#[test]
fn event_bus_publishes_lifecycle_and_snapshots() {
    let run = RunConfig {
        metric_window: 100,
        snapshot_every: Some(100),
        detector_batch: 25,
        ..Default::default()
    };
    let server = ServerHandle::start(ServeConfig { num_shards: 2, run, ..Default::default() });
    let events = server.subscribe();
    let mut gen = RandomRbfGenerator::new(4, 2, 1, 0.0, 9);
    let schema = gen.schema().clone();
    let spec = DetectorSpec::parse("rbm(mini_batch=25)").unwrap();
    let client = server.attach("lifecycle", schema, &spec).unwrap();
    ingest_all(&client, gen.take_instances(500));
    server.drain();
    let report = server.shutdown();
    assert_eq!(report.streams[0].result.instances, 500);

    let mut attached = 0;
    let mut snapshots = Vec::new();
    let mut detached = 0;
    for event in events.try_iter() {
        assert_eq!(&*event.stream, "lifecycle");
        assert_eq!(event.shard, server_shard(&event), "events carry the owning shard");
        match event.kind {
            ServeEventKind::Attached => attached += 1,
            ServeEventKind::Snapshot { position, .. } => snapshots.push(position),
            ServeEventKind::Detached { ref result } => {
                detached += 1;
                assert_eq!(result.instances, 500);
            }
            _ => {}
        }
    }
    assert_eq!(attached, 1);
    assert_eq!(detached, 1);
    assert_eq!(snapshots, vec![99, 199, 299, 399, 499], "snapshot every 100 instances");
}

/// Events always report the shard the router assigns to the id.
fn server_shard(event: &rbm_im_serve::ServeEvent) -> usize {
    rbm_im_serve::StreamRouter::new(2).shard_of(&event.stream)
}

/// Specs written before the row-parallel and fast-math kernel modes were
/// removed still serve: `parallel=`, `threads=` and `fastmath=` are
/// validated and then ignored, so each legacy spec is bitwise-identical —
/// drift offsets and every prequential metric — to the plain spec and to
/// the sequential pipeline.
#[test]
fn kernel_mode_specs_serve_bitwise_identical_results() {
    let (schema, instances) = record_drifting_stream(400, 8, 4, 2_500, 4_500);

    let serve_spec = |spec_text: &str| -> (RunResult, RunResult) {
        let spec = DetectorSpec::parse(spec_text).unwrap();
        let server = ServerHandle::start(ServeConfig {
            num_shards: 2,
            run: run_config(50),
            ..Default::default()
        });
        let feed = Feed {
            id: "mode".to_string(),
            schema: schema.clone(),
            instances: instances.clone(),
            spec: spec.clone(),
        };
        let sequential = sequential_baseline(&server, &feed, run_config(50));
        let client = server.attach("mode", schema.clone(), &spec).unwrap();
        for chunk in instances.chunks(37) {
            client.ingest_batch(chunk.to_vec()).unwrap();
        }
        server.drain();
        let report = server.shutdown();
        let summary =
            report.streams.iter().find(|s| s.stream == "mode").expect("stream summary present");
        (summary.result.clone(), sequential)
    };

    const BASE: &str = "mini_batch=25, warmup=4, persistence=1";
    let (plain, plain_seq) = serve_spec(&format!("rbm({BASE})"));
    assert_results_match("plain served vs sequential", &plain, &plain_seq);
    assert!(!plain.detections.is_empty(), "the injected drift must fire for the pin to bite");

    for knobs in ["parallel=off", "parallel=on, threads=2", "fastmath=on"] {
        let (legacy, legacy_seq) = serve_spec(&format!("rbm({BASE}, {knobs})"));
        assert_results_match(&format!("{knobs} served vs sequential"), &legacy, &legacy_seq);
        // The labels carry the spec text, so compare the outcome only.
        assert_same_outcome(&format!("{knobs} vs plain spec"), &legacy, &plain);
    }
}

/// A stream attached with the removed kernel knobs survives a mid-stream
/// checkpoint: spilled through a [`SnapshotSink`] and restored into a
/// fresh server, whose detector is rebuilt from the stored spec, it
/// finishes bitwise-equal to an uninterrupted run of the same spec.
#[test]
fn legacy_kernel_knob_stream_restores_bitwise_from_a_checkpoint() {
    let (schema, instances) = record_drifting_stream(401, 8, 4, 2_500, 4_500);
    let spec = DetectorSpec::parse(
        "rbm(mini_batch=25, warmup=4, persistence=1, parallel=on, threads=2, fastmath=on)",
    )
    .unwrap();
    let start = || {
        ServerHandle::start(ServeConfig {
            num_shards: 2,
            run: run_config(50),
            ..Default::default()
        })
    };
    let feed = |client: &StreamClient, part: &[Instance]| {
        for chunk in part.chunks(37) {
            ingest_all(client, chunk.to_vec());
        }
    };

    let server = start();
    feed(&server.attach("legacy", schema.clone(), &spec).unwrap(), &instances);
    server.drain();
    let uninterrupted = server.detach("legacy").unwrap();
    server.shutdown();

    // The cut falls inside a mini-batch, a detector batch and an ingest
    // chunk, before the drift.
    let cut = 2_013;
    let dir = std::env::temp_dir().join(format!("rbm-serve-legacy-knobs-{}", std::process::id()));
    let server = start();
    feed(&server.attach("legacy", schema.clone(), &spec).unwrap(), &instances[..cut]);
    server.drain();
    let checkpoint = server.checkpoint_stream("legacy").unwrap();
    SnapshotSink::new(&dir).unwrap().spill_checkpoint(&checkpoint).unwrap();
    server.shutdown();

    let restored = SnapshotSink::new(&dir).unwrap().load_checkpoint("legacy").unwrap();
    let restored = restored.expect("spilled checkpoint present");
    assert_eq!(restored, checkpoint, "disk round-trip must be lossless");
    let server = start();
    feed(&server.restore_stream(&restored).unwrap(), &instances[cut..]);
    server.drain();
    let resumed = server.detach("legacy").unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(!uninterrupted.detections.is_empty(), "the injected drift must fire after the cut");
    assert_results_match("restored vs uninterrupted", &resumed, &uninterrupted);
}
