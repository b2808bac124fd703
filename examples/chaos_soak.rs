//! Chaos soak harness: a >1k-stream fleet with staggered attach/detach
//! churn and hot-key skew, supervised, under a seeded, replayable
//! [`ChaosPlan`] — kill-shard panics, kill-process-style cold restarts,
//! hibernate storms, and spill-I/O faults (ENOSPC, corrupt-on-read)
//! injected throughout the ingest timeline.
//!
//! After every injected failure the harness recovers each affected stream
//! from its last durable spill and replays the tail; the zero-loss
//! contract is asserted continuously: every stream — whether it detaches
//! mid-run (churn) or at the end — must be bitwise-identical to a clean
//! sequential replay, and the instance ledger must balance exactly.
//! Recovery latency per fault kind and steady-state ingest latency are
//! recorded through the obs plane and written to `BENCH_chaos.json` with
//! the standard runner metadata.
//!
//! Tunables: `RBM_STREAMS=400 RBM_INSTANCES=96 cargo run -p rbm-im-serve
//! --release --example chaos_soak` (`RBM_SPILL_DIR` overrides the spill
//! location, `RBM_CHAOS_SOAK_SEED` the plan seed, `RBM_BENCH_OUT` the
//! output path — set it to empty to skip the file).

use rbm_im_harness::pipeline::{PipelineBuilder, RunConfig, RunResult};
use rbm_im_harness::registry::{DetectorRegistry, DetectorSpec};
use rbm_im_obs::MetricsRegistry;
use rbm_im_serve::{
    deterministic_spec, ChaosFault, ChaosPlan, ChaosSpillIo, CheckpointPolicy, FaultConfig,
    FaultPlane, FaultRate, FaultSite, IngestError, ServeConfig, ServerHandle, SnapshotSink,
    StreamClient, Supervisor, SupervisorConfig, TierPolicy,
};
use rbm_im_streams::generators::RandomRbfGenerator;
use rbm_im_streams::{DataStream, Instance, ReplayStream, StreamExt, StreamSchema};
use serde::{Serialize, Value};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

/// Fleet size (`RBM_STREAMS` overrides; the headline soak is 1200).
fn stream_count() -> usize {
    std::env::var("RBM_STREAMS").ok().and_then(|v| v.parse().ok()).unwrap_or(1_200)
}

/// Instances per stream (`RBM_INSTANCES` overrides).
fn instances_per_stream() -> usize {
    std::env::var("RBM_INSTANCES").ok().and_then(|v| v.parse().ok()).unwrap_or(160)
}

/// Streams attached per round until the whole fleet is live (staggered
/// attach churn: late cohorts arrive while early hot feeds already
/// finish and detach).
const ATTACH_WAVE: usize = 64;
/// Chunk handed to a stream on its ingest turn.
const CHUNK: usize = 16;
/// Hot-key skew: every `HOT_STRIDE`-th stream ingests every round; the
/// cold majority only every `COLD_PERIOD`-th round.
const HOT_STRIDE: usize = 16;
const COLD_PERIOD: usize = 4;

struct Feed {
    id: String,
    schema: StreamSchema,
    instances: Vec<Instance>,
    spec: DetectorSpec,
}

/// Mostly cheap ADWIN streams with a trainable RBM arm mixed in.
fn fleet(count: usize, total: usize) -> Vec<Feed> {
    let specs = [
        "adwin(delta=0.01)",
        "adwin(delta=0.002)",
        "adwin(delta=0.05)",
        "rbm(mini_batch=8, warmup=4, persistence=1)",
    ];
    (0..count)
        .map(|i| {
            let mut gen = RandomRbfGenerator::new(6, 3, 2, 0.0, 70_000 + i as u64);
            let schema = gen.schema().clone();
            let instances = gen.take_instances(total);
            Feed {
                id: format!("soak-{i:05}"),
                schema,
                instances,
                spec: DetectorSpec::parse(specs[i % specs.len()]).unwrap(),
            }
        })
        .collect()
}

fn run_config() -> RunConfig {
    RunConfig { metric_window: 100, detector_batch: 8, ..Default::default() }
}

fn sequential_baseline(feed: &Feed, run: RunConfig, base_seed: u64) -> RunResult {
    let spec = deterministic_spec(DetectorRegistry::global(), base_seed, &feed.id, &feed.spec);
    PipelineBuilder::new()
        .stream(ReplayStream::new(feed.schema.clone(), feed.instances.clone()))
        .stream_label(feed.id.clone())
        .detector_spec(spec)
        .config(run)
        .run()
        .unwrap()
}

fn assert_results_match(context: &str, served: &RunResult, sequential: &RunResult) {
    assert_eq!(served.detections, sequential.detections, "{context}: drift offsets");
    assert_eq!(served.instances, sequential.instances, "{context}: instance count");
    assert_eq!(served.pm_auc, sequential.pm_auc, "{context}: pmAUC");
    assert_eq!(served.pm_gmean, sequential.pm_gmean, "{context}: pmGM");
}

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

/// Restores one stream from its last durable spill (or from scratch when
/// none loads — an injected corrupt read degrades to a longer replay,
/// never to wrong state) and replays the tail up to `accepted`.
fn recover_stream(
    server: &ServerHandle,
    sink: &SnapshotSink,
    feed: &Feed,
    run: RunConfig,
    accepted: usize,
) -> (StreamClient, usize) {
    let loaded = sink.load_checkpoint(&feed.id).unwrap_or(None);
    match loaded {
        Some(checkpoint) => {
            let position = checkpoint.checkpoint.processed().unwrap() as usize;
            assert!(position <= accepted, "{}: durable point beyond the ledger", feed.id);
            let client = server.restore_stream(&checkpoint).unwrap();
            ingest_all(&client, feed.instances[position..accepted].to_vec());
            (client, accepted - position)
        }
        None => {
            let client =
                server.attach_with(&feed.id, feed.schema.clone(), &feed.spec, run).unwrap();
            ingest_all(&client, feed.instances[..accepted].to_vec());
            (client, accepted)
        }
    }
}

fn await_revive(server: &ServerHandle, shard: usize) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match server.revive_shard(shard) {
            Ok(()) => return,
            Err(e) => {
                assert!(Instant::now() < deadline, "shard {shard} did not die: {e}");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

fn covers_all_kinds(plan: &ChaosPlan) -> bool {
    let mut kinds = [false; 5];
    for event in &plan.events {
        let k = match event.fault {
            ChaosFault::KillShard { .. } => 0,
            ChaosFault::ColdRestart => 1,
            ChaosFault::HibernateStorm { .. } => 2,
            ChaosFault::SpillFaultBurst { .. } => 3,
            ChaosFault::NetFaultBurst { .. } => 4,
        };
        kinds[k] = true;
    }
    kinds.iter().all(|&k| k)
}

fn start_supervisor(
    server: &Arc<ServerHandle>,
    spill_dir: &PathBuf,
    plane: &Arc<FaultPlane>,
) -> rbm_im_serve::SupervisorHandle {
    Supervisor::start(
        Arc::clone(server),
        SnapshotSink::new(spill_dir)
            .expect("spill dir")
            .with_io(Arc::new(ChaosSpillIo::new(Arc::clone(plane)))),
        SupervisorConfig {
            tick: Duration::from_millis(5),
            checkpoint: Some(CheckpointPolicy {
                every: Duration::from_millis(50),
                jitter: 0.5,
                on_drift: true,
            }),
            // No resize policy: `shard_of` must stay stable across the
            // kill-shard victim selection and per-shard recovery below.
            resize: None,
            tier: Some(TierPolicy {
                idle_after: Some(Duration::from_millis(50)),
                max_hot_streams: None,
                max_demotions_per_tick: 256,
            }),
        },
    )
}

/// Supervisor errors tolerated under chaos: the injected ones, plus the
/// window where a tick raced a killed (not yet revived) shard worker.
fn assert_only_chaos_errors(errors: &[String]) {
    for error in errors {
        assert!(
            error.contains("chaos: injected") || error.contains("unavailable"),
            "unexpected supervisor error: {error}"
        );
    }
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days, Hinnant's
/// algorithm) for the `recorded` field of the bench JSON.
fn today_utc() -> String {
    let secs =
        SystemTime::now().duration_since(SystemTime::UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
    let z = secs as i64 / 86_400 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let year = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { year + 1 } else { year };
    format!("{year:04}-{month:02}-{day:02}")
}

fn main() {
    // Ingest latency recording is obs-gated; the harness needs it for the
    // p99 it writes out (timing never influences results).
    rbm_im_obs::force_enabled(true);
    let start = Instant::now();
    let num_streams = stream_count();
    let total = instances_per_stream();
    let base_seed: u64 = std::env::var("RBM_CHAOS_SOAK_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xc4a0_5eed);
    let spill_dir = std::env::var("RBM_SPILL_DIR").map(PathBuf::from).unwrap_or_else(|_| {
        std::env::temp_dir().join(format!("rbm-chaos-soak-{}", std::process::id()))
    });
    let _ = std::fs::remove_dir_all(&spill_dir);

    println!("chaos soak: {num_streams} streams x {total} instances, seed {base_seed:#x}");
    println!("runner: {}", serde_json::to_string(&rbm_im_bench::runner_metadata()).unwrap());

    let feeds = fleet(num_streams, total);
    let run = run_config();
    // Soak-safe fault posture (short writes excluded: a short write
    // adopted as durable is loss by construction — the chaos test suite
    // pins their detection instead).
    let plane = Arc::new(FaultPlane::new(FaultConfig {
        hibernate: FaultRate::every(0.01),
        spill_enospc: FaultRate::every(0.05),
        spill_corrupt_read: FaultRate::every(0.05),
        ..FaultConfig::quiet(base_seed)
    }));
    // Chaos telemetry lives in its own registry so it survives cold
    // restarts (a restart replaces the server and its metrics).
    let chaos_metrics = MetricsRegistry::new();
    plane.bind_metrics(&chaos_metrics);
    let sink = SnapshotSink::new(&spill_dir)
        .expect("spill dir")
        .with_io(Arc::new(ChaosSpillIo::new(Arc::clone(&plane))));

    let timeline = (num_streams * total) as u64;
    let plan = (base_seed..)
        .map(|seed| ChaosPlan::generate(seed, timeline, 4, 12))
        .find(covers_all_kinds)
        .expect("a covering plan");
    assert_eq!(
        plan,
        ChaosPlan::from_json(&plan.to_json().unwrap()).unwrap(),
        "the schedule is replayable"
    );
    println!("plan: seed {:#x}, {} events", plan.seed, plan.events.len());

    let serve_config =
        ServeConfig { num_shards: 4, queue_capacity: 2_048, run, ..Default::default() };
    let registry = Arc::new(DetectorRegistry::with_defaults());
    let mut server = Arc::new(ServerHandle::start_with_faults(
        serve_config,
        Arc::clone(&registry),
        Some(Arc::clone(&plane)),
    ));
    let mut supervisor: Option<rbm_im_serve::SupervisorHandle> =
        Some(start_supervisor(&server, &spill_dir, &plane));

    // The ledger. `clients[i]` is Some while stream i is live.
    let mut clients: Vec<Option<StreamClient>> = (0..num_streams).map(|_| None).collect();
    let mut accepted = vec![0usize; num_streams];
    let mut done = vec![false; num_streams];
    let mut attached_upto = 0usize; // staggered attach high-water mark
    let mut cursor = 0u64;
    let mut total_processed = 0u64;
    let mut bitwise_matches = 0usize;
    let mut replayed = 0u64;
    let mut kills = 0u64;
    let mut kills_since_restart = 0usize;
    let mut cold_restarts = 0u64;
    let mut storm_evictions = 0u64;
    let mut failed_spills = 0u64;
    let mut mid_run_detaches = 0usize;
    let mut supervisor_hibernations = 0u64;
    let mut next_event = 0usize;
    let mut storm_cursor = 0usize;
    let mut spill_rotation = 0usize;
    let mut round = 0usize;

    while done.iter().any(|&d| !d) {
        // Staggered attach: a fresh cohort joins every round.
        let wave_end = (attached_upto + ATTACH_WAVE).min(num_streams);
        for i in attached_upto..wave_end {
            let feed = &feeds[i];
            clients[i] = Some(server.attach(&feed.id, feed.schema.clone(), &feed.spec).unwrap());
        }
        attached_upto = wave_end;

        // Fire every scheduled fault whose timeline point has passed.
        while next_event < plan.events.len() && plan.events[next_event].at_instances <= cursor {
            let fault = plan.events[next_event].fault.clone();
            next_event += 1;
            match fault {
                ChaosFault::KillShard { shard } => {
                    server.drain();
                    let Some(victim) = (0..attached_upto).find(|&i| {
                        !done[i] && accepted[i] < total && server.shard_of(&feeds[i].id) == shard
                    }) else {
                        continue;
                    };
                    plane.arm(FaultSite::ShardPanic, 1);
                    let instance = feeds[victim].instances[accepted[victim]].clone();
                    // Accepted into the queue, lost in the panic, restored
                    // by the replay below.
                    ingest_all(clients[victim].as_ref().unwrap(), vec![instance]);
                    accepted[victim] += 1;
                    cursor += 1;
                    let recovery_started = Instant::now();
                    await_revive(&server, shard);
                    kills += 1;
                    kills_since_restart += 1;
                    for i in 0..attached_upto {
                        let feed = &feeds[i];
                        if done[i] || server.shard_of(&feed.id) != shard {
                            continue;
                        }
                        if accepted[i] > 0 {
                            let (client, replay) =
                                recover_stream(&server, &sink, feed, run, accepted[i]);
                            clients[i] = Some(client);
                            replayed += replay as u64;
                        } else {
                            // Attached but never ingested: nothing to
                            // replay, just re-attach on the fresh worker.
                            clients[i] = Some(
                                server
                                    .attach_with(&feed.id, feed.schema.clone(), &feed.spec, run)
                                    .unwrap(),
                            );
                        }
                    }
                    let elapsed_ns = recovery_started.elapsed().as_nanos() as u64;
                    chaos_metrics
                        .histogram("rbm_chaos_recovery_seconds", &[("fault", "kill_shard")])
                        .record(elapsed_ns);
                    println!(
                        "  [{cursor:>8}] kill shard {shard}: revived + recovered in {:.1} ms",
                        elapsed_ns as f64 / 1e6
                    );
                }
                ChaosFault::ColdRestart => {
                    server.drain();
                    let recovery_started = Instant::now();
                    let report = supervisor.take().expect("supervisor live").stop();
                    assert_only_chaos_errors(&report.errors);
                    supervisor_hibernations += report.hibernations;
                    let report = Arc::try_unwrap(server).expect("supervisor stopped").shutdown();
                    assert_eq!(report.panicked_shards, kills_since_restart, "kill accounting");
                    kills_since_restart = 0;
                    server = Arc::new(ServerHandle::start_with_faults(
                        serve_config,
                        Arc::clone(&registry),
                        Some(Arc::clone(&plane)),
                    ));
                    supervisor = Some(start_supervisor(&server, &spill_dir, &plane));
                    cold_restarts += 1;
                    let mut restored = 0usize;
                    for i in 0..attached_upto {
                        if done[i] {
                            continue;
                        }
                        let feed = &feeds[i];
                        if accepted[i] > 0 {
                            let (client, replay) =
                                recover_stream(&server, &sink, feed, run, accepted[i]);
                            clients[i] = Some(client);
                            replayed += replay as u64;
                        } else {
                            clients[i] = Some(
                                server
                                    .attach_with(&feed.id, feed.schema.clone(), &feed.spec, run)
                                    .unwrap(),
                            );
                        }
                        restored += 1;
                    }
                    let elapsed_ns = recovery_started.elapsed().as_nanos() as u64;
                    chaos_metrics
                        .histogram("rbm_chaos_recovery_seconds", &[("fault", "cold_restart")])
                        .record(elapsed_ns);
                    println!(
                        "  [{cursor:>8}] cold restart: {restored} streams recovered in {:.1} ms",
                        elapsed_ns as f64 / 1e6
                    );
                }
                ChaosFault::HibernateStorm { streams } => {
                    server.drain();
                    let live: Vec<usize> = (0..attached_upto).filter(|&i| !done[i]).collect();
                    if live.is_empty() {
                        continue;
                    }
                    for _ in 0..streams {
                        let i = live[storm_cursor % live.len()];
                        storm_cursor += 1;
                        server.hibernate_stream(&feeds[i].id, None).unwrap();
                        storm_evictions += 1;
                    }
                    println!("  [{cursor:>8}] hibernate storm: {streams} forced evictions");
                }
                ChaosFault::SpillFaultBurst { count } => plane.arm(FaultSite::SpillEnospc, count),
                // No net front-end in this soak; armed truncations stay
                // pending harmlessly.
                ChaosFault::NetFaultBurst { count } => plane.arm(FaultSite::NetTruncate, count),
            }
        }

        // One skewed ingest round: hot keys every round, the cold
        // majority staggered across COLD_PERIOD rounds, plus a rotating
        // manual durable-spill pass through the fault-injected sink.
        for i in 0..attached_upto {
            if done[i] || accepted[i] >= total {
                continue;
            }
            let hot = i.is_multiple_of(HOT_STRIDE);
            if !hot && !(round + i).is_multiple_of(COLD_PERIOD) {
                continue;
            }
            let feed = &feeds[i];
            let upto = (accepted[i] + CHUNK).min(total);
            ingest_all(clients[i].as_ref().unwrap(), feed.instances[accepted[i]..upto].to_vec());
            cursor += (upto - accepted[i]) as u64;
            accepted[i] = upto;
            if i % 8 == spill_rotation % 8 {
                if let Ok(checkpoint) = server.checkpoint_stream(&feed.id) {
                    if sink.spill_checkpoint(&checkpoint).is_err() {
                        failed_spills += 1; // injected ENOSPC
                    }
                }
            }
        }
        spill_rotation += 1;

        // Detach churn: completed streams leave mid-run, each verified
        // bitwise against a clean sequential replay on the way out.
        if (0..attached_upto).any(|i| !done[i] && accepted[i] >= total) {
            server.drain();
            for i in 0..attached_upto {
                if done[i] || accepted[i] < total {
                    continue;
                }
                let feed = &feeds[i];
                let result = server.detach(&feed.id).unwrap();
                total_processed += result.instances;
                let sequential = sequential_baseline(feed, run, serve_config.base_seed);
                assert_results_match(&format!("churn {}", feed.id), &result, &sequential);
                bitwise_matches += 1;
                clients[i] = None;
                done[i] = true;
                if attached_upto < num_streams {
                    mid_run_detaches += 1; // left while others still attach
                }
            }
        }
        round += 1;
        if round.is_multiple_of(16) {
            println!(
                "  round {round}: {cursor}/{timeline} accepted, {} detached, \
                 {} injections so far",
                done.iter().filter(|&&d| d).count(),
                plane.total_injected()
            );
        }
    }

    // Fault coverage: the seeded run injected every scheduled kind.
    assert!(kills >= 1, "the plan must kill at least one shard");
    assert!(cold_restarts >= 1, "the plan must cold-restart at least once");
    assert!(storm_evictions >= 16, "the plan must storm the hibernate path");
    assert_eq!(plane.injected(FaultSite::ShardPanic), kills, "every armed panic fired");
    assert!(plane.injected(FaultSite::Hibernate) >= 1, "rate-based hibernate noise fired");
    assert!(plane.injected(FaultSite::SpillEnospc) >= 1, "spill write faults fired");
    assert!(plane.injected(FaultSite::SpillCorruptRead) >= 1, "spill read faults fired");
    assert_eq!(plane.injected(FaultSite::SpillShortWrite), 0, "short writes stay excluded");
    // Detach churn only overlaps the attach ramp when there are more
    // waves than a hot feed needs rounds to finish (holds at the
    // headline 1200x160 scale; reduced smoke runs legitimately skip it).
    if num_streams.div_ceil(ATTACH_WAVE) > total.div_ceil(CHUNK) {
        assert!(mid_run_detaches >= 1, "hot feeds must finish while cohorts still attach");
    }

    // Exact accounting: every accepted instance reached a pipeline
    // exactly once — replays only ever filled the holes faults tore.
    let total_accepted: u64 = accepted.iter().map(|&a| a as u64).sum();
    assert_eq!(total_accepted, timeline, "the ledger covers every instance");
    assert_eq!(total_processed, total_accepted, "processed == accepted");
    assert_eq!(bitwise_matches, num_streams, "every stream verified bitwise");

    // Ingest latency from the obs plane (the final server incarnation —
    // a cold restart replaces the registry with the server).
    let snapshot = server.metrics().snapshot();
    let ingest = snapshot.merged_histogram("rbm_serve_ingest_latency_seconds");
    let chaos_snapshot = chaos_metrics.snapshot();
    let kill_recovery = chaos_snapshot.merged_histogram("rbm_chaos_recovery_seconds");

    let report = supervisor.take().expect("supervisor live").stop();
    assert_only_chaos_errors(&report.errors);
    supervisor_hibernations += report.hibernations;
    let report = Arc::try_unwrap(server).expect("supervisor stopped").shutdown();
    assert_eq!(report.panicked_shards, kills_since_restart, "kill accounting on the final server");
    assert_eq!(report.streams.len(), 0, "every stream already detached through the churn");

    let wall = start.elapsed();
    println!(
        "done: {kills} kills, {cold_restarts} cold restarts, {storm_evictions} storm evictions \
         (+{supervisor_hibernations} supervisor), {failed_spills} failed spills, \
         {replayed} instances replayed, {} total injections, \
         {bitwise_matches}/{num_streams} bitwise, wall {wall:?}",
        plane.total_injected()
    );

    let out = std::env::var("RBM_BENCH_OUT").unwrap_or_else(|_| "BENCH_chaos.json".to_string());
    if out.is_empty() {
        let _ = std::fs::remove_dir_all(&spill_dir);
        return;
    }
    let injections = Value::object(
        FaultSite::ALL
            .iter()
            .map(|site| (site.name(), plane.injected(*site).serialize_value()))
            .collect(),
    );
    let bench = Value::object(vec![
        ("bench", "chaos_soak".serialize_value()),
        ("recorded", today_utc().serialize_value()),
        ("command", "cargo run -p rbm-im-serve --release --example chaos_soak".serialize_value()),
        ("runner", rbm_im_bench::runner_metadata()),
        (
            "workload",
            format!(
                "{num_streams} streams x {total} instances (mixed adwin/rbm fleet, 4 shards, \
                 supervisor with 5ms tick + periodic checkpoints + idle-tiering), staggered \
                 attach waves of {ATTACH_WAVE} with detach-on-complete churn, hot-key skew \
                 1:{HOT_STRIDE} ingesting every round vs every {COLD_PERIOD}th; seeded ChaosPlan \
                 (seed {:#x}, {} events) injecting kill-shard panics, cold restarts, hibernate \
                 storms and spill-fault bursts over rate noise (hibernate 1%, ENOSPC 5%, \
                 corrupt-read 5%); recovery = restore from last durable spill + tail replay",
                plan.seed,
                plan.events.len()
            )
            .serialize_value(),
        ),
        (
            "note",
            format!(
                "Zero-loss contract held: {bitwise_matches}/{num_streams} streams detached \
                 bitwise-identical to clean sequential replays, ledger exact \
                 ({total_processed} processed == {total_accepted} accepted), {replayed} \
                 instances replayed across recoveries. Ingest p99 is the final server \
                 incarnation's (restarts replace the metrics registry); recovery times span \
                 revive/restart through full tail replay of every affected stream."
            )
            .serialize_value(),
        ),
        (
            "results",
            Value::object(vec![
                ("streams", num_streams.serialize_value()),
                ("instances_per_stream", total.serialize_value()),
                ("total_instances", timeline.serialize_value()),
                ("kills", kills.serialize_value()),
                ("cold_restarts", cold_restarts.serialize_value()),
                ("storm_evictions", storm_evictions.serialize_value()),
                ("supervisor_hibernations", supervisor_hibernations.serialize_value()),
                ("failed_spills", failed_spills.serialize_value()),
                ("replayed_instances", replayed.serialize_value()),
                ("mid_run_detaches", mid_run_detaches.serialize_value()),
                ("bitwise_matches", format!("{bitwise_matches}/{num_streams}").serialize_value()),
                ("injections", injections),
                (
                    "recovery_ms",
                    Value::object(vec![
                        ("count", kill_recovery.count().serialize_value()),
                        ("p50", (kill_recovery.quantile(0.5) as f64 / 1e6).serialize_value()),
                        ("p99", (kill_recovery.quantile(0.99) as f64 / 1e6).serialize_value()),
                    ]),
                ),
                (
                    "ingest_latency_us",
                    Value::object(vec![
                        ("count", ingest.count().serialize_value()),
                        ("p50", (ingest.quantile(0.5) as f64 / 1e3).serialize_value()),
                        ("p99", (ingest.quantile(0.99) as f64 / 1e3).serialize_value()),
                    ]),
                ),
                ("wall_seconds", wall.as_secs_f64().serialize_value()),
            ]),
        ),
    ]);
    let json = serde_json::to_string_pretty(&bench).expect("bench json");
    std::fs::write(&out, json + "\n").expect("write bench json");
    println!("wrote {out}");
    let _ = std::fs::remove_dir_all(&spill_dir);
}
