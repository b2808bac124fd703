//! Chaos suite of the deterministic fault-injection plane
//! (`ARCHITECTURE.md` §10): seed-driven kill-shard panics, cold
//! restarts, spill I/O faults and hibernate storms, injected from a
//! replayable [`ChaosPlan`] into a >1k-stream fleet.
//!
//! The load-bearing property is **zero-loss recovery**: after every
//! injected failure, every surviving stream's final result is
//! bitwise-identical to a clean sequential replay from its last durable
//! point, and the instance ledger balances exactly — what was accepted
//! is what was processed, with replays filling every hole a fault tore.

use rbm_im_harness::pipeline::{PipelineBuilder, RunConfig, RunResult};
use rbm_im_harness::registry::{DetectorRegistry, DetectorSpec};
use rbm_im_serve::{
    deterministic_spec, ChaosFault, ChaosPlan, ChaosSpillIo, CheckpointPolicy, FaultConfig,
    FaultPlane, FaultRate, FaultSite, IngestError, ResizeConfig, ServeConfig, ServerHandle,
    SnapshotSink, StreamClient, Supervisor, SupervisorConfig, TierPolicy,
};
use rbm_im_streams::generators::RandomRbfGenerator;
use rbm_im_streams::{DataStream, Instance, ReplayStream, StreamExt, StreamSchema};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A unique scratch directory for spills.
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rbm-chaos-{label}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

struct Feed {
    id: String,
    schema: StreamSchema,
    instances: Vec<Instance>,
    spec: DetectorSpec,
}

/// A soak-scale fleet: mostly cheap ADWIN streams with a trainable RBM
/// arm mixed in, each a short recorded RBF stream.
fn fleet(count: usize, total: usize) -> Vec<Feed> {
    let specs = [
        "adwin(delta=0.01)",
        "adwin(delta=0.002)",
        "adwin(delta=0.05)",
        "rbm(mini_batch=8, warmup=4, persistence=1)",
    ];
    (0..count)
        .map(|i| {
            let mut gen = RandomRbfGenerator::new(6, 3, 2, 0.0, 3_000 + i as u64);
            let schema = gen.schema().clone();
            let instances = gen.take_instances(total);
            Feed {
                id: format!("chaos-{i:04}"),
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

/// Sequential ground truth over the same instances, using the effective
/// (seed-injected) spec the server builds.
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
    assert_eq!(served.accuracy, sequential.accuracy, "{context}: accuracy");
    assert_eq!(served.kappa, sequential.kappa, "{context}: kappa");
}

/// Blocking batched ingest with backpressure retry.
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

/// Restores one stream from its last durable point and replays its tail
/// up to `accepted` instances: from the sink's freshest loadable
/// checkpoint when one exists, from position 0 (a fresh attach) when the
/// stream never durably spilled **or its spill is unreadable** — an
/// injected corrupt read or short write surfaces as a clean load error
/// and must degrade to a longer replay, never to wrong state.
fn recover_stream(
    server: &ServerHandle,
    sink: &SnapshotSink,
    feed: &Feed,
    run: RunConfig,
    accepted: usize,
) -> (StreamClient, usize) {
    // Unreadable spill: fall back to a full replay.
    let loaded = sink.load_checkpoint(&feed.id).unwrap_or_default();
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

/// Waits for a killed shard worker to finish dying, then revives it.
fn await_revive(server: &ServerHandle, shard: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match server.revive_shard(shard) {
            Ok(()) => return,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "shard {shard} did not die within the deadline: {e}"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

/// Whether a generated plan schedules every fault kind at least once.
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

/// The tentpole soak: 1024 streams, a seeded [`ChaosPlan`] injecting
/// kill-shard panics, full cold restarts, hibernate storms and spill
/// write/read faults over the whole ingest timeline, plus continuous
/// rate-based hibernate and spill-I/O noise. After every fault the
/// harness recovers from the last durable spill and replays the tail;
/// at the end **every** stream must detach bitwise-identical to a clean
/// sequential run, and the ledger must balance exactly.
#[test]
fn seeded_soak_zero_loss_across_kill_restart_spill_and_storm() {
    const NUM_STREAMS: usize = 1024;
    const TOTAL: usize = 48;
    const CHUNK: usize = 8;
    const BASE_SEED: u64 = 0xc4a0_5eed;

    let feeds = fleet(NUM_STREAMS, TOTAL);
    let run = run_config();
    let dir = scratch("soak");

    // Soak-safe fault posture: ENOSPC and corrupt-on-read are recoverable
    // (failed spill keeps the previous durable point; unreadable spill
    // degrades to a full replay). Short writes are deliberately *excluded*
    // here — a short write adopted as a clean cold handle is real loss by
    // construction; they get their own targeted detection test below.
    let config = FaultConfig {
        hibernate: FaultRate::every(0.01),
        spill_enospc: FaultRate::every(0.05),
        spill_corrupt_read: FaultRate::every(0.10),
        ..FaultConfig::quiet(BASE_SEED)
    };
    let plane = Arc::new(FaultPlane::new(config));
    let sink =
        SnapshotSink::new(&dir).unwrap().with_io(Arc::new(ChaosSpillIo::new(Arc::clone(&plane))));

    // A seeded, replayable schedule covering every fault kind. The first
    // seed at or above BASE_SEED with full coverage keeps the selection
    // itself deterministic.
    let timeline = (NUM_STREAMS * TOTAL) as u64;
    let plan = (BASE_SEED..)
        .map(|seed| ChaosPlan::generate(seed, timeline, 4, 12))
        .find(covers_all_kinds)
        .unwrap();
    assert_eq!(plan, ChaosPlan::from_json(&plan.to_json().unwrap()).unwrap(), "plan round-trips");

    let serve_config =
        ServeConfig { num_shards: 4, queue_capacity: 1024, run, ..Default::default() };
    let registry = Arc::new(DetectorRegistry::with_defaults());
    let mut server = ServerHandle::start_with_faults(
        serve_config,
        Arc::clone(&registry),
        Some(Arc::clone(&plane)),
    );

    let mut clients: Vec<StreamClient> = feeds
        .iter()
        .map(|feed| server.attach(&feed.id, feed.schema.clone(), &feed.spec).unwrap())
        .collect();

    // The ledger: per-stream accepted cursor (instances handed to the
    // server exactly once each) plus global fault accounting.
    let mut accepted = vec![0usize; NUM_STREAMS];
    let mut durable = vec![0usize; NUM_STREAMS]; // last successful spill position
    let mut cursor = 0u64; // total accepted across the fleet
    let mut replayed = 0u64;
    let mut kills = 0u64;
    let mut kills_since_restart = 0usize;
    let mut cold_restarts = 0u64;
    let mut storm_evictions = 0u64;
    let mut failed_spills = 0u64;
    let mut next_event = 0usize;
    let mut storm_cursor = 0usize;
    let mut spill_rotation = 0usize;

    while accepted.iter().any(|&a| a < TOTAL) {
        // Fire every scheduled fault whose timeline point has passed.
        while next_event < plan.events.len() && plan.events[next_event].at_instances <= cursor {
            let fault = plan.events[next_event].fault.clone();
            next_event += 1;
            match fault {
                ChaosFault::KillShard { shard } => {
                    // Drain first so the armed panic provably consumes the
                    // one trigger instance we send — nothing else queued.
                    server.drain();
                    let Some(victim) = (0..feeds.len())
                        .find(|&i| server.shard_of(&feeds[i].id) == shard && accepted[i] < TOTAL)
                    else {
                        continue;
                    };
                    plane.arm(FaultSite::ShardPanic, 1);
                    let instance = feeds[victim].instances[accepted[victim]].clone();
                    // The trigger is accepted into the queue and then lost
                    // in the panic; the replay below restores it.
                    ingest_all(&clients[victim], vec![instance]);
                    accepted[victim] += 1;
                    cursor += 1;
                    await_revive(&server, shard);
                    kills += 1;
                    kills_since_restart += 1;
                    // Every stream of the killed shard lost its in-memory
                    // state: restore from the last durable spill and
                    // replay the tail.
                    for (i, feed) in feeds.iter().enumerate() {
                        if server.shard_of(&feed.id) == shard && accepted[i] > 0 {
                            let (client, replay) =
                                recover_stream(&server, &sink, feed, run, accepted[i]);
                            clients[i] = client;
                            replayed += replay as u64;
                        }
                    }
                }
                ChaosFault::ColdRestart => {
                    // Kill-process-style restart: the handle is consumed,
                    // a fresh server starts, and every stream recovers
                    // from its latest durable point on disk.
                    server.drain();
                    let report = server.shutdown();
                    // Revive replaced each dead worker, but the report
                    // still records every panic this server lived through.
                    assert_eq!(report.panicked_shards, kills_since_restart);
                    kills_since_restart = 0;
                    server = ServerHandle::start_with_faults(
                        serve_config,
                        Arc::clone(&registry),
                        Some(Arc::clone(&plane)),
                    );
                    cold_restarts += 1;
                    for (i, feed) in feeds.iter().enumerate() {
                        if accepted[i] > 0 {
                            let (client, replay) =
                                recover_stream(&server, &sink, feed, run, accepted[i]);
                            clients[i] = client;
                            replayed += replay as u64;
                        } else {
                            clients[i] = server
                                .attach_with(&feed.id, feed.schema.clone(), &feed.spec, run)
                                .unwrap();
                        }
                    }
                }
                ChaosFault::HibernateStorm { streams } => {
                    server.drain();
                    for _ in 0..streams {
                        let id = &feeds[storm_cursor % NUM_STREAMS].id;
                        storm_cursor += 1;
                        server.hibernate_stream(id, None).unwrap();
                        storm_evictions += 1;
                    }
                }
                ChaosFault::SpillFaultBurst { count } => plane.arm(FaultSite::SpillEnospc, count),
                // No net front-end in this soak; the armed truncations
                // stay pending harmlessly (the wire suite consumes them).
                ChaosFault::NetFaultBurst { count } => plane.arm(FaultSite::NetTruncate, count),
            }
        }

        // One round of staggered ingest plus a rotating durable-spill
        // pass (every stream spills every 6th round, through the
        // fault-injected I/O seam — failures keep the old durable point).
        for (i, feed) in feeds.iter().enumerate() {
            if accepted[i] >= TOTAL {
                continue;
            }
            let upto = (accepted[i] + CHUNK).min(TOTAL);
            ingest_all(&clients[i], feed.instances[accepted[i]..upto].to_vec());
            cursor += (upto - accepted[i]) as u64;
            accepted[i] = upto;
            if i % 6 == spill_rotation % 6 {
                if let Ok(checkpoint) = server.checkpoint_stream(&feed.id) {
                    match sink.spill_checkpoint(&checkpoint) {
                        Ok(_) => {
                            durable[i] = checkpoint.checkpoint.processed().unwrap() as usize;
                        }
                        Err(_) => failed_spills += 1, // injected ENOSPC
                    }
                }
            }
        }
        spill_rotation += 1;
    }

    // Fault coverage: the seeded run must have injected all scheduled
    // kinds (kill-shard, cold restart, hibernate storm + rate-based
    // hibernate noise, spill write and read faults).
    assert!(kills >= 1, "the plan must kill at least one shard");
    assert!(cold_restarts >= 1, "the plan must cold-restart at least once");
    assert!(storm_evictions >= 16, "the plan must storm the hibernate path");
    assert_eq!(plane.injected(FaultSite::ShardPanic), kills, "every armed panic fired");
    assert!(plane.injected(FaultSite::Hibernate) >= 1, "rate-based hibernate noise fired");
    assert!(plane.injected(FaultSite::SpillEnospc) >= 1, "spill write faults fired");
    assert!(plane.injected(FaultSite::SpillCorruptRead) >= 1, "spill read faults fired");
    assert!(failed_spills >= 1, "injected ENOSPC must have failed at least one spill");
    assert_eq!(plane.injected(FaultSite::SpillShortWrite), 0, "short writes stay out of the soak");

    // The zero-loss contract: every stream detaches with its full feed
    // processed, bitwise-identical to a clean sequential run — whatever
    // was killed, restarted, stormed or corrupted along the way.
    server.drain();
    let mut total_processed = 0u64;
    for feed in &feeds {
        let result = server.detach(&feed.id).unwrap();
        total_processed += result.instances;
        let sequential = sequential_baseline(feed, run, serve_config.base_seed);
        assert_results_match(&format!("soak {}", feed.id), &result, &sequential);
    }

    // Exact accounting: accepted instances all reached a pipeline exactly
    // once (replays only ever filled holes faults tore, never doubled).
    let total_accepted: u64 = accepted.iter().map(|&a| a as u64).sum();
    assert_eq!(total_accepted, (NUM_STREAMS * TOTAL) as u64, "the ledger covers every instance");
    assert_eq!(total_processed, total_accepted, "processed == accepted, replays filled the holes");
    assert!(replayed >= 1, "recoveries must have replayed some tail");

    let report = server.shutdown();
    assert_eq!(report.panicked_shards, kills_since_restart, "kills on the final server");
    assert_eq!(report.streams.len(), 0, "everything was detached explicitly");

    eprintln!(
        "soak: {kills} kills, {cold_restarts} cold restarts, {storm_evictions} storm evictions, \
         {failed_spills} failed spills, {replayed} instances replayed, \
         {} total injections",
        plane.total_injected()
    );
    let _ = fs::remove_dir_all(dir);
}

/// Targeted kill-shard: the revive path alone, pinned tightly. A worker
/// panics mid-ingest via an armed burst; [`ServerHandle::revive_shard`]
/// refuses live shards and unknown slots, replaces the dead worker, and
/// the restored streams finish bitwise from their durable spills.
#[test]
fn kill_shard_revive_restores_streams_bitwise() {
    let feeds = fleet(8, 96);
    let run = run_config();
    let dir = scratch("kill");
    let head = 48usize;

    let plane = Arc::new(FaultPlane::new(FaultConfig::quiet(7)));
    let sink = SnapshotSink::new(&dir).unwrap();
    let server = ServerHandle::start_with_faults(
        ServeConfig { num_shards: 2, run, ..Default::default() },
        Arc::new(DetectorRegistry::with_defaults()),
        Some(Arc::clone(&plane)),
    );

    // Reviving a live shard or a bogus slot is a loud error, not a wipe.
    assert!(server.revive_shard(0).is_err(), "reviving a live shard must fail");
    assert!(server.revive_shard(99).is_err(), "reviving an unknown slot must fail");

    let clients: Vec<StreamClient> = feeds
        .iter()
        .map(|feed| server.attach(&feed.id, feed.schema.clone(), &feed.spec).unwrap())
        .collect();
    for (i, feed) in feeds.iter().enumerate() {
        ingest_all(&clients[i], feed.instances[..head].to_vec());
    }
    server.drain();
    for feed in &feeds {
        sink.spill_checkpoint(&server.checkpoint_stream(&feed.id).unwrap()).unwrap();
    }

    // Kill shard 0: arm one certain panic and trigger it with the next
    // instance of a stream routed there.
    let victim = feeds.iter().position(|f| server.shard_of(&f.id) == 0).unwrap();
    plane.arm(FaultSite::ShardPanic, 1);
    ingest_all(&clients[victim], vec![feeds[victim].instances[head].clone()]);
    await_revive(&server, 0);
    assert_eq!(plane.injected(FaultSite::ShardPanic), 1);

    // Streams on the dead shard restore from their spills and replay the
    // tail (the victim's lost trigger instance included); streams on the
    // surviving shard continue untouched.
    for (i, feed) in feeds.iter().enumerate() {
        if server.shard_of(&feed.id) == 0 {
            let checkpoint = sink.load_checkpoint(&feed.id).unwrap().unwrap();
            assert_eq!(checkpoint.checkpoint.processed().unwrap(), head as u64);
            let client = server.restore_stream(&checkpoint).unwrap();
            ingest_all(&client, feed.instances[head..].to_vec());
        } else {
            ingest_all(&clients[i], feed.instances[head..].to_vec());
        }
    }
    server.drain();

    let report = server.shutdown();
    assert_eq!(report.panicked_shards, 1, "the kill is visible in the final report");
    assert_eq!(report.streams.len(), feeds.len(), "no stream lost to the kill");
    for summary in &report.streams {
        let feed = feeds.iter().find(|f| f.id == summary.stream).unwrap();
        let sequential = sequential_baseline(feed, run, ServeConfig::default().base_seed);
        assert_results_match(&format!("kill-revive {}", feed.id), &summary.result, &sequential);
    }
    let _ = fs::remove_dir_all(dir);
}

/// Corrupt-on-read during a cold restart: the poisoned stream's spill
/// fails to load with a clean error, recovery degrades to a full replay
/// from position 0, and the other streams restore from their durable
/// points — all bitwise.
#[test]
fn cold_restart_with_corrupt_spill_falls_back_to_full_replay() {
    let feeds = fleet(3, 96);
    let run = run_config();
    let dir = scratch("corrupt");
    let head = 64usize;

    // Phase 1: a clean server spills every stream at `head`, then dies.
    {
        let server = ServerHandle::start(ServeConfig { num_shards: 2, run, ..Default::default() });
        let sink = SnapshotSink::new(&dir).unwrap();
        for feed in &feeds {
            let client = server.attach(&feed.id, feed.schema.clone(), &feed.spec).unwrap();
            ingest_all(&client, feed.instances[..head].to_vec());
        }
        server.drain();
        for feed in &feeds {
            sink.spill_checkpoint(&server.checkpoint_stream(&feed.id).unwrap()).unwrap();
        }
        let _ = server.shutdown(); // report discarded, crash-style
    }

    // Phase 2: restart reading through the fault-injected I/O seam with
    // one armed corrupt read — deterministically poisoning the first
    // spill the recovery touches.
    let plane = Arc::new(FaultPlane::new(FaultConfig::quiet(11)));
    let sink =
        SnapshotSink::new(&dir).unwrap().with_io(Arc::new(ChaosSpillIo::new(Arc::clone(&plane))));
    plane.arm(FaultSite::SpillCorruptRead, 1);

    let server = ServerHandle::start(ServeConfig { num_shards: 2, run, ..Default::default() });
    let mut full_replays = 0usize;
    for feed in &feeds {
        let (_client, replay) = recover_stream(&server, &sink, feed, run, feed.instances.len());
        if replay == feed.instances.len() {
            full_replays += 1;
        }
    }
    assert_eq!(plane.injected(FaultSite::SpillCorruptRead), 1);
    assert_eq!(full_replays, 1, "exactly the poisoned stream degraded to a full replay");

    server.drain();
    let report = server.shutdown();
    assert_eq!(report.streams.len(), feeds.len());
    for summary in &report.streams {
        let feed = feeds.iter().find(|f| f.id == summary.stream).unwrap();
        let sequential = sequential_baseline(feed, run, ServeConfig::default().base_seed);
        assert_results_match(&format!("corrupt restart {}", feed.id), &summary.result, &sequential);
    }
    let _ = fs::remove_dir_all(dir);
}

/// Short writes — success reported, tail silently missing — are the one
/// spill fault that *cannot* be survived silently: the contract is that
/// the truncation is **detected at load** as a clean error naming the
/// file, and recovery degrades to a full replay. (This is exactly why
/// the soak excludes short writes from its always-on posture.)
#[test]
fn short_write_is_detected_at_load_and_recovered_by_full_replay() {
    let feeds = fleet(1, 64);
    let feed = &feeds[0];
    let run = run_config();
    let dir = scratch("short-write");

    let plane = Arc::new(FaultPlane::new(FaultConfig::quiet(13)));
    let sink =
        SnapshotSink::new(&dir).unwrap().with_io(Arc::new(ChaosSpillIo::new(Arc::clone(&plane))));

    let server = ServerHandle::start(ServeConfig { num_shards: 1, run, ..Default::default() });
    let client = server.attach(&feed.id, feed.schema.clone(), &feed.spec).unwrap();
    ingest_all(&client, feed.instances[..48].to_vec());
    server.drain();

    // The short write *claims success* — the dangerous half of the fault.
    plane.arm(FaultSite::SpillShortWrite, 1);
    let checkpoint = server.checkpoint_stream(&feed.id).unwrap();
    sink.spill_checkpoint(&checkpoint).expect("a short write reports success");
    assert_eq!(plane.injected(FaultSite::SpillShortWrite), 1);

    // Detection: the truncated spill must fail to load with an error
    // naming the file — never decode into garbage state.
    let err = sink.load_checkpoint(&feed.id).expect_err("truncated spill must not load");
    assert!(err.to_string().contains("checkpoint."), "error should name the file: {err}");
    let _ = server.shutdown();

    // Recovery: no durable point survives, so the stream replays from 0
    // on a fresh server — and still finishes bitwise.
    let server = ServerHandle::start(ServeConfig { num_shards: 1, run, ..Default::default() });
    let (_client, replay) = recover_stream(&server, &sink, feed, run, feed.instances.len());
    assert_eq!(replay, feed.instances.len(), "recovery degraded to a full replay");
    server.drain();
    let result = server.detach(&feed.id).unwrap();
    assert_results_match(
        "short-write recovery",
        &result,
        &sequential_baseline(feed, run, ServeConfig::default().base_seed),
    );
    let _ = server.shutdown();
    let _ = fs::remove_dir_all(dir);
}

/// An injected ENOSPC mid-write leaves the atomic-write protocol's `.tmp`
/// debris behind (the rename never runs); reopening the sink sweeps it,
/// and the stream's previous durable spill stays authoritative.
#[test]
fn enospc_fault_leaves_tmp_debris_swept_on_reopen() {
    let feeds = fleet(1, 32);
    let feed = &feeds[0];
    let run = run_config();
    let dir = scratch("enospc");

    let plane = Arc::new(FaultPlane::new(FaultConfig::quiet(17)));
    let sink =
        SnapshotSink::new(&dir).unwrap().with_io(Arc::new(ChaosSpillIo::new(Arc::clone(&plane))));
    let server = ServerHandle::start(ServeConfig { num_shards: 1, run, ..Default::default() });
    let client = server.attach(&feed.id, feed.schema.clone(), &feed.spec).unwrap();

    // First spill lands cleanly at 16 and stays the durable point.
    ingest_all(&client, feed.instances[..16].to_vec());
    server.drain();
    sink.spill_checkpoint(&server.checkpoint_stream(&feed.id).unwrap()).unwrap();

    // Second spill at 32 hits the injected ENOSPC: error surfaced, `.tmp`
    // orphan left, durable point unchanged.
    ingest_all(&client, feed.instances[16..].to_vec());
    server.drain();
    plane.arm(FaultSite::SpillEnospc, 1);
    let err = sink
        .spill_checkpoint(&server.checkpoint_stream(&feed.id).unwrap())
        .expect_err("the armed ENOSPC must fail the spill");
    assert!(err.to_string().contains("chaos: injected ENOSPC"), "{err}");
    let orphans = fs::read_dir(&dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".tmp"))
        .count();
    assert_eq!(orphans, 1, "the failed write leaves its tmp file behind");

    // Reopening sweeps the debris; the old durable point still loads.
    let reopened = SnapshotSink::new(&dir).unwrap();
    let orphans = fs::read_dir(&dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".tmp"))
        .count();
    assert_eq!(orphans, 0, "the startup sweep removes the orphan");
    let checkpoint = reopened.load_checkpoint(&feed.id).unwrap().unwrap();
    assert_eq!(checkpoint.checkpoint.processed().unwrap(), 16, "durable point unchanged");

    let _ = server.shutdown();
    let _ = fs::remove_dir_all(dir);
}

/// A resize policy that demands a different fleet size on every tick.
struct TogglePolicy {
    big: bool,
}

impl rbm_im_serve::ResizePolicy for TogglePolicy {
    fn desired_shards(
        &mut self,
        _loads: &[rbm_im_serve::ShardLoad],
        current: usize,
    ) -> Option<usize> {
        self.big = !self.big;
        Some(if self.big { current + 1 } else { current.saturating_sub(1).max(1) })
    }
}

/// Supervisor tick ordering under chaos: zero-cooldown resizes race
/// urgent spills race `idle_after: ZERO` demotions for the same streams,
/// while the spill path randomly fails with injected ENOSPC and rate
/// hibernations thrash the shards from inside ingest. Pins: the only
/// supervisor errors are the injected ones, no stream double-detaches or
/// parks twice (every detach succeeds exactly once, bitwise), and the
/// sink directory holds no orphan files after the final sweep.
#[test]
fn supervisor_races_stay_bitwise_under_injected_faults() {
    if std::env::var("RBM_HIBERNATE").is_ok() {
        eprintln!("skipping: RBM_HIBERNATE forced mode pre-empts explicit tier transitions");
        return;
    }
    let feeds = fleet(6, 1_200);
    let run = run_config();
    let dir = scratch("super-race");

    let config = FaultConfig {
        hibernate: FaultRate::every(0.02),
        spill_enospc: FaultRate::every(0.10),
        ..FaultConfig::quiet(23)
    };
    let plane = Arc::new(FaultPlane::new(config));
    let server = Arc::new(ServerHandle::start_with_faults(
        ServeConfig { num_shards: 2, queue_capacity: 64, run, ..Default::default() },
        Arc::new(DetectorRegistry::with_defaults()),
        Some(Arc::clone(&plane)),
    ));
    let sink =
        SnapshotSink::new(&dir).unwrap().with_io(Arc::new(ChaosSpillIo::new(Arc::clone(&plane))));
    // How many spills and ingests happen depends on timing, so the rates
    // alone can draw no fault; one armed burst per site makes the
    // "noise must have fired" preconditions below certain.
    plane.arm(FaultSite::SpillEnospc, 1);
    plane.arm(FaultSite::Hibernate, 1);
    let supervisor = Supervisor::start(
        Arc::clone(&server),
        sink,
        SupervisorConfig {
            tick: Duration::from_millis(2),
            checkpoint: Some(CheckpointPolicy {
                every: Duration::from_millis(20),
                jitter: 0.5,
                on_drift: true,
            }),
            resize: Some(ResizeConfig {
                min_shards: 1,
                max_shards: 4,
                cooldown: Duration::ZERO,
                policy: Box::new(TogglePolicy { big: false }),
            }),
            tier: Some(TierPolicy {
                idle_after: Some(Duration::ZERO),
                max_hot_streams: None,
                max_demotions_per_tick: 1024,
            }),
        },
    );

    std::thread::scope(|scope| {
        for feed in &feeds {
            let client = server.attach(&feed.id, feed.schema.clone(), &feed.spec).unwrap();
            scope.spawn(move || {
                for chunk in feed.instances.chunks(37) {
                    ingest_all(&client, chunk.to_vec());
                }
            });
        }
    });
    server.drain();
    std::thread::sleep(Duration::from_millis(300));

    let report = supervisor.stop();
    assert!(report.resizes.len() >= 4, "the toggling policy must keep resizing: {report:?}");
    assert!(report.hibernations >= feeds.len() as u64, "evictions must keep firing");
    // The only acceptable supervisor errors are the injected spill
    // failures — anything else is a real ordering bug.
    for error in &report.errors {
        assert!(error.contains("chaos: injected"), "unexpected supervisor error: {error}");
    }
    assert!(plane.injected(FaultSite::SpillEnospc) >= 1, "ENOSPC noise must have fired");
    assert!(plane.injected(FaultSite::Hibernate) >= 1, "hibernate noise must have fired");

    // Exactly one successful detach per stream, each bitwise.
    for feed in &feeds {
        let result = server.detach(&feed.id).unwrap();
        let sequential = sequential_baseline(feed, run, ServeConfig::default().base_seed);
        assert_results_match(&format!("super race {}", feed.id), &result, &sequential);
        assert!(server.detach(&feed.id).is_err(), "{}: double detach must fail", feed.id);
    }
    let report = Arc::try_unwrap(server).expect("supervisor stopped").shutdown();
    assert_eq!(report.panicked_shards, 0);

    // No orphan spill artifacts: the startup sweep leaves only real
    // checkpoint files (the injected ENOSPC failures' debris included).
    let reopened = SnapshotSink::new(&dir).unwrap();
    for entry in fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name();
        assert!(!name.to_string_lossy().ends_with(".tmp"), "orphan tmp after sweep: {name:?}");
    }
    // Whatever spills survived the fault noise, they load cleanly.
    reopened.load_checkpoints().unwrap();
    let _ = fs::remove_dir_all(dir);
}
