//! `hibernate`: tier-transition microlatency of the hibernation plane.
//!
//! The tiered stream state plane (`ARCHITECTURE.md` §9) stands on two
//! transitions: **park** (a dirty `hibernate_stream` of a hot stream —
//! checkpoint capture + binary encode into the cold handle) and **wake**
//! (the first ingest of a cold stream — decode + rebuild + replay of the
//! parked state, then the instance itself). Both are measured end to end
//! through the server control/ingest API for a warmed-up heavyweight
//! RBM stream (5 000 instances, `metric_window` 1 000 — the ~47 KB
//! checkpoint of `BENCH_checkpoint.json`) and the lightweight ADWIN case.
//! The in-shard `rbm_serve_rehydrate_seconds` histogram (p50/p99) and the
//! resident bytes per parked cold stream are printed alongside;
//! `BENCH_hibernate.json` records the measured baseline.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rbm_im_harness::pipeline::RunConfig;
use rbm_im_harness::registry::DetectorSpec;
use rbm_im_obs::MetricId;
use rbm_im_serve::{ServeConfig, ServerHandle, StreamClient};
use rbm_im_streams::generators::RandomRbfGenerator;
use rbm_im_streams::{DataStream, Instance, StreamExt};

const WARM_INSTANCES: usize = 5_000;

/// A 1-shard server with one warmed stream, plus spare instances for the
/// per-iteration wake-ups.
fn warmed_server(spec: &DetectorSpec) -> (ServerHandle, StreamClient, Vec<Instance>) {
    let mut gen = RandomRbfGenerator::new(10, 4, 2, 0.0, 21);
    let schema = gen.schema().clone();
    let run = RunConfig { metric_window: 1_000, detector_batch: 50, ..Default::default() };
    let server = ServerHandle::start(ServeConfig {
        num_shards: 1,
        queue_capacity: 256,
        run,
        ..Default::default()
    });
    let client = server.attach("bench", schema, spec).unwrap();
    client.ingest_batch(gen.take_instances(WARM_INSTANCES)).unwrap();
    server.drain();
    let spares = gen.take_instances(4_096);
    (server, client, spares)
}

fn cold_resident_bytes(server: &ServerHandle) -> i64 {
    let id = MetricId::new("rbm_serve_cold_resident_bytes", &[]);
    server.metrics().snapshot().gauges.iter().find(|(i, _)| *i == id).map(|(_, v)| *v).unwrap_or(0)
}

fn bench_hibernate(c: &mut Criterion) {
    rbm_im_bench::print_runner_metadata();
    let mut group = c.benchmark_group("hibernate");
    group.sample_size(10);
    let specs =
        [("rbm-im", "rbm(mini_batch=50, warmup=4, seed=7)"), ("adwin", "adwin(delta=0.01)")];
    for (label, spec_text) in specs {
        let spec = DetectorSpec::parse(spec_text).unwrap();
        let (server, client, spares) = warmed_server(&spec);

        // Park: a dirty eviction of a hot stream (capture + binary encode
        // into the in-memory cold handle). The setup wakes the stream
        // back up with one instance so every iteration parks from hot.
        let mut next = 0usize;
        group.bench_with_input(BenchmarkId::new("park-dirty", label), &(), |b, _| {
            b.iter_batched(
                || {
                    client.ingest(spares[next % spares.len()].clone()).unwrap();
                    next += 1;
                    server.drain();
                },
                |_| server.hibernate_stream("bench", None).unwrap(),
                BatchSize::PerIteration,
            )
        });

        // Wake: first ingest of a cold stream — decode + rebuild + replay
        // of the parked pipeline state, then the instance itself.
        let mut next = 0usize;
        group.bench_with_input(BenchmarkId::new("wake-on-ingest", label), &(), |b, _| {
            b.iter_batched(
                || {
                    server.hibernate_stream("bench", None).unwrap();
                },
                |_| {
                    client.ingest(spares[next % spares.len()].clone()).unwrap();
                    next += 1;
                    server.drain();
                },
                BatchSize::PerIteration,
            )
        });

        // The shard's own rehydrate clock, without the control/queue hop
        // the wall-clock wake number includes.
        let rehydrates =
            server.metrics().snapshot().merged_histogram("rbm_serve_rehydrate_seconds");
        println!(
            "hibernate/{label}: in-shard rehydrate p50 {:.3}ms / p99 {:.3}ms over {} wakes",
            rehydrates.quantile(0.5) as f64 / 1e6,
            rehydrates.quantile(0.99) as f64 / 1e6,
            rehydrates.count(),
        );

        // Steady-state cost of a parked stream: encoded checkpoint bytes
        // resident per cold stream (disk-demoted streams drop to ~0 RAM).
        server.hibernate_stream("bench", None).unwrap();
        println!(
            "hibernate/{label}: {} B resident per in-memory cold stream",
            cold_resident_bytes(&server)
        );
        drop(server.shutdown());
    }
    group.finish();
}

criterion_group!(benches, bench_hibernate);
criterion_main!(benches);
