//! `table3_grid`: `run_grid` on two threads over the six Table III
//! detectors and four artificial benchmarks, each cell generating its
//! stream inline as `experiment1` does.

use crate::feed::{BlockClock, ClockSink};
use crate::outcome::{digest_all, reference_run, span, Outcome};
use crate::sched::Ledger;
use crate::stats::median;
use crate::trace::{SelfTimes, Tracer};
use crate::{calib, finish_latency, heap, pins, setup_repeatedly, Args, Report};
use rbm_im_harness::pipeline::{derive_seed, run_grid, GridStream, RunConfig};
use rbm_im_harness::registry::DetectorSpec;
use rbm_im_streams::registry::{benchmark_by_name, BenchmarkSpec, BuildConfig};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The six detectors of Table III, in the paper's column order.
const DETECTORS: [&str; 6] = ["WSTD", "RDDM", "FHDDM", "PerfSim", "DDM-OCI", "RBM-IM"];

/// A fixed subset of the artificial benchmarks: one per generator family,
/// each with 10 classes.
const BENCHMARKS: [&str; 4] = ["RBF10", "Aggrawal10", "Hyperplane10", "RandomTree10"];

/// Benchmarks are scaled to 1/250 of their published length (4 000
/// instances, 80 RBM-IM mini-batches).
const SCALE_DIVISOR: u64 = 250;

/// Worker threads of the grid.
const THREADS: usize = 2;

fn detectors() -> Vec<DetectorSpec> {
    DETECTORS.iter().map(|d| DetectorSpec::new(*d)).collect()
}

/// Each benchmark with the build configuration its cells use: the cell
/// seed is derived from the base seed and the benchmark name, exactly as
/// `GridStream::from_benchmark` derives it.
fn cells_build(seed: u64) -> Vec<(BenchmarkSpec, BuildConfig)> {
    BENCHMARKS
        .iter()
        .map(|name| {
            let spec = benchmark_by_name(name).expect("Table I benchmark");
            let build = BuildConfig {
                seed: derive_seed(seed, &spec.name),
                scale_divisor: SCALE_DIVISOR,
                ..BuildConfig::default()
            };
            (spec, build)
        })
        .collect()
}

/// Grid streams whose every opening is wrapped in a [`BlockClock`].
fn grid_streams(seed: u64, sink: &Arc<Mutex<ClockSink>>) -> Vec<GridStream> {
    cells_build(seed)
        .into_iter()
        .map(|(spec, build)| {
            let sink = Arc::clone(sink);
            GridStream::new(spec.name.clone(), move || {
                Box::new(BlockClock::new(spec.build(&build), Arc::clone(&sink)))
            })
        })
        .collect()
}

fn pool() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(THREADS).build().expect("pool")
}

/// One grid through the program, on [`THREADS`] threads.
fn program_grid(streams: &[GridStream]) -> Vec<Outcome> {
    let detectors = detectors();
    let results = pool()
        .install(|| run_grid(&detectors, streams, &RunConfig::default()))
        .expect("Table III detectors resolve");
    results.iter().map(Outcome::of).collect()
}

/// The grid's cells through the reference loop, in grid order, on
/// [`THREADS`] threads; with `traced`, every layer call is spanned.
fn reference_grid(seed: u64, traced: bool) -> (Vec<Outcome>, SelfTimes) {
    let cells: Vec<(BenchmarkSpec, BuildConfig, DetectorSpec)> = cells_build(seed)
        .into_iter()
        .flat_map(|(spec, build)| detectors().into_iter().map(move |d| (spec.clone(), build, d)))
        .collect();
    let chunk = cells.len().div_ceil(THREADS);
    let parts: Vec<(Vec<Outcome>, SelfTimes)> = std::thread::scope(|scope| {
        let handles: Vec<_> = cells
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut times = SelfTimes::default();
                    let mut tracer = Tracer::with_capacity(if traced { 200_000 } else { 0 });
                    let outcomes = part
                        .iter()
                        .map(|(spec, build, detector)| {
                            let mut stream = spec.build(build);
                            let config = RunConfig::default();
                            let t = traced.then_some(&mut tracer);
                            let outcome = reference_run(&mut *stream, detector, &config, t);
                            tracer.drain_into(&mut times);
                            outcome
                        })
                        .collect();
                    (outcomes, times)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("reference worker")).collect()
    });
    let mut outcomes = Vec::new();
    let mut times = SelfTimes::default();
    for (part, part_times) in parts {
        outcomes.extend(part);
        times.merge(&part_times);
    }
    (outcomes, times)
}

/// Digest of the workload's reference outcomes for `seed`, for pinning.
pub fn pin(seed: u64) -> u64 {
    digest_all(&reference_grid(seed, false).0)
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let sink = Arc::new(Mutex::new(ClockSink::default()));
    let (streams, setup_s) = setup_repeatedly(args.trace, || {
        let streams = grid_streams(args.seed, &sink);
        // Warm-up: one grid before the timed window.
        program_grid(&streams);
        streams
    });
    report.metric("setup_s", setup_s);

    let (reference, _) = reference_grid(args.seed, false);
    pins::check(&mut report, "table3_grid", args.seed, digest_all(&reference));

    let window = args.seconds;
    calib::prepare(THREADS);
    // The traced run compares untraced and traced grids, so neither pauses
    // to measure the host.
    *sink.lock().expect("clock sink") = ClockSink::for_window(window, !args.trace);
    let mut rates = Vec::with_capacity(4096);
    let mut scaled = Vec::with_capacity(4096);
    let mut efficiency = Vec::with_capacity(4096);
    let mut busy_s = 0.0;
    let mut blocks = Vec::with_capacity(sink.lock().expect("clock sink").blocks_ms.capacity());
    // The traced run interleaves a traced reference grid after every
    // program grid, so both see the same host conditions.
    let (mut traced_rates, mut times) = (Vec::with_capacity(4096), SelfTimes::default());
    let baseline = heap::reset_peak();
    let start = Instant::now();
    while rates.len() < 3 || start.elapsed().as_secs_f64() < window {
        let t = Instant::now();
        let outcomes = program_grid(&streams);
        let wall = t.elapsed().as_secs_f64();
        let instances: u64 = outcomes.iter().map(|o| o.instances).sum();
        rates.push(instances as f64 / wall);
        for (got, want) in outcomes.iter().zip(&reference) {
            report.check(got == want, "grid cell outcome equals the reference loop");
        }
        let mut clock = sink.lock().expect("clock sink");
        scaled.extend(calib::at_reference(instances as f64 / wall, &clock.host));
        clock.host.clear();
        let busy: f64 = clock.busy_s.iter().sum();
        busy_s += busy;
        efficiency.push(busy / (wall * THREADS as f64));
        blocks.append(&mut clock.blocks_ms);
        clock.busy_s.clear();
        drop(clock);
        if args.trace {
            let t = Instant::now();
            let (outcomes, grid_times) = reference_grid(args.seed, true);
            traced_rates.push(instances as f64 / t.elapsed().as_secs_f64());
            report.check(outcomes == reference, "traced grid equals the reference loop");
            times.merge(&grid_times);
        }
    }
    report.metric("state_mib", heap::mib_above(baseline));
    // Throughput: the median grid at the reference host speed (see
    // [`crate::calib`]); the traced run does not measure the host and
    // reports the median wall-clock grid.
    let throughput = if args.trace { median(&rates) } else { median(&scaled) };
    report.metric("throughput_ips", throughput);
    report.note(format!(
        "grids: {} of {} cells; wall-clock instances/s median {:.0}",
        rates.len(),
        reference.len(),
        median(&rates)
    ));
    let ledger = Ledger { latencies_ms: blocks, ..Ledger::default() };
    finish_latency(&mut report, &ledger, "50-instance block through a grid cell");
    report.metric("harness.grid_efficiency", median(&efficiency));

    if args.trace {
        let n = times.count(span::UPDATE) as f64;
        let us = |name: &str| times.ns(name) as f64 / 1e3 / n;
        let layers = [span::NEXT, span::PREDICT, span::RECORD, span::UPDATE, span::LEARN];
        let layers_us: f64 = layers.iter().map(|l| us(l)).sum();
        report.metric("streams.next_us", us(span::NEXT));
        report.metric("streams.busy_share", us(span::NEXT) / (layers_us + us(span::INSTANCE)));
        report.metric("classifiers.predict_us", us(span::PREDICT));
        report.metric("classifiers.learn_us", us(span::LEARN));
        report.metric("metrics.record_us", us(span::RECORD));
        report.metric("detectors.update_us", us(span::UPDATE));
        // Cell busy time per instance in the program's grids, less what
        // the layers take.
        let instances =
            rates.len() as f64 * reference.iter().map(|o| o.instances).sum::<u64>() as f64;
        report.metric("harness.glue_us", busy_s * 1e6 / instances - layers_us);
        report.metric("bench.trace_overhead", median(&traced_rates) / throughput);
    }
    report
}
