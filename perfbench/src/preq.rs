//! `preq_rbm`: the paper's test-then-train loop with RBM-IM, single
//! threaded, over one pre-generated stream of the Table I RBF10 shape.

use crate::feed::{BlockClock, ClockSink, BLOCK};
use crate::outcome::{reference_run, span, Outcome};
use crate::sched::Ledger;
use crate::stats::median;
use crate::trace::{SelfTimes, Tracer};
use crate::{calib, finish_latency, heap, pins, setup_repeatedly, Args, Report};
use rbm_im::{RbmImConfig, RbmNetwork, TrendTracker, Workspace};
use rbm_im_harness::pipeline::{PipelineBuilder, RunConfig};
use rbm_im_harness::registry::DetectorSpec;
use rbm_im_streams::registry::{benchmark_by_name, BuildConfig};
use rbm_im_streams::source::ReplayStream;
use rbm_im_streams::{Instance, StreamSchema};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Stream length: the RBF10 benchmark scaled down by 50 (three sudden
/// drifts, dynamic imbalance up to IR 200), 400 RBM-IM mini-batches.
const SCALE_DIVISOR: u64 = 50;

/// The run configuration of the paper's loop: per-instance detection.
fn run_config() -> RunConfig {
    RunConfig { detector_batch: 1, ..RunConfig::default() }
}

fn spec() -> DetectorSpec {
    DetectorSpec::new("rbm-im")
}

/// Generates the workload's stream for `seed`.
pub fn inputs(seed: u64) -> (StreamSchema, Arc<[Instance]>) {
    let build = BuildConfig { seed, scale_divisor: SCALE_DIVISOR, ..BuildConfig::default() };
    let mut stream =
        benchmark_by_name("RBF10").expect("RBF10 is a Table I benchmark").build(&build);
    let schema = stream.schema().clone();
    let n = (1_000_000 / SCALE_DIVISOR) as usize;
    (schema, crate::feed::record(&mut *stream, n).into())
}

/// One pass of the program's own loop over the stream.
fn program_pass(
    schema: &StreamSchema,
    instances: &Arc<[Instance]>,
    clock: &Arc<Mutex<ClockSink>>,
) -> Outcome {
    let stream = ReplayStream::shared(schema.clone(), Arc::clone(instances));
    let result = PipelineBuilder::new()
        .boxed_stream(Box::new(BlockClock::new(Box::new(stream), Arc::clone(clock))))
        .detector_spec(spec())
        .config(run_config())
        .run()
        .expect("rbm-im resolves");
    Outcome::of(&result)
}

/// Digest of the workload's outcome for `seed`, for pinning.
pub fn pin(seed: u64) -> u64 {
    let (schema, instances) = inputs(seed);
    reference_run(&mut ReplayStream::shared(schema, instances), &spec(), &run_config(), None)
        .digest()
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let ((schema, instances), setup_s) = setup_repeatedly(args.trace, || {
        let inputs = inputs(args.seed);
        // Warm-up: one pass of the loop before the timed window.
        program_pass(&inputs.0, &inputs.1, &Arc::new(Mutex::new(ClockSink::default())));
        inputs
    });
    report.metric("setup_s", setup_s);

    // Reference outcome, checked against the pin when the seed has one.
    let reference = reference_run(
        &mut ReplayStream::shared(schema.clone(), Arc::clone(&instances)),
        &spec(),
        &run_config(),
        None,
    );
    pins::check(&mut report, "preq_rbm", args.seed, reference.digest());

    if args.trace {
        traced(args, &mut report, &schema, &instances, &reference);
        return report;
    }

    calib::prepare(1);
    let clock = Arc::new(Mutex::new(ClockSink::for_window(args.seconds, true)));
    let mut rates = Vec::with_capacity(4096);
    let mut scaled = Vec::with_capacity(4096);
    let baseline = heap::reset_peak();
    let start = Instant::now();
    while rates.len() < 3 || start.elapsed().as_secs_f64() < args.seconds {
        let measured = clock.lock().expect("clock sink").host.len();
        let t = Instant::now();
        let outcome = program_pass(&schema, &instances, &clock);
        let rate = outcome.instances as f64 / t.elapsed().as_secs_f64();
        rates.push(rate);
        scaled
            .extend(calib::at_reference(rate, &clock.lock().expect("clock sink").host[measured..]));
        report.check(outcome == reference, "program loop outcome equals the reference");
    }
    report.metric("state_mib", heap::mib_above(baseline));
    // Throughput: the median pass at the reference host speed.
    let throughput = median(&scaled);
    report.metric("throughput_ips", throughput);
    report.note(format!(
        "passes: {} of {} instances; wall-clock instances/s median {:.0}; host speed median {:.0} rounds/s",
        rates.len(),
        instances.len(),
        median(&rates),
        median(&clock.lock().expect("clock sink").host),
    ));
    let ledger = Ledger {
        latencies_ms: std::mem::take(&mut clock.lock().expect("clock sink").blocks_ms),
        ..Ledger::default()
    };
    finish_latency(&mut report, &ledger, &format!("{BLOCK}-instance block through the loop"));
    report
}

/// The traced run. Each round runs the program's loop untraced, the
/// reference loop with a span around every layer call, and the RBM
/// kernels replayed on the stream's mini-batches, back to back, so that
/// all three see the same host conditions.
fn traced(
    args: &Args,
    report: &mut Report,
    schema: &StreamSchema,
    instances: &Arc<[Instance]>,
    reference: &Outcome,
) {
    let clock = Arc::new(Mutex::new(ClockSink::default()));
    let mut times = SelfTimes::default();
    let mut tracer = Tracer::with_capacity(instances.len() * 6 + 1);
    let mut rbm = RbmReplay::default();
    let (mut program_s, mut traced_s, mut rounds) = (0.0, 0.0, 0usize);
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let outcome = program_pass(schema, instances, &clock);
        program_s += t.elapsed().as_secs_f64();
        report.check(outcome == *reference, "program loop outcome equals the reference");
        clock.lock().expect("clock sink").blocks_ms.clear();

        let t = Instant::now();
        let mut stream = ReplayStream::shared(schema.clone(), Arc::clone(instances));
        let outcome = reference_run(&mut stream, &spec(), &run_config(), Some(&mut tracer));
        traced_s += t.elapsed().as_secs_f64();
        report.check(outcome == *reference, "traced loop outcome equals the reference");

        replay_rbm(schema, instances, &mut rbm);
        rounds += 1;
        let done = rounds >= 2 && start.elapsed().as_secs_f64() >= args.seconds;
        if done {
            crate::write_trace(args, &tracer);
        }
        tracer.drain_into(&mut times);
        if done {
            break;
        }
    }
    let n = times.count(span::UPDATE) as f64;
    let us = |name: &str| times.ns(name) as f64 / 1e3 / n;
    report.metric("streams.next_us", us(span::NEXT));
    report.metric("classifiers.predict_us", us(span::PREDICT));
    report.metric("classifiers.learn_us", us(span::LEARN));
    report.metric("metrics.record_us", us(span::RECORD));
    let update_us = us(span::UPDATE);
    report.metric("detectors.update_us", update_us);
    let layers_us =
        us(span::NEXT) + us(span::PREDICT) + us(span::LEARN) + us(span::RECORD) + update_us;
    // What the layers measured alone do not explain of the program loop's
    // time per instance is the harness's own glue.
    let e2e_us = program_s * 1e6 / n;
    report.metric("harness.glue_us", e2e_us - layers_us);
    report.note(format!(
        "layer sum {layers_us:.3} us of {e2e_us:.3} us end to end per instance ({:.1}%); residual named harness.glue_us",
        100.0 * layers_us / e2e_us
    ));
    report.metric("bench.trace_overhead", program_s / traced_s);

    let batches = rbm.batches as f64;
    report.metric("rbm.batches", batches / rounds as f64);
    report.metric("rbm.score_us", rbm.score.as_secs_f64() * 1e6 / rbm.scored as f64);
    report.metric("rbm.train_us", rbm.train.as_secs_f64() * 1e6 / batches);
    report.metric("rbm.trend_us", rbm.trend.as_secs_f64() * 1e6 / rbm.scored as f64);
    // Detector time per mini-batch not spent in the three kernels:
    // buffering, the Granger test and the drift bookkeeping.
    let kernels_us = (rbm.score + rbm.train + rbm.trend).as_secs_f64() * 1e6 / batches;
    let batch = RbmImConfig::default().mini_batch_size as f64;
    report.metric("rbm.residual_us", update_us * batch - kernels_us);
}

/// Cumulative kernel times of the replays.
#[derive(Default)]
struct RbmReplay {
    batches: u64,
    scored: u64,
    score: Duration,
    train: Duration,
    trend: Duration,
}

/// Replays the loop's mini-batches through the RBM layer's public kernels,
/// in the order RBM-IM calls them: score (after warm-up), trend update per
/// class, then train. The network is built with RBM-IM's default
/// configuration, so it follows the detector's own training trajectory.
fn replay_rbm(schema: &StreamSchema, instances: &[Instance], out: &mut RbmReplay) {
    let config = RbmImConfig::default();
    let mut network = RbmNetwork::new(schema.num_features, schema.num_classes, config.network);
    let mut trackers: Vec<TrendTracker> = (0..schema.num_classes)
        .map(|_| TrendTracker::new(config.trend_window, config.trend_history, config.adwin_delta))
        .collect();
    let mut ws = Workspace::default();
    let mut errors = Vec::new();
    let mut features = Vec::with_capacity(config.mini_batch_size * schema.num_features);
    let mut classes = Vec::with_capacity(config.mini_batch_size);
    for (b, chunk) in instances.chunks_exact(config.mini_batch_size).enumerate() {
        features.clear();
        classes.clear();
        for instance in chunk {
            features.extend_from_slice(&instance.features);
            classes.push(instance.class);
        }
        out.batches += 1;
        if b as u64 >= config.warmup_batches {
            let t = Instant::now();
            network.reconstruction_errors_flat_with(&mut ws, &features, &classes, &mut errors);
            out.score += t.elapsed();
            let t = Instant::now();
            for (class, error) in errors.iter().enumerate() {
                if let Some(error) = error {
                    std::hint::black_box(trackers[class].observe(*error));
                }
            }
            out.trend += t.elapsed();
            out.scored += 1;
        }
        let t = Instant::now();
        std::hint::black_box(network.train_flat(&features, &classes));
        out.train += t.elapsed();
    }
}
