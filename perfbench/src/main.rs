//! The RBM-IM system's benchmark: one command, four workloads, every
//! end-to-end metric by name and unit, outputs checked against references.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload preq_rbm --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Run it from the repository root. `--trace 0` measures the end-to-end
//! metrics with tracing off; `--trace 1` measures the per-layer metrics,
//! alternating untraced and traced work so both see the same host
//! conditions (see `perfbench/README.md`). Human-readable lines come first;
//! the last line of standard output is the JSON result. `perfbench pin <workload> <first> <last>`
//! prints the result digests the checks pin for a range of seeds.

mod calib;
mod feed;
mod fleet;
mod grid;
mod heap;
mod outcome;
mod preq;
mod sched;
mod stats;
mod trace;

use sched::Ledger;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// End-to-end metrics, measured with tracing off, reported by every
/// workload: `(name, unit)`. Latency is printed with them but not gated:
/// on a 2-vCPU runner the fleets' open-loop latency follows the host's CPU
/// steal more than the program (see `perfbench/README.md`); the traced run
/// reports it as `serve.latency_p50_ms` / `serve.latency_p99_ms`.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("throughput_ips", "instances/s"), ("state_mib", "MiB")];

/// Per-layer metrics of the traced run. A workload that bypasses a layer
/// reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("streams.next_us", "us"),
    ("streams.busy_share", "ratio"),
    ("classifiers.predict_us", "us"),
    ("classifiers.learn_us", "us"),
    ("metrics.record_us", "us"),
    ("detectors.update_us", "us"),
    ("rbm.score_us", "us"),
    ("rbm.train_us", "us"),
    ("rbm.trend_us", "us"),
    ("rbm.batches", "count"),
    ("rbm.residual_us", "us"),
    ("harness.glue_us", "us"),
    ("harness.grid_efficiency", "ratio"),
    ("serve.ingest_call_us_p50", "us"),
    ("serve.ingest_call_us_p99", "us"),
    ("serve.queue_depth_max", "count"),
    ("serve.service_us_p50", "us"),
    ("serve.shard_skew", "ratio"),
    ("serve.drain_ms", "ms"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("net.request_us_p50", "us"),
    ("net.request_us_p99", "us"),
    ("net.server_request_us_p50", "us"),
    ("net.bytes_per_inst", "B"),
    ("net.busy_replies", "count"),
    ("tier.hibernations", "count"),
    ("tier.rehydrations", "count"),
    ("tier.hot_hit_ratio", "ratio"),
    ("tier.rehydrate_us_p50", "us"),
    ("tier.cold_resident_mib", "MiB"),
    ("checkpoint.encode_us", "us"),
    ("checkpoint.bytes", "B"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
];

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["preq_rbm", "table3_grid", "fleet_wire", "fleet_tiered"];

/// Threads and connections the benchmark itself runs besides the program:
/// the fleets' load generator is one sender and one event collector on one
/// connection each; the loop workloads have no generator (their inputs are
/// generated before the window). Reported with every result so a run that
/// exceeded the runner's cores is visible.
fn generator(workload: &str) -> (usize, usize) {
    if workload.starts_with("fleet") {
        (2, 2)
    } else {
        (0, 0)
    }
}

/// How many times a run sets up; `setup_s` is the median.
const SETUPS: usize = 3;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Result checks that failed: the outputs are not correct.
    pub wrong: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric value.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one checked operation; a false check marks the outputs wrong.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.checks(1, u64::from(!ok), what);
    }

    /// Counts `attempted` checked operations of which `wrong` failed; any
    /// failure marks the outputs wrong.
    pub fn checks(&mut self, attempted: u64, wrong: u64, what: &str) {
        self.attempted += attempted;
        self.failed += wrong;
        if wrong > 0 {
            self.wrong.push(format!("{what} ({wrong} of {attempted})"));
        }
    }

    /// Adds a ledger's attempted and failed operations.
    pub fn absorb(&mut self, ledger: &Ledger) {
        self.attempted += ledger.attempted;
        self.failed += ledger.failed;
    }
}

/// Runs `setup` [`SETUPS`] times (once in a traced run, which reports no
/// set-up time) and returns the last result with the median duration, each
/// at the reference host speed measured just before and after it (see
/// [`calib`]).
pub fn setup_repeatedly<T>(trace: bool, mut setup: impl FnMut() -> T) -> (T, f64) {
    let rounds = if trace { 1 } else { SETUPS };
    let mut durations = Vec::with_capacity(rounds);
    let mut last = None;
    calib::prepare(1);
    let host = || (0..5).map(|_| calib::host_speed()).sum::<f64>() / 5.0;
    for _ in 0..rounds {
        // Drop the previous round's state before timing the next one.
        drop(last.take());
        let before = host();
        let t = Instant::now();
        last = Some(setup());
        let seconds = t.elapsed().as_secs_f64();
        let speeds = [before, host()];
        durations.push(calib::time_at_reference(seconds, &speeds));
    }
    (last.expect("at least one set-up round"), stats::median(&durations))
}

/// Prints the latency of a ledger's samples, the median and the highest
/// percentile up to p99 that has at least ten samples beyond it, with the
/// sample count, and returns both in milliseconds.
pub fn finish_latency(report: &mut Report, ledger: &Ledger, what: &str) -> (f64, f64) {
    let samples = &ledger.latencies_ms;
    let p50 = stats::median(samples);
    let Some(tail) = stats::tail(samples, 0.99) else {
        report.check(false, "enough latency samples for a tail percentile");
        return (p50, 0.0);
    };
    report.note(format!(
        "latency_p50_ms = {p50} ms, latency_p99_ms = {} ms (tail at p{:.2} of {} samples; {what})",
        tail.value,
        tail.quantile * 100.0,
        tail.samples
    ));
    (p50, tail.value)
}

/// Writes a traced pass's spans to `.perfbench/trace_<workload>_<seed>.tsv`
/// (best effort: a trace that cannot be written is reported, not fatal).
pub fn write_trace(args: &Args, tracer: &trace::Tracer) {
    let dir = Path::new(".perfbench");
    let path = dir.join(format!("trace_{}_{}.tsv", args.workload, args.seed));
    let written = std::fs::create_dir_all(dir).and_then(|_| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_tsv(&mut out)?;
        std::io::Write::flush(&mut out)
    });
    if let Err(e) = written {
        eprintln!("trace not written to {}: {e}", path.display());
    }
}

/// Result digests pinned per workload and seed in `perfbench/pins.txt`.
pub mod pins {
    use super::Report;

    /// The pin table, relative to the repository root.
    pub const PATH: &str = "perfbench/pins.txt";

    /// The pinned digest of `workload` at `seed`, if any.
    pub fn lookup(workload: &str, seed: u64) -> Option<u64> {
        let text = std::fs::read_to_string(PATH).ok()?;
        text.lines().filter(|l| !l.starts_with('#')).find_map(|line| {
            let mut fields = line.split_whitespace();
            let (w, s, d) = (fields.next()?, fields.next()?, fields.next()?);
            (w == workload && s.parse::<u64>().ok()? == seed)
                .then(|| u64::from_str_radix(d, 16).ok())
                .flatten()
        })
    }

    /// Checks `digest` against the pin, when the seed has one.
    pub fn check(report: &mut Report, workload: &str, seed: u64, digest: u64) {
        match lookup(workload, seed) {
            Some(pinned) => {
                report.check(pinned == digest, "reference outcome equals the pinned digest");
                report
                    .note(format!("pin: seed {seed} digest {digest:016x} (pinned {pinned:016x})"));
            }
            None => report.note(format!("pin: none for seed {seed}; digest {digest:016x}")),
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Formats the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
fn result_json(report: &Report, catalogue: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = report.metrics.get(name).copied();
        let value = match (value, catalogue == PER_LAYER) {
            (Some(v), _) if v.is_finite() => v,
            (Some(v), _) => return Err(format!("metric {name} is not finite: {v}")),
            // A bypassed layer did no work.
            (None, true) => 0.0,
            (None, false) => return Err(format!("end-to-end metric {name} was not measured")),
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(metrics, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.wrong.is_empty(),
        report.attempted.max(1),
        report.failed
    ))
}

fn pin_command(argv: &[String]) -> ExitCode {
    let parsed = (|| {
        let workload = argv.first()?.clone();
        let first: u64 = argv.get(1)?.parse().ok()?;
        let last: u64 = argv.get(2)?.parse().ok()?;
        Some((workload, first, last))
    })();
    let Some((workload, first, last)) = parsed else {
        eprintln!("usage: perfbench pin <preq_rbm|table3_grid> <first seed> <last seed>");
        return ExitCode::from(2);
    };
    for seed in first..=last {
        let digest = match workload.as_str() {
            "preq_rbm" => preq::pin(seed),
            "table3_grid" => grid::pin(seed),
            _ => {
                eprintln!("only preq_rbm and table3_grid are pinned");
                return ExitCode::from(2);
            }
        };
        println!("{workload} {seed} {digest:016x}");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if !Path::new(pins::PATH).is_file() {
        eprintln!("run from the repository root: {} not found", pins::PATH);
        return ExitCode::from(2);
    }
    if argv.first().map(String::as_str) == Some("pin") {
        return pin_command(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "preq_rbm" => preq::run(&args),
        "table3_grid" => grid::run(&args),
        "fleet_wire" => fleet::run(&args, fleet::Transport::Wire),
        "fleet_tiered" => fleet::run(&args, fleet::Transport::Tiered),
        _ => unreachable!("parse_args validated the workload"),
    };
    let meta = serde_json::to_string(&rbm_im_bench::runner_metadata()).unwrap_or_default();
    let (threads, connections) = generator(&args.workload);
    println!(
        "runner: {},\"generator_threads\":{threads},\"generator_connections\":{connections}}}",
        meta.trim_end_matches('}')
    );
    println!(
        "workload: {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for line in &report.notes {
        println!("{line}");
    }
    for wrong in &report.wrong {
        println!("WRONG: {wrong}");
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in catalogue {
        println!("{name} = {} {unit}", report.metrics.get(name).copied().unwrap_or(0.0));
    }
    let ratio = report.failed as f64 / report.attempted.max(1) as f64;
    println!("failed_ratio = {ratio} ratio ({} of {} operations)", report.failed, report.attempted);
    match result_json(&report, catalogue) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
