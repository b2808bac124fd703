//! The served fleets: `fleet_wire` (64 feeds over RBMW loopback, uniform
//! round-robin arrivals, all streams hot) and `fleet_tiered` (256 feeds
//! in-process, Zipf arrivals, a supervisor holding a quarter of the streams
//! hot and spilling the rest).
//!
//! A session sets the fleet up, warms every stream, then runs two phases
//! from one sender thread while one collector thread timestamps the
//! streams' `Snapshot` events (one per micro-batch, since `snapshot_every`
//! equals the micro-batch size):
//!
//! * **open loop** at a fixed aggregate rate: each micro-batch is timed
//!   from its *due* time to the arrival of its last instance's snapshot;
//! * **closed loop** with blocking backpressure, in bursts: the sender
//!   sends a burst of micro-batches as fast as the fleet accepts them and
//!   times it until its last snapshot arrives; between bursts it measures
//!   the host's speed (see [`crate::calib`]). The median burst rate at the
//!   reference host speed is the saturation throughput.
//!
//! After the window every stream is detached and its result compared bit
//! for bit with a sequential pipeline replay of the instances it was sent.

use crate::feed::{record, Feed, BLOCK, MAX_IPS};
use crate::outcome::Outcome;
use crate::sched::{Arrivals, Ledger, OpenLoopPlan};
use crate::stats::{median, tail};
use crate::{calib, finish_latency, heap, setup_repeatedly, Args, Report};
use rbm_im_harness::checkpoint::codec::CheckpointCodec;
use rbm_im_harness::pipeline::{PipelineBuilder, RunConfig, RunResult};
use rbm_im_harness::registry::{DetectorRegistry, DetectorSpec};
use rbm_im_net::{wire, Frame, NetClient, NetServer, NetServerHandle, NetStreamClient};
use rbm_im_obs::MetricsSnapshot;
use rbm_im_serve::{
    deterministic_spec, ServeConfig, ServeEvent, ServeEventKind, ServerHandle, SnapshotSink,
    StreamClient, Supervisor, SupervisorConfig, SupervisorHandle, TierPolicy,
};
use rbm_im_streams::registry::{benchmark_by_name, BuildConfig};
use rbm_im_streams::source::derive_stream_seed;
use rbm_im_streams::Instance;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Which fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `fleet_wire`.
    Wire,
    /// `fleet_tiered`.
    Tiered,
}

/// Shard workers of the server.
const SHARDS: usize = 2;
/// Ingest queue bound per shard, in messages: small, so the closed loop
/// measures the fleet's pace rather than how much it can buffer.
const QUEUE_CAPACITY: usize = 16;
/// Micro-batches every stream receives before the window, so every RBM-IM
/// detector is past its warm-up and detecting.
const WARM_BATCHES: u64 = 12;
/// A micro-batch later than this fails.
const LATENCY_LIMIT: Duration = Duration::from_secs(1);
/// Share of the window spent in the open loop; the rest is the closed loop,
/// which gives the gated throughput and so gets the larger share.
const OPEN_SHARE: f64 = 0.3;
/// How long the collector waits for the last snapshots after the drain.
const COLLECT_GRACE: Duration = Duration::from_secs(10);

/// The shape of one fleet workload.
struct Shape {
    streams: usize,
    /// Recorded instances per feed (played in a loop).
    feed_len: usize,
    /// Open-loop aggregate rate, in instances per second: a fixed rate a
    /// little under half the fleet's closed-loop saturation on a 2-core
    /// runner.
    open_rate_ips: f64,
}

fn shape(transport: Transport) -> Shape {
    match transport {
        Transport::Wire => Shape { streams: 64, feed_len: 2_000, open_rate_ips: 36_000.0 },
        Transport::Tiered => Shape { streams: 256, feed_len: 800, open_rate_ips: 30_000.0 },
    }
}

fn arrivals(transport: Transport, streams: usize, seed: u64) -> Arrivals {
    match transport {
        Transport::Wire => Arrivals::round_robin(streams),
        Transport::Tiered => Arrivals::zipf(streams, 1.0, derive_stream_seed(seed, "arrivals")),
    }
}

fn stream_id(i: usize) -> String {
    format!("feed-{i:03}")
}

fn stream_index(id: &str) -> Option<usize> {
    id.strip_prefix("feed-")?.parse().ok()
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        num_shards: SHARDS,
        queue_capacity: QUEUE_CAPACITY,
        run: RunConfig {
            detector_batch: BLOCK,
            snapshot_every: Some(BLOCK as u64),
            ..RunConfig::default()
        },
        ..ServeConfig::default()
    }
}

fn spec() -> DetectorSpec {
    DetectorSpec::new("rbm-im")
}

/// The feeds: drifting, imbalanced RBF5-shaped streams (20 features, 5
/// classes, IR up to 100, three sudden drifts per recording), one per
/// stream id, seeded from the workload seed and the id. Generated on two
/// threads.
fn feeds(seed: u64, streams: usize, feed_len: usize) -> Vec<Feed> {
    let rbf5 = benchmark_by_name("RBF5").expect("Table I benchmark");
    let one = |i: usize| {
        let build = BuildConfig {
            seed: derive_stream_seed(seed, &stream_id(i)),
            scale_divisor: rbf5.instances / feed_len as u64,
            ..BuildConfig::default()
        };
        let mut stream = rbf5.build(&build);
        let schema = stream.schema().clone();
        Feed { schema, instances: record(&mut *stream, feed_len).into() }
    };
    let half = streams.div_ceil(2);
    std::thread::scope(|scope| {
        let upper = scope.spawn(|| (half..streams).map(one).collect::<Vec<_>>());
        let mut all: Vec<Feed> = (0..half).map(one).collect();
        all.extend(upper.join().expect("feed generator"));
        all
    })
}

/// The fleet under test, behind one interface for both transports.
enum Fleet {
    Wire {
        server: NetServerHandle,
        control: NetClient,
        clients: Vec<NetStreamClient>,
    },
    Local {
        server: Arc<ServerHandle>,
        supervisor: Option<SupervisorHandle>,
        clients: Vec<StreamClient>,
        spill_dir: PathBuf,
    },
}

impl Fleet {
    fn start(transport: Transport, feeds: &[Feed], session: u64) -> Fleet {
        match transport {
            Transport::Wire => {
                let server = NetServer::bind("127.0.0.1:0", serve_config()).expect("bind loopback");
                let control = NetClient::connect(server.local_addr()).expect("connect");
                let clients = feeds
                    .iter()
                    .enumerate()
                    .map(|(i, f)| {
                        control.attach(&stream_id(i), f.schema.clone(), &spec()).expect("attach")
                    })
                    .collect();
                Fleet::Wire { server, control, clients }
            }
            Transport::Tiered => {
                let server = Arc::new(ServerHandle::start(serve_config()));
                let clients = feeds
                    .iter()
                    .enumerate()
                    .map(|(i, f)| {
                        server.attach(&stream_id(i), f.schema.clone(), &spec()).expect("attach")
                    })
                    .collect();
                let spill_dir = PathBuf::from(".perfbench")
                    .join(format!("spill-{}-{session}", std::process::id()));
                let _ = std::fs::remove_dir_all(&spill_dir);
                let sink = SnapshotSink::new(&spill_dir).expect("spill directory");
                let tier = TierPolicy::default().with_max_hot_streams(feeds.len() / 4);
                let config = SupervisorConfig {
                    tick: Duration::from_millis(50),
                    checkpoint: None,
                    resize: None,
                    tier: Some(tier),
                };
                let supervisor = Some(Supervisor::start(Arc::clone(&server), sink, config));
                Fleet::Local { server, supervisor, clients, spill_dir }
            }
        }
    }

    /// Blocking micro-batch ingest.
    fn send(&self, stream: usize, batch: Vec<Instance>) -> bool {
        match self {
            Fleet::Wire { clients, .. } => clients[stream].ingest_batch(batch).is_ok(),
            Fleet::Local { clients, .. } => clients[stream].ingest_batch(batch).is_ok(),
        }
    }

    fn subscribe(&self) -> Receiver<ServeEvent> {
        match self {
            Fleet::Wire { control, .. } => control.subscribe().expect("subscribe"),
            Fleet::Local { server, .. } => server.subscribe(),
        }
    }

    fn drain(&self) {
        match self {
            Fleet::Wire { control, .. } => control.drain().expect("drain"),
            Fleet::Local { server, .. } => server.drain(),
        }
    }

    fn metrics(&self) -> MetricsSnapshot {
        match self {
            Fleet::Wire { server, .. } => server.metrics().snapshot(),
            Fleet::Local { server, .. } => server.metrics().snapshot(),
        }
    }

    /// Deepest shard queue right now (in-process fleets only).
    fn queue_depth(&self) -> u64 {
        match self {
            Fleet::Wire { .. } => 0,
            Fleet::Local { server, .. } => {
                server.shard_loads().iter().map(|l| l.queue_depth).max().unwrap_or(0)
            }
        }
    }

    /// The spec the server built stream `id` with.
    fn effective_spec(&self, id: &str) -> DetectorSpec {
        match self {
            Fleet::Wire { .. } => deterministic_spec(
                &DetectorRegistry::with_defaults(),
                serve_config().base_seed,
                id,
                &spec(),
            ),
            Fleet::Local { server, .. } => server.effective_spec(id, &spec()),
        }
    }

    /// Times a checkpoint capture plus its binary encoding for `ids`:
    /// `(mean microseconds, mean bytes)`.
    fn checkpoint_cost(&self, ids: &[String]) -> (f64, f64) {
        let Fleet::Local { server, .. } = self else { return (0.0, 0.0) };
        let mut us = Vec::new();
        let mut bytes = Vec::new();
        for id in ids {
            let t = Instant::now();
            let checkpoint = server.checkpoint_stream(id).expect("checkpoint");
            let encoded = checkpoint.checkpoint.to_bytes(CheckpointCodec::Binary);
            us.push(t.elapsed().as_secs_f64() * 1e6);
            bytes.push(encoded.len() as f64);
        }
        (mean(&us), mean(&bytes))
    }

    fn detach(&self, id: &str) -> Option<RunResult> {
        match self {
            Fleet::Wire { control, .. } => control.detach(id).ok(),
            Fleet::Local { server, .. } => server.detach(id).ok(),
        }
    }

    /// Stops the fleet; returns the supervisor's hibernation count.
    fn shutdown(self) -> u64 {
        match self {
            Fleet::Wire { server, control, clients } => {
                drop(clients);
                drop(control);
                server.shutdown();
                0
            }
            Fleet::Local { server, supervisor, clients, spill_dir } => {
                let hibernations = supervisor.map_or(0, |s| s.stop().hibernations);
                drop(clients);
                if let Ok(server) = Arc::try_unwrap(server) {
                    server.shutdown();
                }
                let _ = std::fs::remove_dir_all(&spill_dir);
                hibernations
            }
        }
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// What the collector thread hands back.
struct Collected {
    /// Completion time of each open-loop batch, from the phase start.
    open_done: Vec<Option<Duration>>,
    /// Arrival time of every snapshot event, from the phase start.
    arrivals: Vec<Duration>,
}

/// Shared between the sender and the collector.
struct Shared {
    /// Open-loop phase start.
    t0: OnceLock<Instant>,
    /// Per stream: the open-loop batch numbers it receives, in order.
    open_batches: Vec<Vec<u32>>,
    /// Total snapshots to expect; `u64::MAX` until the sender is done.
    expected: AtomicU64,
    /// Snapshots arrived so far.
    arrived: AtomicU64,
    /// Give up waiting.
    stop: AtomicBool,
}

/// Timestamps snapshot events until every expected one has arrived or the
/// sender gives up; `buffers` comes pre-allocated.
fn collect(events: Receiver<ServeEvent>, shared: Arc<Shared>, buffers: Collected) -> Collected {
    let Collected { mut open_done, mut arrivals } = buffers;
    loop {
        if arrivals.len() as u64 >= shared.expected.load(Ordering::SeqCst)
            || shared.stop.load(Ordering::SeqCst)
        {
            break;
        }
        let event = match events.recv_timeout(Duration::from_millis(20)) {
            Ok(event) => event,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let now = Instant::now();
        let ServeEventKind::Snapshot { position, .. } = event.kind else { continue };
        let Some(t0) = shared.t0.get() else { continue };
        let Some(stream) = stream_index(&event.stream) else { continue };
        let at = now.saturating_duration_since(*t0);
        arrivals.push(at);
        shared.arrived.store(arrivals.len() as u64, Ordering::Release);
        // Batch ordinal of this stream, then its place in the open loop.
        let ordinal = (position + 1) / BLOCK as u64 - 1;
        if let Some(j) = ordinal.checked_sub(WARM_BATCHES) {
            if let Some(&k) = shared.open_batches[stream].get(j as usize) {
                open_done[k as usize] = Some(at);
            }
        }
    }
    Collected { open_done, arrivals }
}

/// One measured session's figures.
#[derive(Default)]
struct Session {
    setup_s: f64,
    throughput: f64,
    ledger: Ledger,
    state_mib: f64,
    wrong_streams: usize,
    streams_checked: usize,
    gen_lag_ms: Vec<f64>,
    call_us: Vec<f64>,
    queue_depth_max: u64,
    drain_ms: f64,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
    checkpoint: (f64, f64),
    bytes_per_inst: f64,
    open_batches: usize,
    closed_batches: usize,
    supervisor_hibernations: u64,
    detector_us: f64,
    burst_ms: Vec<f64>,
}

fn session(transport: Transport, args: &Args, window: f64, traced: bool) -> Session {
    let shape = shape(transport);
    let mut out = Session::default();

    // Plan the window from the seed, and allocate every buffer of the
    // generator before the heap baseline is taken.
    let mut arrivals = arrivals(transport, shape.streams, args.seed);
    let rate = shape.open_rate_ips / BLOCK as f64;
    let open_n = (rate * window * OPEN_SHARE) as usize;
    let plan = OpenLoopPlan::new(&mut arrivals, open_n, rate);
    let mut open_batches = vec![Vec::new(); shape.streams];
    for (k, &s) in plan.streams.iter().enumerate() {
        open_batches[s].push(k as u32);
    }
    let closed_len = Duration::from_secs_f64(window * (1.0 - OPEN_SHARE));
    let closed_cap = (closed_len.as_secs_f64() * MAX_IPS / BLOCK as f64) as usize + 1;
    let buffers = Collected {
        open_done: vec![None; open_n],
        arrivals: Vec::with_capacity(open_n + closed_cap),
    };
    out.gen_lag_ms = Vec::with_capacity(open_n);
    out.call_us = Vec::with_capacity(if traced { open_n + closed_cap } else { 0 });
    let mut send_ok = Vec::with_capacity(open_n);
    let mut bursts: Vec<Burst> = Vec::with_capacity(closed_cap / BURST + 1);
    calib::prepare(1);
    let mut sent = vec![WARM_BATCHES; shape.streams];

    let mut baseline = 0;
    let mut rounds = 0u64;
    let (mut guard, setup_s) = setup_repeatedly(traced || args.trace, || {
        rounds += 1;
        let feeds = feeds(args.seed, shape.streams, shape.feed_len);
        baseline = heap::reset_peak();
        let fleet = Fleet::start(transport, &feeds, rounds);
        for j in 0..WARM_BATCHES {
            for (i, feed) in feeds.iter().enumerate() {
                assert!(fleet.send(i, feed.batch(j * BLOCK as u64, BLOCK)), "warm-up ingest");
            }
        }
        fleet.drain();
        Guard(Some((feeds, fleet)))
    });
    let (feeds, fleet) = guard.0.take().expect("set-up result");
    out.setup_s = setup_s;
    rbm_im_obs::force_enabled(traced);

    let shared = Arc::new(Shared {
        t0: OnceLock::new(),
        open_batches,
        expected: AtomicU64::new(u64::MAX),
        arrived: AtomicU64::new(0),
        stop: AtomicBool::new(false),
    });
    let events = fleet.subscribe();
    let collector = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || collect(events, shared, buffers))
    };
    if traced {
        out.bytes_per_inst = wire::encode_frame(&Frame::Ingest {
            stream: stream_id(0),
            blocking: true,
            instances: feeds[0].batch(0, BLOCK),
        })
        .len() as f64
            / BLOCK as f64;
        out.before = fleet.metrics();
    }

    let mut next_probe = Instant::now();
    let mut send = |out: &mut Session, stream: usize| -> bool {
        let batch = feeds[stream].batch(sent[stream] * BLOCK as u64, BLOCK);
        sent[stream] += 1;
        let t = Instant::now();
        let ok = fleet.send(stream, batch);
        if traced {
            out.call_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        if traced && t >= next_probe {
            out.queue_depth_max = out.queue_depth_max.max(fleet.queue_depth());
            next_probe = t + Duration::from_millis(20);
        }
        ok
    };

    // Open loop.
    let t0 = Instant::now();
    shared.t0.set(t0).expect("phase starts once");
    for k in 0..open_n {
        let due = t0 + plan.due(k);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        out.gen_lag_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        send_ok.push(send(&mut out, plan.streams[k]));
    }
    // Closed loop: bursts of [`BURST`] micro-batches as fast as the fleet
    // accepts them. Each starts once every snapshot before it arrived, and
    // the host's speed is measured between bursts, while the fleet is idle.
    let settle = |accepted: usize| {
        let waited = Instant::now();
        while shared.arrived.load(Ordering::Acquire) < accepted as u64
            && waited.elapsed() < LATENCY_LIMIT
        {
            std::thread::sleep(Duration::from_micros(50));
        }
        calib::host_speed()
    };
    let closed_start = t0.elapsed();
    let mut closed_n = 0usize;
    let mut accepted = send_ok.iter().filter(|ok| **ok).count();
    let mut host = settle(accepted);
    loop {
        let (first, start) = (accepted, t0.elapsed());
        for _ in 0..BURST {
            let ok = send(&mut out, arrivals.next_stream());
            out.ledger.record(ok);
            accepted += usize::from(ok);
            closed_n += 1;
        }
        let burst =
            Burst { start, first, accepted: accepted - first, host_before: host, host_after: host };
        bursts.push(burst);
        if t0.elapsed() >= closed_start + closed_len {
            break;
        }
        host = settle(accepted);
        bursts.last_mut().expect("a burst was just sent").host_after = host;
    }
    // The final drain clears the last burst's backlog.
    let t = Instant::now();
    fleet.drain();
    out.drain_ms = t.elapsed().as_secs_f64() * 1e3;
    bursts.last_mut().expect("the closed loop sends a burst").host_after = settle(accepted);
    shared.expected.store((open_n + closed_n) as u64, Ordering::SeqCst);
    let waited = Instant::now();
    while !collector.is_finished() && waited.elapsed() < COLLECT_GRACE {
        std::thread::sleep(Duration::from_millis(5));
    }
    shared.stop.store(true, Ordering::SeqCst);
    let collected = collector.join().expect("collector");
    out.state_mib = heap::mib_above(baseline);
    if traced {
        out.after = fleet.metrics();
    }
    rbm_im_obs::force_enabled(false);

    // Saturation throughput: the median burst at the reference host speed.
    let (burst_ms, scaled): (Vec<f64>, Vec<f64>) = bursts
        .iter()
        .filter_map(|burst| {
            let ms = burst.ms(&collected.arrivals)?;
            let rate = (burst.accepted * BLOCK) as f64 / (ms / 1e3);
            Some((ms, calib::at_reference(rate, &[burst.host_before, burst.host_after])?))
        })
        .unzip();
    out.throughput = median(&scaled);
    out.burst_ms = burst_ms;
    for (k, done) in collected.open_done.iter().enumerate() {
        let done = if send_ok[k] { *done } else { None };
        out.ledger.record_due(plan.due(k), done, LATENCY_LIMIT);
    }
    out.open_batches = open_n;
    out.closed_batches = closed_n;

    if traced {
        let sampled: Vec<String> =
            (0..shape.streams).step_by((shape.streams / 8).max(1)).map(stream_id).collect();
        out.checkpoint = fleet.checkpoint_cost(&sampled);
    }

    // Correctness, outside the window: every stream's result equals a
    // sequential replay of the instances it was sent.
    let results: Vec<(Option<RunResult>, DetectorSpec)> = (0..shape.streams)
        .map(|i| (fleet.detach(&stream_id(i)), fleet.effective_spec(&stream_id(i))))
        .collect();
    out.supervisor_hibernations = fleet.shutdown();
    let served: Vec<&RunResult> = results.iter().filter_map(|(r, _)| r.as_ref()).collect();
    let instances: u64 = served.iter().map(|r| r.instances).sum();
    let update_s: f64 = served.iter().map(|r| r.detector_update_seconds).sum();
    out.detector_us = update_s * 1e6 / instances.max(1) as f64;
    let run = serve_config().run;
    let checks: Vec<bool> = std::thread::scope(|scope| {
        let check = |i: usize| {
            let (served, spec) = &results[i];
            let Some(served) = served else { return false };
            let replay = PipelineBuilder::new()
                .stream(feeds[i].open(sent[i] * BLOCK as u64))
                .detector_spec(spec.clone())
                .config(run)
                .run()
                .expect("replay");
            Outcome::of(served) == Outcome::of(&replay)
        };
        let half = shape.streams.div_ceil(2);
        let upper = scope.spawn(move || (half..shape.streams).map(check).collect::<Vec<_>>());
        let mut all: Vec<bool> = (0..half).map(check).collect();
        all.extend(upper.join().expect("replay worker"));
        all
    });
    out.streams_checked = checks.len();
    out.wrong_streams = checks.iter().filter(|ok| !**ok).count();
    out
}

/// Micro-batches per closed-loop burst: enough to fill every shard queue
/// several times over, few enough for dozens of bursts per window.
const BURST: usize = 128;

/// One closed-loop burst.
struct Burst {
    /// Start, from the open loop's start.
    start: Duration,
    /// Snapshots that arrived before it.
    first: usize,
    /// Micro-batches the fleet accepted.
    accepted: usize,
    /// Host speed measured just before and just after it.
    host_before: f64,
    host_after: f64,
}

impl Burst {
    /// Milliseconds from the burst's start to the arrival of its last
    /// snapshot; `None` when some of its snapshots never arrived.
    fn ms(&self, arrivals: &[Duration]) -> Option<f64> {
        let last = arrivals.get((self.first + self.accepted).checked_sub(1)?)?;
        (self.accepted > 0).then(|| last.saturating_sub(self.start).as_secs_f64() * 1e3)
    }
}

/// Drops a set-up round's fleet when the next round replaces it.
struct Guard(Option<(Vec<Feed>, Fleet)>);

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((_, fleet)) = self.0.take() {
            fleet.shutdown();
        }
    }
}

/// Counter total of `name` between two snapshots.
fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    after.counter_total(name).saturating_sub(before.counter_total(name)) as f64
}

/// Growth of each `name` counter between two snapshots, keyed by the
/// value of its `key` label.
fn deltas_by_label(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    name: &str,
    key: &str,
) -> Vec<(String, f64)> {
    after
        .counters
        .iter()
        .filter(|(id, _)| id.name == name)
        .filter_map(|(id, now)| {
            let label = id.labels.iter().find(|(k, _)| k == key)?.1.clone();
            let then = before.counters.iter().find(|(i, _)| i == id).map_or(0, |(_, v)| *v);
            Some((label, now.saturating_sub(then) as f64))
        })
        .collect()
}

fn histogram_us(snapshot: &MetricsSnapshot, name: &str, q: f64) -> f64 {
    snapshot.merged_histogram(name).quantile(q) as f64 / 1e3
}

pub fn run(args: &Args, transport: Transport) -> Report {
    let mut report = Report::default();
    let window = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let untraced = session(transport, args, window, false);
    report.metric("setup_s", untraced.setup_s);
    report.metric("throughput_ips", untraced.throughput);
    report.metric("state_mib", untraced.state_mib);
    let (p50, p99) = finish_latency(
        &mut report,
        &untraced.ledger,
        "micro-batch from its due time to its last instance's snapshot event",
    );
    account(&mut report, &untraced);
    if !args.trace {
        return report;
    }
    report.metric("serve.latency_p50_ms", p50);
    report.metric("serve.latency_p99_ms", p99);

    let s = session(transport, args, window, true);
    account(&mut report, &s);
    report.metric("bench.trace_overhead", s.throughput / untraced.throughput);
    report.metric("bench.gen_lag_p99_ms", tail(&s.gen_lag_ms, 0.99).map_or(0.0, |t| t.value));
    let (b, a) = (&s.before, &s.after);
    let per_shard: Vec<f64> = deltas_by_label(b, a, "rbm_serve_processed_instances_total", "shard")
        .into_iter()
        .map(|(_, v)| v)
        .collect();
    let busiest = per_shard.iter().copied().fold(0.0, f64::max);
    report.metric("serve.shard_skew", busiest / mean(&per_shard).max(1.0));
    report.metric("serve.drain_ms", s.drain_ms);
    report.metric("serve.service_us_p50", histogram_us(a, "rbm_serve_ingest_latency_seconds", 0.5));
    report.metric("detectors.update_us", s.detector_us);
    let call_p50 = median(&s.call_us);
    let call_p99 = tail(&s.call_us, 0.99).map_or(0.0, |t| t.value);
    match transport {
        Transport::Wire => {
            report.metric("net.request_us_p50", call_p50);
            report.metric("net.request_us_p99", call_p99);
            let ingest = a
                .histograms
                .iter()
                .find(|(id, _)| {
                    id.name == "rbm_net_request_latency_seconds"
                        && id.labels.iter().any(|(_, v)| v == "ingest")
                })
                .map_or(0.0, |(_, h)| h.quantile(0.5) as f64 / 1e3);
            report.metric("net.server_request_us_p50", ingest);
            report.metric("net.bytes_per_inst", s.bytes_per_inst);
            report.metric("net.busy_replies", counter_delta(b, a, "rbm_net_busy_total"));
            let depth = a.merged_histogram("rbm_serve_queue_depth").quantile(1.0);
            report.metric("serve.queue_depth_max", depth as f64);
        }
        Transport::Tiered => {
            report.metric("serve.ingest_call_us_p50", call_p50);
            report.metric("serve.ingest_call_us_p99", call_p99);
            report.metric("serve.queue_depth_max", s.queue_depth_max as f64);
            report.metric("tier.hibernations", counter_delta(b, a, "rbm_serve_hibernations_total"));
            report.metric("tier.rehydrations", counter_delta(b, a, "rbm_serve_rehydrations_total"));
            let woken: f64 = deltas_by_label(b, a, "rbm_serve_rehydrations_total", "trigger")
                .into_iter()
                .filter(|(trigger, _)| trigger == "ingest")
                .map(|(_, v)| v)
                .sum();
            let messages = counter_delta(b, a, "rbm_serve_processed_messages_total");
            report.metric("tier.hot_hit_ratio", 1.0 - woken / messages.max(1.0));
            report.metric(
                "tier.rehydrate_us_p50",
                histogram_us(a, "rbm_serve_rehydrate_seconds", 0.5),
            );
            let cold = a
                .gauges
                .iter()
                .find(|(id, _)| id.name == "rbm_serve_cold_resident_bytes")
                .map_or(0, |(_, v)| *v);
            report.metric("tier.cold_resident_mib", cold.max(0) as f64 / (1024.0 * 1024.0));
            report.metric("checkpoint.encode_us", s.checkpoint.0);
            report.metric("checkpoint.bytes", s.checkpoint.1);
            report.note(format!(
                "tier: supervisor hibernated {} streams over the session",
                s.supervisor_hibernations
            ));
        }
    }
    report
}

/// Folds a session's failures and checks into the report.
fn account(report: &mut Report, s: &Session) {
    report.absorb(&s.ledger);
    report.checks(
        s.streams_checked as u64,
        s.wrong_streams as u64,
        "served stream result equals its sequential replay",
    );
    report.note(format!(
        "session: {} open-loop + {} closed-loop micro-batches, {} of {} streams equal their replay, {} failed",
        s.open_batches,
        s.closed_batches,
        s.streams_checked - s.wrong_streams,
        s.streams_checked,
        s.ledger.failed
    ));
    report.note(format!(
        "closed loop: {} bursts of {BURST} micro-batches; ms per burst fastest {:.2} median {:.2} slowest {:.2}",
        s.burst_ms.len(),
        s.burst_ms.iter().copied().fold(f64::INFINITY, f64::min),
        median(&s.burst_ms),
        s.burst_ms.iter().copied().fold(0.0, f64::max),
    ));
}
