//! The serving front-end: [`ServerHandle`] (attach / ingest / subscribe /
//! resize / checkpoint / drain / shutdown) and [`StreamClient`] (the
//! per-stream ingest handle feeder threads clone and keep).
//!
//! Topology is **dynamic**: the consistent-hash
//! [`StreamRouter`] and the shard channel set
//! live behind an `RwLock` that every ingest resolves through (a read lock
//! held just for the send), so [`ServerHandle::resize_shards`] can grow or
//! shrink the shard fleet live: only the streams whose ring ownership
//! changed are migrated — checkpointed on the old shard, transferred, and
//! restored on the new one, with their in-flight ingest parked and
//! replayed so no instance is lost or reordered.

use crate::chaos::{self, FaultPlane};
use crate::config::ServeConfig;
use crate::event::{EventBus, ServeEvent};
use crate::router::StreamRouter;
use crate::shard::{
    BundleState, MigrationBundle, Payload, RestoreKind, ShardGauge, ShardMsg, ShardReport,
    ShardWorker, TierScanEntry,
};
use rbm_im_harness::checkpoint::PipelineCheckpoint;
use rbm_im_harness::pipeline::{PipelineError, RunConfig, RunResult};
use rbm_im_harness::registry::{DetectorRegistry, DetectorSpec, RegistryError};
use rbm_im_obs::{MetricsRegistry, Tracer};
use rbm_im_streams::source::derive_stream_seed;
use rbm_im_streams::{Instance, StreamSchema};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Errors of serving control operations (attach / detach / resize /
/// checkpoint / blocking ingest).
#[derive(Debug)]
pub enum ServeError {
    /// The stream id is already attached on its shard.
    AlreadyAttached(String),
    /// No stream with this id is attached.
    UnknownStream(String),
    /// Detector spec resolution failed.
    Registry(RegistryError),
    /// The shard worker is gone (server shut down or worker panicked).
    ShardUnavailable,
    /// Capturing or restoring a stream checkpoint failed.
    Checkpoint(String),
    /// An elastic resize could not be performed.
    Resize(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::AlreadyAttached(id) => write!(f, "stream `{id}` is already attached"),
            ServeError::UnknownStream(id) => write!(f, "no stream `{id}` is attached"),
            ServeError::Registry(e) => write!(f, "detector resolution failed: {e}"),
            ServeError::ShardUnavailable => write!(f, "shard worker unavailable"),
            ServeError::Checkpoint(e) => write!(f, "stream checkpoint failed: {e}"),
            ServeError::Resize(e) => write!(f, "shard resize failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<PipelineError> for ServeError {
    fn from(e: PipelineError) -> Self {
        match e {
            PipelineError::Registry(e) => ServeError::Registry(e),
            // The stepper path never reports a missing stream, but map it
            // defensively rather than panicking.
            PipelineError::MissingStream => ServeError::ShardUnavailable,
        }
    }
}

/// Errors of the non-blocking ingest path. Rejected instances ride back in
/// the error so callers can retry or shed load without losing data.
#[derive(Debug)]
pub enum IngestError {
    /// The shard's bounded ingest queue is full — explicit backpressure.
    Full(Vec<Instance>),
    /// The shard is gone (server shut down).
    Closed(Vec<Instance>),
}

impl IngestError {
    /// The instances that were not ingested, in their original order.
    pub fn into_rejected(self) -> Vec<Instance> {
        match self {
            IngestError::Full(instances) | IngestError::Closed(instances) => instances,
        }
    }
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Full(instances) => {
                write!(f, "shard ingest queue full ({} instances rejected)", instances.len())
            }
            IngestError::Closed(instances) => {
                write!(f, "shard closed ({} instances rejected)", instances.len())
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Final summary of one served stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamSummary {
    /// Stream id.
    pub stream: String,
    /// Shard that owned the stream.
    pub shard: usize,
    /// The stream's prequential run result (identical to what a sequential
    /// pipeline run over the same instances produces).
    pub result: RunResult,
}

/// A served stream's self-contained checkpoint: the stream id plus the
/// harness [`PipelineCheckpoint`] (schema, effective detector spec, run
/// config, complete pipeline state). Serializes to plain JSON — the unit
/// [`SnapshotSink`](crate::sink::SnapshotSink) spills to disk and
/// [`ServerHandle::restore_stream`] resumes from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamCheckpoint {
    /// Stream id.
    pub stream: String,
    /// The pipeline checkpoint.
    pub checkpoint: PipelineCheckpoint,
}

/// What [`ServerHandle::hibernate_stream`] (or the supervisor's
/// [`TierPolicy`](crate::config::TierPolicy) pass) did to the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HibernateOutcome {
    /// The stream's live state was evicted to its binary checkpoint.
    Hibernated {
        /// Instances the cold checkpoint covers.
        position: u64,
        /// `true` when a fresh background spill at the same position let
        /// the eviction reuse the disk file without encoding; `false` when
        /// dirty state was encoded on demand (held in memory until the
        /// supervisor demotes it to disk).
        clean: bool,
    },
    /// The stream was already cold with in-memory bytes, and a matching
    /// spill let them be replaced by the disk file.
    DemotedToDisk {
        /// Instances the cold checkpoint covers.
        position: u64,
    },
    /// The stream was already cold; nothing changed.
    AlreadyCold {
        /// Instances the cold checkpoint covers.
        position: u64,
    },
}

/// One stream moved by an elastic resize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigratedStream {
    /// Stream id.
    pub stream: String,
    /// Shard the stream lived on before the resize.
    pub from: usize,
    /// Shard that owns the stream after the resize.
    pub to: usize,
}

/// What [`ServerHandle::resize_shards`] reports: the shard counts and
/// exactly which streams moved (only those whose consistent-hash ring
/// ownership changed).
#[derive(Debug, Clone, Default)]
pub struct ResizeReport {
    /// Shard count before the resize.
    pub old_shards: usize,
    /// Shard count after the resize.
    pub new_shards: usize,
    /// The migrated streams, sorted by id.
    pub moved: Vec<MigratedStream>,
}

/// What [`ServerHandle::shutdown`] returns: every stream's final summary
/// plus serving diagnostics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServeReport {
    /// Per-stream summaries, sorted by stream id (deterministic whatever
    /// the shard layout). Streams detached before shutdown are *not*
    /// included — `detach` already returned their result.
    pub streams: Vec<StreamSummary>,
    /// Instances ingested for ids with no attached pipeline (dropped).
    pub dropped_unknown: u64,
    /// Wire frames a network front-end discarded before they reached a
    /// shard (malformed framing, bad magic, unsupported version). Always 0
    /// for in-process serving; `rbm-im-net` folds its connection counters
    /// in here at shutdown so wire-level drops are visible in the final
    /// report alongside [`ServeReport::dropped_unknown`].
    pub frames_dropped: u64,
    /// Per-category breakdown of [`ServeReport::frames_dropped`], so
    /// protocol-defect triage does not stop at a single opaque total. The
    /// categories sum to `frames_dropped`.
    pub frames_dropped_by: FrameDropBreakdown,
    /// Workspace-pool checkouts served by reuse across all shards
    /// (including shards retired by resizes).
    pub workspace_reuse_hits: u64,
    /// Workspace-pool checkouts that had to allocate a fresh workspace.
    pub workspace_reuse_misses: u64,
    /// Shard workers that panicked before shutdown. A non-zero value means
    /// the panicked shards' stream summaries (and diagnostics counters) are
    /// **missing** from this report — callers aggregating fleet results
    /// must treat it as partial.
    pub panicked_shards: usize,
}

impl ServeReport {
    /// Total instances processed across all streams still attached at
    /// shutdown.
    pub fn total_instances(&self) -> u64 {
        self.streams.iter().map(|s| s.result.instances).sum()
    }

    /// Total drift signals across all streams still attached at shutdown.
    pub fn total_drifts(&self) -> usize {
        self.streams.iter().map(|s| s.result.detections.len()).sum()
    }
}

/// Per-category tallies of wire frames a network front-end dropped before
/// they reached a shard. Mirrors `rbm-im-net`'s connection counters and
/// the `rbm_net_frames_dropped_total{kind}` metric family; the categories
/// sum to [`ServeReport::frames_dropped`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameDropBreakdown {
    /// Frames with unparseable framing or bad magic.
    pub malformed: u64,
    /// Frames carrying an unsupported protocol version.
    pub unsupported_version: u64,
    /// Frames with an unknown frame-type byte.
    pub unknown_frame_type: u64,
    /// Frames whose declared length exceeded the per-frame cap.
    pub oversized: u64,
    /// Frames lost to connection I/O errors mid-read.
    pub io: u64,
    /// Reply-typed frames received where a request was expected.
    pub unexpected_reply: u64,
}

impl FrameDropBreakdown {
    /// Sum across all categories — equals the flat `frames_dropped` total.
    pub fn total(&self) -> u64 {
        self.malformed
            + self.unsupported_version
            + self.unknown_frame_type
            + self.oversized
            + self.io
            + self.unexpected_reply
    }
}

/// One shard's row in a [`HealthSnapshot`]: stream population plus the
/// same gauge readings as [`ShardLoad`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardHealth {
    /// Shard slot index.
    pub shard: usize,
    /// Streams currently attached to this shard (hot + cold).
    pub streams: usize,
    /// Attached streams with live in-memory pipeline state.
    pub hot_streams: usize,
    /// Attached streams hibernated to their binary checkpoint.
    pub cold_streams: usize,
    /// Ingest messages enqueued but not yet processed.
    pub queue_depth: u64,
    /// Instances inside those unprocessed messages.
    pub queued_instances: u64,
    /// Lifetime instances fully processed by this shard slot.
    pub processed_instances: u64,
}

/// Liveness-oriented summary of a running server, built by
/// [`ServerHandle::health`] and exposed over the wire as the `Health`
/// frame: per-shard load and stream counts, fleet-wide ingest latency
/// quantiles, and the age of the most recent checkpoint spill.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HealthSnapshot {
    /// Per-shard rows, by slot index.
    pub shards: Vec<ShardHealth>,
    /// Total attached streams across all shards (hot + cold).
    pub streams: usize,
    /// Attached streams with live in-memory pipeline state.
    pub hot_streams: usize,
    /// Attached streams hibernated to their binary checkpoint (the cold
    /// tier — see `ARCHITECTURE.md` §9).
    pub cold_streams: usize,
    /// Median per-message ingest latency in seconds, merged across shards
    /// (0 when timing instrumentation is off or nothing was recorded).
    pub ingest_p50_seconds: f64,
    /// 99th-percentile per-message ingest latency in seconds.
    pub ingest_p99_seconds: f64,
    /// 99th-percentile rehydration latency in seconds (cold → hot state
    /// rebuilds; 0 until a stream has rehydrated). Always recorded —
    /// rehydrates are cold-path transitions, not gated on `RBM_OBS`.
    pub rehydrate_p99_seconds: f64,
    /// Seconds since the last checkpoint spill acknowledged via the
    /// supervisor, or `-1` when no spill has happened yet.
    pub last_spill_age_seconds: f64,
}

/// Applies deterministic per-stream seeding to an attach spec: when the
/// registry's factory for `spec.name` accepts a `seed` parameter and the
/// spec does not pin one, `seed = derive_stream_seed(base_seed, stream_id)`
/// (masked to 48 bits so the `f64` parameter encoding is exact) is
/// injected. Exposed so sequential baseline runs can reproduce exactly what
/// the server built — the determinism tests pin serving against
/// `PipelineBuilder` through this function.
pub fn deterministic_spec(
    registry: &DetectorRegistry,
    base_seed: u64,
    stream_id: &str,
    spec: &DetectorSpec,
) -> DetectorSpec {
    if registry.accepts_param(&spec.name, "seed") && !spec.params.contains_key("seed") {
        let seed = derive_stream_seed(base_seed, stream_id) & ((1u64 << 48) - 1);
        spec.clone().with_param("seed", seed as f64)
    } else {
        spec.clone()
    }
}

/// A point-in-time load reading of one shard, taken from its lock-free
/// gauges. `queue_depth`/`queued_instances` are the ingest messages /
/// instances enqueued but not yet fully processed (the backlog a
/// [`ResizePolicy`](crate::supervisor::ResizePolicy) watches);
/// `processed_instances` is the shard's lifetime throughput counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ShardLoad {
    /// Shard slot index.
    pub shard: usize,
    /// Ingest messages enqueued but not yet processed.
    pub queue_depth: u64,
    /// Instances inside those unprocessed messages.
    pub queued_instances: u64,
    /// Lifetime instances fully processed by this shard slot.
    pub processed_instances: u64,
}

/// One shard slot of the live topology: its ingest channel plus the load
/// gauge shared with its worker.
#[derive(Clone)]
struct ShardLink {
    tx: SyncSender<ShardMsg>,
    gauge: Arc<ShardGauge>,
}

/// The shard fleet at one point in time: the consistent-hash router plus
/// one ingest channel (and load gauge) per shard slot. Swapped atomically
/// by resizes.
struct Topology {
    router: StreamRouter,
    shards: Vec<ShardLink>,
}

/// Server state shared between the handle and every [`StreamClient`].
struct ServerInner {
    config: ServeConfig,
    registry: Arc<DetectorRegistry>,
    bus: Arc<EventBus>,
    /// The live topology. Ingest takes a read lock for the duration of one
    /// channel send; resizes take the write lock only for the atomic swap.
    topology: RwLock<Topology>,
    /// This server's metric instruments (shard gauges, latency histograms,
    /// resize/spill timings). Per-server rather than process-global so
    /// concurrent servers in one process never share counters.
    metrics: Arc<MetricsRegistry>,
    /// Ring buffer of slow-path spans (resize phases, spills), drained to
    /// JSONL by the supervisor's sink.
    tracer: Arc<Tracer>,
    /// Monotonic reference point for `last_spill_ns`.
    epoch: Instant,
    /// Nanoseconds since `epoch` of the most recent checkpoint spill;
    /// `u64::MAX` until the first spill.
    last_spill_ns: AtomicU64,
    /// The fault-injection plane every (re)spawned worker inherits —
    /// `None` outside chaos runs (see `crate::chaos`).
    faults: Option<Arc<FaultPlane>>,
}

impl ServerInner {
    /// Blocking routed send: routes `msg` to the shard owning `id` under
    /// the current topology and waits for queue space. Each *enqueue
    /// attempt* happens with the topology read lock held (so a resize
    /// cannot retire the channel between resolve and send), but a full
    /// queue is waited out with the lock **released** — a saturated shard
    /// must not starve `resize_shards`' write lock, since growing the
    /// fleet is exactly how sustained overload gets relieved. Re-resolving
    /// per attempt also means the wait naturally follows the stream to its
    /// new shard across a resize.
    ///
    /// The `Err` carries the whole message back on purpose: a bounced
    /// ingest must return its instances to the caller
    /// ([`IngestError`] reclaims them), so boxing it away would just move
    /// the allocation onto the hot path.
    #[allow(clippy::result_large_err)]
    fn send_routed(&self, id: &str, msg: ShardMsg) -> Result<(), ShardMsg> {
        let mut msg = msg;
        let mut attempts = 0u32;
        loop {
            match self.try_send_routed(id, msg) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Full(bounced)) => {
                    msg = bounced;
                    // Brief yields first (queue space usually opens within
                    // a scheduling quantum), then bounded sleeps so blocked
                    // feeders do not busy-burn a core against a saturated
                    // shard.
                    attempts = attempts.saturating_add(1);
                    if attempts <= 16 {
                        std::thread::yield_now();
                    } else {
                        let micros = 50u64 << (attempts - 17).min(5);
                        std::thread::sleep(std::time::Duration::from_micros(micros));
                    }
                }
                Err(TrySendError::Disconnected(bounced)) => return Err(bounced),
            }
        }
    }

    /// See [`ServerInner::send_routed`] on the deliberately large `Err`.
    #[allow(clippy::result_large_err)]
    fn try_send_routed(&self, id: &str, msg: ShardMsg) -> Result<(), TrySendError<ShardMsg>> {
        let topology = self.topology.read().expect("topology lock poisoned");
        let shard = topology.router.shard_of(id);
        let instances = match &msg {
            ShardMsg::Ingest { payload, .. } => Some(payload.len()),
            _ => None,
        };
        let link = &topology.shards[shard];
        link.tx.try_send(msg)?;
        // Gauge the enqueue only after the send succeeded (bounced ingest
        // never reaches the queue). The worker counts the matching
        // completion, so `enqueued − processed` is the live queue depth.
        if let Some(instances) = instances {
            link.gauge.record_enqueue(instances);
        }
        Ok(())
    }
}

/// Diagnostics of shards retired by shrinking resizes, folded into the
/// final [`ServeReport`]. `summaries` is normally empty — a retired shard
/// owns no streams — but holds the final summaries of streams reinstated
/// on a retiring source after a failed migration (their state is finalized
/// at retirement rather than silently lost).
#[derive(Default)]
struct RetiredStats {
    summaries: Vec<StreamSummary>,
    dropped_unknown: u64,
    workspace_reuse_hits: u64,
    workspace_reuse_misses: u64,
    panicked_shards: usize,
}

/// A cloneable per-stream ingest handle. The stream id is interned once;
/// each send resolves the owning shard against the live topology, so
/// clients keep working across elastic resizes (instances simply start
/// flowing to the stream's new shard).
#[derive(Clone)]
pub struct StreamClient {
    id: Arc<str>,
    inner: Arc<ServerInner>,
}

impl StreamClient {
    /// The stream id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The shard currently owning the stream (may change across resizes).
    pub fn shard(&self) -> usize {
        self.inner.topology.read().expect("topology lock poisoned").router.shard_of(&self.id)
    }

    /// Non-blocking ingest of one instance. On a full queue the instance
    /// comes back in [`IngestError::Full`]; the caller decides between
    /// retrying, blocking ([`StreamClient::ingest`]) and shedding load.
    pub fn try_ingest(&self, instance: Instance) -> Result<(), IngestError> {
        match self.inner.try_send_routed(
            &self.id,
            ShardMsg::Ingest { id: Arc::clone(&self.id), payload: Payload::One(instance) },
        ) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(msg)) => Err(IngestError::Full(reclaim(msg))),
            Err(TrySendError::Disconnected(msg)) => Err(IngestError::Closed(reclaim(msg))),
        }
    }

    /// Non-blocking ingest of a client-side micro-batch (one channel
    /// message however many instances), in per-stream arrival order.
    pub fn try_ingest_batch(&self, instances: Vec<Instance>) -> Result<(), IngestError> {
        if instances.is_empty() {
            return Ok(());
        }
        match self.inner.try_send_routed(
            &self.id,
            ShardMsg::Ingest { id: Arc::clone(&self.id), payload: Payload::Many(instances) },
        ) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(msg)) => Err(IngestError::Full(reclaim(msg))),
            Err(TrySendError::Disconnected(msg)) => Err(IngestError::Closed(reclaim(msg))),
        }
    }

    /// Blocking ingest: waits for queue space instead of failing fast (the
    /// natural mode for replay pumps that should simply run at the shard's
    /// pace).
    pub fn ingest(&self, instance: Instance) -> Result<(), IngestError> {
        self.inner
            .send_routed(
                &self.id,
                ShardMsg::Ingest { id: Arc::clone(&self.id), payload: Payload::One(instance) },
            )
            .map_err(|msg| IngestError::Closed(reclaim(msg)))
    }

    /// Blocking micro-batch ingest.
    pub fn ingest_batch(&self, instances: Vec<Instance>) -> Result<(), IngestError> {
        if instances.is_empty() {
            return Ok(());
        }
        self.inner
            .send_routed(
                &self.id,
                ShardMsg::Ingest { id: Arc::clone(&self.id), payload: Payload::Many(instances) },
            )
            .map_err(|msg| IngestError::Closed(reclaim(msg)))
    }
}

impl fmt::Debug for StreamClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamClient").field("id", &self.id).finish()
    }
}

/// Recovers the instances of a bounced ingest message.
fn reclaim(msg: ShardMsg) -> Vec<Instance> {
    match msg {
        ShardMsg::Ingest { payload, .. } => payload.into_instances(),
        _ => Vec::new(),
    }
}

/// A running sharded serving instance.
///
/// Lifecycle: [`ServerHandle::start`] spawns the shard workers;
/// [`ServerHandle::attach`] creates per-stream pipeline state (classifier +
/// detector resolved from an arbitrary registry [`DetectorSpec`]);
/// [`StreamClient::try_ingest`] feeds instances with explicit backpressure;
/// [`ServerHandle::subscribe`] taps the drift-event bus;
/// [`ServerHandle::resize_shards`] grows or shrinks the fleet live,
/// migrating only ring-reassigned streams; [`ServerHandle::checkpoint_all`]
/// captures restartable per-stream checkpoints;
/// [`ServerHandle::drain`] barriers until all queued ingest is processed;
/// [`ServerHandle::shutdown`] stops the workers gracefully — every attached
/// stream's trailing micro-batch is flushed and its final summary returned.
pub struct ServerHandle {
    inner: Arc<ServerInner>,
    /// Worker join handles by shard slot (grown/shrunk by resizes).
    joins: Mutex<HashMap<usize, JoinHandle<ShardReport>>>,
    /// Serializes control-plane operations (attach / detach / resize /
    /// restore) so a resize observes a stable stream population.
    control: Mutex<()>,
    /// Counters of shards retired by shrinking resizes.
    retired: Mutex<RetiredStats>,
}

impl ServerHandle {
    /// Starts a server with the default detector registry. Adopts the
    /// process-wide `RBM_CHAOS` environment fault plane when one is
    /// configured ([`chaos::env_plane`]).
    pub fn start(config: ServeConfig) -> Self {
        Self::start_with_faults(
            config,
            Arc::new(DetectorRegistry::with_defaults()),
            chaos::env_plane().cloned(),
        )
    }

    /// Starts a server resolving attach specs against `registry` (e.g. one
    /// with application-specific detectors registered) under an explicit
    /// fault-injection plane — `chaos::env_plane().cloned()` to adopt the
    /// `RBM_CHAOS` environment gate like [`ServerHandle::start`], `None`
    /// for a clean run. Every shard worker — including workers spawned
    /// later by resizes and [`ServerHandle::revive_shard`] — consults
    /// `faults` for its seeded kill-shard and hibernate-storm decisions.
    /// The chaos suites build their servers through this
    /// (`ARCHITECTURE.md` §10).
    pub fn start_with_faults(
        config: ServeConfig,
        registry: Arc<DetectorRegistry>,
        faults: Option<Arc<FaultPlane>>,
    ) -> Self {
        assert!(config.num_shards >= 1, "a server needs at least one shard");
        assert!(config.queue_capacity >= 1, "ingest queues need capacity");
        let bus = Arc::new(EventBus::new());
        let metrics = Arc::new(MetricsRegistry::new());
        if let Some(plane) = &faults {
            plane.bind_metrics(&metrics);
        }
        let mut shards = Vec::with_capacity(config.num_shards);
        let mut joins = HashMap::with_capacity(config.num_shards);
        for index in 0..config.num_shards {
            let (link, join) =
                spawn_worker(index, &registry, &bus, &metrics, config.queue_capacity, &faults);
            shards.push(link);
            joins.insert(index, join);
        }
        let inner = Arc::new(ServerInner {
            config,
            registry,
            bus,
            topology: RwLock::new(Topology {
                router: StreamRouter::new(config.num_shards),
                shards,
            }),
            metrics,
            tracer: Arc::new(Tracer::new(4096)),
            epoch: Instant::now(),
            last_spill_ns: AtomicU64::new(u64::MAX),
            faults,
        });
        ServerHandle {
            inner,
            joins: Mutex::new(joins),
            control: Mutex::new(()),
            retired: Mutex::new(RetiredStats::default()),
        }
    }

    /// Current number of shards.
    pub fn num_shards(&self) -> usize {
        self.inner.topology.read().expect("topology lock poisoned").router.num_shards()
    }

    /// The shard a stream id currently routes to.
    pub fn shard_of(&self, stream_id: &str) -> usize {
        self.inner.topology.read().expect("topology lock poisoned").router.shard_of(stream_id)
    }

    /// Point-in-time load readings of every shard slot, from the lock-free
    /// gauges the ingest path maintains — cheap enough to poll at high
    /// frequency ([`Supervisor`](crate::supervisor::Supervisor) feeds these
    /// to its [`ResizePolicy`](crate::supervisor::ResizePolicy) every
    /// tick). Readings are monotone-counter differences, not a consistent
    /// cross-shard snapshot.
    pub fn shard_loads(&self) -> Vec<ShardLoad> {
        let topology = self.inner.topology.read().expect("topology lock poisoned");
        topology
            .shards
            .iter()
            .enumerate()
            .map(|(shard, link)| {
                let enq_m = link.gauge.enqueued_messages.get();
                let pro_m = link.gauge.processed_messages.get();
                let enq_i = link.gauge.enqueued_instances.get();
                let pro_i = link.gauge.processed_instances.get();
                ShardLoad {
                    shard,
                    queue_depth: enq_m.saturating_sub(pro_m),
                    queued_instances: enq_i.saturating_sub(pro_i),
                    processed_instances: pro_i,
                }
            })
            .collect()
    }

    /// The server's metrics registry: every shard gauge, latency
    /// histogram, and resize/spill timing registers here. Hand it to an
    /// [`ObsServer`](rbm_im_obs::ObsServer) for Prometheus scraping, or
    /// snapshot it directly.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.inner.metrics)
    }

    /// The server's span tracer (resize phases, checkpoint spills). The
    /// supervisor drains it to a JSONL trace sink each tick.
    pub fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.inner.tracer)
    }

    /// Marks a checkpoint spill as having just completed (feeds the
    /// last-spill age in [`ServerHandle::health`]).
    pub(crate) fn note_spill(&self) {
        let now = self.inner.epoch.elapsed().as_nanos() as u64;
        self.inner.last_spill_ns.store(now, Ordering::Relaxed);
    }

    /// A liveness summary of the running server: per-shard stream counts
    /// and load gauges, fleet-wide ingest latency quantiles, and the age
    /// of the most recent checkpoint spill. Takes the control lock (the
    /// per-shard stream counts are an inventory barrier), so it cannot
    /// race a resize — poll it from a health endpoint, not a hot loop.
    pub fn health(&self) -> HealthSnapshot {
        let _guard = self.control.lock().expect("control lock poisoned");
        let links: Vec<ShardLink> =
            self.inner.topology.read().expect("topology lock poisoned").shards.clone();
        let mut shards = Vec::with_capacity(links.len());
        let mut total_streams = 0usize;
        let mut total_hot = 0usize;
        let mut total_cold = 0usize;
        for (index, link) in links.iter().enumerate() {
            // A tier scan rather than a bare inventory: same barrier, but
            // the rows also say which residency tier each stream occupies.
            let (reply_tx, reply_rx) = channel();
            let entries = if link.tx.send(ShardMsg::Tiers { reply: reply_tx }).is_ok() {
                reply_rx.recv().unwrap_or_default()
            } else {
                Vec::new()
            };
            let streams = entries.len();
            let hot =
                entries.iter().filter(|e| matches!(e.tier, crate::shard::TierKind::Hot)).count();
            let cold = streams - hot;
            total_streams += streams;
            total_hot += hot;
            total_cold += cold;
            let enq_m = link.gauge.enqueued_messages.get();
            let pro_m = link.gauge.processed_messages.get();
            let enq_i = link.gauge.enqueued_instances.get();
            let pro_i = link.gauge.processed_instances.get();
            shards.push(ShardHealth {
                shard: index,
                streams,
                hot_streams: hot,
                cold_streams: cold,
                queue_depth: enq_m.saturating_sub(pro_m),
                queued_instances: enq_i.saturating_sub(pro_i),
                processed_instances: pro_i,
            });
        }
        let snapshot = self.inner.metrics.snapshot();
        let ingest = snapshot.merged_histogram("rbm_serve_ingest_latency_seconds");
        let rehydrate = snapshot.merged_histogram("rbm_serve_rehydrate_seconds");
        let last_spill_ns = self.inner.last_spill_ns.load(Ordering::Relaxed);
        let last_spill_age_seconds = if last_spill_ns == u64::MAX {
            -1.0
        } else {
            let now = self.inner.epoch.elapsed().as_nanos() as u64;
            now.saturating_sub(last_spill_ns) as f64 / 1e9
        };
        HealthSnapshot {
            shards,
            streams: total_streams,
            hot_streams: total_hot,
            cold_streams: total_cold,
            ingest_p50_seconds: ingest.quantile(0.5) as f64 / 1e9,
            ingest_p99_seconds: ingest.quantile(0.99) as f64 / 1e9,
            rehydrate_p99_seconds: rehydrate.quantile(0.99) as f64 / 1e9,
            last_spill_age_seconds,
        }
    }

    /// The ids of every currently attached stream, sorted (an inventory
    /// barrier across all shards — takes the control lock, so it cannot
    /// race a resize). The supervisor uses this to keep its per-stream
    /// checkpoint schedule in sync with attaches and detaches.
    pub fn attached_streams(&self) -> Vec<String> {
        let _guard = self.control.lock().expect("control lock poisoned");
        let links: Vec<ShardLink> =
            self.inner.topology.read().expect("topology lock poisoned").shards.clone();
        let mut replies = Vec::with_capacity(links.len());
        for link in &links {
            let (reply_tx, reply_rx) = channel();
            if link.tx.send(ShardMsg::Inventory { reply: reply_tx }).is_ok() {
                replies.push(reply_rx);
            }
        }
        let mut ids: Vec<String> = replies
            .into_iter()
            .filter_map(|rx| rx.recv().ok())
            .flatten()
            .map(|id| id.to_string())
            .collect();
        ids.sort();
        ids
    }

    /// The spec a stream would actually be built with: the attach spec
    /// after deterministic per-stream seed injection (identity when
    /// [`ServeConfig::deterministic_seeding`] is off). Sequential baseline
    /// runs use this to reproduce served results exactly.
    pub fn effective_spec(&self, stream_id: &str, spec: &DetectorSpec) -> DetectorSpec {
        if self.inner.config.deterministic_seeding {
            deterministic_spec(&self.inner.registry, self.inner.config.base_seed, stream_id, spec)
        } else {
            spec.clone()
        }
    }

    /// Attaches a stream under the server's default per-stream
    /// [`RunConfig`] (see [`ServeConfig::run`]) and returns its ingest
    /// client. Fails if the id is already attached or the spec does not
    /// resolve.
    pub fn attach(
        &self,
        stream_id: &str,
        schema: StreamSchema,
        spec: &DetectorSpec,
    ) -> Result<StreamClient, ServeError> {
        self.attach_with(stream_id, schema, spec, self.inner.config.run)
    }

    /// [`ServerHandle::attach`] with a per-stream [`RunConfig`] override
    /// (metric window, micro-batch size, snapshot cadence).
    pub fn attach_with(
        &self,
        stream_id: &str,
        schema: StreamSchema,
        spec: &DetectorSpec,
        run: RunConfig,
    ) -> Result<StreamClient, ServeError> {
        let _guard = self.control.lock().expect("control lock poisoned");
        let spec = self.effective_spec(stream_id, spec);
        let id: Arc<str> = Arc::from(stream_id);
        let (reply_tx, reply_rx) = channel();
        self.inner
            .send_routed(
                stream_id,
                ShardMsg::Attach { id: Arc::clone(&id), schema, spec, run, reply: reply_tx },
            )
            .map_err(|_| ServeError::ShardUnavailable)?;
        reply_rx.recv().map_err(|_| ServeError::ShardUnavailable)??;
        Ok(StreamClient { id, inner: Arc::clone(&self.inner) })
    }

    /// An ingest client for an already-attached stream id (routing is
    /// resolved per send; ingesting through a client for an unattached id
    /// counts into [`ServeReport::dropped_unknown`]).
    pub fn client(&self, stream_id: &str) -> StreamClient {
        StreamClient { id: Arc::from(stream_id), inner: Arc::clone(&self.inner) }
    }

    /// Convenience single-instance ingest by id (interns the id per call;
    /// hot loops should hold a [`StreamClient`]).
    pub fn try_ingest(&self, stream_id: &str, instance: Instance) -> Result<(), IngestError> {
        self.client(stream_id).try_ingest(instance)
    }

    /// Detaches a stream: its trailing micro-batch is flushed (events
    /// included), its pooled workspace reclaimed, and its final summary
    /// returned. Instances of that id still queued behind the detach marker
    /// are dropped (counted in [`ServeReport::dropped_unknown`]).
    pub fn detach(&self, stream_id: &str) -> Result<RunResult, ServeError> {
        let _guard = self.control.lock().expect("control lock poisoned");
        let (reply_tx, reply_rx) = channel();
        self.inner
            .send_routed(stream_id, ShardMsg::Detach { id: Arc::from(stream_id), reply: reply_tx })
            .map_err(|_| ServeError::ShardUnavailable)?;
        reply_rx.recv().map_err(|_| ServeError::ShardUnavailable)?
    }

    /// Captures a non-destructive checkpoint of one attached stream: the
    /// stream keeps serving, and the returned [`StreamCheckpoint`] (JSON-
    /// serializable) resumes it — after a restart, or on another server —
    /// bitwise-identically via [`ServerHandle::restore_stream`]. The
    /// checkpoint reflects every instance ingested before this call that
    /// has been processed; call [`ServerHandle::drain`] first for an
    /// exact up-to-here snapshot.
    pub fn checkpoint_stream(&self, stream_id: &str) -> Result<StreamCheckpoint, ServeError> {
        // Control lock: a concurrent resize could otherwise extract the
        // stream between routing and delivery, turning a checkpoint of a
        // healthy stream into a spurious `UnknownStream`.
        let _guard = self.control.lock().expect("control lock poisoned");
        let (reply_tx, reply_rx) = channel();
        self.inner
            .send_routed(
                stream_id,
                ShardMsg::Checkpoint { id: Arc::from(stream_id), reply: reply_tx },
            )
            .map_err(|_| ServeError::ShardUnavailable)?;
        reply_rx.recv().map_err(|_| ServeError::ShardUnavailable)?
    }

    /// Hibernates one attached stream: its live pipeline state is encoded
    /// to its binary checkpoint (held in memory until the supervisor's
    /// next spill demotes it to disk), its workspace scratch returns to
    /// the shard pool, and the stream stays attached — the next ingest,
    /// checkpoint or detach transparently rehydrates it,
    /// bitwise-identically. Normally the supervisor's
    /// [`TierPolicy`](crate::config::TierPolicy) drives this; the manual
    /// entry point exists for explicit cold-start flows (attach a large
    /// fleet, hibernate the idle tail up front).
    ///
    /// `spill` is the freshest background spill of the stream, as
    /// `(position, path)`, if the caller knows one: when the spill
    /// position matches the stream's, the eviction is **clean** — the
    /// disk file becomes the cold handle and no encode happens — and an
    /// already-cold in-memory handle is demoted to the disk file. The
    /// supervisor's tier pass passes its spills; external harnesses (the
    /// chaos suites, model-based tests) do the same to drive the full
    /// `Memory → Disk → rehydrate` lifecycle explicitly. Safe against
    /// stale spills: the shard adopts the disk file only when its
    /// position matches the stream's exactly.
    pub fn hibernate_stream(
        &self,
        stream_id: &str,
        spill: Option<(u64, PathBuf)>,
    ) -> Result<HibernateOutcome, ServeError> {
        // Control lock: hibernation must not race a resize extracting the
        // same stream (the shard also refuses parked ids, belt-and-braces).
        let _guard = self.control.lock().expect("control lock poisoned");
        let (reply_tx, reply_rx) = channel();
        self.inner
            .send_routed(
                stream_id,
                ShardMsg::Hibernate { id: Arc::from(stream_id), spill, reply: reply_tx },
            )
            .map_err(|_| ServeError::ShardUnavailable)?;
        reply_rx.recv().map_err(|_| ServeError::ShardUnavailable)?
    }

    /// Per-stream tier rows across the whole fleet (id, position, idle
    /// age, tier, resident bytes), sorted by stream id — the supervisor's
    /// tier policy plans its evictions from this, and budget-conscious
    /// callers audit their hot-tier population through it. Control-locked
    /// barrier, like [`ServerHandle::attached_streams`].
    pub fn tier_scan(&self) -> Vec<TierScanEntry> {
        let _guard = self.control.lock().expect("control lock poisoned");
        let links: Vec<ShardLink> =
            self.inner.topology.read().expect("topology lock poisoned").shards.clone();
        let mut replies = Vec::with_capacity(links.len());
        for link in &links {
            let (reply_tx, reply_rx) = channel();
            if link.tx.send(ShardMsg::Tiers { reply: reply_tx }).is_ok() {
                replies.push(reply_rx);
            }
        }
        let mut entries: Vec<TierScanEntry> =
            replies.into_iter().filter_map(|rx| rx.recv().ok()).flatten().collect();
        entries.sort_by(|a, b| a.id.cmp(&b.id));
        entries
    }

    /// Captures non-destructive checkpoints of **every** attached stream,
    /// sorted by stream id. The restart-from-disk flow is
    /// `drain(); checkpoint_all()` → spill via
    /// [`SnapshotSink`](crate::sink::SnapshotSink) → (new process) load →
    /// [`ServerHandle::restore_stream`] each.
    pub fn checkpoint_all(&self) -> Result<Vec<StreamCheckpoint>, ServeError> {
        let _guard = self.control.lock().expect("control lock poisoned");
        let links: Vec<ShardLink> =
            self.inner.topology.read().expect("topology lock poisoned").shards.clone();
        let mut replies = Vec::with_capacity(links.len());
        for link in &links {
            let (reply_tx, reply_rx) = channel();
            link.tx
                .send(ShardMsg::CheckpointAll { reply: reply_tx })
                .map_err(|_| ServeError::ShardUnavailable)?;
            replies.push(reply_rx);
        }
        let mut checkpoints = Vec::new();
        for reply in replies {
            checkpoints.extend(reply.recv().map_err(|_| ServeError::ShardUnavailable)??);
        }
        checkpoints.sort_by(|a, b| a.stream.cmp(&b.stream));
        Ok(checkpoints)
    }

    /// Attaches a stream from a previously captured [`StreamCheckpoint`]:
    /// the pipeline resumes exactly where the checkpoint was taken
    /// (classifier, detector — RBM weights and RNG included — metrics and
    /// the partially filled detector micro-batch all restored bitwise).
    /// Returns the stream's ingest client.
    pub fn restore_stream(
        &self,
        checkpoint: &StreamCheckpoint,
    ) -> Result<StreamClient, ServeError> {
        let _guard = self.control.lock().expect("control lock poisoned");
        let id: Arc<str> = Arc::from(checkpoint.stream.as_str());
        let (reply_tx, reply_rx) = channel();
        self.inner
            .send_routed(
                &checkpoint.stream,
                ShardMsg::Restore {
                    id: Arc::clone(&id),
                    bundle: MigrationBundle {
                        state: BundleState::Hot(checkpoint.checkpoint.clone()),
                        parked: Vec::new(),
                    },
                    kind: RestoreKind::FromDisk,
                    reply: reply_tx,
                },
            )
            .map_err(|_| ServeError::ShardUnavailable)?;
        reply_rx.recv().map_err(|_| ServeError::ShardUnavailable)?.map_err(|f| f.error)?;
        Ok(StreamClient { id, inner: Arc::clone(&self.inner) })
    }

    /// Subscribes to the drift-event bus: the receiver sees every event
    /// published after this call (attach/detach/migration notices,
    /// warnings, drifts with per-class attribution, periodic metric
    /// snapshots, supervisor resize decisions and checkpoint spills).
    pub fn subscribe(&self) -> Receiver<ServeEvent> {
        self.inner.bus.subscribe()
    }

    /// The server's event bus — the supervisor publishes fleet-level
    /// events (resize decisions, checkpoint spills) through it.
    pub(crate) fn bus(&self) -> &Arc<EventBus> {
        &self.inner.bus
    }

    /// Barrier: returns once every ingest message queued before this call
    /// has been fully processed on every shard (channel FIFO order is the
    /// proof). Events for everything ingested so far are on the bus when
    /// this returns.
    pub fn drain(&self) {
        // Control lock: during a resize, a mover's queued ingest sits in
        // park buffers rather than having been stepped, so a concurrent
        // drain would acknowledge a barrier it does not actually provide.
        let _guard = self.control.lock().expect("control lock poisoned");
        let links: Vec<ShardLink> =
            self.inner.topology.read().expect("topology lock poisoned").shards.clone();
        let mut replies = Vec::with_capacity(links.len());
        for link in &links {
            let (reply_tx, reply_rx) = channel();
            if link.tx.send(ShardMsg::Drain { reply: reply_tx }).is_ok() {
                replies.push(reply_rx);
            }
        }
        for reply in replies {
            let _ = reply.recv();
        }
    }

    /// Elastically resizes the shard fleet to `new_count` workers,
    /// **live**: streams keep serving throughout, and only the streams
    /// whose consistent-hash ring ownership changed are migrated. Each
    /// moving stream is parked (its ingest buffered, not dropped),
    /// checkpointed on its old shard, restored on its new shard, and its
    /// buffered ingest replayed in arrival order — so results remain
    /// bitwise-identical to a run that was never resized. Growing spawns
    /// new workers; shrinking drains and retires the removed ones (their
    /// diagnostics counters fold into the final [`ServeReport`]).
    pub fn resize_shards(&self, new_count: usize) -> Result<ResizeReport, ServeError> {
        if new_count == 0 {
            return Err(ServeError::Resize("a server needs at least one shard".into()));
        }
        let _guard = self.control.lock().expect("control lock poisoned");
        let (old_router, old_shards) = {
            let topology = self.inner.topology.read().expect("topology lock poisoned");
            (topology.router.clone(), topology.shards.clone())
        };
        let old_count = old_router.num_shards();
        let mut report =
            ResizeReport { old_shards: old_count, new_shards: new_count, moved: Vec::new() };
        if new_count == old_count {
            return Ok(report);
        }

        // New topology: surviving channels keep their slots; added slots
        // get fresh workers (spawned now, receiving traffic only after the
        // swap).
        let new_router = StreamRouter::new(new_count);
        let mut new_shards: Vec<ShardLink> = old_shards.iter().take(new_count).cloned().collect();
        for index in old_count..new_count {
            let (link, join) = spawn_worker(
                index,
                &self.inner.registry,
                &self.inner.bus,
                &self.inner.metrics,
                self.inner.config.queue_capacity,
                &self.inner.faults,
            );
            new_shards.push(link);
            self.joins.lock().expect("joins lock poisoned").insert(index, join);
        }

        // Plan: inventory every old shard and keep the streams whose ring
        // owner changes.
        let mut moving: Vec<(Arc<str>, usize, usize)> = Vec::new();
        for (shard, link) in old_shards.iter().enumerate() {
            let (reply_tx, reply_rx) = channel();
            link.tx
                .send(ShardMsg::Inventory { reply: reply_tx })
                .map_err(|_| ServeError::ShardUnavailable)?;
            for id in reply_rx.recv().map_err(|_| ServeError::ShardUnavailable)? {
                let to = new_router.shard_of(&id);
                if to != shard {
                    moving.push((id, shard, to));
                }
            }
        }
        moving.sort_by(|a, b| a.0.cmp(&b.0));

        // Resize phases are cold-path control operations, so their timings
        // are always recorded (no RBM_OBS gate): one histogram sample per
        // phase plus a trace span covering the same interval.
        let record_phase = |phase: &str, started: Instant| {
            let dur_ns = started.elapsed().as_nanos() as u64;
            self.inner
                .metrics
                .histogram("rbm_serve_resize_seconds", &[("phase", phase)])
                .record(dur_ns);
            let end_ns = self.inner.tracer.now_ns();
            self.inner.tracer.record(
                &format!("resize.{phase}"),
                &format!("{old_count}->{new_count}"),
                end_ns.saturating_sub(dur_ns),
                dur_ns,
            );
        };

        // Park the movers at their sources (freezes their state while
        // buffering — not dropping — their ingest) and at their targets
        // (catches instances routed there after the swap but before the
        // state arrives). Both parks are enqueued before the swap, so FIFO
        // ordering makes them effective before any rerouted ingest.
        let park_started = Instant::now();
        let mut by_source: HashMap<usize, Vec<Arc<str>>> = HashMap::new();
        let mut by_target: HashMap<usize, Vec<Arc<str>>> = HashMap::new();
        for (id, from, to) in &moving {
            by_source.entry(*from).or_default().push(Arc::clone(id));
            by_target.entry(*to).or_default().push(Arc::clone(id));
        }
        for (shard, ids) in &by_source {
            park(&old_shards[*shard].tx, ids.clone())?;
        }
        for (shard, ids) in &by_target {
            park(&new_shards[*shard].tx, ids.clone())?;
        }
        record_phase("park", park_started);

        // Extract every mover's state (checkpoint + ingest parked so far).
        // FIFO guarantees everything ingested before the park is in the
        // checkpoint; everything after is in the park buffer.
        let extract_started = Instant::now();
        let mut bundles: Vec<(Arc<str>, usize, usize, MigrationBundle)> =
            Vec::with_capacity(moving.len());
        let mut failure: Option<ServeError> = None;
        for (id, from, to) in &moving {
            let (reply_tx, reply_rx) = channel();
            if old_shards[*from]
                .tx
                .send(ShardMsg::Extract { id: Arc::clone(id), reply: reply_tx })
                .is_err()
            {
                failure = Some(ServeError::ShardUnavailable);
                break;
            }
            match reply_rx.recv() {
                Ok(Ok(bundle)) => bundles.push((Arc::clone(id), *from, *to, bundle)),
                Ok(Err(e)) => {
                    failure = Some(e);
                    break;
                }
                Err(_) => {
                    failure = Some(ServeError::ShardUnavailable);
                    break;
                }
            }
        }
        if let Some(e) = failure {
            // Abort: put every extracted stream back on its source, then
            // unpark everything (sources replay their buffers in place;
            // targets received no traffic yet). The added workers are
            // retired. Topology was never swapped, so service continues on
            // the old fleet.
            for (id, from, _to, bundle) in bundles {
                let (reply_tx, reply_rx) = channel();
                let _ = old_shards[from].tx.send(ShardMsg::Restore {
                    id,
                    bundle,
                    kind: RestoreKind::Reinstate,
                    reply: reply_tx,
                });
                let _ = reply_rx.recv();
            }
            for (shard, ids) in &by_source {
                for id in ids {
                    let (reply_tx, reply_rx) = channel();
                    let _ = old_shards[*shard]
                        .tx
                        .send(ShardMsg::Unpark { id: Arc::clone(id), reply: reply_tx });
                    let _ = reply_rx.recv();
                }
            }
            // The targets' pre-emptive park entries never saw traffic (the
            // topology was not swapped), but they must still be closed or
            // they would linger as dead state on surviving shards.
            for (shard, ids) in &by_target {
                for id in ids {
                    let (reply_tx, reply_rx) = channel();
                    let _ = new_shards[*shard]
                        .tx
                        .send(ShardMsg::Unpark { id: Arc::clone(id), reply: reply_tx });
                    let _ = reply_rx.recv();
                }
            }
            for (index, link) in new_shards.iter().enumerate().skip(old_count) {
                let _ = link.tx.send(ShardMsg::Shutdown);
                if let Some(join) = self.joins.lock().expect("joins lock poisoned").remove(&index) {
                    let _ = join.join();
                }
            }
            return Err(e);
        }
        record_phase("extract", extract_started);

        // Swap the topology. Ingest holds the read lock across each send,
        // so after this write section every new send resolves against the
        // new ring; everything sent before is already in a source queue
        // behind that source's park marker.
        {
            let mut topology = self.inner.topology.write().expect("topology lock poisoned");
            topology.router = new_router;
            topology.shards = new_shards.clone();
        }

        // Complete each migration: collect the stragglers that reached the
        // source after the extract, then restore on the target — state
        // first, then the source-parked instances, then the target's own
        // park buffer, preserving arrival order end to end. A failure for
        // one stream (a panicked worker, a corrupt restore) must not strand
        // the remaining movers mid-flight: every bundle is still driven to
        // completion, the failed stream's target park entry is closed (so
        // subsequent ingest is dropped-and-counted rather than buffered
        // forever), and the first error is reported after the sweep.
        let restore_started = Instant::now();
        let mut first_error: Option<ServeError> = None;
        for (id, from, to, mut bundle) in bundles {
            // Stragglers that reached the source after the extract.
            let (reply_tx, reply_rx) = channel();
            let stragglers = if old_shards[from]
                .tx
                .send(ShardMsg::Unpark { id: Arc::clone(&id), reply: reply_tx })
                .is_ok()
            {
                reply_rx.recv().ok()
            } else {
                None
            };
            let Some(stragglers) = stragglers else {
                // Source worker gone (panicked): the state is unrecoverable;
                // at least close the target's park entry so future ingest is
                // dropped-and-counted rather than buffered invisibly.
                close_park(&new_shards[to].tx, &id);
                first_error.get_or_insert(ServeError::ShardUnavailable);
                continue;
            };
            bundle.parked.extend(stragglers);

            let (reply_tx, reply_rx) = channel();
            let outcome = match new_shards[to].tx.send(ShardMsg::Restore {
                id: Arc::clone(&id),
                bundle,
                kind: RestoreKind::Migration { from_shard: from },
                reply: reply_tx,
            }) {
                Err(send_error) => {
                    // The bundle rides back inside the bounced message.
                    let bundle = match send_error.0 {
                        ShardMsg::Restore { bundle, .. } => Some(Box::new(bundle)),
                        _ => None,
                    };
                    Err(crate::shard::RestoreFailure {
                        error: ServeError::ShardUnavailable,
                        bundle,
                    })
                }
                Ok(()) => reply_rx.recv().unwrap_or(Err(crate::shard::RestoreFailure {
                    error: ServeError::ShardUnavailable,
                    bundle: None,
                })),
            };
            match outcome {
                Ok(()) => report.moved.push(MigratedStream { stream: id.to_string(), from, to }),
                Err(failure) => {
                    // Close the target's park entry so its future ingest
                    // surfaces as `dropped_unknown` instead of accumulating
                    // invisibly, then salvage the learned state by
                    // reinstating the stream on its source: a retiring
                    // source (shrink) finalizes it into the shutdown
                    // report; a surviving source keeps it queryable even
                    // though new ingest now routes to the target.
                    close_park(&new_shards[to].tx, &id);
                    if let Some(bundle) = failure.bundle {
                        let (reply_tx, reply_rx) = channel();
                        if old_shards[from]
                            .tx
                            .send(ShardMsg::Restore {
                                id: Arc::clone(&id),
                                bundle: *bundle,
                                kind: RestoreKind::Reinstate,
                                reply: reply_tx,
                            })
                            .is_ok()
                        {
                            let _ = reply_rx.recv();
                        }
                    }
                    first_error.get_or_insert(failure.error);
                }
            }
        }
        record_phase("restore", restore_started);
        if let Some(e) = first_error {
            return Err(e);
        }

        // Shrink: the removed shards now own no streams (ring ownership of
        // every stream they held moved by construction); retire them and
        // keep their counters for the final report.
        let retire_started = Instant::now();
        for (index, link) in old_shards.iter().enumerate().skip(new_count) {
            let _ = link.tx.send(ShardMsg::Shutdown);
            if let Some(join) = self.joins.lock().expect("joins lock poisoned").remove(&index) {
                let mut retired = self.retired.lock().expect("retired lock poisoned");
                match join.join() {
                    Ok(shard_report) => {
                        // Normally empty; holds salvaged streams reinstated
                        // after a failed migration.
                        retired.summaries.extend(shard_report.summaries);
                        retired.dropped_unknown += shard_report.dropped_unknown;
                        retired.workspace_reuse_hits += shard_report.workspace_reuse_hits;
                        retired.workspace_reuse_misses += shard_report.workspace_reuse_misses;
                    }
                    Err(_) => retired.panicked_shards += 1,
                }
            }
        }
        if new_count < old_count {
            record_phase("retire", retire_started);
        }
        Ok(report)
    }

    /// Replaces a **dead** (panicked) shard worker with a fresh one on
    /// the same slot: the dead handle is joined (folding its panic into
    /// [`ServeReport::panicked_shards`]), a new worker with an empty
    /// stream map takes over the slot's channel, and the slot's queue
    /// gauges are re-zeroed (messages enqueued to the dead worker were
    /// lost with its queue and will never be processed).
    ///
    /// The streams the dead worker owned are **not** restored here — the
    /// caller recovers them explicitly, e.g. via
    /// [`ServerHandle::restore_stream`] from their latest spills (plus a
    /// replay of the post-checkpoint tail), or a fresh
    /// [`ServerHandle::attach`] and a replay from zero. Refuses to touch
    /// a slot whose worker is still alive.
    pub fn revive_shard(&self, index: usize) -> Result<(), ServeError> {
        let _guard = self.control.lock().expect("control lock poisoned");
        let mut joins = self.joins.lock().expect("joins lock poisoned");
        let Some(join) = joins.get(&index) else {
            return Err(ServeError::Resize(format!("no shard slot {index}")));
        };
        if !join.is_finished() {
            return Err(ServeError::Resize(format!("shard {index} is still alive")));
        }
        let join = joins.remove(&index).expect("handle checked present above");
        {
            let mut retired = self.retired.lock().expect("retired lock poisoned");
            match join.join() {
                // A worker that exited cleanly (every sender gone) still
                // reported; keep its diagnostics like a retired shard's.
                Ok(report) => {
                    retired.summaries.extend(report.summaries);
                    retired.dropped_unknown += report.dropped_unknown;
                    retired.workspace_reuse_hits += report.workspace_reuse_hits;
                    retired.workspace_reuse_misses += report.workspace_reuse_misses;
                }
                Err(_) => retired.panicked_shards += 1,
            }
        }
        let (link, new_join) = spawn_worker(
            index,
            &self.inner.registry,
            &self.inner.bus,
            &self.inner.metrics,
            self.inner.config.queue_capacity,
            &self.inner.faults,
        );
        joins.insert(index, new_join);
        let mut topology = self.inner.topology.write().expect("topology lock poisoned");
        if index >= topology.shards.len() {
            return Err(ServeError::Resize(format!("shard slot {index} left the topology")));
        }
        // Re-zero the slot's queue depth under the write lock (no send can
        // be in flight — `try_send_routed` holds the read lock across
        // send + gauge): whatever the dead queue still held is marked
        // processed so `enqueued − processed` reads 0 for the new worker.
        let gauge = &topology.shards[index].gauge;
        let lost_messages =
            gauge.enqueued_messages.get().saturating_sub(gauge.processed_messages.get());
        let lost_instances =
            gauge.enqueued_instances.get().saturating_sub(gauge.processed_instances.get());
        gauge.processed_messages.add(lost_messages);
        gauge.processed_instances.add(lost_instances);
        topology.shards[index] = link;
        Ok(())
    }

    /// Graceful shutdown: each shard processes everything already queued,
    /// finalizes its remaining streams (flushing trailing micro-batches,
    /// publishing their `Detached` events) and exits. Returns the merged
    /// per-stream report, sorted by stream id.
    pub fn shutdown(self) -> ServeReport {
        {
            let _guard = self.control.lock().expect("control lock poisoned");
            let topology = self.inner.topology.read().expect("topology lock poisoned");
            for link in &topology.shards {
                let _ = link.tx.send(ShardMsg::Shutdown);
            }
        }
        let retired = self.retired.into_inner().expect("retired lock poisoned");
        let mut report = ServeReport {
            streams: retired.summaries,
            dropped_unknown: retired.dropped_unknown,
            frames_dropped: 0,
            frames_dropped_by: FrameDropBreakdown::default(),
            workspace_reuse_hits: retired.workspace_reuse_hits,
            workspace_reuse_misses: retired.workspace_reuse_misses,
            panicked_shards: retired.panicked_shards,
        };
        let joins = self.joins.into_inner().expect("joins lock poisoned");
        let mut joins: Vec<(usize, JoinHandle<ShardReport>)> = joins.into_iter().collect();
        joins.sort_by_key(|(index, _)| *index);
        for (_, join) in joins {
            match join.join() {
                Ok(shard_report) => {
                    report.streams.extend(shard_report.summaries);
                    report.dropped_unknown += shard_report.dropped_unknown;
                    report.workspace_reuse_hits += shard_report.workspace_reuse_hits;
                    report.workspace_reuse_misses += shard_report.workspace_reuse_misses;
                }
                Err(_) => {
                    // A panicked shard loses its streams' summaries; the
                    // remaining shards still report, and the loss is
                    // surfaced via `panicked_shards`.
                    report.panicked_shards += 1;
                }
            }
        }
        report.streams.sort_by(|a, b| a.stream.cmp(&b.stream));
        // Disconnect bus subscribers: lingering `StreamClient`s keep the
        // server internals (bus included) alive, so subscriber loops would
        // otherwise never see end-of-stream.
        self.inner.bus.close();
        report
    }
}

impl fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerHandle")
            .field("num_shards", &self.num_shards())
            .field("queue_capacity", &self.inner.config.queue_capacity)
            .finish()
    }
}

/// Spawns one shard worker thread with its bounded ingest channel and a
/// fresh load gauge.
fn spawn_worker(
    index: usize,
    registry: &Arc<DetectorRegistry>,
    bus: &Arc<EventBus>,
    metrics: &Arc<MetricsRegistry>,
    queue_capacity: usize,
    faults: &Option<Arc<FaultPlane>>,
) -> (ShardLink, JoinHandle<ShardReport>) {
    let (tx, rx) = std::sync::mpsc::sync_channel(queue_capacity);
    // Re-grown slots rebind the *same* registry counters (get-or-register
    // by id), so per-slot totals stay monotone across resizes.
    let gauge = Arc::new(ShardGauge::for_shard(metrics, index));
    let worker = ShardWorker::new(
        index,
        Arc::clone(registry),
        Arc::clone(bus),
        Arc::clone(&gauge),
        Arc::clone(metrics),
        faults.clone(),
    );
    let join = std::thread::Builder::new()
        .name(format!("rbm-serve-shard-{index}"))
        .spawn(move || worker.run(rx))
        .expect("failed to spawn shard worker");
    (ShardLink { tx, gauge }, join)
}

/// Parks `ids` on a shard and waits for the acknowledgement.
fn park(tx: &SyncSender<ShardMsg>, ids: Vec<Arc<str>>) -> Result<(), ServeError> {
    let (reply_tx, reply_rx) = channel();
    tx.send(ShardMsg::Park { ids, reply: reply_tx }).map_err(|_| ServeError::ShardUnavailable)?;
    reply_rx.recv().map_err(|_| ServeError::ShardUnavailable)
}

/// Closes a park entry on a shard (best effort), discarding whatever it
/// buffered — used when a migration's state is unrecoverable, so future
/// ingest for the id surfaces as `dropped_unknown` instead of buffering
/// forever.
fn close_park(tx: &SyncSender<ShardMsg>, id: &Arc<str>) {
    let (reply_tx, reply_rx) = channel();
    if tx.send(ShardMsg::Unpark { id: Arc::clone(id), reply: reply_tx }).is_ok() {
        let _ = reply_rx.recv();
    }
}
