//! The autonomic control plane: a background supervisor that makes the
//! serving fleet checkpoint and resize *itself*.
//!
//! PR 4 landed the mechanisms — non-destructive
//! [`checkpoint_stream`](crate::server::ServerHandle::checkpoint_stream) /
//! [`checkpoint_all`](crate::server::ServerHandle::checkpoint_all), disk
//! spills via [`SnapshotSink`], and live
//! [`resize_shards`](crate::server::ServerHandle::resize_shards) — but
//! every one of them was caller-triggered. The [`Supervisor`] closes the
//! loop:
//!
//! * **background checkpointing** — every attached stream is spilled on a
//!   per-stream interval with a deterministic per-stream *jitter* phase
//!   (derived from the stream id, so a thousand streams never spill in
//!   one thundering herd), and — when
//!   [`CheckpointPolicy::on_drift`] is set — *urgently* right after the
//!   stream signals a drift, because post-drift state is exactly the
//!   state worth preserving. Spills use the sink's codec (the compact
//!   binary codec by default) and land atomically;
//! * **load-based auto-resize** — each tick the supervisor reads the
//!   shards' lock-free queue gauges
//!   ([`ServerHandle::shard_loads`](crate::server::ServerHandle::shard_loads)),
//!   feeds them to a pluggable [`ResizePolicy`] (the default
//!   [`HysteresisResizePolicy`] smooths the per-shard backlog with an
//!   EWMA and applies distinct grow/shrink watermarks so the fleet never
//!   flaps), clamps the answer to `[min_shards, max_shards]`, enforces a
//!   cooldown between resizes, and then calls `resize_shards` — emitting
//!   a [`ServeEventKind::ResizeDecision`] bus event either way the
//!   decision goes;
//! * **tiered stream state** — with a [`TierPolicy`] configured, each tick
//!   scans the fleet's residency tiers and **hibernates** hot streams that
//!   are idle past the policy's age, or — under budget pressure — the
//!   least-recently-active ones until the hot tier fits
//!   [`TierPolicy::max_hot_streams`]. Every eviction first spills a fresh
//!   checkpoint, so clean evictions reuse the disk file without encoding,
//!   and already-cold in-memory handles are demoted to disk the same way.
//!   Disk-authoritative cold streams are skipped by the periodic spill
//!   schedule (their checkpoint cannot go stale) until they rehydrate.
//!
//! The supervisor runs on its **own** thread and touches the data plane
//! only through the same public control operations callers use: ingest
//! hot paths are never locked by it, and — because checkpoints are
//! non-destructive and resizes are bitwise-safe by construction (PR 4's
//! park/extract/replay protocol) — a supervised run produces **bitwise
//! identical** per-stream results to an unsupervised or sequential run,
//! whatever the supervisor decides and whenever it decides it. The
//! `tests/supervisor.rs` suite pins exactly that, plus the cold-restart
//! path: kill the server, reload the latest background spills, resume,
//! and the tail of the stream completes bitwise-identically.

use crate::config::TierPolicy;
use crate::event::{ServeEvent, ServeEventKind};
use crate::server::{HibernateOutcome, ServeError, ServerHandle, ShardLoad};
use crate::shard::TierKind;
use crate::sink::SnapshotSink;
use rbm_im_stats::Ewma;
use rbm_im_streams::source::derive_stream_seed;
use std::collections::{HashMap, HashSet};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// When and how the supervisor spills background checkpoints.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointPolicy {
    /// Per-stream spill interval.
    pub every: Duration,
    /// Fraction of `every` (in `[0, 1]`) used as a deterministic
    /// per-stream phase offset, staggering spills across the fleet. The
    /// offset is derived from the stream id, so it is stable across
    /// restarts.
    pub jitter: f64,
    /// Spill a stream immediately after it signals a drift (the
    /// post-drift state is the state a warm restart most wants).
    pub on_drift: bool,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy { every: Duration::from_secs(30), jitter: 0.5, on_drift: true }
    }
}

/// Bounds and pacing of load-based auto-resize.
pub struct ResizeConfig {
    /// Smallest fleet the supervisor may shrink to.
    pub min_shards: usize,
    /// Largest fleet the supervisor may grow to.
    pub max_shards: usize,
    /// Minimum wall-clock spacing between two resizes (a live migration
    /// has real cost; give the new topology time to absorb load before
    /// judging it).
    pub cooldown: Duration,
    /// The decision rule.
    pub policy: Box<dyn ResizePolicy>,
}

impl ResizeConfig {
    /// Hysteresis policy over the given bounds with default watermarks.
    pub fn bounded(min_shards: usize, max_shards: usize) -> Self {
        ResizeConfig {
            min_shards,
            max_shards,
            cooldown: Duration::from_secs(10),
            policy: Box::new(HysteresisResizePolicy::default()),
        }
    }
}

impl std::fmt::Debug for ResizeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResizeConfig")
            .field("min_shards", &self.min_shards)
            .field("max_shards", &self.max_shards)
            .field("cooldown", &self.cooldown)
            .finish()
    }
}

/// A pluggable fleet-sizing rule: fed the current shard loads every
/// supervisor tick, answers with the shard count it wants (or `None` to
/// stay put). The supervisor clamps the answer to the configured bounds
/// and applies the cooldown — policies only express *desire*.
pub trait ResizePolicy: Send {
    /// The desired shard count under the observed loads.
    fn desired_shards(&mut self, loads: &[ShardLoad], current: usize) -> Option<usize>;

    /// The smoothed load signal the policy is currently acting on
    /// (reported in [`ServeEventKind::ResizeDecision`] events for
    /// observability; return the raw mean if the policy keeps no state).
    fn signal(&self) -> f64 {
        0.0
    }
}

/// The default [`ResizePolicy`]: an EWMA of the mean per-shard queued
/// instances, compared against distinct grow/shrink watermarks
/// (hysteresis), stepping one shard at a time.
///
/// * backlog above `scale_up_backlog` → one more shard;
/// * backlog below `scale_down_backlog` → one fewer shard;
/// * in between → stay put.
///
/// The gap between the watermarks is what prevents flapping: a fleet that
/// just grew sees its backlog drop, and must drop *well below* the grow
/// threshold before the policy gives the shard back.
pub struct HysteresisResizePolicy {
    ewma: Ewma,
    /// Smoothed mean queued instances per shard above which to add a shard.
    pub scale_up_backlog: f64,
    /// Smoothed mean queued instances per shard below which to drop one.
    pub scale_down_backlog: f64,
}

impl HysteresisResizePolicy {
    /// Policy with explicit watermarks and EWMA smoothing factor.
    ///
    /// # Panics
    /// Panics if `scale_down_backlog >= scale_up_backlog` (the hysteresis
    /// band must be non-empty) or `lambda` is outside `(0, 1]`.
    pub fn new(scale_up_backlog: f64, scale_down_backlog: f64, lambda: f64) -> Self {
        assert!(
            scale_down_backlog < scale_up_backlog,
            "hysteresis needs scale_down_backlog < scale_up_backlog"
        );
        HysteresisResizePolicy { ewma: Ewma::new(lambda), scale_up_backlog, scale_down_backlog }
    }
}

impl Default for HysteresisResizePolicy {
    fn default() -> Self {
        // Watermarks in *instances queued per shard*: grow when a shard is
        // ~half an ingest queue behind, shrink when backlogs are trivial.
        HysteresisResizePolicy::new(512.0, 32.0, 0.3)
    }
}

impl ResizePolicy for HysteresisResizePolicy {
    fn desired_shards(&mut self, loads: &[ShardLoad], current: usize) -> Option<usize> {
        if loads.is_empty() {
            return None;
        }
        let mean =
            loads.iter().map(|l| l.queued_instances as f64).sum::<f64>() / loads.len() as f64;
        let smoothed = self.ewma.update(mean);
        if smoothed > self.scale_up_backlog {
            Some(current + 1)
        } else if smoothed < self.scale_down_backlog && current > 1 {
            Some(current - 1)
        } else {
            None
        }
    }

    fn signal(&self) -> f64 {
        self.ewma.value()
    }
}

/// Supervisor configuration: the control-loop cadence plus the two
/// policies it enforces (either may be disabled independently).
#[derive(Debug)]
pub struct SupervisorConfig {
    /// Control-loop cadence: how often schedules are checked and shard
    /// loads sampled. Checkpoint intervals shorter than the tick are
    /// effectively rounded up to it.
    pub tick: Duration,
    /// Background checkpointing policy (`None` disables spilling).
    pub checkpoint: Option<CheckpointPolicy>,
    /// Load-based auto-resize (`None` pins the fleet size).
    pub resize: Option<ResizeConfig>,
    /// Hot/cold stream tiering (`None` keeps every stream hot — the
    /// pre-tiering behavior). See [`TierPolicy`].
    pub tier: Option<TierPolicy>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            tick: Duration::from_millis(250),
            checkpoint: Some(CheckpointPolicy::default()),
            resize: None,
            tier: None,
        }
    }
}

/// One auto-resize the supervisor **performed**. Attempts that failed are
/// not recorded here (the fleet size did not change); they land in
/// [`SupervisorReport::errors`].
#[derive(Debug, Clone)]
pub struct ResizeDecision {
    /// Shard count before.
    pub old_shards: usize,
    /// Shard count after (the policy's desire clamped to the bounds).
    pub new_shards: usize,
    /// The smoothed backlog signal at decision time.
    pub mean_queued_instances: f64,
    /// Streams the resize migrated.
    pub moved: usize,
}

/// What a stopped supervisor hands back.
#[derive(Debug, Default)]
pub struct SupervisorReport {
    /// Periodic (interval-driven) checkpoints spilled.
    pub periodic_spills: u64,
    /// Urgent (drift-driven) checkpoints spilled.
    pub urgent_spills: u64,
    /// Streams hibernated by the tier policy (idle-age or budget
    /// pressure). Each hibernation also spilled a fresh checkpoint.
    pub hibernations: u64,
    /// Cold streams whose in-memory checkpoint bytes were demoted to the
    /// spill file on disk.
    pub disk_demotions: u64,
    /// Every resize decision taken, in order.
    pub resizes: Vec<ResizeDecision>,
    /// Control-plane errors the supervisor absorbed (a stream detached
    /// mid-checkpoint, a spill hitting a full disk, …). The supervisor
    /// never panics the fleet over these; they are reported for
    /// observability.
    pub errors: Vec<String>,
}

/// The background control-plane thread. Construct with
/// [`Supervisor::start`]; stop (and collect the report) with
/// [`SupervisorHandle::stop`].
pub struct Supervisor;

/// Handle to a running supervisor: owns its thread and stop signal.
pub struct SupervisorHandle {
    stop: Sender<()>,
    join: JoinHandle<SupervisorReport>,
}

impl Supervisor {
    /// Spawns the supervisor thread over a shared server handle and a
    /// spill sink.
    ///
    /// The supervisor holds its `Arc<ServerHandle>` until stopped, so the
    /// teardown order is: `handle.stop()` first, then
    /// `Arc::try_unwrap(server)` and
    /// [`shutdown`](crate::server::ServerHandle::shutdown).
    pub fn start(
        server: Arc<ServerHandle>,
        sink: SnapshotSink,
        config: SupervisorConfig,
    ) -> SupervisorHandle {
        let (stop, stop_rx) = channel();
        // Subscribed before the thread starts, so no drift event published
        // after `start` returns can be missed.
        let events = server.subscribe();
        let join = std::thread::Builder::new()
            .name("rbm-serve-supervisor".to_string())
            .spawn(move || run(server, sink, config, stop_rx, events))
            .expect("failed to spawn supervisor thread");
        SupervisorHandle { stop, join }
    }
}

impl SupervisorHandle {
    /// Stops the supervisor (finishing the tick in progress) and returns
    /// its report. The supervisor's `Arc<ServerHandle>` is released by the
    /// time this returns.
    pub fn stop(self) -> SupervisorReport {
        // A dropped receiver also stops the loop, so send errors (the
        // thread already exiting) are fine to ignore.
        let _ = self.stop.send(());
        self.join.join().expect("supervisor thread panicked")
    }
}

impl std::fmt::Debug for SupervisorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisorHandle").finish()
    }
}

/// Per-stream checkpoint schedule entry.
struct StreamSchedule {
    next_due: Instant,
    /// A drift fired since the last spill — spill at the next tick.
    urgent: bool,
}

/// The supervisor loop body.
fn run(
    server: Arc<ServerHandle>,
    sink: SnapshotSink,
    mut config: SupervisorConfig,
    stop: Receiver<()>,
    events: Receiver<ServeEvent>,
) -> SupervisorReport {
    // Auto-wire telemetry: the sink records spill encode/write timings
    // into the server's registry, urgent spills are counted, and the
    // server's slow-path trace ring is drained to the sink every tick.
    let metrics = server.metrics();
    let sink = sink.with_metrics(&metrics);
    let urgent_spills = metrics.counter("rbm_supervisor_urgent_spills_total", &[]);
    let tracer = server.tracer();
    let mut report = SupervisorReport::default();
    let mut schedule: HashMap<String, StreamSchedule> = HashMap::new();
    // Cold streams whose spill file on disk *is* their state (clean
    // eviction or completed demotion): periodic spills skip them — the
    // bytes cannot go stale while the stream is cold. Membership ends at
    // the stream's `Rehydrated` (or `Detached`) event.
    let mut cold_disk: HashSet<String> = HashSet::new();
    let mut last_resize = Instant::now();
    // Streams attached before the supervisor started predate the bus
    // subscription; seed the schedule once from a fleet inventory. From
    // here on the schedule is maintained purely from bus events — an
    // Inventory round-trip queues behind ingest backlog on every shard,
    // and a per-tick barrier would stall urgent spills and resize relief
    // exactly when the fleet is overloaded.
    if let Some(policy) = config.checkpoint {
        let now = Instant::now();
        for id in server.attached_streams() {
            let next_due = now + jitter_offset(&policy, &id);
            schedule.insert(id, StreamSchedule { next_due, urgent: false });
        }
    }
    loop {
        // The stop channel doubles as the tick clock.
        match stop.recv_timeout(config.tick) {
            Ok(()) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {}
        }
        let now = Instant::now();

        // Fold the bus events since the last tick into the schedule and
        // the cold-disk set. Events arrive in publish order, and a
        // stream's `Attached` always precedes its `Drift`s, so an urgent
        // mark can never race the stream's first schedule entry. Draining
        // happens every tick regardless of policies, so the bus queue
        // cannot grow unboundedly behind a resize-only supervisor.
        for event in events.try_iter() {
            match &event.kind {
                ServeEventKind::Attached => {
                    if let Some(policy) = config.checkpoint {
                        let id = event.stream.to_string();
                        let next_due = now + jitter_offset(&policy, &id);
                        schedule.entry(id).or_insert(StreamSchedule { next_due, urgent: false });
                    }
                }
                ServeEventKind::Detached { .. } => {
                    schedule.remove(event.stream.as_ref());
                    cold_disk.remove(event.stream.as_ref());
                }
                ServeEventKind::Drift { .. } if config.checkpoint.is_some_and(|p| p.on_drift) => {
                    if let Some(entry) = schedule.get_mut(event.stream.as_ref()) {
                        entry.urgent = true;
                    }
                }
                // Rehydrated state starts diverging from its spill the
                // moment it steps again — back onto the normal schedule.
                ServeEventKind::Rehydrated { .. } => {
                    cold_disk.remove(event.stream.as_ref());
                }
                _ => {}
            }
        }

        // Resize before the spill round: the decision is a gauge read,
        // while a checkpoint round can take milliseconds per stream — an
        // overloaded fleet should not wait behind its own spill schedule
        // for relief. The policy sees the gauges every tick (so its
        // smoothing keeps tracking reality through the cooldown); only
        // the resize *action* is paced by the cooldown.
        if let Some(resize) = config.resize.as_mut() {
            let loads = server.shard_loads();
            let current = loads.len();
            let desired = resize.policy.desired_shards(&loads, current);
            if now.duration_since(last_resize) >= resize.cooldown {
                if let Some(desired) = desired {
                    let clamped = desired.clamp(resize.min_shards, resize.max_shards);
                    if clamped != current {
                        let signal = resize.policy.signal();
                        match server.resize_shards(clamped) {
                            Ok(resize_report) => {
                                server.bus().publish(ServeEvent {
                                    stream: Arc::from(""),
                                    shard: clamped,
                                    kind: ServeEventKind::ResizeDecision {
                                        old_shards: current,
                                        new_shards: clamped,
                                        mean_queued_instances: signal,
                                    },
                                });
                                report.resizes.push(ResizeDecision {
                                    old_shards: current,
                                    new_shards: clamped,
                                    mean_queued_instances: signal,
                                    moved: resize_report.moved.len(),
                                });
                            }
                            Err(e) => {
                                // No event: the fleet size did not change,
                                // and subscribers must be able to trust
                                // `ResizeDecision` as fact, not intent.
                                report
                                    .errors
                                    .push(format!("resize {current} -> {clamped} failed: {e}"));
                            }
                        }
                        // Pace the next attempt either way — retrying a
                        // failed resize every tick would busy-loop the
                        // error against a broken fleet.
                        last_resize = Instant::now();
                    }
                }
            }
        }

        // Tier pass: hibernate idle / over-budget hot streams and demote
        // cold in-memory handles to disk. Runs after the resize block (a
        // just-resized fleet reports fresh tier rows) and before the spill
        // round (an eviction's spill resets the stream's spill schedule,
        // so the round never redundantly re-spills what the tier pass just
        // wrote).
        if let Some(tier) = config.tier {
            let scan = server.tier_scan();
            let hot: Vec<_> = scan.iter().filter(|e| e.tier == TierKind::Hot).collect();
            let mut planned: Vec<&std::sync::Arc<str>> = Vec::new();
            let mut planned_ids: HashSet<&str> = HashSet::new();
            // Budget pressure first — these evictions are *urgent* (the
            // fleet is over its memory budget): most-idle hot streams go,
            // id order breaking ties so the plan is deterministic.
            if let Some(max_hot) = tier.max_hot_streams {
                if hot.len() > max_hot {
                    let mut candidates = hot.clone();
                    candidates.sort_by(|a, b| b.idle.cmp(&a.idle).then_with(|| a.id.cmp(&b.id)));
                    for entry in &candidates[..hot.len() - max_hot] {
                        if planned_ids.insert(entry.id.as_ref()) {
                            planned.push(&entry.id);
                        }
                    }
                }
            }
            // Idle-age trigger on whatever remains hot.
            if let Some(idle_after) = tier.idle_after {
                for entry in &hot {
                    if entry.idle >= idle_after && planned_ids.insert(entry.id.as_ref()) {
                        planned.push(&entry.id);
                    }
                }
            }
            // Cold in-memory handles: re-spill at their (frozen) position
            // and swap the resident bytes for the disk file.
            for entry in scan.iter().filter(|e| e.tier == TierKind::ColdMemory) {
                if planned_ids.insert(entry.id.as_ref()) {
                    planned.push(&entry.id);
                }
            }
            // The per-tick cap bounds this tick's encode+spill work; the
            // remainder drains over the following ticks (the scan re-finds
            // it).
            for id in planned.into_iter().take(tier.max_demotions_per_tick) {
                let span = tracer.span("hibernate", id);
                let outcome = demote(&server, &sink, id);
                span.finish();
                match outcome {
                    Ok((outcome, position)) => {
                        server.note_spill();
                        server.bus().publish(ServeEvent {
                            stream: Arc::from(id.as_ref()),
                            shard: server.shard_of(id),
                            kind: ServeEventKind::CheckpointSpilled { position, urgent: false },
                        });
                        match outcome {
                            HibernateOutcome::Hibernated { clean, .. } => {
                                report.hibernations += 1;
                                if clean {
                                    cold_disk.insert(id.to_string());
                                }
                            }
                            HibernateOutcome::DemotedToDisk { .. } => {
                                report.disk_demotions += 1;
                                cold_disk.insert(id.to_string());
                            }
                            HibernateOutcome::AlreadyCold { .. } => {
                                cold_disk.insert(id.to_string());
                            }
                        }
                        // The eviction just spilled a fresh checkpoint;
                        // push the stream's periodic slot out accordingly.
                        if let (Some(policy), Some(entry)) =
                            (config.checkpoint, schedule.get_mut(id.as_ref()))
                        {
                            entry.next_due = now + policy.every;
                        }
                    }
                    // Detached between the scan and the demote: the
                    // schedule entry dies at its Detached event.
                    Err(SpillError::Serve(ServeError::UnknownStream(_))) => {}
                    Err(e) => report.errors.push(format!("hibernate of `{id}`: {e}")),
                }
            }
        }

        // Spill everything due or urgent.
        if let Some(policy) = config.checkpoint {
            for (id, entry) in schedule.iter_mut() {
                let urgent = entry.urgent;
                if !urgent && now < entry.next_due {
                    continue;
                }
                if !urgent && cold_disk.contains(id) {
                    // The disk file already *is* this cold stream's state;
                    // a periodic spill would decode and rewrite identical
                    // bytes. (Urgent spills still run — a drift marked the
                    // state worth preserving before the stream went cold.)
                    entry.next_due = now + policy.every;
                    continue;
                }
                let span = tracer.span("spill", id);
                let outcome = spill(&server, &sink, id);
                span.finish();
                match outcome {
                    Ok(position) => {
                        server.note_spill();
                        if urgent {
                            report.urgent_spills += 1;
                            urgent_spills.inc();
                        } else {
                            report.periodic_spills += 1;
                        }
                        server.bus().publish(ServeEvent {
                            stream: Arc::from(id.as_str()),
                            shard: server.shard_of(id),
                            kind: ServeEventKind::CheckpointSpilled { position, urgent },
                        });
                        // Metric-history rotation rides the spill
                        // schedule: right after a stream's spill, its
                        // (sink-configured) retention policy is enforced.
                        if let Err(e) = sink.enforce_metric_retention(id) {
                            report.errors.push(format!("metric retention of `{id}`: {e}"));
                        }
                    }
                    // The stream detached after this tick's event drain:
                    // not an error, the entry dies at its Detached event.
                    Err(SpillError::Serve(ServeError::UnknownStream(_))) => {}
                    Err(e) => report.errors.push(format!("checkpoint of `{id}`: {e}")),
                }
                entry.urgent = false;
                entry.next_due = now + policy.every;
            }
        }

        // Persist the slow-path spans accumulated this tick (spills above,
        // resize phases recorded by the server) to the sink's JSONL trace
        // log, rotation included.
        if !tracer.is_empty() {
            if let Err(e) = sink.spill_trace(&tracer.drain()) {
                report.errors.push(format!("trace spill: {e}"));
            }
        }
    }
    // Final flush so spans from the last partial tick are not lost.
    if !tracer.is_empty() {
        if let Err(e) = sink.spill_trace(&tracer.drain()) {
            report.errors.push(format!("trace spill: {e}"));
        }
    }
    report
}

/// The deterministic per-stream phase offset of the first spill.
fn jitter_offset(policy: &CheckpointPolicy, stream_id: &str) -> Duration {
    let jitter = policy.jitter.clamp(0.0, 1.0);
    if jitter == 0.0 {
        return Duration::ZERO;
    }
    // 53-bit uniform fraction derived from the stream id — stable across
    // restarts, independent of wall clock.
    let hash = derive_stream_seed(0x5e1f_ca7e, stream_id);
    let frac = (hash >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    policy.every.mul_f64(jitter * frac)
}

/// Why a background spill failed.
enum SpillError {
    Serve(ServeError),
    Io(std::io::Error),
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillError::Serve(e) => write!(f, "{e}"),
            SpillError::Io(e) => write!(f, "spill I/O: {e}"),
        }
    }
}

/// Checkpoints one stream and spills it through the sink, returning the
/// checkpoint's resume position.
fn spill(server: &ServerHandle, sink: &SnapshotSink, id: &str) -> Result<u64, SpillError> {
    let checkpoint = server.checkpoint_stream(id).map_err(SpillError::Serve)?;
    let position = checkpoint.checkpoint.processed().unwrap_or(0);
    sink.spill_checkpoint(&checkpoint).map_err(SpillError::Io)?;
    Ok(position)
}

/// Demotes one stream toward the cold-disk tier: spill a fresh checkpoint,
/// then hand the shard its `(position, path)` so the eviction reuses the
/// file when the stream has not stepped since (clean), or encodes on
/// demand when it has (dirty — the in-memory bytes are demoted by the next
/// tick's pass, by which point the position is frozen). Returns the
/// outcome plus the spilled position.
fn demote(
    server: &ServerHandle,
    sink: &SnapshotSink,
    id: &str,
) -> Result<(HibernateOutcome, u64), SpillError> {
    let checkpoint = server.checkpoint_stream(id).map_err(SpillError::Serve)?;
    let position = checkpoint.checkpoint.processed().unwrap_or(0);
    let path = sink.spill_checkpoint(&checkpoint).map_err(SpillError::Io)?;
    let outcome = server.hibernate_stream(id, Some((position, path))).map_err(SpillError::Serve)?;
    Ok((outcome, position))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(shard: usize, queued: u64) -> ShardLoad {
        ShardLoad {
            shard,
            queue_depth: queued / 8,
            queued_instances: queued,
            processed_instances: 0,
        }
    }

    #[test]
    fn hysteresis_policy_steps_up_and_down_with_a_dead_band() {
        // lambda = 1.0 → no smoothing lag, pure watermark logic.
        let mut policy = HysteresisResizePolicy::new(100.0, 10.0, 1.0);
        assert_eq!(policy.desired_shards(&[load(0, 500)], 2), Some(3), "overload grows");
        assert_eq!(policy.desired_shards(&[load(0, 50)], 3), None, "dead band holds");
        assert_eq!(policy.desired_shards(&[load(0, 0)], 3), Some(2), "idle shrinks");
        assert_eq!(policy.desired_shards(&[load(0, 0)], 1), None, "never below one shard");
        assert_eq!(policy.desired_shards(&[], 4), None, "no loads, no opinion");
    }

    #[test]
    fn hysteresis_smoothing_filters_single_spikes() {
        let mut policy = HysteresisResizePolicy::new(100.0, 10.0, 0.05);
        // Initialize the average inside the dead band, then spike: a
        // single 1000-instance burst must not trigger growth at λ=0.05...
        assert_eq!(policy.desired_shards(&[load(0, 50)], 2), None);
        assert_eq!(policy.desired_shards(&[load(0, 1_000)], 2), None, "one spike is filtered");
        // ...but a sustained backlog works through the EWMA quickly.
        let mut grew = false;
        for _ in 0..10 {
            if policy.desired_shards(&[load(0, 1_000)], 2).is_some() {
                grew = true;
                break;
            }
        }
        assert!(grew, "sustained overload must grow the fleet");
        assert!(policy.signal() > 100.0);
    }

    #[test]
    #[should_panic]
    fn inverted_watermarks_are_rejected() {
        HysteresisResizePolicy::new(10.0, 100.0, 0.5);
    }

    #[test]
    fn jitter_offsets_are_deterministic_and_bounded() {
        let policy =
            CheckpointPolicy { every: Duration::from_secs(10), jitter: 0.5, on_drift: false };
        let a1 = jitter_offset(&policy, "feed-a");
        let a2 = jitter_offset(&policy, "feed-a");
        let b = jitter_offset(&policy, "feed-b");
        assert_eq!(a1, a2, "offset is a pure function of the id");
        assert_ne!(a1, b, "distinct ids stagger");
        assert!(a1 <= Duration::from_secs(5), "bounded by jitter × every");
        let none = CheckpointPolicy { jitter: 0.0, ..policy };
        assert_eq!(jitter_offset(&none, "feed-a"), Duration::ZERO);
    }
}
