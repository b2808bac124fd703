//! Disk persistence for served streams: spill per-stream checkpoints and
//! prequential metric snapshots, and load them back for restart-from-disk.
//!
//! A [`SnapshotSink`] owns a directory. Two artifact kinds live in it:
//!
//! * `<stream>.checkpoint.bin` — one self-contained [`StreamCheckpoint`]
//!   per stream (schema, effective spec, run config and complete pipeline
//!   state) in the compact binary codec (sized for frequent background
//!   spills — see [`rbm_im_harness::checkpoint::codec`]), overwritten on
//!   every spill. Older releases could also spill JSON
//!   (`<stream>.checkpoint.json`); loading sniffs the format from the file
//!   contents, so those legacy spills still load. A restarted process
//!   loads these with [`SnapshotSink::load_checkpoints`] and hands each to
//!   [`ServerHandle::restore_stream`](crate::server::ServerHandle::restore_stream)
//!   so the stream resumes bitwise-identically;
//! * `<stream>.metrics.jsonl` — appended [`PrequentialSnapshot`] lines
//!   (one JSON object per snapshot event), giving dashboards history
//!   across restarts. Feed the sink from a bus subscription via
//!   [`SnapshotSink::record_event`]. With a [`MetricRetention`] policy
//!   configured ([`SnapshotSink::with_retention`]), oversized or overaged
//!   live files rotate to numbered generations
//!   (`<stream>.metrics.1.jsonl` is the newest sealed generation) with a
//!   bounded keep count — the
//!   [`Supervisor`](crate::supervisor::Supervisor) enforces this off its
//!   spill schedule, and [`SnapshotSink::load_metrics`] reads the
//!   generations back oldest-first so history order survives rotation.
//!
//! Spills are atomic (temp file + rename), so a crash mid-spill leaves the
//! previous checkpoint intact, and a truncated or corrupt file is reported
//! as a clean [`io::Error`] at load — never silently skipped, never
//! garbage state.
//!
//! Stream ids are sanitized into file names (alphanumerics, `-`, `_`, `.`
//! kept; everything else mapped to `_` plus a hash suffix on collision
//! risk), so arbitrary ids cannot escape the sink directory.

use crate::event::{ServeEvent, ServeEventKind};
use crate::server::StreamCheckpoint;
use rbm_im_harness::checkpoint::codec::{self, CheckpointCodec};
use rbm_im_metrics::PrequentialSnapshot;
use rbm_im_obs::{Histogram, MetricsRegistry, TraceEvent};
use serde::Serialize as _;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Rotation policy for per-stream metric history files. The live
/// `<stream>.metrics.jsonl` rotates to `<stream>.metrics.1.jsonl` (older
/// generations shift up by one, the oldest beyond `keep_rotations` is
/// deleted) when it exceeds `max_bytes`, or — if `max_age` is set — when
/// it has lived longer than that.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricRetention {
    /// Rotate once the live file reaches this many bytes.
    pub max_bytes: u64,
    /// Sealed generations to keep (`0` = rotation simply truncates the
    /// history).
    pub keep_rotations: usize,
    /// Rotate a non-empty live file older than this regardless of size
    /// (age is measured from the file's creation time where the
    /// filesystem reports one, from its last modification otherwise).
    /// `None` = size-only rotation.
    pub max_age: Option<std::time::Duration>,
}

impl Default for MetricRetention {
    fn default() -> Self {
        MetricRetention { max_bytes: 1 << 20, keep_rotations: 2, max_age: None }
    }
}

/// Checkpoint-spill timing instruments
/// (`rbm_supervisor_spill_seconds{phase=encode|write}`), bound via
/// [`SnapshotSink::with_metrics`]. Spills are cold-path, so their timings
/// are recorded whenever instruments are bound, independent of `RBM_OBS`.
struct SpillObs {
    encode: Arc<Histogram>,
    write: Arc<Histogram>,
}

impl fmt::Debug for SpillObs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpillObs").finish()
    }
}

/// The sink's injectable filesystem seam: every checkpoint **write**,
/// the atomic **rename** publishing it, and every checkpoint **read**
/// route through this trait. Production uses the [`OsSpillIo`]
/// passthrough; the chaos plane substitutes
/// [`ChaosSpillIo`](crate::chaos::ChaosSpillIo) to inject ENOSPC,
/// short-write and corrupt-on-read faults deterministically
/// ([`SnapshotSink::with_io`]). Directory scans and metric/trace appends
/// stay on the raw filesystem — the fault surface under test is the
/// checkpoint durability path.
pub trait SpillIo: Send + Sync + fmt::Debug {
    /// Writes `bytes` to `path` (creating or truncating it).
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Atomically renames `from` over `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Reads the full contents of `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
}

/// The default [`SpillIo`]: a plain passthrough to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct OsSpillIo;

impl SpillIo for OsSpillIo {
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }
}

/// Spill directory for checkpoints and metric history.
#[derive(Debug)]
pub struct SnapshotSink {
    dir: PathBuf,
    retention: Option<MetricRetention>,
    spill_obs: Option<SpillObs>,
    /// The filesystem seam checkpoint writes/renames/reads go through
    /// ([`OsSpillIo`] unless [`SnapshotSink::with_io`] swapped it).
    io: Arc<dyn SpillIo>,
    /// Persistent encode buffer reused across checkpoint spills: after the
    /// first spill its capacity covers the fleet's largest checkpoint, so
    /// steady-state background spilling stops allocating a fresh output
    /// vector per checkpoint (pinned by `tests/spill_alloc.rs`).
    encode_scratch: Mutex<Vec<u8>>,
}

impl SnapshotSink {
    /// Opens (creating if needed) a sink over `dir`.
    ///
    /// Opening sweeps orphan `*.checkpoint.*.tmp` files out of the
    /// directory: a process that died between a spill's temp-file write
    /// and its rename leaves a partially written `.tmp` behind, and while
    /// the loaders never read those, letting them accumulate turns every
    /// crash into permanent disk debris. The sweep is safe by
    /// construction — a `.tmp` is only ever the *incomplete* side of an
    /// atomic publish, never the authoritative checkpoint.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            let orphan = path.file_name().and_then(|n| n.to_str()).is_some_and(|name| {
                name.ends_with(".checkpoint.bin.tmp") || name.ends_with(".checkpoint.json.tmp")
            });
            if orphan {
                let _ = fs::remove_file(&path);
            }
        }
        Ok(SnapshotSink {
            dir,
            retention: None,
            spill_obs: None,
            io: Arc::new(OsSpillIo),
            encode_scratch: Mutex::new(Vec::new()),
        })
    }

    /// Replaces the sink's filesystem seam ([`OsSpillIo`] by default):
    /// checkpoint writes, their atomic renames, and checkpoint reads all
    /// route through `io`. The chaos harness injects
    /// [`ChaosSpillIo`](crate::chaos::ChaosSpillIo) here.
    pub fn with_io(mut self, io: Arc<dyn SpillIo>) -> Self {
        self.io = io;
        self
    }

    /// Enables metric-history rotation under `retention`. Without this,
    /// live metric files grow unboundedly (the pre-rotation behavior) —
    /// though [`SnapshotSink::load_metrics`] always reads any sealed
    /// generations a retention-configured process left behind.
    pub fn with_retention(mut self, retention: MetricRetention) -> Self {
        self.retention = Some(retention);
        self
    }

    /// The metric retention policy, if one is configured.
    pub fn retention(&self) -> Option<MetricRetention> {
        self.retention
    }

    /// Binds spill-timing instruments from `metrics`: every subsequent
    /// checkpoint spill records its encode and write durations into
    /// `rbm_supervisor_spill_seconds{phase=encode|write}`. The
    /// [`Supervisor`](crate::supervisor::Supervisor) wires the server's
    /// registry in automatically, so supervised runs get spill timing
    /// without caller involvement.
    pub fn with_metrics(mut self, metrics: &MetricsRegistry) -> Self {
        self.spill_obs = Some(SpillObs {
            encode: metrics.histogram("rbm_supervisor_spill_seconds", &[("phase", "encode")]),
            write: metrics.histogram("rbm_supervisor_spill_seconds", &[("phase", "write")]),
        });
        self
    }

    /// The sink directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes (atomically, via a temp file + rename) one stream's binary
    /// checkpoint, overwriting any previous checkpoint of the same stream
    /// — a legacy JSON spill included, so it cannot linger as a stale
    /// duplicate. Returns the file path.
    pub fn spill_checkpoint(&self, checkpoint: &StreamCheckpoint) -> io::Result<PathBuf> {
        let path = self.checkpoint_path(&checkpoint.stream, CheckpointCodec::Binary);
        // Encode into the sink's persistent scratch buffer: cleared (not
        // shrunk) per spill, so once it has grown to the fleet's largest
        // checkpoint no further output allocations happen.
        let mut scratch = self.encode_scratch.lock().expect("encode scratch poisoned");
        scratch.clear();
        let encode_started = Instant::now();
        codec::encode_into(CheckpointCodec::Binary, checkpoint, &mut scratch);
        if let Some(obs) = &self.spill_obs {
            obs.encode.record(encode_started.elapsed().as_nanos() as u64);
        }
        let write_started = Instant::now();
        let tmp = path.with_extension("bin.tmp");
        self.io.write(&tmp, scratch.as_slice())?;
        self.io.rename(&tmp, &path)?;
        if let Some(obs) = &self.spill_obs {
            obs.write.record(write_started.elapsed().as_nanos() as u64);
        }
        // Drop a legacy JSON spill of the same stream, if any — the freshly
        // written file is now the stream's sole checkpoint. Best effort:
        // the spill itself is already durable at this point, and a crash
        // window between the rename and this removal is tolerated by the
        // loaders (they deduplicate by stream id).
        let _ = fs::remove_file(self.checkpoint_path(&checkpoint.stream, CheckpointCodec::Json));
        Ok(path)
    }

    /// Spills a batch of checkpoints (e.g. the output of
    /// `ServerHandle::checkpoint_all`). Returns the written paths.
    pub fn spill_all(&self, checkpoints: &[StreamCheckpoint]) -> io::Result<Vec<PathBuf>> {
        checkpoints.iter().map(|c| self.spill_checkpoint(c)).collect()
    }

    /// Loads every `*.checkpoint.bin` and legacy `*.checkpoint.json` in
    /// the sink directory, sorted by stream id — **one checkpoint per
    /// stream**: if a crash between a spill's rename and its stale-file
    /// cleanup left both files behind, the one capturing the *later*
    /// stream position wins (ties go to the binary file), so a restart
    /// never restores the same stream twice or from the staler of the two
    /// states. The codec of each file is sniffed from its contents. Files
    /// that fail to parse (truncated spill, corrupt bytes, a future codec
    /// version) are reported as errors naming the file, not skipped
    /// silently.
    pub fn load_checkpoints(&self) -> io::Result<Vec<StreamCheckpoint>> {
        let mut by_stream: std::collections::HashMap<String, (bool, StreamCheckpoint)> =
            std::collections::HashMap::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            let is_binary_file = name.ends_with(".checkpoint.bin");
            if !is_binary_file && !name.ends_with(".checkpoint.json") {
                continue;
            }
            let bytes = self.io.read(&path)?;
            let checkpoint: StreamCheckpoint = codec::decode(&bytes).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", path.display()))
            })?;
            let candidate = (is_binary_file, checkpoint);
            match by_stream.remove(&candidate.1.stream) {
                None => {
                    by_stream.insert(candidate.1.stream.clone(), candidate);
                }
                Some(existing) => {
                    let winner = fresher(existing, candidate);
                    by_stream.insert(winner.1.stream.clone(), winner);
                }
            }
        }
        let mut checkpoints: Vec<StreamCheckpoint> =
            by_stream.into_values().map(|(_, c)| c).collect();
        checkpoints.sort_by(|a, b| a.stream.cmp(&b.stream));
        Ok(checkpoints)
    }

    /// Loads one stream's checkpoint, binary or legacy JSON (duplicates
    /// from a crashed spill resolve exactly like
    /// [`SnapshotSink::load_checkpoints`]: later position wins, ties to
    /// binary). Returns `Ok(None)` if the stream has no spill.
    pub fn load_checkpoint(&self, stream: &str) -> io::Result<Option<StreamCheckpoint>> {
        let mut best: Option<(bool, StreamCheckpoint)> = None;
        for codec_kind in [CheckpointCodec::Binary, CheckpointCodec::Json] {
            let path = self.checkpoint_path(stream, codec_kind);
            if !path.exists() {
                continue;
            }
            let bytes = self.io.read(&path)?;
            let checkpoint: StreamCheckpoint = codec::decode(&bytes).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", path.display()))
            })?;
            let candidate = (codec_kind == CheckpointCodec::Binary, checkpoint);
            best = Some(match best.take() {
                None => candidate,
                Some(existing) => fresher(existing, candidate),
            });
        }
        Ok(best.map(|(_, c)| c))
    }

    /// Appends one prequential snapshot to the stream's metrics history
    /// (`<stream>.metrics.jsonl`, one JSON object per line).
    pub fn spill_snapshot(
        &self,
        stream: &str,
        position: u64,
        snapshot: &PrequentialSnapshot,
    ) -> io::Result<()> {
        let value = serde::Value::object(vec![
            ("stream", stream.serialize_value()),
            ("position", position.serialize_value()),
            ("snapshot", snapshot.serialize_value()),
        ]);
        let line = serde_json::to_string(&value)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let mut file =
            fs::OpenOptions::new().create(true).append(true).open(self.metrics_path(stream))?;
        writeln!(file, "{line}")
    }

    /// Routes one bus event into the sink: metric snapshots are appended
    /// to the stream's history, everything else is ignored. Wire a bus
    /// subscription loop straight through this.
    pub fn record_event(&self, event: &ServeEvent) -> io::Result<()> {
        match &event.kind {
            ServeEventKind::Snapshot { position, snapshot } => {
                self.spill_snapshot(&event.stream, *position, snapshot)
            }
            _ => Ok(()),
        }
    }

    /// Applies the configured [`MetricRetention`] to one stream's live
    /// metric file: if it is oversized (or overaged), sealed generations
    /// shift up one slot (dropping the one beyond `keep_rotations`) and
    /// the live file becomes `<stream>.metrics.1.jsonl`. Returns whether a
    /// rotation happened. A sink without a retention policy, a missing
    /// live file, and an empty live file are all no-ops.
    ///
    /// The [`Supervisor`](crate::supervisor::Supervisor) calls this after
    /// each successful background spill of the stream, so rotation rides
    /// the spill schedule and needs no clock of its own.
    pub fn enforce_metric_retention(&self, stream: &str) -> io::Result<bool> {
        let live = self.metrics_path(stream);
        self.enforce_rotation(&live, |generation| self.rotated_metrics_path(stream, generation))
    }

    /// The shared rotation engine behind metric-history and trace-log
    /// retention: applies the sink's [`MetricRetention`] to `live`, with
    /// `rotated(n)` naming the n-th sealed generation. Returns whether a
    /// rotation happened; no policy / missing file / empty file are no-ops.
    fn enforce_rotation(
        &self,
        live: &Path,
        rotated: impl Fn(usize) -> PathBuf,
    ) -> io::Result<bool> {
        let Some(retention) = self.retention else { return Ok(false) };
        let meta = match fs::metadata(live) {
            Ok(meta) => meta,
            Err(_) => return Ok(false),
        };
        if meta.len() == 0 {
            return Ok(false);
        }
        let oversized = meta.len() >= retention.max_bytes;
        let overaged = retention.max_age.is_some_and(|max_age| {
            meta.created()
                .or_else(|_| meta.modified())
                .ok()
                .and_then(|born| born.elapsed().ok())
                .is_some_and(|age| age >= max_age)
        });
        if !oversized && !overaged {
            return Ok(false);
        }
        if retention.keep_rotations == 0 {
            fs::remove_file(live)?;
            return Ok(true);
        }
        // Shift sealed generations newest-last so no rename overwrites a
        // file that has not moved yet; the generation falling off the end
        // is deleted (best effort — it may never have existed).
        let _ = fs::remove_file(rotated(retention.keep_rotations));
        for generation in (1..retention.keep_rotations).rev() {
            let from = rotated(generation);
            if from.exists() {
                fs::rename(&from, rotated(generation + 1))?;
            }
        }
        fs::rename(live, rotated(1))?;
        Ok(true)
    }

    /// Appends completed trace spans (one JSONL line each, see
    /// [`TraceEvent::to_jsonl`]) to the sink-wide `trace.jsonl`, then
    /// applies the sink's retention policy to it (sealed generations are
    /// `trace.1.jsonl`, …). The supervisor drains the server's
    /// [`Tracer`](rbm_im_obs::Tracer) through this every tick. Returns
    /// whether the append triggered a rotation.
    pub fn spill_trace(&self, events: &[TraceEvent]) -> io::Result<bool> {
        if events.is_empty() {
            return Ok(false);
        }
        let live = self.trace_path();
        let mut file = fs::OpenOptions::new().create(true).append(true).open(&live)?;
        for event in events {
            writeln!(file, "{}", event.to_jsonl())?;
        }
        drop(file);
        self.enforce_rotation(&live, |generation| self.rotated_trace_path(generation))
    }

    /// The live trace log path (`<dir>/trace.jsonl`).
    pub fn trace_path(&self) -> PathBuf {
        self.dir.join("trace.jsonl")
    }

    fn rotated_trace_path(&self, generation: usize) -> PathBuf {
        self.dir.join(format!("trace.{generation}.jsonl"))
    }

    /// Loads a stream's appended metric history (positions + snapshots),
    /// oldest first: sealed rotation generations from oldest to newest,
    /// then the live file — so history order is exactly append order, with
    /// or without rotation (and regardless of whether *this* sink has a
    /// retention policy).
    pub fn load_metrics(&self, stream: &str) -> io::Result<Vec<(u64, PrequentialSnapshot)>> {
        let mut generations = Vec::new();
        for generation in 1.. {
            let path = self.rotated_metrics_path(stream, generation);
            if !path.exists() {
                break;
            }
            generations.push(path);
        }
        let mut history = Vec::new();
        for path in generations.into_iter().rev() {
            self.read_metrics_file(&path, &mut history)?;
        }
        let live = self.metrics_path(stream);
        if live.exists() {
            self.read_metrics_file(&live, &mut history)?;
        }
        Ok(history)
    }

    /// Parses one metrics JSONL file into `history` (append order).
    fn read_metrics_file(
        &self,
        path: &Path,
        history: &mut Vec<(u64, PrequentialSnapshot)>,
    ) -> io::Result<()> {
        for (lineno, line) in fs::read_to_string(path)?.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let value = serde_json::parse_value(line).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}:{}: {e}", path.display(), lineno + 1),
                )
            })?;
            let read = || -> Result<(u64, PrequentialSnapshot), serde::Error> {
                let position: u64 = value.field("position")?;
                let snapshot = serde::Deserialize::deserialize_value(value.req("snapshot")?)?;
                Ok((position, snapshot))
            };
            history.push(read().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}:{}: {e}", path.display(), lineno + 1),
                )
            })?);
        }
        Ok(())
    }

    fn checkpoint_path(&self, stream: &str, codec: CheckpointCodec) -> PathBuf {
        self.dir.join(format!("{}.checkpoint.{}", sanitize(stream), codec.extension()))
    }

    fn metrics_path(&self, stream: &str) -> PathBuf {
        self.dir.join(format!("{}.metrics.jsonl", sanitize(stream)))
    }

    fn rotated_metrics_path(&self, stream: &str, generation: usize) -> PathBuf {
        self.dir.join(format!("{}.metrics.{generation}.jsonl", sanitize(stream)))
    }
}

/// Of two spills for the same stream (possible only in the crash window
/// between a spill's rename and its stale-file cleanup), the fresher one
/// is the one capturing the later stream position — which file format
/// holds it says nothing about recency. Ties go to the binary file.
fn fresher(a: (bool, StreamCheckpoint), b: (bool, StreamCheckpoint)) -> (bool, StreamCheckpoint) {
    let position_a = a.1.checkpoint.processed().unwrap_or(0);
    let position_b = b.1.checkpoint.processed().unwrap_or(0);
    if position_a > position_b || (position_a == position_b && a.0) {
        a
    } else {
        b
    }
}

/// Maps a stream id to a safe file stem: benign characters pass through,
/// everything else becomes `_`, and any id that needed mapping (or is
/// empty) gets a disambiguating hash suffix so distinct ids cannot collide
/// on the same file.
fn sanitize(stream: &str) -> String {
    let mapped: String = stream
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') { c } else { '_' })
        .collect();
    if mapped == stream && !mapped.is_empty() {
        mapped
    } else {
        let hash = rbm_im_streams::source::derive_stream_seed(0x51ac_c0de, stream);
        format!("{mapped}-{hash:016x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_keeps_benign_ids_and_disambiguates_others() {
        assert_eq!(sanitize("feed-01"), "feed-01");
        assert_eq!(sanitize("a.b_c9"), "a.b_c9");
        let odd = sanitize("../escape");
        assert!(!odd.contains('/'), "{odd}");
        assert!(odd.ends_with(|c: char| c.is_ascii_hexdigit()), "{odd}: needs a hash suffix");
        assert_ne!(sanitize("a/b"), sanitize("a:b"), "mapped ids must stay distinct");
        assert!(!sanitize("").is_empty());
    }
}
