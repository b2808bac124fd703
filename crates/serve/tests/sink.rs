//! `SnapshotSink` durability contract: binary spills, legacy JSON loads,
//! and error paths.
//!
//! Background spills are only worth having if a warm restart can trust
//! them, so every failure mode must surface as a clean error naming the
//! offending file: truncated spills, corrupt bytes, future codec
//! versions, unwritable directories. The sink always writes the binary
//! codec, but a `*.checkpoint.json` spilled by an older release must
//! still load and restore the *same* pipeline.

use rbm_im_harness::checkpoint::codec::BINARY_MAGIC;
use rbm_im_harness::checkpoint::PipelineCheckpoint;
use rbm_im_harness::pipeline::{PipelineEvent, RunConfig};
use rbm_im_harness::registry::{DetectorRegistry, DetectorSpec};
use rbm_im_harness::stepper::PipelineStepper;
use rbm_im_serve::{SnapshotSink, StreamCheckpoint};
use rbm_im_streams::generators::RandomRbfGenerator;
use rbm_im_streams::{DataStream, StreamExt};
use std::fs;
use std::path::{Path, PathBuf};

/// A unique scratch directory under the target-adjacent temp root.
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rbm-sink-{label}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A small warmed checkpoint to spill (500 instances, ADWIN so it is
/// cheap).
fn sample_checkpoint(stream: &str) -> StreamCheckpoint {
    sample_checkpoint_at(stream, 500)
}

/// A warmed checkpoint capturing exactly `instances` processed instances.
fn sample_checkpoint_at(stream: &str, instances: usize) -> StreamCheckpoint {
    let mut gen = RandomRbfGenerator::new(6, 3, 2, 0.0, 11);
    let schema = gen.schema().clone();
    let spec = DetectorSpec::parse("adwin(delta=0.01)").unwrap();
    let run = RunConfig { metric_window: 100, detector_batch: 10, ..Default::default() };
    let mut stepper =
        PipelineStepper::from_spec(DetectorRegistry::global(), &spec, &schema, run).unwrap();
    let mut sink = |_: &PipelineEvent<'_>| {};
    for instance in gen.take_instances(instances) {
        stepper.step(instance, &mut sink);
    }
    StreamCheckpoint {
        stream: stream.to_string(),
        checkpoint: PipelineCheckpoint::capture(&stepper, schema, spec).unwrap(),
    }
}

/// Writes `checkpoint` into `dir` the way older releases spilled JSON: a
/// pretty-printed `<stream>.checkpoint.json`. Returns the file path.
fn write_legacy_json_spill(dir: &Path, checkpoint: &StreamCheckpoint) -> PathBuf {
    fs::create_dir_all(dir).unwrap();
    let path = dir.join(format!("{}.checkpoint.json", checkpoint.stream));
    fs::write(&path, serde_json::to_string_pretty(checkpoint).unwrap()).unwrap();
    path
}

fn checkpoint_file(dir: &Path, suffix: &str) -> PathBuf {
    fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.to_string_lossy().ends_with(suffix))
        .unwrap_or_else(|| panic!("no *{suffix} in {}", dir.display()))
}

#[test]
fn json_and_binary_spills_restore_the_same_checkpoint() {
    let checkpoint = sample_checkpoint("feed-a");

    let json_dir = scratch("json");
    let json_path = write_legacy_json_spill(&json_dir, &checkpoint);
    let json_sink = SnapshotSink::new(&json_dir).unwrap();

    let bin_dir = scratch("bin");
    let bin_sink = SnapshotSink::new(&bin_dir).unwrap();
    let bin_path = bin_sink.spill_checkpoint(&checkpoint).unwrap();
    assert!(bin_path.to_string_lossy().ends_with(".checkpoint.bin"));

    // The binary spill carries the magic and is much smaller than the
    // pretty JSON spill.
    let bin_bytes = fs::read(&bin_path).unwrap();
    let json_bytes = fs::read(&json_path).unwrap();
    assert_eq!(&bin_bytes[..4], &BINARY_MAGIC);
    assert!(
        bin_bytes.len() * 4 <= json_bytes.len(),
        "binary ({}) must be ≥4× smaller than the JSON spill ({})",
        bin_bytes.len(),
        json_bytes.len()
    );

    // Loading sniffs the format and the payloads are identical.
    let from_json = json_sink.load_checkpoints().unwrap();
    let from_bin = bin_sink.load_checkpoints().unwrap();
    assert_eq!(from_json, from_bin);
    assert_eq!(from_bin[0], checkpoint);
    assert_eq!(json_sink.load_checkpoint("feed-a").unwrap().unwrap(), checkpoint);
    assert_eq!(bin_sink.load_checkpoint("feed-a").unwrap().unwrap(), checkpoint);
    assert!(bin_sink.load_checkpoint("missing").unwrap().is_none());

    let _ = fs::remove_dir_all(json_dir);
    let _ = fs::remove_dir_all(bin_dir);
}

#[test]
fn switching_codecs_replaces_the_old_spill_atomically() {
    let dir = scratch("switch");
    let checkpoint = sample_checkpoint("feed-b");
    write_legacy_json_spill(&dir, &checkpoint);
    // Re-spill the same stream: the legacy JSON file must be gone, or a
    // later load would see a stale duplicate.
    SnapshotSink::new(&dir).unwrap().spill_checkpoint(&checkpoint).unwrap();
    assert!(!dir.join("feed-b.checkpoint.json").exists(), "legacy spill must be removed");
    let loaded = SnapshotSink::new(&dir).unwrap().load_checkpoints().unwrap();
    assert_eq!(loaded.len(), 1, "stale legacy spill must have been replaced");
    assert_eq!(loaded[0], checkpoint);
    // No leftover temp files from the atomic write protocol.
    for entry in fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name();
        assert!(!name.to_string_lossy().ends_with(".tmp"), "leftover temp file {name:?}");
    }
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn crash_window_duplicate_spills_dedupe_by_freshest_position() {
    // Simulate a crash between a spill's rename and its stale-file
    // cleanup: a binary and a legacy JSON file exist for one stream.
    // Loading must return exactly one checkpoint per stream — the one
    // capturing the later position, whichever file holds it — so a cold
    // restart never restores a stream twice or from stale state.
    let dir = scratch("crash-window");
    let older = sample_checkpoint_at("feed-f", 300);
    let fresh = sample_checkpoint_at("feed-f", 500);

    // Stale legacy JSON (older position) beside the fresh binary spill.
    let sink = SnapshotSink::new(&dir).unwrap();
    sink.spill_checkpoint(&fresh).unwrap();
    write_legacy_json_spill(&dir, &older);
    let loaded = sink.load_checkpoints().unwrap();
    assert_eq!(loaded.len(), 1, "one checkpoint per stream, not one per file");
    assert_eq!(loaded[0], fresh, "the later-position spill must win");
    assert_eq!(sink.load_checkpoint("feed-f").unwrap().unwrap(), fresh);

    // Stale binary (older position) beside a fresher legacy JSON spill —
    // the JSON one must win now.
    let dir2 = scratch("crash-window-reverse");
    let sink = SnapshotSink::new(&dir2).unwrap();
    sink.spill_checkpoint(&older).unwrap();
    write_legacy_json_spill(&dir2, &fresh);
    let loaded = sink.load_checkpoints().unwrap();
    assert_eq!(loaded.len(), 1);
    assert_eq!(loaded[0], fresh, "freshness must beat the binary preference");
    assert_eq!(sink.load_checkpoint("feed-f").unwrap().unwrap(), fresh);

    let _ = fs::remove_dir_all(dir);
    let _ = fs::remove_dir_all(dir2);
}

#[test]
fn opening_a_sink_sweeps_orphan_tmp_files() {
    // A crash (or injected ENOSPC) between the atomic-write protocol's
    // temp write and its rename leaves a `*.checkpoint.<ext>.tmp` orphan
    // behind (`.json.tmp` from a release that still spilled JSON). The
    // next sink opened on the directory must sweep those so debris never
    // accumulates — while leaving real checkpoints and unrelated files
    // alone.
    let dir = scratch("tmp-sweep");
    let sink = SnapshotSink::new(&dir).unwrap();
    let checkpoint = sample_checkpoint("feed-g");
    sink.spill_checkpoint(&checkpoint).unwrap();
    fs::write(dir.join("feed-g.checkpoint.bin.tmp"), b"half-written").unwrap();
    fs::write(dir.join("other.checkpoint.json.tmp"), b"half-written").unwrap();
    fs::write(dir.join("notes.tmp"), b"not checkpoint debris").unwrap();

    let reopened = SnapshotSink::new(&dir).unwrap();
    assert!(!dir.join("feed-g.checkpoint.bin.tmp").exists(), "orphan binary tmp must be swept");
    assert!(!dir.join("other.checkpoint.json.tmp").exists(), "orphan json tmp must be swept");
    assert!(dir.join("notes.tmp").exists(), "non-checkpoint tmp files are not ours to delete");
    assert_eq!(
        reopened.load_checkpoint("feed-g").unwrap().unwrap(),
        checkpoint,
        "the real checkpoint must survive the sweep"
    );
    // Loading the full directory sees exactly the one real spill.
    assert_eq!(reopened.load_checkpoints().unwrap().len(), 1);
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn unwritable_directory_is_a_clean_error() {
    // A *file* where the sink directory should be: create_dir_all fails.
    let parent = scratch("unwritable");
    fs::create_dir_all(&parent).unwrap();
    let blocker = parent.join("occupied");
    fs::write(&blocker, b"not a directory").unwrap();
    assert!(SnapshotSink::new(&blocker).is_err(), "file in place of dir must fail to open");
    assert!(
        SnapshotSink::new(blocker.join("nested")).is_err(),
        "dir under a file must fail to open"
    );

    // A sink whose directory vanished after opening fails at spill, not
    // with a panic or a silent no-op.
    let vanishing = parent.join("vanishing");
    let sink = SnapshotSink::new(&vanishing).unwrap();
    fs::remove_dir_all(&vanishing).unwrap();
    assert!(sink.spill_checkpoint(&sample_checkpoint("feed-c")).is_err());
    let _ = fs::remove_dir_all(parent);
}

#[test]
fn truncated_and_corrupt_spills_error_at_load() {
    for extension in ["bin", "json"] {
        let dir = scratch(&format!("corrupt-{extension}"));
        let sink = SnapshotSink::new(&dir).unwrap();
        if extension == "bin" {
            sink.spill_checkpoint(&sample_checkpoint("feed-d")).unwrap();
        } else {
            write_legacy_json_spill(&dir, &sample_checkpoint("feed-d"));
        }
        let path = checkpoint_file(&dir, &format!(".checkpoint.{extension}"));

        // Truncate to half: load must fail and name the file.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = sink.load_checkpoints().expect_err("truncated spill must not load");
        assert!(err.to_string().contains("checkpoint."), "error should name the file: {err}");
        let err = sink.load_checkpoint("feed-d").expect_err("single load must also fail");
        assert!(err.to_string().contains("checkpoint."), "{err}");

        // Arbitrary garbage: same clean failure.
        fs::write(&path, b"\xff\xfe\xfdgarbage").unwrap();
        assert!(sink.load_checkpoints().is_err());
        let _ = fs::remove_dir_all(dir);
    }
}

#[test]
fn future_codec_version_is_a_clean_error() {
    let dir = scratch("version");
    let sink = SnapshotSink::new(&dir).unwrap();
    sink.spill_checkpoint(&sample_checkpoint("feed-e")).unwrap();
    let path = checkpoint_file(&dir, ".checkpoint.bin");
    let mut bytes = fs::read(&path).unwrap();
    // Bump the version field (bytes 4–5, little endian) to a future one.
    bytes[4] = 0x2A;
    bytes[5] = 0x00;
    fs::write(&path, &bytes).unwrap();
    let err = sink.load_checkpoints().expect_err("future version must not load");
    let message = err.to_string();
    assert!(
        message.contains("version 42") && message.contains("not supported"),
        "version mismatch must be explicit: {message}"
    );
    let _ = fs::remove_dir_all(dir);
}

// ---- metric-history rotation -----------------------------------------------

use rbm_im_metrics::PrequentialSnapshot;
use rbm_im_serve::MetricRetention;

fn snapshot_at(position: u64) -> PrequentialSnapshot {
    PrequentialSnapshot { position, pm_auc: 0.9, pm_gmean: 0.8, accuracy: 0.95, kappa: 0.7 }
}

/// Size-based rotation: the live file seals into numbered generations
/// (newest = `.1`), generations beyond the keep count fall off, and
/// `load_metrics` reads what is kept oldest-first — a contiguous suffix
/// of the appended history, in append order.
#[test]
fn size_rotation_keeps_a_bounded_ordered_suffix() {
    let dir = scratch("rotate-size");
    let sink = SnapshotSink::new(&dir).unwrap().with_retention(MetricRetention {
        max_bytes: 1,
        keep_rotations: 2,
        max_age: None,
    });

    // max_bytes=1: every enforcement rotates, so each generation holds
    // exactly one line.
    let mut rotations = 0;
    for position in 0..5u64 {
        sink.spill_snapshot("feed", position, &snapshot_at(position)).unwrap();
        if sink.enforce_metric_retention("feed").unwrap() {
            rotations += 1;
        }
    }
    assert_eq!(rotations, 5, "every spill exceeded max_bytes");
    assert!(dir.join("feed.metrics.1.jsonl").exists(), "newest sealed generation");
    assert!(dir.join("feed.metrics.2.jsonl").exists(), "oldest kept generation");
    assert!(!dir.join("feed.metrics.3.jsonl").exists(), "beyond keep_rotations is dropped");
    assert!(!dir.join("feed.metrics.jsonl").exists(), "live file was just sealed");

    let history = sink.load_metrics("feed").unwrap();
    let positions: Vec<u64> = history.iter().map(|(p, _)| *p).collect();
    assert_eq!(positions, vec![3, 4], "kept generations, oldest first");
    assert_eq!(history[1].1, snapshot_at(4), "snapshot payloads survive rotation");

    // Appends continue into a fresh live file; load stays ordered.
    sink.spill_snapshot("feed", 5, &snapshot_at(5)).unwrap();
    let positions: Vec<u64> = sink.load_metrics("feed").unwrap().iter().map(|(p, _)| *p).collect();
    assert_eq!(positions, vec![3, 4, 5]);
    let _ = fs::remove_dir_all(dir);
}

/// `keep_rotations: 0` makes rotation a pure truncation.
#[test]
fn zero_keep_rotations_truncates_the_history() {
    let dir = scratch("rotate-zero");
    let sink = SnapshotSink::new(&dir).unwrap().with_retention(MetricRetention {
        max_bytes: 1,
        keep_rotations: 0,
        max_age: None,
    });
    sink.spill_snapshot("feed", 1, &snapshot_at(1)).unwrap();
    assert!(sink.enforce_metric_retention("feed").unwrap());
    assert!(sink.load_metrics("feed").unwrap().is_empty());
    assert!(
        fs::read_dir(&dir).unwrap().next().is_none(),
        "truncation leaves no metric files at all"
    );
    let _ = fs::remove_dir_all(dir);
}

/// Age-based rotation seals a live file regardless of its size.
#[test]
fn age_rotation_seals_small_but_old_files() {
    let dir = scratch("rotate-age");
    let sink = SnapshotSink::new(&dir).unwrap().with_retention(MetricRetention {
        max_bytes: u64::MAX,
        keep_rotations: 1,
        max_age: Some(std::time::Duration::ZERO),
    });
    sink.spill_snapshot("feed", 7, &snapshot_at(7)).unwrap();
    assert!(sink.enforce_metric_retention("feed").unwrap(), "age 0 rotates immediately");
    assert!(dir.join("feed.metrics.1.jsonl").exists());
    assert_eq!(
        sink.load_metrics("feed").unwrap().iter().map(|(p, _)| *p).collect::<Vec<_>>(),
        vec![7]
    );
    let _ = fs::remove_dir_all(dir);
}

/// Enforcement is a no-op without a policy, without a live file, and
/// inside the size/age bounds; and a retention-less sink still reads the
/// sealed generations a configured process left behind.
#[test]
fn retention_noops_and_cross_process_generation_reads() {
    let dir = scratch("rotate-noop");
    let plain = SnapshotSink::new(&dir).unwrap();
    assert!(!plain.enforce_metric_retention("feed").unwrap(), "no policy, no rotation");

    let sink = SnapshotSink::new(&dir).unwrap().with_retention(MetricRetention {
        max_bytes: 10_000,
        keep_rotations: 2,
        max_age: None,
    });
    assert!(!sink.enforce_metric_retention("feed").unwrap(), "no live file, no rotation");
    sink.spill_snapshot("feed", 1, &snapshot_at(1)).unwrap();
    assert!(!sink.enforce_metric_retention("feed").unwrap(), "inside the bounds");

    // Force a rotation, then read through a *retention-less* sink.
    let tight = SnapshotSink::new(&dir).unwrap().with_retention(MetricRetention {
        max_bytes: 1,
        keep_rotations: 2,
        max_age: None,
    });
    assert!(tight.enforce_metric_retention("feed").unwrap());
    sink.spill_snapshot("feed", 2, &snapshot_at(2)).unwrap();
    let positions: Vec<u64> = plain.load_metrics("feed").unwrap().iter().map(|(p, _)| *p).collect();
    assert_eq!(positions, vec![1, 2], "generations are readable without a policy");
    let _ = fs::remove_dir_all(dir);
}
