//! Criterion benchmark crate: all targets live under `benches/`, one per
//! paper table/figure plus the serving/checkpoint infrastructure benches
//! (see DESIGN.md §4 and the `BENCH_*.json` baselines at the repo root).
//!
//! Besides the bench targets this crate exports [`runner_metadata`]: every
//! bench prints a machine-readable description of the runner it executed
//! on (core count, shard-pinning env), and the recorded `BENCH_*.json`
//! baselines embed the same object — so a "this number was taken on 1
//! vCPU" caveat travels *with the data* instead of living in a ROADMAP
//! footnote.

#![warn(missing_docs)]

use serde::{Serialize, Value};

/// Machine-readable description of the bench runner, embedded in every
/// recorded `BENCH_*.json` under the `"runner"` key and printed by each
/// bench at startup.
///
/// * `logical_cores` — what `std::thread::available_parallelism` reports;
///   the figure scaling claims must be read against (shard scaling cannot
///   manifest on one core);
/// * `multi_core` — convenience flag: `logical_cores >= 2`. Consumers
///   gating on scaling validity should check this, not parse prose;
/// * `shard_env` — the value of `RBM_SERVE_SHARDS` if the process was
///   pinned to specific shard counts, else `null`;
/// * `os` / `arch` — the compile-time target.
pub fn runner_metadata() -> Value {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    Value::object(vec![
        ("logical_cores", cores.serialize_value()),
        ("multi_core", (cores >= 2).serialize_value()),
        ("shard_env", std::env::var("RBM_SERVE_SHARDS").ok().serialize_value()),
        ("os", std::env::consts::OS.serialize_value()),
        ("arch", std::env::consts::ARCH.serialize_value()),
    ])
}

/// Prints the runner metadata as one JSON line, prefixed so bench logs are
/// greppable (`runner: {...}`). Call once at the top of a bench main.
pub fn print_runner_metadata() {
    println!("runner: {}", serde_json::to_string(&runner_metadata()).unwrap_or_default());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_metadata_is_well_formed() {
        let meta = runner_metadata();
        let cores: usize = meta.field("logical_cores").unwrap();
        assert!(cores >= 1);
        let multi: bool = meta.field("multi_core").unwrap();
        assert_eq!(multi, cores >= 2);
        assert!(meta.get("shard_env").is_some());
        let json = serde_json::to_string(&meta).unwrap();
        assert!(json.contains("logical_cores"));
        assert!(json.contains("shard_env"));
    }
}
