//! Golden digests of the benchmark streams.
//!
//! Every Table I benchmark (artificial generators and real-world
//! substitutes) and the three taxonomy scenarios are built at a fixed seed
//! and small scale, and each emitted instance's feature bits, class and
//! index are folded into one FNV-1a digest per stream. The pinned values
//! are the bitwise contract for stream generation: an optimisation of a
//! generator or wrapper must leave every digest unchanged, and a deliberate
//! change to a stream must update its digest here in the same change.

use rbm_im_streams::drift::DriftKind;
use rbm_im_streams::registry::{all_benchmarks, BuildConfig};
use rbm_im_streams::scenarios::{scenario1, scenario2, scenario3, ScenarioConfig};
use rbm_im_streams::DataStream;

/// Seed and scale of every pinned stream (scaled lengths hit the
/// 2 000-instance floor, so each stream still spans all its drifts).
const CONFIG: BuildConfig =
    BuildConfig { seed: 7, scale_divisor: 2_000, n_drifts: 3, dynamic_imbalance: true };

/// FNV-1a over (feature bits, class, index) of every instance, then the
/// instance count.
fn digest(stream: &mut dyn DataStream) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut count = 0u64;
    while let Some(inst) = stream.next_instance() {
        for f in &inst.features {
            eat(f.to_bits());
        }
        eat(inst.class as u64);
        eat(inst.index);
        count += 1;
    }
    eat(count);
    h
}

fn scenario_config(drift_kind: DriftKind) -> ScenarioConfig {
    ScenarioConfig {
        num_features: 8,
        num_classes: 5,
        length: 3_000,
        imbalance_ratio: 50.0,
        n_drifts: 2,
        drift_kind,
        seed: 7,
    }
}

/// Every pinned stream by name, with its digest as built now.
fn current_digests() -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = all_benchmarks()
        .iter()
        .map(|spec| (spec.name.clone(), digest(&mut *spec.build(&CONFIG))))
        .collect();
    let scenarios = [
        ("scenario1", scenario1(&scenario_config(DriftKind::Gradual))),
        ("scenario2", scenario2(&scenario_config(DriftKind::Sudden))),
        ("scenario3", scenario3(&scenario_config(DriftKind::Gradual), 2)),
    ];
    for (name, mut built) in scenarios {
        out.push((name.to_string(), digest(&mut *built.stream)));
    }
    out
}

/// Digests recorded before the discard path (`DataStream::next_of_class`)
/// existed; it must reproduce every stream bit for bit.
const GOLDEN: &[(&str, u64)] = &[
    ("Activity-Raw", 0x0fe3b2096f2a2911),
    ("Connect4", 0xe5b988435e7dd73a),
    ("Covertype", 0xbf4e93bfa8e8a670),
    ("Crimes", 0x8440f86141937f37),
    ("DJ30", 0x44a750725808e7db),
    ("EEG", 0x2fd412aed85eeb23),
    ("Electricity", 0x111febf55f44d878),
    ("Gas", 0x1a792b681676cd8a),
    ("Olympic", 0x71945b9ddfd04609),
    ("Poker", 0xd7012d2266b218d4),
    ("IntelSensors", 0x726bae40d0c959f4),
    ("Tags", 0x2a158bf3d9c66a0d),
    ("Aggrawal5", 0x03dbd345ccf98736),
    ("Aggrawal10", 0x40fee7403da917b5),
    ("Aggrawal20", 0xec19091658e36398),
    ("Hyperplane5", 0x4d69eba4e5cb4e5d),
    ("Hyperplane10", 0xe3364ab371f22fdf),
    ("Hyperplane20", 0x8e84e53b5cc167f3),
    ("RBF5", 0xf48a10e5a2326dd0),
    ("RBF10", 0x96592a9da373d026),
    ("RBF20", 0xdd084288e764ca03),
    ("RandomTree5", 0x7b9579e8d333a972),
    ("RandomTree10", 0xfffe516127a0c129),
    ("RandomTree20", 0x8c6e771f73e9ae69),
    ("scenario1", 0x75f786d29125436f),
    ("scenario2", 0x7a352036471b064b),
    ("scenario3", 0x3913549db4d988ec),
];

#[test]
fn benchmark_streams_match_their_golden_digests() {
    let current = current_digests();
    let listing: String =
        current.iter().map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n")).collect();
    assert_eq!(current.len(), GOLDEN.len(), "pinned stream set changed; current:\n{listing}");
    for ((name, got), (pinned_name, pinned)) in current.iter().zip(GOLDEN) {
        assert_eq!(name, pinned_name, "stream order changed; current:\n{listing}");
        assert_eq!(got, pinned, "{name}: digest moved; current:\n{listing}");
    }
}
