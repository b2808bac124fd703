//! Golden pin of the evaluator's checkpoint format.
//!
//! A fixed 2 500-instance sequence (5 classes, window 1000, so the AUC
//! window has wrapped) is fed to a [`PrequentialEvaluator`]; the JSON text
//! of `snapshot_state()` is pinned by length and FNV-1a digest, together
//! with the bits of the pmAUC it reports. Spills written by any earlier
//! build therefore keep restoring, and a change to the in-memory window
//! layout cannot leak into the persisted `window` array
//! (`[scores, class]` pairs, oldest first).

use rbm_im_metrics::PrequentialEvaluator;

const CLASSES: usize = 5;
const WINDOW: usize = 1000;
const INSTANCES: u64 = 2_500;

const GOLDEN_JSON_LEN: usize = 61_272;
const GOLDEN_JSON_FNV: u64 = 0x2390_e3b2_c61e_4eae;
const GOLDEN_PM_AUC_BITS: u64 = 0x3fe8_9b7a_d131_50c2;
const GOLDEN_AVG_PM_AUC_BITS: u64 = 0x3fe8_8bc7_e580_70e9;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Deterministic test-then-train record: skewed classes, a mix of
/// quantized (tie-heavy) and full-precision scores, a noisy prediction.
fn instance(i: u64) -> (usize, usize, [f64; CLASSES]) {
    let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
    let mut next = move || {
        z ^= z >> 33;
        z = z.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        z ^= z >> 33;
        z
    };
    // Class shares roughly 8:4:2:1:1.
    let true_class = match next() % 16 {
        0..=7 => 0,
        8..=11 => 1,
        12..=13 => 2,
        14 => 3,
        _ => 4,
    };
    let mut scores = [0.0; CLASSES];
    let quantized = !i.is_multiple_of(3);
    for (c, s) in scores.iter_mut().enumerate() {
        let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
        let raw = if c == true_class { 0.3 + 0.7 * u } else { 0.8 * u };
        *s = if quantized { (raw * 8.0).floor() / 8.0 } else { raw };
    }
    let predicted = (0..CLASSES)
        .max_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap().then(b.cmp(&a)))
        .unwrap();
    (true_class, predicted, scores)
}

fn run(ev: &mut PrequentialEvaluator, range: std::ops::Range<u64>) {
    for i in range {
        let (t, p, s) = instance(i);
        ev.record(t, p, &s);
    }
}

#[test]
fn snapshot_state_json_matches_the_golden_pin() {
    let mut ev = PrequentialEvaluator::new(CLASSES, WINDOW);
    run(&mut ev, 0..INSTANCES);
    let json = serde_json::to_string(&ev.snapshot_state()).unwrap();
    assert_eq!(json.len(), GOLDEN_JSON_LEN);
    assert_eq!(fnv1a(json.as_bytes()), GOLDEN_JSON_FNV);
    assert_eq!(ev.snapshot().pm_auc.to_bits(), GOLDEN_PM_AUC_BITS);
    assert_eq!(ev.average_pm_auc().to_bits(), GOLDEN_AVG_PM_AUC_BITS);
}

#[test]
fn golden_state_restores_and_reserializes_identically() {
    let mut head = PrequentialEvaluator::new(CLASSES, WINDOW);
    run(&mut head, 0..INSTANCES);
    let json = serde_json::to_string(&head.snapshot_state()).unwrap();

    let mut resumed = PrequentialEvaluator::new(CLASSES, WINDOW);
    resumed.restore_state(&serde_json::parse_value(&json).unwrap()).unwrap();
    assert_eq!(serde_json::to_string(&resumed.snapshot_state()).unwrap(), json);

    run(&mut head, INSTANCES..INSTANCES + 1_337);
    run(&mut resumed, INSTANCES..INSTANCES + 1_337);
    assert_eq!(resumed.snapshot().pm_auc.to_bits(), head.snapshot().pm_auc.to_bits());
    assert_eq!(resumed.snapshots(), head.snapshots());
    assert_eq!(
        serde_json::to_string(&resumed.snapshot_state()).unwrap(),
        serde_json::to_string(&head.snapshot_state()).unwrap()
    );
}
