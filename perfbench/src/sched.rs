//! The load generator's arrival schedules and its latency ledger.
//!
//! Arrivals are planned before the timed window from the workload seed
//! alone, so the same seed always sends the same micro-batches to the same
//! streams in the same order. In the open-loop phase batch `k` is *due* at
//! `k / rate` seconds after the phase starts, whatever the system does; its
//! latency runs from that due time, so a stall is charged to every batch
//! queued behind it, and the generator reports how late it sent.

use std::time::Duration;

/// SplitMix64: a tiny seeded generator, enough for arrival schedules.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Which stream each arriving micro-batch goes to.
#[derive(Debug, Clone)]
pub enum Arrivals {
    /// Streams in turn: 0, 1, …, n-1, 0, 1, …
    RoundRobin {
        /// Number of streams.
        streams: usize,
        /// Arrivals produced so far.
        next: usize,
    },
    /// Zipf-skewed: stream `r` (0-based) arrives with probability
    /// proportional to `1 / (r + 1)^s`. Popularity follows the stream index
    /// whatever the seed, which draws only the sequence: which streams are
    /// hot, and so how the hot load falls across shards, is the same for
    /// every seed.
    Zipf {
        /// Cumulative stream probabilities.
        cdf: Vec<f64>,
        /// Draws.
        rng: SplitMix64,
    },
}

impl Arrivals {
    /// Uniform round-robin over `streams`.
    pub fn round_robin(streams: usize) -> Self {
        Arrivals::RoundRobin { streams, next: 0 }
    }

    /// Zipf(`s`) over `streams` with seeded draws.
    pub fn zipf(streams: usize, s: f64, seed: u64) -> Self {
        let weights: Vec<f64> = (1..=streams).map(|r| 1.0 / (r as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Arrivals::Zipf { cdf, rng: SplitMix64::new(seed) }
    }

    /// The stream of the next arriving micro-batch.
    pub fn next_stream(&mut self) -> usize {
        match self {
            Arrivals::RoundRobin { streams, next } => {
                let stream = *next % *streams;
                *next += 1;
                stream
            }
            Arrivals::Zipf { cdf, rng } => {
                let u = rng.next_f64();
                cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
            }
        }
    }

    /// The next `n` arrivals.
    pub fn take(&mut self, n: usize) -> Vec<usize> {
        (0..n).map(|_| self.next_stream()).collect()
    }
}

/// The open-loop plan: batch `k` goes to stream `streams[k]` and is due
/// `k * interval` after the phase starts.
#[derive(Debug, Clone)]
pub struct OpenLoopPlan {
    /// Target stream of each batch.
    pub streams: Vec<usize>,
    /// Spacing of due times.
    pub interval: Duration,
}

impl OpenLoopPlan {
    /// `batches` arrivals drawn from `arrivals` at `rate` batches/s.
    pub fn new(arrivals: &mut Arrivals, batches: usize, rate: f64) -> Self {
        OpenLoopPlan {
            streams: arrivals.take(batches),
            interval: Duration::from_secs_f64(1.0 / rate),
        }
    }

    /// When batch `k` is due, relative to the phase start.
    pub fn due(&self, k: usize) -> Duration {
        self.interval * k as u32
    }
}

/// Latency and failure accounting of the timed window.
///
/// An operation is attempted once; it fails when it errors, when its
/// result differs from its reference, or (for latency-bound operations)
/// when it completes later than the limit or never.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Latencies of completed latency-bound operations, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

impl Ledger {
    /// Records a latency-bound operation that was due at `due` and
    /// completed at `done` (`None`: it never completed). Both are offsets
    /// from the same origin. Returns whether it met `limit`.
    pub fn record_due(&mut self, due: Duration, done: Option<Duration>, limit: Duration) -> bool {
        self.attempted += 1;
        match done {
            Some(done) => {
                let latency = done.saturating_sub(due);
                self.latencies_ms.push(latency.as_secs_f64() * 1e3);
                let ok = latency <= limit;
                if !ok {
                    self.failed += 1;
                }
                ok
            }
            None => {
                self.failed += 1;
                false
            }
        }
    }

    /// Records an operation that succeeded or failed outright.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_schedule_is_identical_for_a_seed() {
        let a = Arrivals::zipf(256, 1.0, 7).take(5_000);
        let b = Arrivals::zipf(256, 1.0, 7).take(5_000);
        assert_eq!(a, b);
        let c = Arrivals::zipf(256, 1.0, 8).take(5_000);
        assert_ne!(a, c, "another seed plans another schedule");
        assert!(a.iter().all(|&s| s < 256));
    }

    #[test]
    fn zipf_schedule_is_skewed() {
        let draws = Arrivals::zipf(256, 1.0, 3).take(100_000);
        let mut counts = vec![0usize; 256];
        for s in draws {
            counts[s] += 1;
        }
        // H(64) / H(256) ~= 0.77 of arrivals go to the first 64 streams.
        let top: usize = counts[..64].iter().sum();
        let share = top as f64 / 100_000.0;
        assert!((0.74..0.80).contains(&share), "top-quarter share {share}");
        assert!(counts[0] > 10 * counts[127]);
    }

    #[test]
    fn round_robin_visits_streams_in_turn() {
        assert_eq!(Arrivals::round_robin(3).take(7), vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn latency_is_timed_from_the_due_time() {
        let plan = OpenLoopPlan::new(&mut Arrivals::round_robin(4), 10, 100.0);
        assert_eq!(plan.due(3), Duration::from_millis(30));
        let mut ledger = Ledger::default();
        // Batch 3 was due at 30 ms; the generator ran late and sent it at
        // 45 ms; it completed at 50 ms. Its latency counts the 15 ms the
        // generator was late: 20 ms, not 5 ms.
        let sent = Duration::from_millis(45);
        let done = sent + Duration::from_millis(5);
        assert!(ledger.record_due(plan.due(3), Some(done), Duration::from_secs(1)));
        assert_eq!(ledger.latencies_ms, vec![20.0]);
    }

    #[test]
    fn failures_count_late_missing_and_wrong_operations() {
        let limit = Duration::from_millis(100);
        let mut ledger = Ledger::default();
        assert!(ledger.record_due(Duration::ZERO, Some(Duration::from_millis(100)), limit));
        assert!(!ledger.record_due(Duration::ZERO, Some(Duration::from_millis(101)), limit));
        assert!(!ledger.record_due(Duration::ZERO, None, limit));
        ledger.record(true);
        ledger.record(false);
        assert_eq!((ledger.attempted, ledger.failed), (5, 3));
        // A late batch still contributes its latency; a lost one cannot.
        assert_eq!(ledger.latencies_ms.len(), 2);
    }
}
