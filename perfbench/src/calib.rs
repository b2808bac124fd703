//! Host speed: a fixed piece of work written in the benchmark's own code,
//! timed between the repetitions a workload measures.
//!
//! On a shared host the same code runs at very different speeds from one
//! minute to the next (other tenants share the cores and their caches), so
//! wall-clock rates of the program spread far more than any change to the
//! program would move them. The calibration kernel calls nothing of the
//! program: a change to the program leaves its rate unchanged, while the
//! host slows it as it slows the program. Dividing the program's rate by
//! the kernel's rate measured around it removes most of the host's share.
//!
//! Rates are reported at [`REFERENCE_SPEED`]: a repetition that ran
//! `rate` instances per second while the kernel ran `speed` rounds per
//! second is reported as `rate * REFERENCE_SPEED / speed`, and a set-up
//! that took `seconds` as `seconds * speed / REFERENCE_SPEED`.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Inputs of the kernel's dense layer.
const INPUTS: usize = 64;
/// Outputs of the kernel's dense layer.
const OUTPUTS: usize = 256;
/// Kernel rounds per measurement: 0.2–0.4 ms on the 2-vCPU runner the
/// benchmark was written on.
const ROUNDS: usize = 24;

/// The host speed rates are reported at, in kernel rounds per second: the
/// kernel's speed in a slow period of that runner (it read 54 000–108 000
/// rounds/s there).
pub const REFERENCE_SPEED: f64 = 60_000.0;

/// The kernel's working set: a dense sigmoid layer and a table updated at
/// pseudo-random places, so it exercises floating point, the caches and
/// branches as the program's layers do.
pub struct Calibrator {
    weights: Vec<f64>,
    input: Vec<f64>,
    output: Vec<f64>,
    table: Vec<u64>,
    state: u64,
}

impl Default for Calibrator {
    fn default() -> Self {
        let mut state = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let unit = |x: u64| (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        Calibrator {
            weights: (0..INPUTS * OUTPUTS).map(|_| unit(next())).collect(),
            input: (0..INPUTS).map(|_| unit(next())).collect(),
            output: vec![0.0; OUTPUTS],
            table: (0..1 << 14).map(|_| next()).collect(),
            state: next() | 1,
        }
    }
}

impl Calibrator {
    /// One round of the kernel.
    fn round(&mut self) {
        for (o, row) in self.output.iter_mut().zip(self.weights.chunks_exact(INPUTS)) {
            let z: f64 = row.iter().zip(&self.input).map(|(w, x)| w * x).sum();
            *o = 1.0 / (1.0 + (-z).exp());
        }
        for (i, x) in self.input.iter_mut().enumerate() {
            *x = 0.5 * *x + 0.25 * (self.output[i] + self.output[OUTPUTS - 1 - i]) - 0.25;
        }
        let mask = self.table.len() - 1;
        for _ in 0..2 * OUTPUTS {
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            let slot = (self.state as usize) & mask;
            if self.table[slot] & 1 == 0 {
                self.table[slot] = self.table[slot].rotate_left(5) ^ self.state;
            } else {
                self.table[slot] = self.table[slot].wrapping_add(self.state >> 3);
            }
        }
    }

    /// Runs the kernel once and returns its speed in rounds per second.
    pub fn measure(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..ROUNDS {
            self.round();
        }
        black_box(&self.output);
        ROUNDS as f64 / t.elapsed().as_secs_f64()
    }
}

/// Calibrators not in use. Each thread takes one and puts it back, so the
/// kernel's working set is allocated once, during set-up.
static IDLE: Mutex<Vec<Calibrator>> = Mutex::new(Vec::new());

/// Allocates calibrators for `threads` threads, so that measuring inside a
/// window allocates nothing.
pub fn prepare(threads: usize) {
    if let Ok(mut idle) = IDLE.lock() {
        while idle.len() < threads {
            idle.push(Calibrator::default());
        }
    }
}

/// `rate`, measured while the host ran the kernel at `speeds`, scaled to
/// [`REFERENCE_SPEED`]; `None` without a speed.
pub fn at_reference(rate: f64, speeds: &[f64]) -> Option<f64> {
    if speeds.is_empty() {
        return None;
    }
    let speed = speeds.iter().sum::<f64>() / speeds.len() as f64;
    Some(rate * REFERENCE_SPEED / speed)
}

/// A duration of `seconds`, measured while the host ran the kernel at
/// `speeds`, at [`REFERENCE_SPEED`]: a slower host shortens it.
pub fn time_at_reference(seconds: f64, speeds: &[f64; 2]) -> f64 {
    seconds * (speeds[0] + speeds[1]) / 2.0 / REFERENCE_SPEED
}

/// Measures the host's speed on the calling thread, in kernel rounds per
/// second.
pub fn host_speed() -> f64 {
    let taken = IDLE.lock().ok().and_then(|mut idle| idle.pop());
    let mut calibrator = taken.unwrap_or_default();
    let speed = calibrator.measure();
    if let Ok(mut idle) = IDLE.lock() {
        idle.push(calibrator);
    }
    speed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_work() {
        let (mut a, mut b) = (Calibrator::default(), Calibrator::default());
        assert!(a.measure() > 0.0 && b.measure() > 0.0);
        assert_eq!(a.output, b.output);
        assert_eq!(a.table, b.table);
    }

    #[test]
    fn rates_scale_to_the_reference_speed() {
        let half = REFERENCE_SPEED / 2.0;
        assert_eq!(at_reference(100.0, &[half, half]), Some(200.0));
        assert_eq!(at_reference(100.0, &[REFERENCE_SPEED]), Some(100.0));
        assert_eq!(at_reference(100.0, &[]), None);
        assert_eq!(time_at_reference(3.0, &[half, half]), 1.5);
    }
}
