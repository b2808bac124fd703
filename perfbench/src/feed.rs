//! Pre-generated inputs and the stream wrappers the benchmark pulls
//! through the program.

use rbm_im_streams::{DataStream, Instance, StreamSchema};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Instances per micro-batch, everywhere in the benchmark: the fleets send
/// micro-batches of this size, and the loop workloads time their progress
/// in blocks of this size.
pub const BLOCK: usize = 50;

/// Collects the first `n` instances of `stream`.
pub fn record(stream: &mut dyn DataStream, n: usize) -> Vec<Instance> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        match stream.next_instance() {
            Some(instance) => out.push(instance),
            None => break,
        }
    }
    out
}

/// A recorded feed played in a loop: instance `k` is the recording's
/// instance `k mod len`, renumbered `k`. The fleets send it and the
/// reference replays read it, so both see the same sequence however long
/// the run lasts.
#[derive(Debug, Clone)]
pub struct Feed {
    /// Stream schema.
    pub schema: StreamSchema,
    /// The recording.
    pub instances: Arc<[Instance]>,
}

impl Feed {
    /// Instance `k` of the looped sequence.
    pub fn instance(&self, k: u64) -> Instance {
        let source = &self.instances[(k % self.instances.len() as u64) as usize];
        Instance { features: source.features.clone(), class: source.class, index: k }
    }

    /// Instances `start .. start + len`.
    pub fn batch(&self, start: u64, len: usize) -> Vec<Instance> {
        (start..start + len as u64).map(|k| self.instance(k)).collect()
    }

    /// The first `limit` instances as a stream.
    pub fn open(&self, limit: u64) -> FeedStream {
        FeedStream { feed: self.clone(), next: 0, limit }
    }
}

/// A bounded opening of a [`Feed`].
#[derive(Debug)]
pub struct FeedStream {
    feed: Feed,
    next: u64,
    limit: u64,
}

impl DataStream for FeedStream {
    fn next_instance(&mut self) -> Option<Instance> {
        if self.next >= self.limit {
            return None;
        }
        self.next += 1;
        Some(self.feed.instance(self.next - 1))
    }

    fn schema(&self) -> &StreamSchema {
        &self.feed.schema
    }

    fn restart(&mut self) {
        self.next = 0;
    }
}

/// Where a [`BlockClock`] leaves its measurements when the program drops
/// the stream.
#[derive(Debug, Default)]
pub struct ClockSink {
    /// Durations of every complete block, in milliseconds.
    pub blocks_ms: Vec<f64>,
    /// Per stream: seconds from the first pull to the pull that found the
    /// stream exhausted.
    pub busy_s: Vec<f64>,
    /// Whether the clocks measure the host's speed every
    /// [`CALIBRATE_EVERY`] blocks.
    pub calibrate: bool,
    /// The host speeds measured, in calibration rounds per second (see
    /// [`crate::calib`]).
    pub host: Vec<f64>,
}

impl ClockSink {
    /// A sink sized for a window of `seconds`, allocated up front so the
    /// benchmark's own bookkeeping does not count as the program's memory.
    pub fn for_window(seconds: f64, calibrate: bool) -> Self {
        let blocks = (seconds * MAX_IPS / BLOCK as f64) as usize + 1;
        ClockSink {
            blocks_ms: Vec::with_capacity(blocks),
            busy_s: Vec::with_capacity(4096),
            calibrate,
            host: Vec::with_capacity(blocks / CALIBRATE_EVERY as usize + 1),
        }
    }
}

/// An instance rate no workload reaches on the runners this benchmark
/// targets; buffers sized from it never grow inside a window.
pub const MAX_IPS: f64 = 500_000.0;

/// Blocks between two measurements of the host's speed: about 4 ms of the
/// loop workloads, each measurement taking about a tenth of that.
pub const CALIBRATE_EVERY: u64 = 8;

/// Wraps the stream a pipeline pulls from and stamps the clock at every
/// block boundary: the time between two stamps is how long the pipeline
/// took to generate and process one block of [`BLOCK`] instances.
pub struct BlockClock {
    inner: Box<dyn DataStream + Send>,
    calibrate: bool,
    pulls: u64,
    first: Option<Instant>,
    last_stamp: Option<Instant>,
    ended: Option<Instant>,
    blocks_ms: Vec<f64>,
    host: Vec<f64>,
    sink: Arc<Mutex<ClockSink>>,
}

impl BlockClock {
    /// Wraps `inner`; measurements go to `sink` when the wrapper drops.
    pub fn new(inner: Box<dyn DataStream + Send>, sink: Arc<Mutex<ClockSink>>) -> Self {
        let calibrate = sink.lock().is_ok_and(|sink| sink.calibrate);
        BlockClock {
            inner,
            calibrate,
            pulls: 0,
            first: None,
            last_stamp: None,
            ended: None,
            blocks_ms: Vec::new(),
            host: Vec::new(),
            sink,
        }
    }
}

impl DataStream for BlockClock {
    fn next_instance(&mut self) -> Option<Instance> {
        if self.pulls.is_multiple_of(BLOCK as u64) {
            let mut now = Instant::now();
            if let Some(last) = self.last_stamp {
                self.blocks_ms.push((now - last).as_secs_f64() * 1e3);
            }
            if self.calibrate && self.pulls.is_multiple_of(BLOCK as u64 * CALIBRATE_EVERY) {
                // The calibration is not part of any block.
                self.host.push(crate::calib::host_speed());
                now = Instant::now();
            }
            self.first.get_or_insert(now);
            self.last_stamp = Some(now);
        }
        let next = self.inner.next_instance();
        match next {
            Some(_) => self.pulls += 1,
            None => self.ended = Some(Instant::now()),
        }
        next
    }

    fn schema(&self) -> &StreamSchema {
        self.inner.schema()
    }

    fn restart(&mut self) {
        self.inner.restart();
        self.pulls = 0;
    }
}

impl Drop for BlockClock {
    fn drop(&mut self) {
        let busy = match (self.first, self.ended.or(self.last_stamp)) {
            (Some(first), Some(end)) => (end - first).as_secs_f64(),
            _ => 0.0,
        };
        if let Ok(mut sink) = self.sink.lock() {
            sink.blocks_ms.append(&mut self.blocks_ms);
            sink.host.append(&mut self.host);
            sink.busy_s.push(busy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(len: usize) -> Feed {
        let instances: Vec<Instance> =
            (0..len).map(|i| Instance::with_index(vec![i as f64], i % 2, i as u64)).collect();
        Feed { schema: StreamSchema::new("t", 1, 2), instances: instances.into() }
    }

    #[test]
    fn feed_loops_and_renumbers() {
        let f = feed(3);
        let batch = f.batch(2, 3);
        assert_eq!(batch.iter().map(|i| i.index).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(batch.iter().map(|i| i.features[0]).collect::<Vec<_>>(), vec![2.0, 0.0, 1.0]);
        let mut stream = f.open(5);
        let replayed = record(&mut stream, 10);
        assert_eq!(replayed, f.batch(0, 5));
    }

    #[test]
    fn block_clock_times_complete_blocks() {
        let sink = Arc::new(Mutex::new(ClockSink::for_window(1.0, true)));
        {
            let inner = Box::new(feed(7).open(3 * BLOCK as u64 + 7));
            let mut clock = BlockClock::new(inner, Arc::clone(&sink));
            while clock.next_instance().is_some() {}
        }
        let sink = sink.lock().unwrap();
        assert_eq!(sink.blocks_ms.len(), 3, "the trailing partial block is not timed");
        assert_eq!(sink.busy_s.len(), 1);
        assert_eq!(sink.host.len(), 1, "the host is measured before blocks 0, 8, 16, ...");
        assert!(sink.host[0] > 0.0);
    }
}
