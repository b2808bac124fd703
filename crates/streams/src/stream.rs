//! The [`DataStream`] trait and streaming utilities (mini-batching,
//! takes, collection helpers).
//!
//! Streams in this crate are *pull-based* and potentially infinite: a
//! generator produces a new [`Instance`] on every call to
//! [`DataStream::next_instance`]. Experiment code bounds them explicitly
//! with [`StreamExt::take_instances`] or by iterating a fixed count.

use crate::instance::{Instance, StreamSchema};

/// A (potentially infinite) source of labeled instances.
pub trait DataStream {
    /// Produces the next instance, or `None` if the stream is exhausted
    /// (synthetic generators never exhaust; bounded wrappers do).
    fn next_instance(&mut self) -> Option<Instance>;

    /// Pulls the next instance but keeps it only if it is of class
    /// `target`: `None` if the stream is exhausted, `Some(None)` if an
    /// instance of another class was pulled and discarded, `Some(Some(_))`
    /// if it was kept.
    ///
    /// Contract: the call leaves the stream in exactly the state
    /// [`next_instance`](Self::next_instance) would (same random draws,
    /// same counters), and a kept instance equals what `next_instance`
    /// would have returned. The default pulls and then filters; generators
    /// that draw the class first override it to skip building a candidate
    /// they would discard.
    fn next_of_class(&mut self, target: usize) -> Option<Option<Instance>> {
        let inst = self.next_instance()?;
        Some((inst.class == target).then_some(inst))
    }

    /// Static schema of the stream.
    fn schema(&self) -> &StreamSchema;

    /// Restarts the stream from its initial state (same seed ⇒ same
    /// sequence). Wrappers propagate the restart to their inner streams.
    fn restart(&mut self);
}

/// A mini-batch of consecutive instances, the unit on which RBM-IM trains
/// and detects (paper Sec. V-A: "RBM-IM model for learning on mini-batches").
#[derive(Debug, Clone, PartialEq)]
pub struct MiniBatch {
    /// The instances in arrival order.
    pub instances: Vec<Instance>,
    /// Index of the first instance of the batch within the stream.
    pub start_index: u64,
}

impl MiniBatch {
    /// Number of instances in the batch.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Per-class instance counts, indexed by class id.
    pub fn class_counts(&self, num_classes: usize) -> Vec<usize> {
        let mut counts = vec![0usize; num_classes];
        for inst in &self.instances {
            if inst.class < num_classes {
                counts[inst.class] += 1;
            }
        }
        counts
    }

    /// Iterates over instances belonging to the given class.
    pub fn instances_of_class(&self, class: usize) -> impl Iterator<Item = &Instance> {
        self.instances.iter().filter(move |i| i.class == class)
    }
}

/// Extension helpers available on every [`DataStream`].
pub trait StreamExt: DataStream {
    /// Collects up to `n` instances into a vector (fewer if the stream
    /// exhausts first).
    fn take_instances(&mut self, n: usize) -> Vec<Instance> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            match self.next_instance() {
                Some(inst) => out.push(inst),
                None => break,
            }
        }
        out
    }

    /// Collects the next `batch_size` instances into a [`MiniBatch`].
    /// Returns `None` if the stream produces no further instances; a final
    /// partial batch is returned as-is.
    fn next_batch(&mut self, batch_size: usize) -> Option<MiniBatch> {
        assert!(batch_size > 0, "batch size must be > 0");
        let mut instances = Vec::with_capacity(batch_size);
        let mut start_index = None;
        for _ in 0..batch_size {
            match self.next_instance() {
                Some(inst) => {
                    if start_index.is_none() {
                        start_index = Some(inst.index);
                    }
                    instances.push(inst);
                }
                None => break,
            }
        }
        if instances.is_empty() {
            None
        } else {
            Some(MiniBatch { instances, start_index: start_index.unwrap_or(0) })
        }
    }

    /// Empirical class distribution over the next `n` instances. The stream
    /// is advanced by `n` instances (or until exhaustion).
    fn empirical_class_distribution(&mut self, n: usize) -> Vec<f64> {
        let k = self.schema().num_classes;
        let mut counts = vec![0usize; k];
        let mut total = 0usize;
        for _ in 0..n {
            match self.next_instance() {
                Some(inst) => {
                    if inst.class < k {
                        counts[inst.class] += 1;
                        total += 1;
                    }
                }
                None => break,
            }
        }
        if total == 0 {
            vec![0.0; k]
        } else {
            counts.iter().map(|&c| c as f64 / total as f64).collect()
        }
    }
}

impl<T: DataStream + ?Sized> StreamExt for T {}

/// A bounded wrapper that stops a stream after a fixed number of instances.
pub struct BoundedStream<S> {
    inner: S,
    limit: u64,
    emitted: u64,
}

impl<S: DataStream> BoundedStream<S> {
    /// Wraps `inner`, limiting it to `limit` instances.
    pub fn new(inner: S, limit: u64) -> Self {
        BoundedStream { inner, limit, emitted: 0 }
    }

    /// Consumes the wrapper and returns the inner stream.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: DataStream> DataStream for BoundedStream<S> {
    fn next_instance(&mut self) -> Option<Instance> {
        if self.emitted >= self.limit {
            return None;
        }
        let inst = self.inner.next_instance()?;
        self.emitted += 1;
        Some(inst)
    }

    fn schema(&self) -> &StreamSchema {
        self.inner.schema()
    }

    fn restart(&mut self) {
        self.inner.restart();
        self.emitted = 0;
    }
}

/// Boxed-stream support so heterogeneous benchmark collections can be stored
/// in one registry (lifetime-generic so scoped, borrowing streams box too).
impl<'s> DataStream for Box<dyn DataStream + Send + 's> {
    fn next_instance(&mut self) -> Option<Instance> {
        (**self).next_instance()
    }

    fn next_of_class(&mut self, target: usize) -> Option<Option<Instance>> {
        (**self).next_of_class(target)
    }

    fn schema(&self) -> &StreamSchema {
        (**self).schema()
    }

    fn restart(&mut self) {
        (**self).restart()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trivial deterministic stream cycling over classes for testing.
    struct CyclingStream {
        schema: StreamSchema,
        counter: u64,
    }

    impl CyclingStream {
        fn new(num_classes: usize) -> Self {
            CyclingStream { schema: StreamSchema::new("cycle", 2, num_classes), counter: 0 }
        }
    }

    impl DataStream for CyclingStream {
        fn next_instance(&mut self) -> Option<Instance> {
            let class = (self.counter as usize) % self.schema.num_classes;
            let inst =
                Instance::with_index(vec![self.counter as f64, class as f64], class, self.counter);
            self.counter += 1;
            Some(inst)
        }
        fn schema(&self) -> &StreamSchema {
            &self.schema
        }
        fn restart(&mut self) {
            self.counter = 0;
        }
    }

    #[test]
    fn take_instances_and_restart() {
        let mut s = CyclingStream::new(3);
        let first = s.take_instances(5);
        assert_eq!(first.len(), 5);
        assert_eq!(first[4].class, 1);
        s.restart();
        let again = s.take_instances(5);
        assert_eq!(first, again);
    }

    #[test]
    fn mini_batch_collection_and_counts() {
        let mut s = CyclingStream::new(3);
        let batch = s.next_batch(7).unwrap();
        assert_eq!(batch.len(), 7);
        assert_eq!(batch.start_index, 0);
        assert_eq!(batch.class_counts(3), vec![3, 2, 2]);
        assert_eq!(batch.instances_of_class(0).count(), 3);
        let batch2 = s.next_batch(3).unwrap();
        assert_eq!(batch2.start_index, 7);
    }

    #[test]
    fn empirical_distribution_of_cycling_stream_is_uniform() {
        let mut s = CyclingStream::new(4);
        let dist = s.empirical_class_distribution(400);
        for p in dist {
            assert!((p - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn bounded_stream_stops_and_restarts() {
        let mut s = BoundedStream::new(CyclingStream::new(2), 4);
        assert_eq!(s.take_instances(100).len(), 4);
        assert!(s.next_instance().is_none());
        assert!(s.next_batch(5).is_none());
        s.restart();
        assert_eq!(s.take_instances(100).len(), 4);
        assert_eq!(s.schema().name, "cycle");
    }

    #[test]
    fn boxed_stream_is_usable() {
        let mut boxed: Box<dyn DataStream + Send> = Box::new(CyclingStream::new(2));
        assert!(boxed.next_instance().is_some());
        boxed.restart();
        assert_eq!(boxed.schema().num_classes, 2);
        assert_eq!(boxed.take_instances(3).len(), 3);
    }

    #[test]
    fn partial_final_batch_is_returned() {
        let mut s = BoundedStream::new(CyclingStream::new(2), 5);
        let b1 = s.next_batch(3).unwrap();
        assert_eq!(b1.len(), 3);
        let b2 = s.next_batch(3).unwrap();
        assert_eq!(b2.len(), 2);
        assert!(s.next_batch(3).is_none());
    }

    #[test]
    #[should_panic]
    fn zero_batch_size_rejected() {
        CyclingStream::new(2).next_batch(0);
    }

    #[test]
    fn empty_minibatch_reports_empty() {
        let b = MiniBatch { instances: vec![], start_index: 0 };
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.class_counts(3), vec![0, 0, 0]);
    }
}
