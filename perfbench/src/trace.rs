//! In-memory spans placed around the benchmark's calls into each layer.
//!
//! A span is (layer name, start, end, parent). Spans are kept in memory
//! while a traced pass runs and folded into per-layer self times at the
//! end: a span's self time is its duration minus the time its direct
//! children cover. The last pass's raw spans can be written out as a TSV
//! for inspection.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// No parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `"classifiers.predict"`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
}

/// A span recorder with a fixed origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(capacity) }
    }

    /// Nanoseconds since the origin.
    #[inline]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    #[inline]
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id` now.
    #[inline]
    pub fn close(&mut self, id: u32) {
        let end = self.now();
        self.spans[id as usize].end_ns = end;
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Folds the recorded spans into `into` and forgets them.
    pub fn drain_into(&mut self, into: &mut SelfTimes) {
        into.add(&self.spans);
        self.spans.clear();
    }

    /// Writes the recorded spans as TSV: index, name, start, end, parent.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT { -1 } else { s.parent as i64 };
            writeln!(out, "{i}\t{}\t{}\t{}\t{parent}", s.name, s.start_ns, s.end_ns)?;
        }
        Ok(())
    }
}

/// Accumulated self time and call count per layer name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelfTimes {
    /// `name -> (self nanoseconds, spans)`.
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
}

impl SelfTimes {
    /// Adds the self times of `spans` (parents must precede children).
    pub fn add(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if span.parent != ROOT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        for (span, covered) in spans.iter().zip(child_ns) {
            let entry = self.by_name.entry(span.name).or_insert((0, 0));
            entry.0 += (span.end_ns - span.start_ns).saturating_sub(covered);
            entry.1 += 1;
        }
    }

    /// Merges another accumulator.
    pub fn merge(&mut self, other: &SelfTimes) {
        for (name, (ns, n)) in &other.by_name {
            let entry = self.by_name.entry(name).or_insert((0, 0));
            entry.0 += ns;
            entry.1 += n;
        }
    }

    /// Total self nanoseconds of `name`.
    pub fn ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.0)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("instance", 0, 100, ROOT),
            span("classifiers.predict", 10, 30, 0),
            span("detectors.update", 30, 90, 0),
            span("inner", 40, 60, 2),
        ];
        let mut times = SelfTimes::default();
        times.add(&spans);
        assert_eq!(times.ns("instance"), 100 - 20 - 60);
        assert_eq!(times.ns("classifiers.predict"), 20);
        assert_eq!(times.ns("detectors.update"), 60 - 20);
        assert_eq!(times.ns("inner"), 20);
        // Self times partition the root's wall time.
        let total: u64 = times.by_name.values().map(|e| e.0).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn tracer_records_nested_spans_and_merges() {
        let mut tracer = Tracer::with_capacity(4);
        let root = tracer.open("instance", ROOT);
        let x = tracer.span("metrics.record", root, || 41 + 1);
        tracer.close(root);
        assert_eq!(x, 42);
        assert_eq!(tracer.spans().len(), 2);
        assert_eq!(tracer.spans()[1].parent, root);
        let mut tsv = Vec::new();
        tracer.write_tsv(&mut tsv).unwrap();
        assert_eq!(String::from_utf8(tsv).unwrap().lines().count(), 3);
        let mut a = SelfTimes::default();
        tracer.drain_into(&mut a);
        assert!(tracer.spans().is_empty());
        let mut b = a.clone();
        b.merge(&a);
        assert_eq!(b.count("metrics.record"), 2);
        assert_eq!(b.ns("instance"), 2 * a.ns("instance"));
    }
}
