//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own loop around its calls into
//! each layer — nothing inside the crates under test is instrumented.
//! Every span has a name, start, end, parent, iteration id and packet
//! count. Totals per name are always kept; the raw spans of the first
//! [`RAW_CAPACITY`] are also kept, in a buffer allocated up front, and
//! written out as JSON lines when the run ends.
//!
//! With the tracer off every call is one predictable branch, which is
//! why the untraced run can share the loop code.

use std::io::Write as _;
use std::time::Instant;

/// Raw spans kept for the trace file (the totals cover all of them).
pub const RAW_CAPACITY: usize = 120_000;

/// Sentinel parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index into the tracer's name table.
    pub name: u16,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Raw-buffer index of the parent span, or [`NO_PARENT`].
    pub parent: u32,
    /// Iteration the span belongs to (spans of one iteration share it).
    pub iter: u32,
    /// Packets the spanned work handled.
    pub pkts: u32,
}

/// Running totals of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Spans closed under this name.
    pub count: u64,
    /// Their summed duration.
    pub ns: u64,
    /// Their summed packet counts.
    pub pkts: u64,
}

/// A span in progress, returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    name: u16,
    start_ns: u64,
    parent: u32,
    iter: u32,
    /// Raw-buffer slot reserved for this span, or [`NO_PARENT`] when the
    /// buffer is full (children then record no parent either).
    pub slot: u32,
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    names: Vec<&'static str>,
    totals: Vec<Total>,
    raw: Vec<Span>,
}

impl Tracer {
    /// A tracer; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            names: Vec::new(),
            totals: Vec::new(),
            raw: Vec::with_capacity(if on { RAW_CAPACITY } else { 0 }),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Pauses or resumes recording (the traced run alternates traced and
    /// untraced windows to measure its own overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        // Names are few and `&'static`, so pointer-free linear search on
        // a handful of entries beats hashing.
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return i as u16;
        }
        self.names.push(name);
        self.totals.push(Total::default());
        (self.names.len() - 1) as u16
    }

    /// Opens a span. `parent` is the `slot` of the enclosing open span.
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: u32, iter: u32) -> Open {
        if !self.on {
            return Open {
                name: 0,
                start_ns: 0,
                parent,
                iter,
                slot: NO_PARENT,
            };
        }
        let name = self.name_id(name);
        let slot = if self.raw.len() < RAW_CAPACITY {
            self.raw.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                iter,
                pkts: 0,
            });
            (self.raw.len() - 1) as u32
        } else {
            NO_PARENT
        };
        Open {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            parent,
            iter,
            slot,
        }
    }

    /// Closes a span opened by [`Tracer::begin`].
    #[inline]
    pub fn end(&mut self, open: Open, pkts: u32) {
        if !self.on {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let t = &mut self.totals[open.name as usize];
        t.count += 1;
        t.ns += end_ns - open.start_ns;
        t.pkts += u64::from(pkts);
        if let Some(s) = self.raw.get_mut(open.slot as usize) {
            *s = Span {
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                parent: open.parent,
                iter: open.iter,
                pkts,
            };
        }
    }

    /// Totals of one span name (zero if never seen).
    pub fn total(&self, name: &str) -> Total {
        self.names
            .iter()
            .position(|n| *n == name)
            .map_or_else(Total::default, |i| self.totals[i])
    }

    /// Mean duration of a span name in nanoseconds (`NaN` if never seen).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let t = self.total(name);
        t.ns as f64 / t.count as f64
    }

    /// Share of the time under `root` spans that the named child spans
    /// account for.
    pub fn coverage(&self, root: &str, children: &[&str]) -> f64 {
        let covered: u64 = children.iter().map(|c| self.total(c).ns).sum();
        covered as f64 / self.total(root).ns as f64
    }

    /// The raw spans kept so far.
    pub fn raw(&self) -> &[Span] {
        &self.raw
    }

    /// Writes the raw spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.raw.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"iter\":{},\"pkts\":{}}}",
                self.names[s.name as usize], s.start_ns, s.end_ns, s.iter, s.pkts
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_total() {
        let mut t = Tracer::new(true);
        let root = t.begin("iter", NO_PARENT, 7);
        let a = t.begin("rx", root.slot, 7);
        t.end(a, 256);
        let b = t.begin("run", root.slot, 7);
        t.end(b, 256);
        t.end(root, 256);
        assert_eq!(t.total("rx").count, 1);
        assert_eq!(t.total("iter").pkts, 256);
        assert_eq!(t.total("never").count, 0);
        let raw = t.raw();
        assert_eq!(raw.len(), 3);
        assert_eq!(raw[0].parent, NO_PARENT);
        assert_eq!(raw[1].parent, 0);
        assert_eq!(raw[2].parent, 0);
        assert!(raw.iter().all(|s| s.iter == 7 && s.end_ns >= s.start_ns));
        assert!(raw[1].end_ns <= raw[2].start_ns);
        let c = t.coverage("iter", &["rx", "run"]);
        assert!(c > 0.0 && c <= 1.0, "children lie inside the root: {c}");
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("iter", NO_PARENT, 0);
        t.end(s, 1);
        assert!(t.raw().is_empty());
        assert_eq!(t.total("iter").count, 0);
    }
}
