//! In-memory span ledger for the traced run.
//!
//! Every call the benchmark makes into a layer's public API is wrapped in
//! a span: `(name, start, end, parent, op)`. Spans nest through a stack,
//! so each closed span knows how much of its interval its children
//! covered; its *self time* is the rest. Aggregates per span name are kept
//! online (count, total, self, every duration), so the retained span list
//! can be capped without losing any accounting.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept verbatim for the written span file; aggregates cover all.
const RETAINED_SPANS: usize = 50_000;

/// One closed span, nanoseconds since the ledger's origin.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Span name, `layer.function` (`op.*` for a workload operation).
    pub name: &'static str,
    /// Start offset.
    pub start_ns: u64,
    /// End offset.
    pub end_ns: u64,
    /// Index of the enclosing span in the retained list, if retained.
    pub parent: Option<u32>,
    /// The workload operation this span belongs to.
    pub op: u64,
}

/// Online aggregate of one span name.
#[derive(Debug, Clone, Default)]
pub struct SpanAgg {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times (duration minus child coverage).
    pub self_ns: u64,
    /// Every duration, in closing order.
    pub durations: Vec<u64>,
}

#[derive(Debug)]
struct Open {
    start_ns: u64,
    child_ns: u64,
    retained: Option<u32>,
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<SpanRecord>,
    dropped: u64,
    stack: Vec<Open>,
    op: u64,
    aggs: BTreeMap<&'static str, SpanAgg>,
}

/// The span recorder. A disabled ledger records nothing and costs one
/// branch per span.
#[derive(Debug)]
pub struct Ledger {
    on: bool,
    origin: Instant,
    inner: RefCell<Inner>,
}

impl Ledger {
    /// A recording ledger.
    pub fn on() -> Self {
        Ledger {
            on: true,
            origin: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    /// A ledger that records nothing.
    pub fn off() -> Self {
        Ledger {
            on: false,
            origin: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new workload operation: later spans carry its id.
    pub fn next_op(&self) {
        if self.on {
            self.inner.borrow_mut().op += 1;
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_by(f, |_| name)
    }

    /// Runs `f` inside a span named after its outcome (say, a hit or a
    /// miss), so one call site can feed two distributions.
    pub fn span_by<T>(&self, f: impl FnOnce() -> T, name: impl FnOnce(&T) -> &'static str) -> T {
        if !self.on {
            return f();
        }
        self.open();
        let out = f();
        self.close(name(&out));
        out
    }

    /// Opens a span by hand; [`Ledger::end`] closes it. For call sites
    /// where the spanned code needs the ledger's owner mutably.
    pub fn begin(&self) {
        if self.on {
            self.open();
        }
    }

    /// Closes the span [`Ledger::begin`] opened.
    pub fn end(&self, name: &'static str) {
        if self.on {
            self.close(name);
        }
    }

    fn open(&self) {
        let start_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let parent = inner.stack.last().and_then(|p| p.retained);
        let retained = if inner.spans.len() < RETAINED_SPANS {
            let op = inner.op;
            inner.spans.push(SpanRecord {
                name: "",
                start_ns,
                end_ns: start_ns,
                parent,
                op,
            });
            Some(inner.spans.len() as u32 - 1)
        } else {
            inner.dropped += 1;
            None
        };
        inner.stack.push(Open {
            start_ns,
            child_ns: 0,
            retained,
        });
    }

    fn close(&self, name: &'static str) {
        let end_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let open = inner.stack.pop().expect("close matches an open span");
        let dur = end_ns.saturating_sub(open.start_ns);
        if let Some(p) = inner.stack.last_mut() {
            p.child_ns += dur;
        }
        if let Some(i) = open.retained {
            let rec = &mut inner.spans[i as usize];
            rec.name = name;
            rec.end_ns = end_ns;
        }
        let agg = inner.aggs.entry(name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        agg.durations.push(dur);
    }

    /// Aggregates by span name.
    pub fn aggregates(&self) -> BTreeMap<&'static str, SpanAgg> {
        self.inner.borrow().aggs.clone()
    }

    /// Aggregate of one span name (empty when never recorded).
    pub fn agg(&self, name: &str) -> SpanAgg {
        self.inner
            .borrow()
            .aggs
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    /// Writes the retained spans as CSV: `name,start_ns,end_ns,parent,op`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let inner = self.inner.borrow();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,start_ns,end_ns,parent,op")?;
        for s in &inner.spans {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{},{},{},{},{}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            )?;
        }
        if inner.dropped > 0 {
            writeln!(
                out,
                "# {} later spans aggregated but not retained",
                inner.dropped
            )?;
        }
        out.flush()
    }
}
