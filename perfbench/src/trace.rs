//! The traced run's instruments, all in the benchmark's own files: wall
//! spans around calls into each layer's public functions, a telemetry sink
//! that counts the simulator's events by kind, and the p99.9 blame shares
//! computed from the program's `BlameRecord`s.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ossd_sim::SimTime;
use ossd_telemetry::{
    BlameCat, BlameRecord, EventKind, MetricsSample, ServiceClass, TelemetryHandle, TelemetrySink,
    Track,
};

use crate::stats;

/// One wall-time span around a call into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `<crate>.<call>` of the layer function called.
    pub name: &'static str,
    /// Start, ns since the tracer was made.
    pub start_ns: u64,
    /// End, ns since the tracer was made.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The request (or session) the span served; spans of one share it.
    pub request: u64,
}

/// In-memory span recorder.  When disabled every call is a plain call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` for request `request`.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let index = self.spans.len() as u32;
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        let out = f();
        self.open.pop();
        self.spans[index as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Total wall seconds and call count of the spans named `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        let mut ns = 0u64;
        let mut calls = 0u64;
        for s in self.spans.iter().filter(|s| s.name == name) {
            ns += s.end_ns - s.start_ns;
            calls += 1;
        }
        (ns as f64 / 1e9, calls)
    }

    /// Total wall seconds of the spans named `name` serving `request`.
    pub fn total_for(&self, name: &str, request: u64) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name && s.request == request)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Writes every span as CSV (`name,start_ns,end_ns,parent,request`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,start_ns,end_ns,parent,request")?;
        for s in &self.spans {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{},{},{},{},{}",
                s.name, s.start_ns, s.end_ns, parent, s.request
            )?;
        }
        out.flush()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// A [`TelemetrySink`] that only counts events by kind (spans and instants
/// alike), for exact per-layer work counts.
#[derive(Default)]
pub struct CountingSink {
    now: SimTime,
    counts: BTreeMap<&'static str, u64>,
}

impl CountingSink {
    /// A fresh sink and a handle attached to it.
    pub fn attach() -> (Arc<Mutex<CountingSink>>, TelemetryHandle) {
        let sink = Arc::new(Mutex::new(CountingSink::default()));
        let handle = TelemetryHandle::attached(sink.clone());
        (sink, handle)
    }

    /// Events of `kind` seen so far.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts.get(kind.name()).copied().unwrap_or(0)
    }
}

impl TelemetrySink for CountingSink {
    fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }
    fn now(&self) -> SimTime {
        self.now
    }
    fn span(&mut self, _: SimTime, _: SimTime, _: Track, kind: EventKind, _: u64, _: u64) {
        *self.counts.entry(kind.name()).or_default() += 1;
    }
    fn instant(&mut self, _: SimTime, _: Track, kind: EventKind, _: u64, _: u64) {
        *self.counts.entry(kind.name()).or_default() += 1;
    }
    fn add(&mut self, _: &'static str, _: u64) {}
    fn observe_service(&mut self, _: ServiceClass, _: u64) {}
    fn sample_due(&mut self, _: SimTime) -> bool {
        false
    }
    fn push_sample(&mut self, _: MetricsSample) {}
}

/// Share of the p99.9 read tail's latency blamed on each category, in
/// [`BlameCat::ALL`] order: the reads at or above the p99.9 latency are
/// the tail, and each share is that tail's blamed time over its total
/// time.  `None` when fewer than ten reads lie beyond the p99.9.
pub fn read_tail_blame<'a>(
    records: impl Iterator<Item = &'a BlameRecord>,
) -> Option<[f64; BlameCat::COUNT]> {
    let reads: Vec<&BlameRecord> = records
        .filter(|r| r.class == Some(ServiceClass::Read))
        .collect();
    let mut totals: Vec<u64> = reads.iter().map(|r| r.total_nanos()).collect();
    totals.sort_unstable();
    let threshold = stats::percentile(&totals, 99.9)?;
    let mut blamed = [0u64; BlameCat::COUNT];
    for r in reads.iter().filter(|r| r.total_nanos() >= threshold) {
        for cat in BlameCat::ALL {
            blamed[cat.index()] += r.breakdown.get(cat);
        }
    }
    let total: u64 = blamed.iter().sum();
    let mut shares = [0.0; BlameCat::COUNT];
    for (s, b) in shares.iter_mut().zip(blamed) {
        *s = b as f64 / total.max(1) as f64;
    }
    Some(shares)
}
