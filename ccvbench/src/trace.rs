//! The traced run's span recorder. Spans are taken from outside the
//! program, around calls into each layer's public functions, kept in
//! memory and written at exit as Chrome-trace JSON (the format
//! `ccv --trace-out` writes), which `chrome://tracing` and Perfetto
//! load.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ccv_observe::{Counter, EventSink, Gauge, Json, Metrics, Phase, SpanKind};

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `core.expand`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request (or spec) the span belongs to.
    pub request: u64,
    /// Recording thread: 0 is the benchmark's main thread, `c + 1` is
    /// client `c`.
    pub tid: u32,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An in-memory span log shared by every recording thread.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn begin(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        tid: u32,
    ) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("span log lock: no recording thread panics while holding it");
        spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            request,
            tid,
        });
        spans.len() - 1
    }

    /// Closes span `idx`.
    pub fn end(&self, idx: usize) {
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span log lock: no recording thread panics while holding it")[idx]
            .end_ns = end_ns;
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.begin(name, parent, request, 0);
        let out = f();
        self.end(idx);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log lock: no recording thread panics while holding it")
            .clone()
    }
}

/// Durations in milliseconds of the spans named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Total milliseconds of the spans named `name`.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    durations_ms(spans, name).iter().sum()
}

/// Self time per layer, in milliseconds, over the span trees whose
/// root is named `root`: each span's duration minus the part its child
/// spans cover, summed by layer.
pub fn self_ms_by_layer(spans: &[Span], root: &str) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        spans[i].name
    };
    let mut out = BTreeMap::new();
    for (i, (s, covered)) in spans.iter().zip(child_ns).enumerate() {
        if root_of(i) != root {
            continue;
        }
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        *out.entry(s.layer()).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

/// The spans as a Chrome-trace document: one complete (`X`) event per
/// span, with the request id and parent index as arguments.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut args = vec![
                ("span".to_string(), Json::int(i as u64)),
                ("request".to_string(), Json::int(s.request)),
            ];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), Json::int(p as u64)));
            }
            Json::Obj(vec![
                ("name".into(), Json::str(s.name)),
                ("cat".into(), Json::str(s.layer())),
                ("ph".into(), Json::str("X")),
                ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                (
                    "dur".into(),
                    Json::Num(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                ),
                ("pid".into(), Json::int(1)),
                ("tid".into(), Json::int(s.tid as u64)),
                ("args".into(), Json::Obj(args)),
            ])
        })
        .collect();
    Json::Obj(vec![("traceEvents".into(), Json::Arr(events))])
}

/// An [`EventSink`] for one engine run: counters and gauges go to a
/// [`Metrics`] collector, and the phase and crosscheck-leg events the
/// engines already emit become child spans of `parent`.
pub struct LayerSink {
    /// Counter and gauge totals of the run.
    pub metrics: Metrics,
    rec: Arc<Recorder>,
    parent: usize,
    request: u64,
    open: Mutex<Vec<(u8, usize)>>,
    legs: Mutex<Vec<usize>>,
}

impl LayerSink {
    /// A sink recording under span `parent` of `rec`.
    pub fn new(rec: Arc<Recorder>, parent: usize, request: u64) -> LayerSink {
        LayerSink {
            metrics: Metrics::new(),
            rec,
            parent,
            request,
            open: Mutex::new(Vec::new()),
            legs: Mutex::new(Vec::new()),
        }
    }

    /// Span indices of the crosscheck legs, in order: the explicit
    /// enumeration leg, then the coverage scan.
    pub fn legs(&self) -> Vec<usize> {
        self.legs.lock().expect("leg list lock").clone()
    }
}

fn phase_span(phase: Phase) -> &'static str {
    match phase {
        Phase::Expand => "core.expand",
        Phase::Graph => "core.graph",
        Phase::Check => "core.report",
        Phase::Enumerate => "enum.run",
        Phase::Crosscheck => "crosscheck.run",
        _ => "bench.phase",
    }
}

impl EventSink for LayerSink {
    fn phase_enter(&self, phase: Phase) {
        // Crosscheck legs nest inside the crosscheck phase.
        let idx = self
            .rec
            .begin(phase_span(phase), Some(self.parent), self.request, 0);
        self.open
            .lock()
            .expect("phase stack lock")
            .push((phase.index() as u8, idx));
    }

    fn phase_exit(&self, phase: Phase) {
        let mut open = self.open.lock().expect("phase stack lock");
        if let Some(pos) = open.iter().rposition(|&(p, _)| p == phase.index() as u8) {
            let (_, idx) = open.remove(pos);
            self.rec.end(idx);
        }
    }

    fn count(&self, counter: Counter, delta: u64) {
        self.metrics.count(counter, delta);
    }

    fn gauge(&self, gauge: Gauge, value: u64) {
        self.metrics.gauge(gauge, value);
    }

    fn span_begin(&self, kind: SpanKind, tid: u32) {
        if kind == SpanKind::CrosscheckLeg && tid == 0 {
            let parent = self
                .open
                .lock()
                .expect("phase stack lock")
                .last()
                .map_or(self.parent, |&(_, i)| i);
            let idx = self
                .rec
                .begin("crosscheck.leg", Some(parent), self.request, 0);
            self.legs.lock().expect("leg list lock").push(idx);
        }
    }

    fn span_end(&self, kind: SpanKind, tid: u32) {
        if kind == SpanKind::CrosscheckLeg && tid == 0 {
            if let Some(&idx) = self.legs.lock().expect("leg list lock").last() {
                self.rec.end(idx);
            }
        }
    }
}
