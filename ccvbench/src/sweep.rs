//! `sweep`: every single-edit mutant of the 12 correct library
//! protocols, verified in-process by one caller through
//! `Batch::verify_many`. The symbolic engine and report assembly do
//! all the work; `ccv-serve` and `ccv-enum` do none.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ccv_core::{
    expand_with, global_graph, Batch, Composite, EngineScratch, ErrorReport, Expansion, Options,
    Outcome, Verdict,
};
use ccv_model::ProtocolSpec;
use ccv_observe::{Counter, EventSink, Metrics, SinkHandle};

use crate::corpus::{library, sweep_corpus};
use crate::digest::{expect, pinned, SweepTally};
use crate::stats::{permutation, smoothed_percentile, sorted, SplitMix64};
use crate::trace::{self_ms_by_layer, total_ms, Recorder};
use crate::{setup_seconds, stats, write_trace, Params, Report, SETUPS};

/// Everything the timed passes need.
struct Setup {
    /// The corpus, cut into [`BATCH`]-spec batches in library order.
    /// A seed orders the batches and the specs within each, never which
    /// specs share a batch, so the memory a batch's reports hold does
    /// not depend on it.
    batches: Vec<Vec<ProtocolSpec>>,
    /// A batch whose scratch has been through one warm-up run.
    batch: Batch,
}

/// Builds the corpus and warms a batch on the library protocols.
fn setup(rec: Option<&Recorder>) -> Setup {
    let timed = |name, f: &mut dyn FnMut()| match rec {
        Some(r) => r.span(name, None, 0, f),
        None => f(),
    };
    let mut corpus = Vec::new();
    timed("model.corpus", &mut || corpus = sweep_corpus());
    let batches = corpus.chunks(BATCH).map(<[ProtocolSpec]>::to_vec).collect();
    let mut batch = Batch::new();
    // The 23 library protocols, buggy ones included, take the engine
    // and the report renderer through their first runs.
    timed("core.warm", &mut || {
        let warm = batch.verify_many(&library());
        assert!(warm.iter().all(|r| r.verdict != Verdict::Inconclusive));
    });
    Setup { batches, batch }
}

impl Setup {
    /// Every spec, in library order.
    fn specs(&self) -> impl Iterator<Item = &ProtocolSpec> {
        self.batches.iter().flatten()
    }

    fn len(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }
}

/// Specs per `verify_many` call: about one protocol's mutants, the
/// batch the mutation sweep verifies at once. Reports of one call are
/// held until it returns, so this also bounds the memory a pass holds.
pub const BATCH: usize = 100;

/// Passes every untraced run makes, however long they take, so that
/// each spec's best latency is taken over at least this many.
pub const MIN_PASSES: usize = 3;

/// What one pass over the corpus measured.
struct PassTimes {
    /// The latency of each spec, by its place in [`Setup::specs`].
    spec_ms: Vec<f64>,
    /// Process CPU time of each batch's call, by batch, in milliseconds.
    batch_cpu_ms: Vec<f64>,
    /// Wall time of the pass.
    wall: Duration,
}

/// One pass over the corpus: one `verify_many` call per batch, the
/// batches and the specs within each in an order `order` fixes. A
/// spec's latency runs from the call taking it off the iterator to the
/// call taking the next one, or returning: one `Batch::verify`, plus
/// storing its report.
fn pass(s: &mut Setup, order: u64) -> Result<PassTimes, String> {
    let mut rng = SplitMix64::new(order);
    let firsts: Vec<usize> = s
        .batches
        .iter()
        .scan(0, |n, b| {
            *n += b.len();
            Some(*n - b.len())
        })
        .collect();
    let mut spec_ms = vec![0.0; s.len()];
    let mut batch_cpu_ms = vec![0.0; s.batches.len()];
    let mut tally = SweepTally::default();
    let t0 = Instant::now();
    for b in permutation(s.batches.len(), rng.next_u64()) {
        let batch = &s.batches[b];
        let within = permutation(batch.len(), rng.next_u64());
        let mut stamps = Vec::with_capacity(batch.len() + 1);
        let cpu0 = stats::process_cpu_ms();
        let reports = s.batch.verify_many(within.iter().map(|&i| {
            stamps.push(Instant::now());
            &batch[i]
        }));
        stamps.push(Instant::now());
        batch_cpu_ms[b] = stats::process_cpu_ms() - cpu0;
        for (k, &i) in within.iter().enumerate() {
            spec_ms[firsts[b] + i] = (stamps[k + 1] - stamps[k]).as_secs_f64() * 1e3;
        }
        for r in &reports {
            tally.add(r.verdict, r.visits(), r.num_essential(), r.reports.len());
        }
    }
    let wall = t0.elapsed();
    expect("sweep", "pass", &tally.digest(), &pinned("sweep"))?;
    Ok(PassTimes {
        spec_ms,
        batch_cpu_ms,
        wall,
    })
}

/// The least of `f(pass)` over `passes`, for each of `n` slots.
fn best(passes: &[PassTimes], n: usize, f: fn(&PassTimes) -> &[f64]) -> Vec<f64> {
    (0..n)
        .map(|i| passes.iter().map(|t| f(t)[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// The untraced run: whole passes over the corpus until one more would
/// end past `--seconds`, and at least [`MIN_PASSES`]. Each spec's
/// latency is its best over the passes, and each batch's CPU time too:
/// `p50_ms` and `p99_ms` are smoothed percentiles of the specs' best
/// latencies, `verdicts_per_s` is the corpus size over their sum and
/// `cpu_ms_per_op` the batches' best CPU times summed over the corpus
/// size. Load from outside the process, which comes and goes within a
/// pass, then moves none of them as long as each spec runs once
/// undisturbed.
pub fn run(p: &Params) -> Result<Report, String> {
    if p.trace {
        return run_traced(p);
    }
    // The set-up is timed [`SETUPS`] times: once before the first pass,
    // then once after each pass and the rest after the last, so that
    // like the passes it samples the host over the whole window. The
    // first set-up is the one the passes use.
    let mut times = Vec::new();
    let mut timed_setup = || {
        let t = Instant::now();
        let s = setup(None);
        times.push(t.elapsed());
        s
    };
    let mut s = timed_setup();
    let mut setups = 1;

    let mut rng = SplitMix64::new(p.seed);
    let t0 = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || !overruns(t0.elapsed(), passes.len(), p.seconds) {
        passes.push(pass(&mut s, rng.next_u64())?);
        if setups < SETUPS {
            timed_setup();
            setups += 1;
        }
    }
    let window = t0.elapsed();
    for _ in setups..SETUPS {
        timed_setup();
    }
    let n = s.len();
    eprintln!(
        "sweep: {} passes of {n} specs in {:.2}s; verdicts/s per pass {:?}; set-ups (ms) {:?}",
        passes.len(),
        window.as_secs_f64(),
        passes
            .iter()
            .map(|t| (n as f64 / t.wall.as_secs_f64()).round())
            .collect::<Vec<_>>(),
        times
            .iter()
            .map(|t| (t.as_secs_f64() * 1e4).round() / 10.0)
            .collect::<Vec<_>>()
    );
    let spec_ms = sorted(&best(&passes, n, |t| &t.spec_ms));
    let cpu_ms: f64 = best(&passes, s.batches.len(), |t| &t.batch_cpu_ms)
        .iter()
        .sum();
    let mut r = Report {
        attempted: (passes.len() * n) as u64,
        ..Report::default()
    };
    r.set("setup_s", setup_seconds(&times));
    r.set(
        "verdicts_per_s",
        n as f64 / spec_ms.iter().sum::<f64>() * 1e3,
    );
    r.set("p50_ms", smoothed_percentile(&spec_ms, 50.0));
    r.set("p99_ms", smoothed_percentile(&spec_ms, 99.0));
    r.set("cpu_ms_per_op", cpu_ms / n as f64);
    r.set("ok_frac", 1.0);
    r.set("peak_rss_mib", stats::peak_rss_mib());
    Ok(r)
}

/// Whole passes only: true when one more pass of the mean length so far
/// would end past `budget`.
fn overruns(elapsed: Duration, passes: usize, budget: Duration) -> bool {
    elapsed + elapsed / passes as u32 > budget
}

/// Renders the error reports of one expansion, as
/// `verify_with_scratch` does.
fn render_reports(spec: &ProtocolSpec, expansion: &Expansion) -> Vec<ErrorReport> {
    expansion
        .errors
        .iter()
        .map(|f| {
            let mut descriptions: Vec<String> =
                f.violations.iter().map(|v| v.describe(spec)).collect();
            descriptions.extend(f.step_errors.iter().map(|e| e.to_string()));
            ErrorReport {
                descriptions,
                state: expansion.composite(f.node).render(spec),
                path: expansion.render_path(spec, f.node),
            }
        })
        .collect()
}

/// The traced run: one untraced latency pass, then the same pass taken
/// apart into the public calls `Batch::verify` makes — expansion,
/// global graph, report rendering — each in its own span, then one
/// counting pass with a `Metrics` sink on the engine.
pub fn run_traced(p: &Params) -> Result<Report, String> {
    let rec = Arc::new(Recorder::default());
    let setup_root = rec.begin("bench.setup", None, 0, 0);
    let mut s = setup(Some(&rec));
    rec.end(setup_root);
    let want = pinned("sweep");

    let untraced = pass(&mut s, p.seed)?.wall;

    let opts = Options::default();
    let mut scratch = EngineScratch::new();
    let mut tally = SweepTally::default();
    let t = Instant::now();
    for (i, spec) in s.specs().enumerate() {
        let id = i as u64 + 1;
        let root = rec.begin("bench.spec", None, id, 0);
        let expansion = rec.span("core.expand", Some(root), id, || {
            expand_with(spec, Composite::initial(spec), &opts, &mut scratch)
        });
        let graph = rec.span("core.graph", Some(root), id, || {
            global_graph(spec, &expansion)
        });
        let (verdict, reports) = rec.span("core.report", Some(root), id, || {
            let verdict = Outcome::of_expansion(&expansion).verdict();
            (verdict, render_reports(spec, &expansion))
        });
        tally.add(
            verdict,
            expansion.visits,
            expansion.essential.len(),
            reports.len(),
        );
        drop((graph, reports, expansion));
        rec.end(root);
    }
    let traced = t.elapsed();
    expect("sweep", "traced pass", &tally.digest(), &want)?;

    let metrics = Arc::new(Metrics::new());
    let counting = Options::default().sink(SinkHandle::new(metrics.clone() as Arc<dyn EventSink>));
    for spec in s.specs() {
        expand_with(spec, Composite::initial(spec), &counting, &mut scratch);
    }
    let snap = metrics.snapshot();
    let pinned_visits = want.get("visits").and_then(|v| v.as_u64());
    if Some(snap.counter(Counter::Visits)) != pinned_visits {
        return Err(format!(
            "sweep: counted {} visits, digest pins {pinned_visits:?}",
            snap.counter(Counter::Visits)
        ));
    }

    let spans = rec.spans();
    write_trace(&p.trace_out, &spans)?;
    let error_reports = want
        .get("error_reports")
        .and_then(|v| v.as_u64())
        .unwrap_or(0);
    let mut r = Report {
        attempted: 2 * s.len() as u64,
        ..Report::default()
    };
    r.set("model.corpus_ms", total_ms(&spans, "model.corpus"));
    r.set("core.expand_ms", total_ms(&spans, "core.expand"));
    r.set("core.graph_ms", total_ms(&spans, "core.graph"));
    r.set("core.report_ms", total_ms(&spans, "core.report"));
    let counters = [
        ("core.visits", Counter::Visits),
        ("core.expansions", Counter::Expansions),
        ("core.containment_checks", Counter::ContainmentChecks),
        ("core.index_probes", Counter::IndexProbes),
        ("core.intern_hits", Counter::InternHits),
        ("core.prunes", Counter::Prunes),
        ("observe.budget_polls", Counter::BudgetPolls),
    ];
    for (name, counter) in counters {
        r.set(name, snap.counter(counter) as f64);
    }
    r.set("core.error_reports", error_reports as f64);
    r.set_self_times(&self_ms_by_layer(&spans, "bench.spec"), 1);
    r.set("trace_overhead", ratio(traced, untraced));
    Ok(r)
}

fn ratio(a: Duration, b: Duration) -> f64 {
    a.as_secs_f64() / b.as_secs_f64()
}
