//! `ccvbench`: the end-to-end and per-layer benchmark of `ccv`.
//!
//! Three workloads, each a whole number of passes over a fixed request
//! set whose order the seed permutes:
//!
//! * `sweep` — every single-edit mutant of the 12 correct library
//!   protocols, verified in-process through [`ccv_core::Batch::verify_many`];
//! * `serve-hot` — inline-DSL verify requests for the 23 library
//!   protocols against a loopback `ccv_serve` daemon, all cache hits;
//! * `serve-cold` — enumerate and crosscheck requests against the same
//!   daemon, all cache misses.
//!
//! The untraced run prints the end-to-end metrics; the traced run
//! (`--trace 1`) times the calls into each layer's public functions
//! from outside and prints the per-layer metrics. See `README.md`.

pub mod corpus;
pub mod digest;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// Times each workload's set-up is repeated; `setup_s` is the median.
pub const SETUPS: usize = 7;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["sweep", "serve-hot", "serve-cold"];

/// One invocation's parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Permutes the request order; never changes the request set.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: Duration,
    /// Run the traced (per-layer) measurement instead.
    pub trace: bool,
    /// Where the traced run writes its Chrome-trace JSON.
    pub trace_out: PathBuf,
}

/// The end-to-end metrics, with units, in print order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics, with units, in print order. A layer that
/// does no work on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("model.corpus_ms", "ms"),
    ("model.dsl_parse_us", "us"),
    ("model.dsl_print_us", "us"),
    ("model.self_ms", "ms"),
    ("core.expand_ms", "ms"),
    ("core.graph_ms", "ms"),
    ("core.report_ms", "ms"),
    ("core.visits", "count"),
    ("core.expansions", "count"),
    ("core.containment_checks", "count"),
    ("core.index_probes", "count"),
    ("core.intern_hits", "count"),
    ("core.prunes", "count"),
    ("core.error_reports", "count"),
    ("core.self_ms", "ms"),
    ("api.parse_us", "us"),
    ("api.key_us", "us"),
    ("api.key_bytes", "bytes"),
    ("api.run_ms", "ms"),
    ("api.render_us", "us"),
    ("api.self_ms", "ms"),
    ("serve.process_us", "us"),
    ("serve.transport_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_evictions", "count"),
    ("serve.hit_frac", "ratio"),
    ("serve.busy", "count"),
    ("serve.queued", "count"),
    ("serve.self_ms", "ms"),
    ("enum.run_ms", "ms"),
    ("enum.visits_per_s", "1/s"),
    ("enum.distinct", "count"),
    ("enum.dedup_hit_ratio", "ratio"),
    ("enum.steals", "count"),
    ("enum.claim_races", "count"),
    ("enum.peak_pending", "count"),
    ("enum.visited_mib", "MiB"),
    ("enum.t1_over_tn", "ratio"),
    ("enum.self_ms", "ms"),
    ("crosscheck.enumerate_leg_ms", "ms"),
    ("crosscheck.coverage_leg_ms", "ms"),
    ("crosscheck.self_ms", "ms"),
    ("observe.budget_polls", "count"),
    ("trace_overhead", "ratio"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (verdicts or requests).
    pub attempted: u64,
    /// Operations whose output did not match.
    pub failed: u64,
    /// Metric values by name; units come from [`END_TO_END`] and
    /// [`PER_LAYER`].
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records the per-layer self time of every layer in `by_layer`
    /// that has a `<layer>.self_ms` metric, per pass over the request
    /// set when `by_layer` covers `passes` passes.
    pub fn set_self_times(&mut self, by_layer: &BTreeMap<&'static str, f64>, passes: usize) {
        for (layer, ms) in by_layer {
            if let Some(&(name, _)) = PER_LAYER
                .iter()
                .find(|(n, _)| n.strip_suffix(".self_ms") == Some(layer))
            {
                self.set(name, *ms / passes as f64);
            }
        }
    }

    /// The result line: every metric of the run's kind, by name, with
    /// its unit.
    pub fn to_json(&self, traced: bool) -> ccv_observe::Json {
        use ccv_observe::Json;
        let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let metrics = names
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::str(unit)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::int(self.attempted)),
            ("failed".into(), Json::int(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// Runs one workload. `Err` means the run is invalid — a pinned
/// digest did not match or the set-up failed — and nothing is printed.
pub fn run(params: &Params) -> Result<Report, String> {
    match params.workload.as_str() {
        "sweep" => sweep::run(params),
        "serve-hot" => serve::run_hot(params),
        "serve-cold" => serve::run_cold(params),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Median set-up time in seconds over `times`.
pub fn setup_seconds(times: &[Duration]) -> f64 {
    stats::median(&times.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

/// Writes the traced run's spans as Chrome-trace JSON.
pub fn write_trace(path: &std::path::Path, spans: &[trace::Span]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, trace::chrome_trace(spans).render_compact())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Computes every workload's digest directly from the library, in the
/// shape of `digests.json`: one `verify_many` pass for `sweep`,
/// `Session::run` for the `serve-hot` requests and
/// `SessionRunner::run` for each `serve-cold` request.
pub fn print_digests() -> Result<String, String> {
    use ccv_core::api::{Request, Response, RunContext, SessionRunner};
    use ccv_observe::Json;
    ccv_enum::install_api_backend();
    let sweep = digest::sweep_digest(&ccv_core::Batch::new().verify_many(&corpus::sweep_corpus()));
    let mut runner = SessionRunner::new();
    let mut run = |line: &str| -> Result<Response, String> {
        let req = Request::parse(line).map_err(|e| e.to_string())?;
        Ok(runner.run(&req, &RunContext::default()))
    };
    let hot = corpus::hot_requests()
        .iter()
        .map(|line| run(line))
        .collect::<Result<Vec<_>, _>>()?;
    let cold = corpus::cold_requests()
        .iter()
        .map(|r| {
            let body = Json::parse(&run(&r.line)?.to_json().render_compact())?;
            Ok((r.label.clone(), digest::cold_digest(&body)))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Json::Obj(vec![
        ("sweep".into(), sweep),
        ("serve-hot".into(), digest::hot_digest(&hot)),
        ("serve-cold".into(), Json::Obj(cold)),
    ])
    .render())
}
