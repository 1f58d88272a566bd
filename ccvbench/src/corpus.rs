//! The fixed inputs of each workload. A seed never changes what is in
//! a corpus, only the order it is walked in.

use ccv_core::api::{ProtocolSource, Request};
use ccv_model::{dsl, mutate, protocols, ProtocolSpec};

/// The 12 correct library protocols: 10 atomic, 2 split-transaction.
pub fn base_protocols() -> Vec<ProtocolSpec> {
    protocols::all_correct()
        .into_iter()
        .chain(protocols::all_non_atomic())
        .collect()
}

/// Every single-edit mutant of the 12 correct library protocols, in
/// library order: the `sweep` corpus.
pub fn sweep_corpus() -> Vec<ProtocolSpec> {
    base_protocols()
        .iter()
        .flat_map(mutate::single_mutants)
        .map(|m| m.spec)
        .collect()
}

/// The 23 library protocols: 10 correct, 2 split and 11 buggy.
pub fn library() -> Vec<ProtocolSpec> {
    base_protocols()
        .into_iter()
        .chain(protocols::all_buggy().into_iter().map(|(spec, _)| spec))
        .collect()
}

/// An NDJSON request line: the protocol travels as inline DSL, as a
/// remote client would send it.
fn line(req: &Request) -> String {
    req.to_json().render_compact()
}

/// The `serve-hot` requests: one inline-DSL verify per library
/// protocol.
pub fn hot_requests() -> Vec<String> {
    library()
        .iter()
        .map(|spec| line(&Request::verify(ProtocolSource::Dsl(dsl::to_dsl(spec)))))
        .collect()
}

/// One `serve-cold` request with the label its pinned digest is filed
/// under.
#[derive(Clone, Debug)]
pub struct ColdRequest {
    /// `<action>/<protocol>/n<N>`.
    pub label: String,
    /// The NDJSON request line.
    pub line: String,
}

/// Cache counts per protocol for (`enumerate`, `crosscheck`), chosen
/// so each request costs roughly 5–100 ms of engine time on a 2-core
/// machine.
fn cold_sizes(name: &str) -> ([usize; 2], [usize; 2]) {
    match name {
        "Berkeley" => ([9, 10], [9, 10]),
        "Dragon" | "MOESI" => ([10, 11], [9, 10]),
        "Firefly" => ([11, 12], [10, 11]),
        "Split-MSI" | "Split-MESI" => ([5, 6], [5, 6]),
        _ => ([10, 11], [10, 11]),
    }
}

/// The `serve-cold` requests: exact-dedup enumerations and Theorem 1
/// crosschecks of the 12 correct library protocols, 48 in all.
pub fn cold_requests() -> Vec<ColdRequest> {
    let mut out = Vec::new();
    for spec in base_protocols() {
        let (enum_ns, cc_ns) = cold_sizes(spec.name());
        let source = || ProtocolSource::Dsl(dsl::to_dsl(&spec));
        for n in enum_ns {
            let mut req = Request::enumerate(source(), n);
            req.options.exact = true;
            out.push(ColdRequest {
                label: format!("enumerate/{}/n{n}", spec.name()),
                line: line(&req),
            });
        }
        for n in cc_ns {
            out.push(ColdRequest {
                label: format!("crosscheck/{}/n{n}", spec.name()),
                line: line(&Request::crosscheck(source(), n)),
            });
        }
    }
    out
}
