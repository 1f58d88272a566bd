//! Pinned workload digests. Every run recomputes its workload's digest
//! from the program's outputs and fails, without printing numbers,
//! when it differs from the one pinned in `digests.json`, so a run
//! can never be compared against a baseline that did different work.

use ccv_core::api::{Payload, Response};
use ccv_core::{Verdict, VerificationReport};
use ccv_observe::Json;

/// The pinned digests, one per workload.
pub const PINNED: &str = include_str!("../digests.json");

/// The pinned digest of `workload`.
pub fn pinned(workload: &str) -> Json {
    let all = Json::parse(PINNED).expect("digests.json parses");
    all.get(workload)
        .unwrap_or_else(|| panic!("digests.json has no entry for {workload}"))
        .clone()
}

/// Fails with both digests side by side when they differ.
pub fn expect(workload: &str, what: &str, got: &Json, want: &Json) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{workload}: {what} digest mismatch\n  pinned:   {}\n  measured: {}",
            want.render_compact(),
            got.render_compact()
        ))
    }
}

fn obj(fields: &[(&str, u64)]) -> Json {
    Json::Obj(
        fields
            .iter()
            .map(|&(k, v)| (k.to_string(), Json::int(v)))
            .collect(),
    )
}

/// The `sweep` digest of one pass: spec count, verdict split, total
/// visits, total essential states and error reports.
pub fn sweep_digest(reports: &[VerificationReport]) -> Json {
    let mut tally = SweepTally::default();
    for r in reports {
        tally.add(r.verdict, r.visits(), r.num_essential(), r.reports.len());
    }
    tally.digest()
}

/// A pass summary built up one spec at a time.
#[derive(Default)]
pub struct SweepTally {
    specs: u64,
    verified: u64,
    erroneous: u64,
    inconclusive: u64,
    visits: u64,
    essential: u64,
    error_reports: u64,
}

impl SweepTally {
    /// Adds one spec's outcome.
    pub fn add(&mut self, verdict: Verdict, visits: usize, essential: usize, error_reports: usize) {
        self.specs += 1;
        match verdict {
            Verdict::Verified => self.verified += 1,
            Verdict::Erroneous => self.erroneous += 1,
            Verdict::Inconclusive => self.inconclusive += 1,
        }
        self.visits += visits as u64;
        self.essential += essential as u64;
        self.error_reports += error_reports as u64;
    }

    /// The digest: spec count, verdict split, total visits, total
    /// essential states and error reports.
    pub fn digest(&self) -> Json {
        obj(&[
            ("specs", self.specs),
            ("verified", self.verified),
            ("erroneous", self.erroneous),
            ("inconclusive", self.inconclusive),
            ("visits", self.visits),
            ("essential", self.essential),
            ("error_reports", self.error_reports),
        ])
    }
}

/// The `serve-hot` digest of the expected (directly computed) verify
/// responses: request count, verdict split and total visits.
pub fn hot_digest(responses: &[Response]) -> Json {
    let verdicts: Vec<Option<(Verdict, usize)>> = responses
        .iter()
        .map(|r| match &r.result {
            Ok(Payload::Verify(v)) => Some((v.report.verdict, v.report.visits())),
            _ => None,
        })
        .collect();
    let count = |v: Verdict| verdicts.iter().flatten().filter(|(x, _)| *x == v).count() as u64;
    obj(&[
        ("requests", responses.len() as u64),
        ("verified", count(Verdict::Verified)),
        ("erroneous", count(Verdict::Erroneous)),
        ("inconclusive", count(Verdict::Inconclusive)),
        (
            "visits",
            verdicts.iter().flatten().map(|&(_, n)| n as u64).sum(),
        ),
    ])
}

/// The fields of a `serve-cold` response body the digest pins:
/// distinct states and visits of an enumeration, essential states and
/// coverage of a crosscheck. Error bodies keep their error.
pub fn cold_digest(body: &Json) -> Json {
    let keep: &[&str] = match body.get("action").and_then(Json::as_str) {
        Some("enumerate") => &["distinct_states", "visits", "truncated", "errors"],
        Some("crosscheck") => &["essential_states", "total_concrete", "covered", "complete"],
        _ => &[],
    };
    let mut fields: Vec<(String, Json)> = keep
        .iter()
        .filter_map(|&k| body.get(k).map(|v| (k.to_string(), v.clone())))
        .collect();
    if let Some(err) = body.get("error") {
        fields.push(("error".into(), err.clone()));
    }
    Json::Obj(fields)
}
