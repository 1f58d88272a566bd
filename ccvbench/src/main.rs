//! Command line of the `ccv` benchmark.
//!
//! ```text
//! ccvbench --workload sweep|serve-hot|serve-cold --seed N --seconds S
//!          --trace 0|1 [--trace-out FILE]
//! ccvbench --print-digests
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A run whose pinned
//! workload digest does not match prints no result and exits with 2.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use ccvbench::{Params, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("ccvbench: {msg}");
    eprintln!(
        "usage: ccvbench --workload {} --seed N --seconds S --trace 0|1 [--trace-out FILE]\n       ccvbench --print-digests",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--print-digests") {
        return match ccvbench::print_digests() {
            Ok(doc) => {
                println!("{doc}");
                ExitCode::SUCCESS
            }
            Err(e) => usage(&e),
        };
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let trace_out = trace_out
        .unwrap_or_else(|| PathBuf::from(format!("ccvbench/out/trace-{workload}-seed{seed}.json")));
    let params = Params {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        trace_out,
    };
    match ccvbench::run(&params) {
        Ok(report) => {
            println!("{}", report.to_json(params.trace).render_compact());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ccvbench: {e}");
            ExitCode::from(2)
        }
    }
}
