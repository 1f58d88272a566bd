//! The benchmark's own tests: its statistics, its seeded request
//! order, its digest gate and its no-hit guarantee for `serve-cold`.

use std::collections::HashSet;

use ccv_core::api::{Request, RunContext, SessionRunner};
use ccv_observe::Json;
use ccvbench::corpus::{cold_requests, hot_requests, sweep_corpus};
use ccvbench::digest::{cold_digest, expect, pinned, sweep_digest};
use ccvbench::serve::{cold_config, cold_keys, cold_seqs, hot_seqs, partition, CLIENTS};
use ccvbench::stats::{
    percentile, permutation, samples_beyond, smoothed_percentile, tail_percentile,
};
use ccvbench::trace::{self_ms_by_layer, Span};

#[test]
fn tail_percentile_is_the_highest_with_ten_samples_beyond() {
    assert_eq!(tail_percentile(100_000), Some(99.9));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    assert_eq!(tail_percentile(9_999), Some(99.0));
    assert_eq!(tail_percentile(1_000), Some(99.0));
    assert_eq!(tail_percentile(999), Some(90.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(99), Some(50.0));
    assert_eq!(tail_percentile(19), None);
    for n in [20, 99, 100, 999, 1_000, 5_000] {
        let p = tail_percentile(n).expect("enough samples");
        assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
    }
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 500.0);
    assert_eq!(percentile(&v, 99.0), 990.0);
    assert_eq!(percentile(&v, 100.0), 1000.0);
    assert_eq!(samples_beyond(v.len(), 99.0), 10);
}

#[test]
fn smoothed_percentile_averages_the_ranks_around_the_nearest() {
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    // Symmetric windows of ±16 and ±4 ranks around ranks 500 and 990.
    assert_eq!(smoothed_percentile(&v, 50.0), 500.0);
    assert_eq!(smoothed_percentile(&v, 99.0), 990.0);
    // A sparse tail, 25 % between neighbours: one sample growing 30 %
    // past the next moves the nearest-rank p99 by the whole gap and the
    // smoothed one by a fraction of it.
    let tail: Vec<f64> = (0..1000)
        .map(|i| match i {
            0..=979 => f64::from(i + 1),
            _ => 1000.0 * 1.25f64.powi(i - 980),
        })
        .collect();
    let mut moved = tail.clone();
    moved[989] *= 1.3;
    moved.sort_by(f64::total_cmp);
    let jump = percentile(&moved, 99.0) - percentile(&tail, 99.0);
    let smoothed = smoothed_percentile(&moved, 99.0) - smoothed_percentile(&tail, 99.0);
    assert!(jump > 0.2 * percentile(&tail, 99.0), "nearest rank {jump}");
    assert!(
        smoothed < jump / 4.0,
        "smoothed {smoothed}, nearest rank {jump}"
    );
}

#[test]
fn one_seed_always_yields_one_request_sequence() {
    for seed in [0, 1, 7, u64::MAX] {
        let a = permutation(1161, seed);
        assert_eq!(a, permutation(1161, seed));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1161).collect::<Vec<_>>(), "a permutation");
        assert_eq!(hot_seqs(23, seed), hot_seqs(23, seed));
    }
    assert_ne!(permutation(1161, 1), permutation(1161, 2));

    let slices = partition(&cold_requests(), &cold_config()).expect("partition");
    assert_eq!(cold_seqs(&slices, 3), cold_seqs(&slices, 3));
    assert_ne!(cold_seqs(&slices, 3), cold_seqs(&slices, 4));
    // A seed reorders each client's slice; it never moves a request
    // from one client to another.
    for (seq, slice) in cold_seqs(&slices, 9).iter().zip(&slices) {
        let (mut a, mut b) = (seq.clone(), slice.clone());
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}

#[test]
fn corpora_have_the_pinned_sizes() {
    assert_eq!(sweep_corpus().len(), 1161);
    assert_eq!(hot_requests().len(), 23);
    assert_eq!(cold_requests().len(), 48);
}

#[test]
fn digest_check_rejects_a_corpus_with_one_mutant_dropped() {
    let mut corpus = sweep_corpus();
    let mut batch = ccv_core::Batch::new();
    let want = pinned("sweep");
    let full = sweep_digest(&batch.verify_many(&corpus));
    assert!(expect("sweep", "pass", &full, &want).is_ok());
    corpus.remove(corpus.len() / 2);
    let short = sweep_digest(&batch.verify_many(&corpus));
    let err = expect("sweep", "pass", &short, &want).expect_err("one mutant short");
    assert!(err.contains("digest mismatch"), "{err}");
}

#[test]
fn serve_cold_clients_never_send_the_same_key() {
    let reqs = cold_requests();
    let config = cold_config();
    let keys = cold_keys(&reqs, &config).expect("keys");
    let slices = partition(&reqs, &config).expect("partition");
    assert_eq!(slices.len(), CLIENTS);
    let mut seen = HashSet::new();
    for slice in &slices {
        for &i in slice {
            assert!(seen.insert(keys[i].clone()), "{} sent twice", reqs[i].label);
        }
    }
    assert_eq!(seen.len(), reqs.len(), "every request goes to a client");

    // Each client holds either none or more than one cache slot's worth
    // of every shard's requests, so its own traffic evicts each of its
    // requests before it comes round again.
    let shards = config.cache_shards as u64;
    let per_shard = config.cache_capacity.div_ceil(config.cache_shards);
    for slice in &slices {
        for shard in 0..shards {
            let n = slice
                .iter()
                .filter(|&&i| ccv_serve::cache::key_hash(&keys[i]) % shards == shard)
                .count();
            assert!(n == 0 || n > per_shard, "shard {shard}: {n} requests");
        }
    }
}

#[test]
fn pinned_cold_digests_equal_direct_session_runs() {
    ccv_enum::install_api_backend();
    let want = pinned("serve-cold");
    let mut runner = SessionRunner::new();
    for r in cold_requests() {
        let req = Request::parse(&r.line).expect("request parses");
        let body = runner
            .run(&req, &RunContext::default())
            .to_json()
            .render_compact();
        let got = cold_digest(&Json::parse(&body).expect("body parses"));
        assert_eq!(Some(&got), want.get(&r.label), "{}", r.label);
    }
}

#[test]
fn self_time_subtracts_child_spans() {
    let span = |name, start_ns, end_ns, parent| Span {
        name,
        start_ns,
        end_ns,
        parent,
        request: 1,
        tid: 0,
    };
    let spans = vec![
        span("bench.request", 0, 10_000_000, None),
        span("api.run", 1_000_000, 9_000_000, Some(0)),
        span("enum.run", 2_000_000, 7_000_000, Some(1)),
        span("serve.process_text", 0, 4_000_000, None),
    ];
    let by_layer = self_ms_by_layer(&spans, "bench.request");
    assert_eq!(by_layer["bench"], 2.0);
    assert_eq!(by_layer["api"], 3.0);
    assert_eq!(by_layer["enum"], 5.0);
    assert!(!by_layer.contains_key("serve"), "other roots are left out");
}
