//! `serve-hot` and `serve-cold`: closed-loop clients against a
//! loopback `ccv_serve` daemon started in-process, NDJSON framing, one
//! request per connection.
//!
//! `serve-hot` sends inline-DSL verify requests that are all
//! verdict-cache hits after the warm-up pass, so the request path does
//! all the work. `serve-cold` sends enumerate and crosscheck requests
//! that are all misses, so the engines do most of it.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ccv_core::api::{Action, Payload, Request, RunContext, SessionRunner};
use ccv_core::Session;
use ccv_model::dsl;
use ccv_observe::{CancelToken, Counter, EventSink, Gauge, Json, MetricsSnapshot, SinkHandle};
use ccv_serve::cache::key_hash;
use ccv_serve::{Server, ServerConfig, ServerHandle, Service};

use crate::corpus::{cold_requests, hot_requests, ColdRequest};
use crate::digest::{cold_digest, expect, hot_digest, pinned};
use crate::stats::{chunked_p50_p99, fnv1a, median, permutation, P99_MIN_SAMPLES};
use crate::trace::{durations_ms, self_ms_by_layer, total_ms, LayerSink, Recorder};
use crate::{setup_seconds, stats, write_trace, Params, Report, SETUPS};

/// Concurrent client connections.
pub const CLIENTS: usize = 2;

/// Passes per client in each window of the traced run.
const HOT_TRACE_PASSES: usize = 40;
const COLD_TRACE_PASSES: usize = 4;

/// Passes over the 23 hot requests in the traced decomposition.
const HOT_DECOMPOSE_PASSES: usize = 10;

/// Sends one NDJSON request and reads up to the response envelope.
/// Returns whether it was served from cache, and the response body.
pub fn round_trip(addr: SocketAddr, line: &str) -> Result<(bool, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut buf = String::new();
    loop {
        buf.clear();
        let n = reader
            .read_line(&mut buf)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection before responding".into());
        }
        let Some(rest) = buf.strip_prefix("{\"ev\":\"response\",\"cached\":") else {
            continue; // heartbeat or progress event
        };
        let cached = rest.starts_with("true");
        // The envelope closes with one `}` of its own after the body.
        let body = rest
            .split_once(",\"body\":")
            .and_then(|(_, b)| b.trim_end().strip_suffix('}'))
            .ok_or_else(|| format!("malformed response envelope: {buf}"))?;
        return Ok((cached, body.to_string()));
    }
}

/// One timed request.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Index into the workload's request list.
    pub idx: usize,
    /// Client-observed round trip.
    pub ms: f64,
    /// When the response arrived.
    pub end: Instant,
    /// Served from the verdict cache.
    pub cached: bool,
    /// FNV-1a of the response body (0 when no response arrived).
    pub hash: u64,
    /// A response arrived.
    pub answered: bool,
}

/// When a client stops: after whole passes only.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// At the first pass boundary past the deadline, once the client
    /// has at least this many samples.
    Time(Instant, usize),
    /// After exactly this many passes.
    Passes(usize),
}

/// Everything one timed window produced.
struct Window {
    samples: Vec<Sample>,
    bodies: HashMap<u64, String>,
    wall: Duration,
    /// Completed requests per second and CPU milliseconds per request
    /// in each [`INTERVAL`] of the window.
    intervals: Vec<(f64, f64)>,
    counters: [u64; 5],
}

/// Throughput and CPU are read once per interval and reported as the
/// median over intervals, so a burst of load from outside the process
/// moves one interval, not the run.
const INTERVAL: Duration = Duration::from_secs(1);

/// Cache hits, misses and evictions, BUSY rejections and queued
/// admissions so far.
fn counters(svc: &Service) -> [u64; 5] {
    let c = svc.cache();
    let a = svc.admission();
    [
        c.hits(),
        c.misses(),
        c.evictions(),
        a.rejected(),
        a.queued(),
    ]
}

/// One client: walks `seq` in whole passes until `stop`.
fn client(
    addr: SocketAddr,
    lines: Arc<Vec<String>>,
    seq: Vec<usize>,
    stop: Stop,
    tid: u32,
    rec: Option<Arc<Recorder>>,
    done: Arc<AtomicUsize>,
) -> (Vec<Sample>, HashMap<u64, String>) {
    let mut samples = Vec::new();
    let mut bodies = HashMap::new();
    let mut passes = 0;
    loop {
        for &idx in &seq {
            let id = ((tid as u64) << 32) | samples.len() as u64;
            let span = rec
                .as_ref()
                .map(|r| r.begin("serve.round_trip", None, id, tid));
            let t = Instant::now();
            let result = round_trip(addr, &lines[idx]);
            let end = Instant::now();
            let ms = (end - t).as_secs_f64() * 1e3;
            if let (Some(r), Some(s)) = (&rec, span) {
                r.end(s);
            }
            let sample = match result {
                Ok((cached, body)) => {
                    let hash = fnv1a(body.as_bytes());
                    bodies.entry(hash).or_insert(body);
                    Sample {
                        idx,
                        ms,
                        end,
                        cached,
                        hash,
                        answered: true,
                    }
                }
                Err(e) => {
                    eprintln!("client {tid}: request {idx}: {e}");
                    Sample {
                        idx,
                        ms,
                        end,
                        cached: false,
                        hash: 0,
                        answered: false,
                    }
                }
            };
            samples.push(sample);
            done.fetch_add(1, Ordering::Relaxed);
        }
        passes += 1;
        let done = match stop {
            Stop::Time(deadline, min) => Instant::now() >= deadline && samples.len() >= min,
            Stop::Passes(n) => passes >= n,
        };
        if done {
            return (samples, bodies);
        }
    }
}

/// Runs one client per sequence concurrently and gathers their samples.
fn window(
    handle: &ServerHandle,
    lines: &Arc<Vec<String>>,
    seqs: &[Vec<usize>],
    stop: Stop,
    rec: Option<&Arc<Recorder>>,
) -> Window {
    let before = counters(handle.service());
    let done = Arc::new(AtomicUsize::new(0));
    let t0 = Instant::now();
    let joins: Vec<_> = seqs
        .iter()
        .enumerate()
        .map(|(c, seq)| {
            let (addr, lines, seq) = (handle.addr(), lines.clone(), seq.clone());
            let (rec, done) = (rec.cloned(), done.clone());
            std::thread::spawn(move || client(addr, lines, seq, stop, c as u32 + 1, rec, done))
        })
        .collect();
    let mut intervals = Vec::new();
    let mut mark = (Instant::now(), stats::process_cpu_ms(), 0usize);
    // Requests/s and CPU ms per request since `mark`, moving `mark` on.
    let close = |mark: &mut (Instant, f64, usize)| {
        let now = (
            Instant::now(),
            stats::process_cpu_ms(),
            done.load(Ordering::Relaxed),
        );
        let ops = (now.2 - mark.2) as f64;
        let secs = (now.0 - mark.0).as_secs_f64();
        let cpu = now.1 - mark.1;
        *mark = now;
        (ops > 0.0).then(|| (ops / secs, cpu / ops))
    };
    while !joins.iter().all(|j| j.is_finished()) {
        std::thread::sleep(Duration::from_millis(20));
        if mark.0.elapsed() >= INTERVAL {
            intervals.extend(close(&mut mark));
        }
    }
    // The last stretch, where one client may already be done, counts
    // only when it is most of an interval or the only one.
    if intervals.is_empty() || mark.0.elapsed() >= INTERVAL / 2 {
        intervals.extend(close(&mut mark));
    }
    let mut samples = Vec::new();
    let mut bodies = HashMap::new();
    for j in joins {
        let (s, b) = j.join().expect("client thread");
        samples.extend(s);
        bodies.extend(b);
    }
    let wall = t0.elapsed();
    let after = counters(handle.service());
    Window {
        samples,
        bodies,
        wall,
        intervals,
        counters: std::array::from_fn(|i| after[i] - before[i]),
    }
}

/// The end-to-end metrics of an untraced window.
fn end_to_end(w: &Window, ok: usize, setup: &[Duration]) -> Report {
    let mut by_end: Vec<&Sample> = w.samples.iter().collect();
    by_end.sort_by_key(|s| s.end);
    let (p50, p99) = chunked_p50_p99(&by_end.iter().map(|s| s.ms).collect::<Vec<_>>());
    let n = w.samples.len();
    eprintln!(
        "{n} requests in {:.2}s; tail percentile with >= 10 samples beyond: p{}",
        w.wall.as_secs_f64(),
        stats::tail_percentile(n).unwrap_or(0.0)
    );
    let mut r = Report {
        attempted: n as u64,
        failed: (n - ok) as u64,
        ..Report::default()
    };
    r.set("setup_s", setup_seconds(setup));
    let rates: Vec<f64> = w.intervals.iter().map(|i| i.0).collect();
    eprintln!(
        "requests/s per interval {:?}",
        rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    );
    let cpu: Vec<f64> = w.intervals.iter().map(|i| i.1).collect();
    r.set("verdicts_per_s", median(&rates));
    r.set("p50_ms", p50);
    r.set("p99_ms", p99);
    r.set("cpu_ms_per_op", median(&cpu));
    r.set("ok_frac", ok as f64 / n as f64);
    r.set("peak_rss_mib", stats::peak_rss_mib());
    r
}

fn start(config: ServerConfig) -> Result<ServerHandle, String> {
    Ok(Server::bind(config)
        .map_err(|e| format!("bind loopback server: {e}"))?
        .spawn())
}

/// Runs `f`, inside a span when recording.
fn timed<T>(rec: Option<&Recorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(r) => r.span(name, None, 0, f),
        None => f(),
    }
}

/// A started daemon and the requests the clients send it.
struct Daemon {
    lines: Arc<Vec<String>>,
    handle: ServerHandle,
}

/// Runs `setup` [`SETUPS`] times, stopping every daemon but the last,
/// and returns the last with the set-up times.
fn repeated_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    daemon: impl Fn(T) -> Daemon,
) -> Result<(T, Vec<Duration>), String> {
    let mut times = Vec::new();
    let mut last: Option<T> = None;
    for _ in 0..SETUPS {
        if let Some(d) = last.take() {
            daemon(d).handle.shutdown();
        }
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed());
    }
    Ok((last.expect("at least one set-up"), times))
}

// ---------------------------------------------------------------- hot

/// Builds the 23 requests, starts a daemon with the `ccv serve`
/// defaults and fills its cache with one warm-up pass.
fn hot_setup(rec: Option<&Recorder>) -> Result<Daemon, String> {
    let lines = Arc::new(timed(rec, "model.corpus", hot_requests));
    let handle = timed(rec, "serve.bind", || start(ServerConfig::loopback()))?;
    timed(rec, "bench.warm", || -> Result<(), String> {
        for line in lines.iter() {
            round_trip(handle.addr(), line)?;
        }
        Ok(())
    })?;
    Ok(Daemon { lines, handle })
}

/// Each client walks the whole seeded order, starting at its own offset.
pub fn hot_seqs(len: usize, seed: u64) -> Vec<Vec<usize>> {
    let order = permutation(len, seed);
    (0..CLIENTS)
        .map(|c| {
            let mut seq = order.clone();
            seq.rotate_left(c * len / CLIENTS);
            seq
        })
        .collect()
}

/// Direct `Session::run` bodies of the hot requests, as body hashes,
/// after checking their digest against the pinned one.
fn hot_expected(lines: &[String]) -> Result<Vec<u64>, String> {
    let mut hashes = Vec::new();
    let mut responses = Vec::new();
    for line in lines {
        let req = Request::parse(line).map_err(|e| e.to_string())?;
        let resp = Session::run(&req);
        hashes.push(fnv1a(resp.to_json().render_compact().as_bytes()));
        responses.push(resp);
    }
    expect(
        "serve-hot",
        "request set",
        &hot_digest(&responses),
        &pinned("serve-hot"),
    )?;
    Ok(hashes)
}

/// Responses that are cache hits byte-identical to a direct run.
fn hot_ok(w: &Window, expected: &[u64]) -> usize {
    w.samples
        .iter()
        .filter(|s| s.answered && s.cached && s.hash == expected[s.idx])
        .count()
}

/// The `serve-hot` workload.
pub fn run_hot(p: &Params) -> Result<Report, String> {
    if p.trace {
        return run_hot_traced(p);
    }
    let (d, times) = repeated_setup(|| hot_setup(None), |d| d)?;
    let seqs = hot_seqs(d.lines.len(), p.seed);
    let min = P99_MIN_SAMPLES.div_ceil(CLIENTS);
    let w = window(
        &d.handle,
        &d.lines,
        &seqs,
        Stop::Time(Instant::now() + p.seconds, min),
        None,
    );
    d.handle.shutdown();
    let expected = hot_expected(&d.lines)?;
    Ok(end_to_end(&w, hot_ok(&w, &expected), &times))
}

/// Per-layer spans of one request, taken apart into the public calls
/// `Service::process` makes: parse, admit, resolve (DSL parse), DSL
/// print, key, cache lookup. Returns the still-open `bench.request`
/// root span, the key length and the admitted request.
fn request_spans(
    rec: &Arc<Recorder>,
    svc: &Service,
    line: &str,
    id: u64,
) -> Result<(usize, usize, Request), String> {
    let root = rec.begin("bench.request", None, id, 0);
    let req = rec
        .span("api.parse", Some(root), id, || Request::parse(line))
        .map_err(|e| e.to_string())?;
    let eff = rec
        .span("serve.admit", Some(root), id, || svc.config().admit(&req))
        .map_err(|e| e.to_string())?;
    let spec = rec
        .span("model.dsl_parse", Some(root), id, || eff.protocol.resolve())
        .map_err(|e| e.to_string())?;
    rec.span("model.dsl_print", Some(root), id, || dsl::to_dsl(&spec));
    let key = rec.span("api.key", Some(root), id, || eff.semantic_key(&spec));
    rec.span("serve.cache_lookup", Some(root), id, || {
        svc.cache().lookup(&key)
    });
    Ok((root, key.len(), eff))
}

/// Sets the serve-layer counters of an untraced window.
fn set_serve_counters(r: &mut Report, w: &Window) {
    let [hits, misses, evictions, busy, queued] = w.counters.map(|c| c as f64);
    r.set("serve.cache_hits", hits);
    r.set("serve.cache_misses", misses);
    r.set("serve.cache_evictions", evictions);
    r.set(
        "serve.hit_frac",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    r.set("serve.busy", busy);
    r.set("serve.queued", queued);
}

fn p50(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

fn window_p50(w: &Window) -> f64 {
    p50(&w.samples.iter().map(|s| s.ms).collect::<Vec<_>>())
}

/// The traced `serve-hot` run: an untraced and a traced window of
/// fixed passes, then the per-request decomposition.
fn run_hot_traced(p: &Params) -> Result<Report, String> {
    let rec = Arc::new(Recorder::default());
    let d = hot_setup(Some(&rec))?;
    let seqs = hot_seqs(d.lines.len(), p.seed);
    let plain = window(
        &d.handle,
        &d.lines,
        &seqs,
        Stop::Passes(HOT_TRACE_PASSES),
        None,
    );
    let traced = window(
        &d.handle,
        &d.lines,
        &seqs,
        Stop::Passes(HOT_TRACE_PASSES),
        Some(&rec),
    );
    let svc = d.handle.service().clone();
    let mut key_bytes = Vec::new();
    for pass in 0..HOT_DECOMPOSE_PASSES {
        for &idx in &seqs[0] {
            let id = (pass * d.lines.len() + idx) as u64 + 1;
            let (root, bytes, _) = request_spans(&rec, &svc, &d.lines[idx], id)?;
            rec.end(root);
            key_bytes.push(bytes as f64);
            rec.span("serve.process_text", None, id, || {
                svc.process_text(&d.lines[idx], &RunContext::default())
            });
        }
    }
    d.handle.shutdown();
    let expected = hot_expected(&d.lines)?;

    let spans = rec.spans();
    write_trace(&p.trace_out, &spans)?;
    let us = |name| p50(&durations_ms(&spans, name)) * 1e3;
    let attempted = plain.samples.len() + traced.samples.len();
    let ok = hot_ok(&plain, &expected) + hot_ok(&traced, &expected);
    let mut r = Report {
        attempted: attempted as u64,
        failed: (attempted - ok) as u64,
        ..Report::default()
    };
    r.set("model.corpus_ms", total_ms(&spans, "model.corpus"));
    r.set("model.dsl_parse_us", us("model.dsl_parse"));
    r.set("model.dsl_print_us", us("model.dsl_print"));
    r.set("api.parse_us", us("api.parse"));
    r.set("api.key_us", us("api.key"));
    r.set(
        "api.key_bytes",
        key_bytes.iter().sum::<f64>() / key_bytes.len() as f64,
    );
    r.set("serve.process_us", us("serve.process_text"));
    r.set(
        "serve.transport_ms",
        window_p50(&plain) - us("serve.process_text") / 1e3,
    );
    set_serve_counters(&mut r, &plain);
    r.set_self_times(
        &self_ms_by_layer(&spans, "bench.request"),
        HOT_DECOMPOSE_PASSES,
    );
    r.set("trace_overhead", window_p50(&traced) / window_p50(&plain));
    Ok(r)
}

// --------------------------------------------------------------- cold

/// The `serve-cold` daemon: the `ccv serve` defaults with
/// `--cache-capacity 8` (one entry per shard, below the 48 distinct
/// requests) and `--max-n 12` (the largest request is n = 12).
pub fn cold_config() -> ServerConfig {
    let mut config = ServerConfig::loopback();
    config.cache_capacity = 8;
    config.max_n = 12;
    config
}

/// The verdict-cache key of each request as `config`'s daemon computes
/// it.
pub fn cold_keys(reqs: &[ColdRequest], config: &ServerConfig) -> Result<Vec<String>, String> {
    reqs.iter()
        .map(|r| {
            let req = Request::parse(&r.line).map_err(|e| e.to_string())?;
            let eff = config.admit(&req).map_err(|e| e.to_string())?;
            let spec = eff.protocol.resolve().map_err(|e| e.to_string())?;
            Ok(eff.semantic_key(&spec))
        })
        .collect()
}

/// Splits the requests into one disjoint slice per client so that no
/// request can be a cache hit, whatever the timing. The cache is a FIFO
/// of `per_shard` entries per shard; a request comes round again only
/// after its client has sent every other request of its slice, so if
/// each client holds more than `per_shard` requests of every shard it
/// touches, each one is evicted before it returns.
pub fn partition(reqs: &[ColdRequest], config: &ServerConfig) -> Result<Vec<Vec<usize>>, String> {
    let keys = cold_keys(reqs, config)?;
    if keys.iter().collect::<HashSet<_>>().len() != keys.len() {
        return Err("serve-cold: two requests share a cache key".into());
    }
    let shards = config.cache_shards.max(1);
    let need = config.cache_capacity.max(1).div_ceil(shards) + 1;
    let mut by_shard: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, key) in keys.iter().enumerate() {
        by_shard
            .entry(key_hash(key) % shards as u64)
            .or_default()
            .push(i);
    }
    let mut slices = vec![Vec::new(); CLIENTS];
    for (shard, idxs) in by_shard {
        if idxs.len() < need {
            return Err(format!(
                "serve-cold: cache shard {shard} holds {} request(s), fewer than {need}; \
                 they could be served from cache",
                idxs.len()
            ));
        }
        if idxs.len() >= need * CLIENTS {
            for (j, &i) in idxs.iter().enumerate() {
                slices[j % CLIENTS].push(i);
            }
        } else {
            let lightest = (0..CLIENTS)
                .min_by_key(|&c| slices[c].len())
                .expect("clients");
            slices[lightest].extend(idxs);
        }
    }
    Ok(slices)
}

/// Each client walks its own slice in an order fixed by the seed.
pub fn cold_seqs(slices: &[Vec<usize>], seed: u64) -> Vec<Vec<usize>> {
    slices
        .iter()
        .enumerate()
        .map(|(c, slice)| {
            permutation(slice.len(), seed.wrapping_add(c as u64))
                .into_iter()
                .map(|j| slice[j])
                .collect()
        })
        .collect()
}

struct Cold {
    daemon: Daemon,
    reqs: Vec<ColdRequest>,
    seqs: Vec<Vec<usize>>,
}

/// Builds the 48 requests, splits them between the clients, starts the
/// daemon and runs one warm-up pass in the timed order, which brings
/// the runner pool and the allocator to their steady state. Being the
/// first turn of the same cycle the timed passes continue, it leaves
/// no timed request in the cache.
fn cold_setup(seed: u64, rec: Option<&Recorder>) -> Result<Cold, String> {
    let reqs = timed(rec, "model.corpus", cold_requests);
    let config = cold_config();
    let slices = timed(rec, "serve.partition", || partition(&reqs, &config))?;
    let seqs = cold_seqs(&slices, seed);
    let handle = timed(rec, "serve.bind", || start(config))?;
    let lines = Arc::new(reqs.iter().map(|r| r.line.clone()).collect());
    let warm = timed(rec, "bench.warm", || {
        window(&handle, &lines, &seqs, Stop::Passes(1), None)
    });
    if let Some(s) = warm.samples.iter().find(|s| !s.answered || s.cached) {
        return Err(format!(
            "serve-cold: warm-up request {} failed or hit the cache",
            reqs[s.idx].label
        ));
    }
    Ok(Cold {
        daemon: Daemon { lines, handle },
        reqs,
        seqs,
    })
}

/// The pinned per-request digests, after checking that they cover
/// exactly this request set.
fn cold_pinned(reqs: &[ColdRequest]) -> Result<Vec<Json>, String> {
    let all = pinned("serve-cold");
    let labels: Vec<&str> = match &all {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    };
    let ours: Vec<&str> = reqs.iter().map(|r| r.label.as_str()).collect();
    if labels != ours {
        return Err(format!(
            "serve-cold: request set digest mismatch\n  pinned:   {labels:?}\n  measured: {ours:?}"
        ));
    }
    Ok(reqs
        .iter()
        .map(|r| all.get(&r.label).cloned().unwrap_or(Json::Null))
        .collect())
}

/// Responses that are misses matching the pinned per-request digest.
fn cold_ok(w: &Window, want: &[Json]) -> usize {
    let mut digests: HashMap<u64, Json> = HashMap::new();
    for (hash, body) in &w.bodies {
        digests.insert(
            *hash,
            Json::parse(body)
                .map(|b| cold_digest(&b))
                .unwrap_or(Json::Null),
        );
    }
    w.samples
        .iter()
        .filter(|s| s.answered && !s.cached && digests.get(&s.hash) == Some(&want[s.idx]))
        .count()
}

/// The `serve-cold` workload.
pub fn run_cold(p: &Params) -> Result<Report, String> {
    if p.trace {
        return run_cold_traced(p);
    }
    let (c, times) = repeated_setup(|| cold_setup(p.seed, None), |c| c.daemon)?;
    let want = cold_pinned(&c.reqs)?;
    let seqs = &c.seqs;
    let min = P99_MIN_SAMPLES.div_ceil(CLIENTS);
    let d = &c.daemon;
    let w = window(
        &d.handle,
        &d.lines,
        seqs,
        Stop::Time(Instant::now() + p.seconds, min),
        None,
    );
    c.daemon.handle.shutdown();
    Ok(end_to_end(&w, cold_ok(&w, &want), &times))
}

/// The traced `serve-cold` run: an untraced and a traced window of
/// fixed passes, then one decomposition pass in which each request is
/// also run directly through `SessionRunner::run` — once with a sink
/// that turns the engines' phase and crosscheck-leg events into child
/// spans, once plain, and enumerations once more at one thread.
fn run_cold_traced(p: &Params) -> Result<Report, String> {
    let rec = Arc::new(Recorder::default());
    let c = cold_setup(p.seed, Some(&rec))?;
    let want = cold_pinned(&c.reqs)?;
    let d = &c.daemon;
    let seqs = &c.seqs;
    let plain = window(
        &d.handle,
        &d.lines,
        seqs,
        Stop::Passes(COLD_TRACE_PASSES),
        None,
    );
    let traced = window(
        &d.handle,
        &d.lines,
        seqs,
        Stop::Passes(COLD_TRACE_PASSES),
        Some(&rec),
    );
    let svc = d.handle.service().clone();

    let mut runner = SessionRunner::new();
    let mut key_bytes = Vec::new();
    let mut legs = Vec::new();
    // Engine counters by action: the symbolic engine runs inside
    // crosschecks, the explicit enumerator inside enumerations.
    let (mut core_snaps, mut enum_snaps) = (Vec::new(), Vec::new());
    let (mut enum_visits, mut t1_ms, mut tn_ms) = (0u64, 0.0, 0.0);
    let order: Vec<usize> = seqs.concat();
    for (n, &idx) in order.iter().enumerate() {
        let id = n as u64 + 1;
        let line = &d.lines[idx];
        let (root, bytes, eff) = request_spans(&rec, &svc, line, id)?;
        key_bytes.push(bytes as f64);
        let run = rec.begin("api.run", Some(root), id, 0);
        let sink = Arc::new(LayerSink::new(rec.clone(), run, id));
        let ctx = RunContext {
            cancel: CancelToken::new(),
            sink: SinkHandle::new(sink.clone() as Arc<dyn EventSink>),
        };
        let resp = runner.run(&eff, &ctx);
        rec.end(run);
        rec.span("api.render", Some(root), id, || {
            resp.to_json().render_compact()
        });
        rec.end(root);
        legs.extend(sink.legs());
        match eff.action {
            Action::Enumerate => enum_snaps.push(sink.metrics.snapshot()),
            _ => core_snaps.push(sink.metrics.snapshot()),
        }

        let t = Instant::now();
        let plain_resp = rec.span("api.run_plain", None, id, || {
            runner.run(&eff, &RunContext::default())
        });
        let plain_ms = t.elapsed().as_secs_f64() * 1e3;
        let body = Json::parse(&plain_resp.to_json().render_compact())?;
        expect(
            "serve-cold",
            &c.reqs[idx].label,
            &cold_digest(&body),
            &want[idx],
        )?;
        if let Ok(Payload::Enumerate(e)) = &resp.result {
            enum_visits += e.visits as u64;
            let mut one = eff.clone();
            one.options.threads = 1;
            let t = Instant::now();
            rec.span("enum.t1", None, id, || {
                runner.run(&one, &RunContext::default())
            });
            t1_ms += t.elapsed().as_secs_f64() * 1e3;
            tn_ms += plain_ms;
        }
        rec.span("serve.process_text", None, id, || {
            svc.process_text(line, &RunContext::default())
        });
    }
    c.daemon.handle.shutdown();

    let spans = rec.spans();
    write_trace(&p.trace_out, &spans)?;
    let ms = |name| p50(&durations_ms(&spans, name));
    let leg_ms = |k: usize| {
        p50(&legs
            .iter()
            .skip(k)
            .step_by(2)
            .map(|&i| spans[i].ms())
            .collect::<Vec<_>>())
    };
    let sum = |snaps: &[MetricsSnapshot], counter| {
        snaps.iter().map(|s| s.counter(counter)).sum::<u64>() as f64
    };
    let max_gauge = |gauge| {
        enum_snaps
            .iter()
            .filter_map(|s| s.gauge(gauge))
            .max()
            .unwrap_or(0) as f64
    };
    let attempted = plain.samples.len() + traced.samples.len();
    let ok = cold_ok(&plain, &want) + cold_ok(&traced, &want);
    let mut r = Report {
        attempted: attempted as u64,
        failed: (attempted - ok) as u64,
        ..Report::default()
    };
    r.set("model.corpus_ms", total_ms(&spans, "model.corpus"));
    r.set("model.dsl_parse_us", ms("model.dsl_parse") * 1e3);
    r.set("model.dsl_print_us", ms("model.dsl_print") * 1e3);
    r.set("core.expand_ms", total_ms(&spans, "core.expand"));
    r.set("core.graph_ms", total_ms(&spans, "core.graph"));
    r.set("core.report_ms", total_ms(&spans, "core.report"));
    let core_counters = [
        ("core.visits", Counter::Visits),
        ("core.expansions", Counter::Expansions),
        ("core.containment_checks", Counter::ContainmentChecks),
        ("core.index_probes", Counter::IndexProbes),
        ("core.intern_hits", Counter::InternHits),
        ("core.prunes", Counter::Prunes),
    ];
    for (name, counter) in core_counters {
        r.set(name, sum(&core_snaps, counter));
    }
    r.set("enum.steals", sum(&enum_snaps, Counter::Steals));
    r.set("enum.claim_races", sum(&enum_snaps, Counter::ClaimRaces));
    let all_snaps = [core_snaps.as_slice(), enum_snaps.as_slice()].concat();
    r.set(
        "observe.budget_polls",
        sum(&all_snaps, Counter::BudgetPolls),
    );
    r.set("api.parse_us", ms("api.parse") * 1e3);
    r.set("api.key_us", ms("api.key") * 1e3);
    r.set(
        "api.key_bytes",
        key_bytes.iter().sum::<f64>() / key_bytes.len() as f64,
    );
    r.set("api.run_ms", ms("api.run_plain"));
    r.set("api.render_us", ms("api.render") * 1e3);
    r.set("serve.process_us", ms("serve.process_text") * 1e3);
    r.set(
        "serve.transport_ms",
        window_p50(&plain) - ms("serve.process_text"),
    );
    set_serve_counters(&mut r, &plain);
    let enum_run = total_ms(&spans, "enum.run");
    r.set("enum.run_ms", ms("enum.run"));
    r.set("enum.visits_per_s", enum_visits as f64 / (enum_run / 1e3));
    r.set(
        "enum.distinct",
        enum_snaps
            .iter()
            .filter_map(|s| s.gauge(Gauge::DistinctStates))
            .sum::<u64>() as f64,
    );
    let (hits, misses) = (
        sum(&enum_snaps, Counter::DedupHits),
        sum(&enum_snaps, Counter::DedupMisses),
    );
    r.set("enum.dedup_hit_ratio", hits / (hits + misses).max(1.0));
    r.set("enum.peak_pending", max_gauge(Gauge::PeakPending));
    r.set(
        "enum.visited_mib",
        max_gauge(Gauge::VisitedBytes) / (1 << 20) as f64,
    );
    r.set("enum.t1_over_tn", t1_ms / tn_ms);
    r.set("crosscheck.enumerate_leg_ms", leg_ms(0));
    r.set("crosscheck.coverage_leg_ms", leg_ms(1));
    r.set_self_times(&self_ms_by_layer(&spans, "bench.request"), 1);
    r.set("trace_overhead", window_p50(&traced) / window_p50(&plain));
    Ok(r)
}
