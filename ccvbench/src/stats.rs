//! Order statistics, the seeded permutation and the process counters
//! every workload reports.

/// Percentile candidates, highest first, for the tail latency.
pub const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` among `n` samples, in
/// integer arithmetic on tenths of a percent so that p99.9 of 10 000
/// samples is rank 9 990 exactly.
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000)
}

/// Nearest-rank percentile `p` (0–100] of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// The highest candidate percentile that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it, if any does.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Percentile `p` of `sorted` (ascending) as the mean of the order
/// statistics within one binomial standard deviation,
/// `sqrt(n p (1 - p))` ranks rounded up, of its nearest rank. Where the
/// sample is sparse, as in the tail of a fixed set of a few heavy
/// requests, two of them trading places moves this by a fraction of
/// their gap instead of all of it.
pub fn smoothed_percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let q = p / 100.0;
    let half = (n as f64 * q * (1.0 - q)).sqrt().ceil() as usize;
    let at = rank(n, p).clamp(1, n) - 1;
    let window = &sorted[at.saturating_sub(half)..(at + half + 1).min(n)];
    window.iter().sum::<f64>() / window.len() as f64
}

/// Samples needed before p99 has [`MIN_BEYOND`] samples beyond it.
pub const P99_MIN_SAMPLES: usize = 1000;

/// p50 and p99 of `samples` (in the order they completed), each the
/// median over consecutive chunks of at least [`P99_MIN_SAMPLES`]
/// samples — one chunk when there are fewer than twice that many. A
/// stall from outside the process then moves one chunk's tail, not the
/// run's.
pub fn chunked_p50_p99(samples: &[f64]) -> (f64, f64) {
    let chunks = (samples.len() / P99_MIN_SAMPLES).max(1);
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    for c in 0..chunks {
        let chunk = sorted(&samples[c * samples.len() / chunks..(c + 1) * samples.len() / chunks]);
        p50.push(percentile(&chunk, 50.0));
        p99.push(percentile(&chunk, 99.0));
    }
    (median(&p50), median(&p99))
}

/// The median of `values` (mean of the two middle values for an even
/// count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// SplitMix64: a tiny, well-mixed generator so a seed fixes the
/// request order on every platform.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator started at `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A Fisher–Yates permutation of `0..len` fixed by `seed`.
pub fn permutation(len: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..len).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// FNV-1a over `bytes`: the body fingerprint responses are compared by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// User plus system CPU time of the whole process (every thread, live
/// or exited), in milliseconds, from `/proc/self/stat`.
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks of 1/100 s.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 * 10.0
}

/// Peak resident set size (`VmHWM`) of the process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib as f64 / 1024.0
}
