//! Measurement plumbing shared by the workloads: bench-side spans,
//! percentiles, host-speed scaling, the per-run outcome, and process memory
//! readings.

use std::collections::BTreeMap;
use std::time::Instant;

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Wall-clock spans recorded around the public calls the benchmark makes
/// into the program (never inside it), keyed by span name.
#[derive(Debug, Default)]
pub struct Spans(BTreeMap<&'static str, Vec<u64>>);

impl Spans {
    /// Runs `f` inside the span `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.add(name, ns_since(t));
        r
    }

    /// Records one span of `ns` nanoseconds.
    pub fn add(&mut self, name: &'static str, ns: u64) {
        self.0.entry(name).or_default().push(ns);
    }

    /// Summed duration of every `name` span.
    pub fn total(&self, name: &str) -> u64 {
        self.0.get(name).map_or(0, |v| v.iter().sum())
    }

    /// Median duration of the `name` spans (0 when none were recorded).
    pub fn median(&self, name: &str) -> u64 {
        self.0.get(name).map_or(0, |v| median(v))
    }
}

/// Nearest-rank percentile of `values` (`q` in `(0, 1]`); 0 for no values.
pub fn percentile(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median by nearest rank.
pub fn median(values: &[u64]) -> u64 {
    percentile(values, 0.5)
}

/// Messages the reference kernel routes per pass, into `KERNEL_BUCKETS`
/// buckets.
const KERNEL_MESSAGES: u64 = 8192;
const KERNEL_BUCKETS: usize = 128;
/// The reference kernel's time at the host speed that scaled figures are
/// quoted at: about its best time on one vCPU of a 2 GHz Xeon host.
pub const REFERENCE_KERNEL_NS: f64 = 250_000.0;
/// Kernel readings whose median scales one measurement: the reading taken
/// just before it and up to seven on either side. A single reading is
/// noisy; the host's speed states last seconds.
const PACE_WINDOW: usize = 15;

/// Times the reference kernel on the calling thread: benchmark code, not
/// the program's, so no change to the program can move it. It scatters
/// pseudo-random messages into buckets and drains them, four times: the
/// allocation and memory pattern of a message plane in miniature.
pub fn kernel_ns() -> u64 {
    let t = Instant::now();
    let mut buckets: Vec<Vec<(u64, u64)>> = (0..KERNEL_BUCKETS).map(|_| Vec::new()).collect();
    let mut x = std::hint::black_box(0x9e37_79b9_u64);
    for pass in 0..4 {
        for i in 0..KERNEL_MESSAGES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            buckets[(x % KERNEL_BUCKETS as u64) as usize].push((i, x + pass));
        }
        let mut sum = 0u64;
        for bucket in &mut buckets {
            for &(i, v) in bucket.iter() {
                sum = sum.wrapping_add(v ^ i);
            }
            bucket.clear();
        }
        std::hint::black_box(sum);
    }
    ns_since(t).max(1)
}

/// Host-speed scaling. The vCPUs of a shared host change speed every few
/// seconds, and whole runs can land in a slow or a fast spell. Every
/// workload times the reference kernel on the benchmark's thread just
/// before each measurement (outside the timed spans) and scales the
/// measurement by `REFERENCE_KERNEL_NS` over the median reading around it.
/// That cancels the host's speed and keeps every change of the program's
/// own. On the multi-process fabrics the benchmark's thread wakes on either
/// vCPU, so the window's median follows the host as a whole.
#[derive(Debug, Default)]
pub struct Pace {
    /// Every kernel reading of the run, in order.
    pub readings: Vec<u64>,
}

impl Pace {
    /// Times the reference kernel now; returns the reading's index, which
    /// the measurement that follows is scaled by.
    pub fn sample(&mut self) -> usize {
        self.readings.push(kernel_ns());
        self.readings.len() - 1
    }

    /// The scale factor of each reading.
    fn factors(&self) -> Vec<f64> {
        let r = &self.readings;
        (0..r.len())
            .map(|i| {
                let lo = i.saturating_sub(PACE_WINDOW / 2);
                let hi = (i + PACE_WINDOW / 2 + 1).min(r.len());
                REFERENCE_KERNEL_NS / median(&r[lo..hi]) as f64
            })
            .collect()
    }
}

/// Everything one run of a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Per-query wall time of the timed loop.
    pub latencies_ns: Vec<u64>,
    /// The kernel reading each of `latencies_ns` is scaled by.
    pub latency_samples: Vec<usize>,
    /// Wall time spent inside the program's calls during the timed loop,
    /// piece by piece, with the kernel reading of each piece.
    pub busy: Vec<(u64, usize)>,
    /// Host-speed scaling of this run.
    pub pace: Pace,
    /// Queries attempted (timed loop plus the correctness gate).
    pub attempted: u64,
    /// Wrong answers, panics, and cost-counter mismatches among them.
    pub failed: u64,
    /// Exact simulated rounds per query (the paper's cost model).
    pub rounds_per_query: f64,
    /// Exact simulated words per query.
    pub words_per_query: f64,
    /// Time to first answer from a cold start, once per set-up repeat.
    pub setup_ns: Vec<u64>,
    /// The kernel reading each of `setup_ns` is scaled by.
    pub setup_samples: Vec<usize>,
    /// Peak resident memory of the benchmark and its worker processes.
    pub peak_rss_mb: f64,
    /// Allocation calls and requested bytes during the algorithm calls of
    /// the timed loop, and the simulated rounds those calls ran.
    pub allocs: (u64, u64, u64),
    /// Descriptions of the first failures, for the log.
    pub problems: Vec<String>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records `ns` of wall time inside the program's calls, taken after
    /// kernel reading `sample`.
    pub fn busy(&mut self, ns: u64, sample: usize) {
        self.busy.push((ns, sample));
    }

    /// The wall time spent inside the program's calls.
    pub fn busy_ns(&self) -> u64 {
        self.busy.iter().map(|&(ns, _)| ns).sum()
    }

    /// Records one timed query's latency, taken after kernel reading
    /// `sample` (the query's time is added to the busy time separately).
    pub fn latency(&mut self, ns: u64, sample: usize) {
        self.latencies_ns.push(ns);
        self.latency_samples.push(sample);
    }

    /// Measurements `ns`, each taken after kernel reading `samples[i]`,
    /// scaled to the reference host speed.
    fn scaled(&self, ns: &[u64], samples: &[usize]) -> Vec<u64> {
        let factors = self.pace.factors();
        ns.iter()
            .zip(samples)
            .map(|(&ns, &i)| (ns as f64 * factors[i]).round() as u64)
            .collect()
    }

    /// The timed queries' latencies scaled to the reference host speed.
    pub fn scaled_latencies(&self) -> Vec<u64> {
        self.scaled(&self.latencies_ns, &self.latency_samples)
    }

    /// The cold starts' times scaled to the reference host speed.
    pub fn scaled_setups(&self) -> Vec<u64> {
        self.scaled(&self.setup_ns, &self.setup_samples)
    }

    /// The busy time scaled to the reference host speed.
    pub fn scaled_busy_ns(&self) -> u64 {
        let (ns, samples): (Vec<u64>, Vec<usize>) = self.busy.iter().copied().unzip();
        self.scaled(&ns, &samples).iter().sum()
    }

    /// Records a failed query or a violated gate.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(why);
        }
    }

    /// Records the outcome of one checked query.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.fail(why);
        }
    }
}

/// Peak resident set of this process plus the current peak of each live
/// child process (the multi-process fabrics' workers), in MiB.
pub fn peak_rss_mb() -> f64 {
    let own = hwm_kib("/proc/self/status");
    let me = std::process::id().to_string();
    let mut children = 0;
    if let Ok(dir) = std::fs::read_dir("/proc") {
        for entry in dir.flatten() {
            let path = entry.path();
            let Ok(stat) = std::fs::read_to_string(path.join("stat")) else {
                continue;
            };
            // `pid (comm) state ppid …`; comm may contain spaces, so split
            // after its closing parenthesis.
            let ppid = stat
                .rsplit_once(')')
                .and_then(|(_, rest)| rest.split_whitespace().nth(1));
            if ppid == Some(me.as_str()) {
                children += hwm_kib(&path.join("status").to_string_lossy());
            }
        }
    }
    (own + children) as f64 / 1024.0
}

fn hwm_kib(status_path: &str) -> u64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// SplitMix64: the benchmark's input generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Self(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
