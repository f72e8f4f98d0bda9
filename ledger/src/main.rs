//! cc-ledger: the repository's benchmark.
//!
//! ```text
//! cc-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--commit <id>] [--rustc <version>]
//! ```
//!
//! Runs one workload as a closed loop (one client, each query waiting for
//! its answer), checks every answer, and prints one JSON object as the last
//! line of standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The traced run installs in-memory
//! telemetry at `TraceLevel::Rounds` and re-runs itself twice as a child:
//! once untraced (for the tracing overhead and the allocation counters) and,
//! on the multi-process fabrics, once at `TraceLevel::Full` (the level at
//! which frame batches are reported). Usually started through `run.py`,
//! which builds this binary and the worker binaries first.

mod alloc;
mod measure;
mod workloads;

use measure::{median, percentile, Outcome};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{exit, Command};
use std::time::SystemTime;
use workloads::Ctx;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: cc-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--commit <id>] [--rustc <version>]";

/// The worker binaries the multi-process fabrics spawn, in the order the
/// transports search for them.
const WORKER_BINARIES: [&str; 2] = ["cc-clique-host", "cc-clique-node"];

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Trace level of a traced run: `rounds`, or `full` for the child run
    /// that only collects frame counters.
    level: String,
    commit: String,
    rustc: String,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut flags = BTreeMap::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
        }
        let mut take = |name: &str| flags.remove(name);
        let workload = take("workload").ok_or("--workload is required")?;
        if !workloads::NAMES.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload:?} (one of {})",
                workloads::NAMES.join(", ")
            ));
        }
        let number = |v: Option<String>, name: &str| -> Result<u64, String> {
            v.ok_or(format!("--{name} is required"))?
                .parse()
                .map_err(|_| format!("--{name} takes a whole number"))
        };
        let seed = number(take("seed"), "seed")?;
        let seconds = number(take("seconds"), "seconds")?;
        let trace = match take("trace").as_deref() {
            Some("0") => false,
            Some("1") => true,
            _ => return Err("--trace takes 0 or 1".into()),
        };
        let level = take("level").unwrap_or_else(|| "rounds".into());
        if !["rounds", "full"].contains(&level.as_str()) {
            return Err("--level takes rounds or full".into());
        }
        let commit = take("commit").unwrap_or_else(|| "unknown".into());
        let rustc = take("rustc").unwrap_or_else(|| "unknown".into());
        if let Some(extra) = flags.keys().next() {
            return Err(format!("unknown flag --{extra}"));
        }
        Ok(Self {
            workload,
            seed,
            seconds,
            trace,
            level,
            commit,
            rustc,
        })
    }
}

/// `CliqueConfig::default()`, kernel selection and sparse dispatch read
/// `CC_*` variables; a stray one would silently change what is measured.
fn refuse_cc_environment() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("CC_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: these variables change what the program does",
            set.join(", ")
        ))
    }
}

fn modified(path: &Path) -> Result<SystemTime, String> {
    std::fs::metadata(path)
        .and_then(|m| m.modified())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Resolves each worker binary the way the transports do (next to the
/// running executable, then one and two directories up) and refuses
/// binaries that are missing, come from another profile directory, or are
/// older than this executable, so that a run never pairs this orchestrator
/// with stale workers.
fn worker_provenance() -> Result<Vec<PathBuf>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    let built = modified(&exe)?;
    let canonical = |p: &Path| {
        p.canonicalize()
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    let profile = canonical(dir)?;
    WORKER_BINARIES
        .iter()
        .map(|name| {
            let found = [
                dir.join(name),
                dir.join("..").join(name),
                dir.join("../..").join(name),
            ]
            .into_iter()
            .find(|c| c.is_file())
            .ok_or_else(|| format!("worker binary {name} not found next to {}", exe.display()))?;
            let found = canonical(&found)?;
            if found.parent() != Some(profile.as_path()) {
                return Err(format!(
                    "{} is from another profile than {}",
                    found.display(),
                    exe.display()
                ));
            }
            if modified(&found)? < built {
                return Err(format!(
                    "{} is older than {}; rebuild the workers",
                    found.display(),
                    exe.display()
                ));
            }
            Ok(found)
        })
        .collect()
}

fn load_average() -> [f64; 3] {
    let raw = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let mut it = raw
        .split_whitespace()
        .map(|v| v.parse().unwrap_or(f64::NAN));
    [(); 3].map(|()| it.next().unwrap_or(f64::NAN))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Appends `"name": {"value": v, "unit": "u"}` entries as a JSON object.
/// JSON has no NaN: a value that is not finite (and has failed the run)
/// prints as 0.
fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Reads `"name": {"value": <number>` back out of a line this binary
/// printed.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Runs this binary again on the same workload and seed and returns its
/// standard output.
fn child_run(args: &Args, seconds: u64, trace: &str, level: &str) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", trace, "--level", level])
        .args(["--commit", &args.commit, "--rustc", &args.rustc])
        .output()
        .map_err(|e| format!("child run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child run ({trace}, {level}) exited with {}",
            out.status
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// The end-to-end metrics, in `BENCHMARK.json` order. Wall times are
/// scaled to the reference host speed (see [`measure::Pace`]).
fn end_to_end(out: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let latencies = out.scaled_latencies();
    let queries = latencies.len() as f64;
    vec![
        (
            "queries_per_s",
            queries / (out.scaled_busy_ns() as f64 / 1e9),
            "1/s",
        ),
        ("query_p50_ms", median(&latencies) as f64 / 1e6, "ms"),
        (
            "query_p90_ms",
            percentile(&latencies, 0.9) as f64 / 1e6,
            "ms",
        ),
        ("setup_s", median(&out.scaled_setups()) as f64 / 1e9, "s"),
        ("rounds_per_query", out.rounds_per_query, "rounds"),
        ("words_per_query", out.words_per_query, "words"),
        ("peak_rss_mb", out.peak_rss_mb, "MiB"),
        (
            "correct_share",
            1.0 - out.failed as f64 / out.attempted.max(1) as f64,
            "share",
        ),
    ]
}

/// The per-layer metrics with their units, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 34] = [
    ("clique.setup_ms", "ms"),
    ("clique.reset_us", "us"),
    ("clique.allocs_per_round", "allocs/round"),
    ("clique.alloc_bytes_per_round", "bytes/round"),
    ("core.fastmm.to_terms_ms", "ms"),
    ("core.fastmm.from_terms_ms", "ms"),
    ("core.fastmm.scatter_ms", "ms"),
    ("core.fastmm.assemble_ms", "ms"),
    ("core.fastmm.other_ms", "ms"),
    ("transport.barrier_ms", "ms"),
    ("transport.frame_bytes_per_word", "bytes/word"),
    ("transport.frame_batches_per_round", "batches/round"),
    ("transport.peer_bytes_per_word", "bytes/word"),
    ("transport.orchestrator_bytes", "bytes"),
    ("runtime.worker_busy_ms", "ms"),
    ("runtime.worker_idle_ms", "ms"),
    ("runtime.straggler_skew_ms", "ms"),
    ("subgraph.triangles_ms", "ms"),
    ("subgraph.girth_ms", "ms"),
    ("subgraph.four_cycle_ms", "ms"),
    ("apsp.exact_ms", "ms"),
    ("service.submit_us", "us"),
    ("service.drain_ms", "ms"),
    ("service.take_us", "us"),
    ("service.register_us", "us"),
    ("service.cache_hit_share", "share"),
    ("service.coalesced_share", "share"),
    ("service.compute_share", "share"),
    ("service.cache_bytes", "bytes"),
    ("service.evicted", "count"),
    ("telemetry.overhead_share", "share"),
    ("telemetry.worker_events", "count"),
    ("attributed_share", "share"),
    ("unattributed_ms", "ms"),
];

fn allocation_counters(out: &Outcome) -> [(&'static str, f64, &'static str); 2] {
    let rounds = out.allocs.2.max(1) as f64;
    [
        (
            "clique.allocs_per_round",
            out.allocs.0 as f64 / rounds,
            "allocs/round",
        ),
        (
            "clique.alloc_bytes_per_round",
            out.allocs.1 as f64 / rounds,
            "bytes/round",
        ),
    ]
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&raw).unwrap_or_else(|e| {
        eprintln!("cc-ledger: {e}\n{USAGE}");
        exit(2);
    });
    let workers = refuse_cc_environment()
        .and_then(|()| worker_provenance())
        .unwrap_or_else(|e| {
            eprintln!("cc-ledger: {e}");
            exit(2);
        });
    let load_start = load_average();
    let busy = load_start[0] >= nproc() as f64;
    if busy {
        eprintln!(
            "cc-ledger: warning: load average {} at start is at least nproc = {}",
            load_start[0],
            nproc()
        );
    }

    // The traced run's two child runs go first, so that no two runs overlap.
    let mut children = None;
    if args.trace && args.level == "rounds" {
        let half = (args.seconds / 2).max(1);
        let untraced = child_run(&args, half, "0", "rounds");
        let multi_process = matches!(
            args.workload.as_str(),
            "triangles-tcp-peer" | "mm-star-socket"
        );
        let full = if multi_process {
            child_run(&args, 1, "1", "full").map(Some)
        } else {
            Ok(None)
        };
        match untraced.and_then(|u| full.map(|f| (u, f))) {
            Ok(pair) => children = Some(pair),
            Err(e) => {
                eprintln!("cc-ledger: {e}");
                exit(1);
            }
        }
    }
    let seconds = if children.is_some() {
        (args.seconds / 2).max(1)
    } else {
        args.seconds
    };
    if args.trace {
        let level = if args.level == "full" {
            cc_telemetry::TraceLevel::Full
        } else {
            cc_telemetry::TraceLevel::Rounds
        };
        if cc_telemetry::install(cc_telemetry::Telemetry::with_memory(level)).is_err() {
            eprintln!("cc-ledger: telemetry was initialised before it could be installed");
            exit(1);
        }
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: seconds as f64,
        traced: args.trace,
        min_queries: if args.level == "full" {
            workloads::MIN_COUNTER_QUERIES
        } else {
            workloads::MIN_QUERIES
        },
    };
    let mut out = workloads::run(&args.workload, &ctx);

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let mut layers = out.layers.clone();
        if let Some((untraced, full)) = &children {
            let traced_p50 = median(&out.scaled_latencies()) as f64 / 1e6;
            let untraced_p50 = metric_in(untraced, "query_p50_ms").unwrap_or(f64::NAN);
            layers.insert("telemetry.overhead_share", traced_p50 / untraced_p50 - 1.0);
            // Allocations counted with tracing on would include the
            // telemetry's own.
            let counters = untraced
                .lines()
                .find(|l| l.starts_with("untraced "))
                .unwrap_or_default();
            for name in ["clique.allocs_per_round", "clique.alloc_bytes_per_round"] {
                layers.insert(name, metric_in(counters, name).unwrap_or(f64::NAN));
            }
            if let Some(full) = full {
                for name in [
                    "transport.frame_bytes_per_word",
                    "transport.frame_batches_per_round",
                ] {
                    layers.insert(name, metric_in(full, name).unwrap_or(f64::NAN));
                }
            }
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        println!("untraced {}", metrics_json(&allocation_counters(&out)));
        end_to_end(&out)
    };
    // A figure that could not be measured fails the run; it is not
    // reported as a number.
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            out.fail(format!("{name} could not be measured"));
        }
    }
    for p in &out.problems {
        eprintln!("cc-ledger: FAILED: {p}");
    }

    let load_end = load_average();
    let samples = out.latencies_ns.len();
    let scaled = out.scaled_latencies();
    let p90 = percentile(&scaled, 0.9);
    let beyond = scaled.iter().filter(|&&l| l > p90).count();
    let wall_ms = [0.5, 0.9].map(|q| percentile(&out.latencies_ns, q) as f64 / 1e6);
    let wall_qps = samples as f64 / (out.busy_ns() as f64 / 1e9);
    let kernel_us = |q| percentile(&out.pace.readings, q) as f64 / 1e3;
    let bins: Vec<String> = workers
        .iter()
        .map(|p| format!("{:?}", p.display().to_string()))
        .collect();
    println!(
        "host {{\"workload\": {:?}, \"seed\": {}, \"trace\": {}, \"nproc\": {}, \
         \"load_start\": {load_start:?}, \"load_end\": {load_end:?}, \"busy_at_start\": {busy}, \
         \"commit\": {:?}, \"rustc\": {:?}, \"fabric_workers\": {}, \"worker_binaries\": [{}], \
         \"samples\": {samples}, \"beyond_p90\": {beyond}, \
         \"wall_p50_p90_ms\": {wall_ms:?}, \"wall_queries_per_s\": {wall_qps}, \"kernel_us\": [{}, {}, {}]}}",
        args.workload,
        args.seed,
        args.trace,
        nproc(),
        args.commit,
        args.rustc,
        workloads::FABRIC_WORKERS,
        bins.join(", "),
        kernel_us(0.1),
        kernel_us(0.5),
        kernel_us(0.9),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics_json(&metrics)
    );
}
