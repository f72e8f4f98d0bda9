//! The workloads. Each builds every program configuration explicitly
//! (nothing is read from the environment), sets up several times, runs a
//! correctness gate, then a closed loop — one client, each query waiting
//! for its answer — until the deadline. Answers are checked between
//! queries, outside the timed spans.

use crate::alloc;
use crate::measure::{ns_since, peak_rss_mb, Outcome, Rng, Spans};
use cc_algebra::{Dist, IntRing, Matrix};
use cc_clique::{
    Clique, CliqueConfig, ExecutorKind, Mode, NetsimConfig, NetsimProfile, RelayPolicy,
    TransportKind,
};
use cc_core::{fast_mm, RowMatrix};
use cc_graph::{generators, oracle, Graph};
use cc_service::{
    GraphId, Query, QueryOutcome, Service, ServiceConfig, ServiceMode, DEFAULT_MAX_CACHED,
    DEFAULT_MAX_CACHE_BYTES, DEFAULT_MAX_UNREDEEMED,
};
use cc_subgraph::GirthConfig;
use cc_telemetry::MemorySnapshot;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Cold starts measured per run, all before the timed loop; `setup_s` is
/// their median. The first one provides the warm instance.
const SETUPS: usize = 15;
/// Fewest timed queries per run, so that at least ten lie beyond p90.
pub const MIN_QUERIES: usize = 100;
/// Fewest timed queries of a run that only collects exact counters.
pub const MIN_COUNTER_QUERIES: usize = 10;
/// The timed loop stops here even if `MIN_QUERIES` was not reached.
const HARD_STOP: Duration = Duration::from_secs(60);
/// Salt of the second seed the cost counters are checked against.
const SECOND_SEED: u64 = 0x2ec0_5eed;

/// What a run is asked to do.
#[derive(Debug)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Telemetry is installed: derive the per-layer metrics.
    pub traced: bool,
    /// Fewest queries the timed loop runs, whatever the deadline.
    pub min_queries: usize,
}

impl Ctx {
    fn keep_going(&self, start: Instant, done: usize) -> bool {
        let elapsed = start.elapsed();
        elapsed < HARD_STOP && (elapsed.as_secs_f64() < self.seconds || done < self.min_queries)
    }
}

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "mm-dense-inmem",
    "triangles-tcp-peer",
    "mm-star-socket",
    "service-mixed",
];

/// Worker processes of the multi-process workloads.
pub const FABRIC_WORKERS: usize = 2;

/// Runs the named workload.
pub fn run(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "mm-dense-inmem" => mm(ctx, 128, TransportKind::InMemory),
        "triangles-tcp-peer" => triangles(ctx),
        "mm-star-socket" => mm(
            ctx,
            128,
            TransportKind::Socket {
                workers: FABRIC_WORKERS,
            },
        ),
        "service-mixed" => service(ctx),
        other => unreachable!("workload {other} was validated by the caller"),
    }
}

/// The clique configuration every workload uses, spelled out field by
/// field so that no `CC_*` variable can change what is measured.
fn clique_config(transport: TransportKind) -> CliqueConfig {
    CliqueConfig {
        mode: Mode::Unicast,
        route_seed: 0x5eed_c11e,
        record_patterns: false,
        relay_policy: RelayPolicy::TwoChoice,
        executor: ExecutorKind::Sequential,
        // The sequential executor runs every job inline; an explicit value
        // keeps the executor from consulting `CC_EXEC_CUTOVER`.
        exec_cutover: Some(0),
        transport,
        netsim: NetsimConfig {
            profile: NetsimProfile::Off,
            seed: 0,
        },
    }
}

fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()));
        format!("panic: {}", msg.unwrap_or_default())
    })
}

/// Checks that a query cost `cost` (rounds, words), the same as every
/// earlier query of the run.
fn same_cost(expected: &mut Option<(u64, u64)>, cost: (u64, u64)) -> Result<(), String> {
    match *expected {
        None => {
            *expected = Some(cost);
            Ok(())
        }
        Some(want) if want == cost => Ok(()),
        Some(want) => Err(format!("cost {cost:?} differs from {want:?}")),
    }
}

fn reset_capture() {
    if let Some(mem) = cc_telemetry::global().memory() {
        mem.reset();
    }
}

fn capture() -> MemorySnapshot {
    cc_telemetry::global()
        .memory()
        .map(|m| m.snapshot())
        .unwrap_or_default()
}

/// One query of a clique workload: its input, the algorithm call, and the
/// check of its answer.
trait CliqueQuery {
    type Input;
    type Answer;
    fn input(&self, seed: u64, i: usize) -> Self::Input;
    fn run(&self, clique: &mut Clique, input: &Self::Input) -> Self::Answer;
    fn check(&self, input: &Self::Input, answer: &Self::Answer) -> Result<(), String>;
}

/// `fast_mm::multiply_auto` over `IntRing` on dense `[−4, 4]` inputs,
/// checked against a local `Matrix::mul` reference.
struct DenseMm {
    n: usize,
    pool: Vec<Rc<MmCase>>,
    seed: u64,
}

struct MmCase {
    a: RowMatrix<i64>,
    b: RowMatrix<i64>,
    want: Matrix<i64>,
}

/// Distinct input pairs a run cycles through.
const MM_INPUTS: usize = 4;

impl DenseMm {
    fn new(n: usize, seed: u64) -> Self {
        let pool = (0..MM_INPUTS)
            .map(|i| Rc::new(Self::case(n, seed, i)))
            .collect();
        Self { n, pool, seed }
    }

    fn case(n: usize, seed: u64, i: usize) -> MmCase {
        let mut rng = Rng::new(seed, 0x6d6d_0000 + i as u64);
        let mut entry = |_, _| rng.below(9) as i64 - 4;
        let a = Matrix::from_fn(n, n, &mut entry);
        let b = Matrix::from_fn(n, n, &mut entry);
        MmCase {
            want: Matrix::mul(&IntRing, &a, &b),
            a: RowMatrix::from_matrix(&a),
            b: RowMatrix::from_matrix(&b),
        }
    }
}

impl CliqueQuery for DenseMm {
    type Input = Rc<MmCase>;
    type Answer = RowMatrix<i64>;

    fn input(&self, seed: u64, i: usize) -> Rc<MmCase> {
        if seed == self.seed {
            self.pool[i % self.pool.len()].clone()
        } else {
            Rc::new(Self::case(self.n, seed, i))
        }
    }

    fn run(&self, clique: &mut Clique, case: &Rc<MmCase>) -> RowMatrix<i64> {
        fast_mm::multiply_auto(clique, &IntRing, &case.a, &case.b)
    }

    fn check(&self, case: &Rc<MmCase>, answer: &RowMatrix<i64>) -> Result<(), String> {
        if answer.to_matrix() == case.want {
            Ok(())
        } else {
            Err("fast_mm product differs from Matrix::mul".into())
        }
    }
}

/// The resident `count_triangles_program` on a fresh `gnp(128, 0.1)` per
/// query, checked against `oracle::count_triangles`.
struct ResidentTriangles;

const TRI_N: usize = 128;

impl CliqueQuery for ResidentTriangles {
    type Input = (Graph, u64);
    type Answer = u64;

    fn input(&self, seed: u64, i: usize) -> (Graph, u64) {
        let g = generators::gnp(TRI_N, 0.1, Rng::new(seed, i as u64).next_u64());
        let want = oracle::count_triangles(&g);
        (g, want)
    }

    fn run(&self, clique: &mut Clique, input: &(Graph, u64)) -> u64 {
        cc_subgraph::count_triangles_program(clique, &input.0)
    }

    fn check(&self, input: &(Graph, u64), answer: &u64) -> Result<(), String> {
        if *answer == input.1 {
            Ok(())
        } else {
            Err(format!("{answer} triangles, oracle says {}", input.1))
        }
    }
}

fn mm(ctx: &Ctx, n: usize, transport: TransportKind) -> Outcome {
    // A star fabric relays every word through the orchestrator.
    let star = transport != TransportKind::InMemory;
    clique_workload(ctx, n, transport, &DenseMm::new(n, ctx.seed), |c| {
        if star && c.orchestrator_bytes() == 0 {
            Err("star fabric reported no orchestrator bytes".into())
        } else {
            Ok(())
        }
    })
}

fn triangles(ctx: &Ctx) -> Outcome {
    let transport = TransportKind::Tcp {
        workers: FABRIC_WORKERS,
        resident: true,
        addr: None,
    };
    clique_workload(ctx, TRI_N, transport, &ResidentTriangles, |c| {
        match c.orchestrator_bytes() {
            0 => Ok(()),
            b => Err(format!(
                "peer-resident rounds put {b} bytes through the orchestrator"
            )),
        }
    })
}

/// The shared loop of the clique workloads: one warm `Clique`,
/// reset before every query.
fn clique_workload<Q: CliqueQuery>(
    ctx: &Ctx,
    n: usize,
    transport: TransportKind,
    q: &Q,
    fabric_gate: impl Fn(&Clique) -> Result<(), String>,
) -> Outcome {
    let build = || Clique::with_config(n, clique_config(transport));
    let cost = |c: &Clique| (c.rounds(), c.stats().words());
    let mut out = Outcome::default();
    let mut setup_spans = Spans::default();
    let mut expected = None;

    // Cold starts: build a clique and answer a first query.
    let first = q.input(ctx.seed, 0);
    let cold_start = |out: &mut Outcome, setup_spans: &mut Spans, expected: &mut Option<_>| {
        let sample = out.pace.sample();
        let t = Instant::now();
        let mut c = setup_spans.time("clique.setup", build);
        let answer = guarded(|| q.run(&mut c, &first));
        out.setup_ns.push(ns_since(t));
        out.setup_samples.push(sample);
        out.check(
            answer
                .and_then(|a| q.check(&first, &a))
                .and_then(|()| same_cost(expected, cost(&c))),
        );
        c
    };
    let mut c = cold_start(&mut out, &mut setup_spans, &mut expected);
    while out.setup_ns.len() < SETUPS {
        drop(cold_start(&mut out, &mut setup_spans, &mut expected));
    }

    // The cost counters must not depend on the input: a second seed pays
    // exactly what the first did.
    let other = q.input(ctx.seed ^ SECOND_SEED, 0);
    c.reset();
    let answer = guarded(|| q.run(&mut c, &other));
    out.check(
        answer
            .and_then(|a| q.check(&other, &a))
            .and_then(|()| same_cost(&mut expected, cost(&c))),
    );

    // The timed closed loop.
    reset_capture();
    let mut spans = Spans::default();
    let orchestrator_start = c.orchestrator_bytes();
    let start = Instant::now();
    let mut i = 1;
    while ctx.keep_going(start, out.latencies_ns.len()) {
        let input = q.input(ctx.seed, i);
        let sample = out.pace.sample();
        let t = Instant::now();
        spans.time("clique.reset", || c.reset());
        let before = alloc::totals();
        let answer = guarded(|| q.run(&mut c, &input));
        let after = alloc::totals();
        let ns = ns_since(t);
        out.latency(ns, sample);
        out.busy(ns, sample);
        out.allocs.0 += after.0 - before.0;
        out.allocs.1 += after.1 - before.1;
        out.allocs.2 += c.rounds();
        match answer {
            Ok(a) => out.check(
                q.check(&input, &a)
                    .and_then(|()| same_cost(&mut expected, cost(&c))),
            ),
            Err(e) => {
                // A panic may leave the fabric mid-round; the run ends here.
                out.check(Err(e));
                break;
            }
        }
        sample_rss(&mut out);
        i += 1;
    }
    let snap = capture();
    if out.peak_rss_mb == 0.0 {
        out.peak_rss_mb = peak_rss_mb();
    }

    if let Err(e) = fabric_gate(&c) {
        out.fail(e);
    }
    if c.net_retransmits() != 0 || c.net_faults() != 0 {
        out.fail(format!(
            "unconditioned fabric reported {} retransmits and {} faults",
            c.net_retransmits(),
            c.net_faults()
        ));
    }
    let (rounds, words) = expected.unwrap_or_default();
    out.rounds_per_query = rounds as f64;
    out.words_per_query = words as f64;
    if ctx.traced {
        let queries = out.latencies_ns.len() as f64;
        let busy_ns = out.busy_ns();
        let layers = &mut out.layers;
        layers.insert(
            "clique.setup_ms",
            setup_spans.median("clique.setup") as f64 / 1e6,
        );
        layers.insert("clique.reset_us", spans.median("clique.reset") as f64 / 1e3);
        layers.insert(
            "transport.orchestrator_bytes",
            c.orchestrator_bytes().saturating_sub(orchestrator_start) as f64 / queries,
        );
        fabric_layers(layers, &snap, queries, queries * words as f64);
        let (bytes_per_word, batches_per_round) =
            frame_counters(&snap, queries * rounds as f64, queries * words as f64);
        layers.insert("transport.frame_bytes_per_word", bytes_per_word);
        layers.insert("transport.frame_batches_per_round", batches_per_round);
        // Layer time that the trace names, per query: the reset, and below
        // the algorithm entry either fast_mm's four sub-phases or (for the
        // resident program) each round's critical path across workers.
        let fastmm = phase_ns(&snap, "fastmm");
        let mut fastmm_sub = 0;
        if fastmm > 0 {
            for (phase, metric) in FASTMM_PHASES {
                let ns = phase_ns(&snap, phase);
                fastmm_sub += ns;
                layers.insert(metric, ns as f64 / 1e6 / queries);
            }
            layers.insert(
                "core.fastmm.other_ms",
                fastmm.saturating_sub(fastmm_sub) as f64 / 1e6 / queries,
            );
        }
        let program = phase_ns(&snap, "triangles_program");
        if program > 0 {
            layers.insert("subgraph.triangles_ms", program as f64 / 1e6 / queries);
        }
        let below_entry = if fastmm > 0 {
            fastmm_sub
        } else {
            snap.critical_path().iter().map(|p| p.max_ns).sum()
        };
        attribution(
            layers,
            spans.total("clique.reset") + below_entry,
            busy_ns,
            queries,
        );
    }
    out
}

/// fast_mm's sub-phases and the metrics that report them.
const FASTMM_PHASES: [(&str, &str); 4] = [
    ("fastmm.scatter", "core.fastmm.scatter_ms"),
    ("fastmm.to_terms", "core.fastmm.to_terms_ms"),
    ("fastmm.from_terms", "core.fastmm.from_terms_ms"),
    ("fastmm.assemble", "core.fastmm.assemble_ms"),
];

/// Reads the peak resident memory once, when the timed loop first reaches
/// `MIN_QUERIES` queries: a fixed amount of work, so that a faster program
/// is not charged for state it accumulates over more queries in the same
/// wall time.
fn sample_rss(out: &mut Outcome) {
    if out.peak_rss_mb == 0.0 && out.latencies_ns.len() >= MIN_QUERIES {
        out.peak_rss_mb = peak_rss_mb();
    }
}

fn phase_ns(snap: &MemorySnapshot, name: &str) -> u64 {
    snap.phases.get(name).map_or(0, |p| p.wall_ns)
}

/// Per-query averages of a phase over the runs that closed it.
fn phase_ms_per_run(snap: &MemorySnapshot, names: &[&str]) -> f64 {
    let (wall, runs) = names
        .iter()
        .filter_map(|n| snap.phases.get(*n))
        .fold((0, 0), |(w, r), p| (w + p.wall_ns, r + p.runs));
    if runs == 0 {
        0.0
    } else {
        wall as f64 / 1e6 / runs as f64
    }
}

/// The transport, runtime and telemetry layers, read from the capture.
fn fabric_layers(
    layers: &mut BTreeMap<&'static str, f64>,
    snap: &MemorySnapshot,
    queries: f64,
    words: f64,
) {
    let barrier: u64 = snap.transports.values().map(|t| t.barrier_ns).sum();
    let peer: u64 = snap.transports.values().map(|t| t.peer_bytes).sum();
    layers.insert("transport.barrier_ms", barrier as f64 / 1e6 / queries);
    layers.insert(
        "transport.peer_bytes_per_word",
        if words > 0.0 {
            peer as f64 / words
        } else {
            0.0
        },
    );
    let (busy, idle) = snap
        .worker_busy_idle()
        .values()
        .fold((0, 0), |(b, i), &(wb, wi)| (b + wb, i + wi));
    // The gap between the first and the last worker to commit each round.
    let skew: u64 = snap
        .lanes
        .values()
        .map(|lanes| {
            let ns = lanes.iter().map(|&(_, ns)| ns);
            ns.clone().max().unwrap_or(0) - ns.min().unwrap_or(0)
        })
        .sum();
    layers.insert("runtime.worker_busy_ms", busy as f64 / 1e6 / queries);
    layers.insert("runtime.worker_idle_ms", idle as f64 / 1e6 / queries);
    layers.insert("runtime.straggler_skew_ms", skew as f64 / 1e6 / queries);
    let events: u64 = snap.workers.values().map(|w| w.events).sum();
    layers.insert("telemetry.worker_events", events as f64 / queries);
}

/// Frame traffic per delivered word and per round, counting both the
/// orchestrator's and the workers' halves. The fabrics report frame batches
/// only at `TraceLevel::Full`; at lower levels both figures read 0.
fn frame_counters(snap: &MemorySnapshot, rounds: f64, words: f64) -> (f64, f64) {
    let bytes: u64 = snap.transports.values().map(|t| t.frame_bytes).sum::<u64>()
        + snap.workers.values().map(|w| w.frame_bytes).sum::<u64>();
    let batches: u64 = snap
        .transports
        .values()
        .map(|t| t.frame_batches)
        .sum::<u64>()
        + snap.workers.values().map(|w| w.frame_batches).sum::<u64>();
    let per = |x: u64, d: f64| if d > 0.0 { x as f64 / d } else { 0.0 };
    (per(bytes, words), per(batches, rounds))
}

/// `attributed_share` and `unattributed_ms`: how much of the time spent in
/// the program's calls the named layers account for.
fn attribution(
    layers: &mut BTreeMap<&'static str, f64>,
    attributed_ns: u64,
    busy_ns: u64,
    queries: f64,
) {
    layers.insert(
        "attributed_share",
        attributed_ns as f64 / busy_ns.max(1) as f64,
    );
    layers.insert(
        "unattributed_ms",
        busy_ns.saturating_sub(attributed_ns) as f64 / 1e6 / queries,
    );
}

// ---------------------------------------------------------------------------
// service-mixed

const SVC_N: usize = 64;
/// Graphs registered before the traffic starts, all primed by the gate.
const SVC_INITIAL: usize = 16;
/// Graphs the cached part of each batch draws from: the newest ones.
const SVC_WINDOW: usize = 16;
/// Queries per batch answered from the cache.
const SVC_CACHED: usize = 3;
/// Content seed of the registered graph sequence. The graphs are the same
/// in every run, so that the exact cost counters (which depend on a graph's
/// content) are comparable across seeds; the run's seed drives the traffic
/// (see [`batch`]).
const SVC_GRAPH_BASE: u64 = 0x6e70_0000;
/// Salt of the traffic stream drawn from the run's seed.
const SVC_TRAFFIC_SALT: u64 = 0x5e_4ce5;
/// Queries per batch: five about the new graph, the rest cached.
const SVC_BATCH: usize = 5 + SVC_CACHED;

/// A registered graph with its oracle answers.
struct Known {
    graph: Graph,
    triangles: u64,
    girth: Option<usize>,
    four_cycle: bool,
    dist: Matrix<Dist>,
}

impl Known {
    fn new(i: usize) -> Self {
        let graph = generators::gnp(SVC_N, 0.1, SVC_GRAPH_BASE + i as u64);
        Self {
            triangles: oracle::count_triangles(&graph),
            girth: oracle::girth(&graph),
            four_cycle: oracle::count_4cycles(&graph) > 0,
            dist: oracle::apsp(&graph),
            graph,
        }
    }

    fn check(&self, query: Query, outcome: &QueryOutcome) -> Result<(), String> {
        let r = &outcome.response;
        let ok = match query {
            Query::TriangleCount => r.triangles() == Some(self.triangles),
            Query::GirthBound => r.girth() == Some(self.girth),
            Query::SubgraphFlag => r.subgraph_flag() == Some(self.four_cycle),
            Query::Distance { s, t } => r.distance() == Some(self.dist[(s, t)]),
            Query::ApspTable => r.apsp().is_some_and(|t| t.dist.to_matrix() == self.dist),
        };
        if ok {
            Ok(())
        } else {
            Err(format!("{query:?} answered {r:?}, the oracle disagrees"))
        }
    }
}

/// The computation a query costs: distances share the APSP table.
fn cost_kind(q: Query) -> u8 {
    match q {
        Query::TriangleCount => 0,
        Query::GirthBound => 1,
        Query::SubgraphFlag => 2,
        Query::Distance { .. } | Query::ApspTable => 3,
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        clique: clique_config(TransportKind::InMemory),
        mode: ServiceMode::Batch { instances: 2 },
        batch_seed: 0x5e71_1ce5,
        girth: GirthConfig {
            ell: 9,
            trials: 100,
            seed: 0xc1c1e,
        },
        max_unredeemed: DEFAULT_MAX_UNREDEEMED,
        max_cached: DEFAULT_MAX_CACHED,
        max_cache_bytes: DEFAULT_MAX_CACHE_BYTES,
    }
}

fn shuffled<T>(rng: &mut Rng, mut items: Vec<T>) -> Vec<T> {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
    items
}

fn distance(rng: &mut Rng) -> Query {
    Query::Distance {
        s: rng.below(SVC_N),
        t: rng.below(SVC_N),
    }
}

/// One batch of traffic after graph `new` was registered: every question
/// about it (two distance queries, which coalesce onto one APSP run), and
/// `SVC_CACHED` queries of seeded kinds on seeded graphs among the
/// `SVC_WINDOW` graphs registered before it, all answered from the cache.
/// Every batch thus runs the same four computations on a graph of the
/// fixed sequence; the seed picks the cached queries, the distance
/// endpoints and the submission order.
fn batch(rng: &mut Rng, new: usize) -> Vec<(usize, Query)> {
    let mut queries = vec![
        (new, Query::TriangleCount),
        (new, Query::GirthBound),
        (new, Query::SubgraphFlag),
        (new, distance(rng)),
        (new, distance(rng)),
    ];
    for _ in 0..SVC_CACHED {
        let g = new - 1 - rng.below(SVC_WINDOW);
        let q = match rng.below(4) {
            0 => Query::TriangleCount,
            1 => Query::GirthBound,
            2 => Query::SubgraphFlag,
            _ => distance(rng),
        };
        queries.push((g, q));
    }
    shuffled(rng, queries)
}

/// Every computation once on each of `graphs`.
fn every_question(graphs: std::ops::Range<usize>) -> Vec<(usize, Query)> {
    graphs
        .flat_map(|g| {
            [
                Query::TriangleCount,
                Query::GirthBound,
                Query::SubgraphFlag,
                Query::Distance { s: 0, t: SVC_N - 1 },
            ]
            .map(|q| (g, q))
        })
        .collect()
}

/// Submits a batch, drains it and takes every ticket; returns each query's
/// latency (submit to take) with its outcome.
fn serve(
    svc: &mut Service,
    ids: &[GraphId],
    batch: &[(usize, Query)],
    spans: &mut Spans,
) -> Result<Vec<(u64, Option<QueryOutcome>)>, String> {
    guarded(|| {
        let mut submitted = Vec::with_capacity(batch.len());
        for &(g, q) in batch {
            let t = Instant::now();
            let ticket = svc.submit(ids[g], q);
            spans.add("service.submit", ns_since(t));
            submitted.push((t, ticket));
        }
        spans.time("service.drain", || svc.drain());
        submitted
            .into_iter()
            .map(|(t, ticket)| {
                let took = Instant::now();
                let outcome = svc.take(ticket);
                spans.add("service.take", ns_since(took));
                (ns_since(t), outcome)
            })
            .collect()
    })
}

/// The registered graphs' oracle answers, and the exact cost each (graph,
/// computation) first reported.
struct Oracle {
    known: Vec<Known>,
    costs: BTreeMap<(usize, u8), (u64, u64)>,
}

impl Oracle {
    fn check(&mut self, g: usize, q: Query, o: Option<QueryOutcome>) -> Result<(), String> {
        let o = o.ok_or("ticket had no outcome")?;
        self.known[g].check(q, &o)?;
        let cost = (o.rounds, o.words);
        let want = *self.costs.entry((g, cost_kind(q))).or_insert(cost);
        if want == cost {
            Ok(())
        } else {
            Err(format!(
                "{q:?} on graph {g} cost {cost:?}, earlier {want:?}"
            ))
        }
    }

    /// Checks every answer of a served batch and returns the latencies, or
    /// `None` when the service panicked (every query of the batch failed).
    fn verify(
        &mut self,
        out: &mut Outcome,
        batch: &[(usize, Query)],
        served: Result<Vec<(u64, Option<QueryOutcome>)>, String>,
    ) -> Option<Vec<u64>> {
        match served {
            Ok(served) => Some(
                batch
                    .iter()
                    .zip(served)
                    .map(|(&(g, q), (ns, o))| {
                        out.check(self.check(g, q, o));
                        ns
                    })
                    .collect(),
            ),
            Err(e) => {
                out.attempted += batch.len() as u64;
                out.fail(e);
                out.failed += batch.len() as u64 - 1;
                None
            }
        }
    }
}

/// Timed batches whose service counters give the exact cost per query.
const SVC_COST_BATCHES: usize = 12;

/// A new service with the initial graphs registered.
fn fresh_service(initial: &[Graph]) -> (Service, Vec<GraphId>) {
    let mut svc = Service::new(service_config());
    let ids = initial.iter().map(|g| svc.register(g.clone())).collect();
    (svc, ids)
}

/// The simulated rounds and words the service has spent so far.
fn service_cost(svc: &Service) -> (u64, u64) {
    let stats = svc.stats();
    (stats.simulated_rounds, stats.simulated_words)
}

/// What serving one batch of traffic took.
struct Served {
    register_ns: u64,
    serve_ns: u64,
    latencies_ns: Vec<u64>,
    allocs: (u64, u64),
}

/// Registers the next graph of the fixed sequence and serves one batch of
/// traffic about it, checking every answer. `None` when the service
/// panicked, which leaves it in an unknown state.
fn traffic_batch(
    svc: &mut Service,
    ids: &mut Vec<GraphId>,
    oracle: &mut Oracle,
    out: &mut Outcome,
    rng: &mut Rng,
    spans: &mut Spans,
) -> Option<Served> {
    let next = ids.len();
    if oracle.known.len() == next {
        oracle.known.push(Known::new(next));
    }
    let graph = oracle.known[next].graph.clone();
    let t = Instant::now();
    ids.push(svc.register(graph));
    let register_ns = ns_since(t);
    spans.add("service.register", register_ns);
    let batch = batch(rng, next);
    let before = alloc::totals();
    let t = Instant::now();
    let served = serve(svc, ids, &batch, spans);
    let serve_ns = ns_since(t);
    let after = alloc::totals();
    let latencies_ns = oracle.verify(out, &batch, served)?;
    Some(Served {
        register_ns,
        serve_ns,
        latencies_ns,
        allocs: (after.0 - before.0, after.1 - before.1),
    })
}

fn service(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut oracle = Oracle {
        known: (0..SVC_INITIAL).map(Known::new).collect(),
        costs: BTreeMap::new(),
    };
    let initial: Vec<Graph> = oracle.known.iter().map(|k| k.graph.clone()).collect();

    // Cold starts: a new service, the initial registrations, and a first
    // batch asking everything about the two newest initial graphs.
    let first = every_question(SVC_INITIAL - 2..SVC_INITIAL);
    let cold_start = |out: &mut Outcome, oracle: &mut Oracle| {
        let sample = out.pace.sample();
        let t = Instant::now();
        let (mut svc, ids) = fresh_service(&initial);
        let served = serve(&mut svc, &ids, &first, &mut Spans::default());
        out.setup_ns.push(ns_since(t));
        out.setup_samples.push(sample);
        oracle.verify(out, &first, served);
        (svc, ids)
    };
    let (mut svc, mut ids) = cold_start(&mut out, &mut oracle);
    while out.setup_ns.len() < SETUPS {
        drop(cold_start(&mut out, &mut oracle));
    }

    // The gate: every computation once on each initial graph, which also
    // primes the cache the timed traffic reads.
    let every = every_question(0..SVC_INITIAL);
    let served = serve(&mut svc, &ids, &every, &mut Spans::default());
    oracle.verify(&mut out, &every, served);

    // The timed closed loop: a registration, then one batch about it. The
    // graph sequence is fixed and every batch runs the same computations on
    // its new graph, so the service's counters over the first
    // `SVC_COST_BATCHES` batches are the exact cost of that traffic, with
    // its cache hits and coalesced queries, whatever the seed.
    reset_capture();
    let mut rng = Rng::new(ctx.seed, SVC_TRAFFIC_SALT);
    let mut spans = Spans::default();
    let stats_start = svc.stats();
    let cost_start = service_cost(&svc);
    let mut cost = None;
    let mut batches = 0;
    let mut allocs = (0, 0);
    let start = Instant::now();
    while ctx.keep_going(start, out.latencies_ns.len()) {
        let sample = out.pace.sample();
        let Some(served) = traffic_batch(
            &mut svc,
            &mut ids,
            &mut oracle,
            &mut out,
            &mut rng,
            &mut spans,
        ) else {
            break;
        };
        out.busy(served.register_ns + served.serve_ns, sample);
        for ns in served.latencies_ns {
            out.latency(ns, sample);
        }
        allocs.0 += served.allocs.0;
        allocs.1 += served.allocs.1;
        sample_rss(&mut out);
        batches += 1;
        if batches == SVC_COST_BATCHES {
            let now = service_cost(&svc);
            cost = Some((now.0 - cost_start.0, now.1 - cost_start.1));
        }
    }
    let snap = capture();
    if out.peak_rss_mb == 0.0 {
        out.peak_rss_mb = peak_rss_mb();
    }

    // The same number of batches on a second seed's traffic costs exactly
    // the same.
    let (mut check, mut check_ids) = fresh_service(&initial);
    let served = serve(&mut check, &check_ids, &every, &mut Spans::default());
    oracle.verify(&mut out, &every, served);
    let check_start = service_cost(&check);
    let mut check_rng = Rng::new(ctx.seed ^ SECOND_SEED, SVC_TRAFFIC_SALT);
    for _ in 0..SVC_COST_BATCHES {
        let served = traffic_batch(
            &mut check,
            &mut check_ids,
            &mut oracle,
            &mut out,
            &mut check_rng,
            &mut Spans::default(),
        );
        if served.is_none() {
            break;
        }
    }
    let check_end = service_cost(&check);
    let check_cost = (check_end.0 - check_start.0, check_end.1 - check_start.1);
    match cost {
        Some(cost) if cost == check_cost => {
            let queries = (SVC_COST_BATCHES * SVC_BATCH) as f64;
            out.rounds_per_query = cost.0 as f64 / queries;
            out.words_per_query = cost.1 as f64 / queries;
        }
        Some(cost) => out.fail(format!(
            "{SVC_COST_BATCHES} batches cost {cost:?}, on a second seed {check_cost:?}"
        )),
        None => out.fail(format!(
            "the timed loop ended before {SVC_COST_BATCHES} batches"
        )),
    }
    let stats = svc.stats();
    let rounds = stats.simulated_rounds - stats_start.simulated_rounds;
    out.allocs = (allocs.0, allocs.1, rounds);

    if ctx.traced {
        let queries = out.latencies_ns.len() as f64;
        let busy_ns = out.busy_ns();
        let asked = (stats.queries - stats_start.queries) as f64;
        let words = (stats.simulated_words - stats_start.simulated_words) as f64;
        let layers = &mut out.layers;
        fabric_layers(layers, &snap, queries, words);
        let triangles = ["triangles", "triangles3d"];
        layers.insert("subgraph.triangles_ms", phase_ms_per_run(&snap, &triangles));
        layers.insert("subgraph.girth_ms", phase_ms_per_run(&snap, &["girth"]));
        layers.insert(
            "subgraph.four_cycle_ms",
            phase_ms_per_run(&snap, &["detect_c4"]),
        );
        layers.insert("apsp.exact_ms", phase_ms_per_run(&snap, &["apsp_exact"]));
        layers.insert(
            "service.submit_us",
            spans.median("service.submit") as f64 / 1e3,
        );
        layers.insert(
            "service.drain_ms",
            spans.median("service.drain") as f64 / 1e6,
        );
        layers.insert("service.take_us", spans.median("service.take") as f64 / 1e3);
        layers.insert(
            "service.register_us",
            spans.median("service.register") as f64 / 1e3,
        );
        let share = |x: u64| x as f64 / asked.max(1.0);
        layers.insert(
            "service.cache_hit_share",
            share(stats.cache_hits - stats_start.cache_hits),
        );
        layers.insert(
            "service.coalesced_share",
            share(stats.coalesced - stats_start.coalesced),
        );
        layers.insert(
            "service.compute_share",
            share(stats.computations - stats_start.computations),
        );
        layers.insert("service.cache_bytes", stats.cache_bytes as f64);
        layers.insert(
            "service.evicted",
            (stats.results_evicted + stats.outcomes_evicted) as f64,
        );
        let algorithms: u64 = [
            "triangles",
            "triangles3d",
            "girth",
            "detect_c4",
            "apsp_exact",
        ]
        .iter()
        .map(|p| phase_ns(&snap, p))
        .sum();
        let calls = ["service.submit", "service.take", "service.register"]
            .iter()
            .map(|s| spans.total(s))
            .sum::<u64>();
        attribution(layers, algorithms + calls, busy_ns, queries);
    }
    out
}
