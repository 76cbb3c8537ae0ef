//! The end-to-end benchmark of record for the SemaSK stack.
//!
//! One seeded metro (`datagen::generate_metro`) is prepared and served
//! through the public entry points: `semask-net` server and client,
//! `semask-serve`'s `ServeEngine`, `semask::engine`, the retrieval
//! planner, `vecdb`, the simulated LLM and, for `churn`,
//! `semask::durable` with its WAL. Three closed-loop workloads read it:
//!
//! - `wire_zipf`: paper-shaped queries over loopback TCP into
//!   `Variant::Full`, half drawn Zipf-skewed from a hot set (result-cache
//!   hits), half cold; a quarter carry keyword filters, a third of those
//!   out of vocabulary (negative-cache answers).
//! - `scan_unique`: unique texts over 10 km boxes and the whole metro into
//!   `Variant::EmbeddingOnly`, so filtering dominates and nothing caches.
//! - `churn`: in process, one thread sends a fixed stream of durable
//!   mutation batches while another reads, so index maintenance, WAL
//!   fsyncs, checkpoints and cache invalidation show.
//!
//! `run` with `trace: false` measures the end-to-end metrics; with
//! `trace: true` it measures the per-layer metrics instead (see
//! [`trace`] and [`probe`]).

pub mod check;
pub mod drive;
pub mod inputs;
pub mod probe;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod world;

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use geotext::BoundingBox;
use llm::cost::TaskKind;
use semask::clock::SystemClock;
use semask::query::{QueryOutcome, SemaSkQuery};
use semask::retrieval::RetrievalStrategy;
use semask::{DurableEngine, Variant};
use semask_net::NetHandler;
use semask_serve::api::{CacheStatus, Request, Response};
use semask_serve::ServeEngine;

use check::{check_outcome, Locations, Reference};
use drive::{closed_loop, Conn, InProc, Reply, TracedWire, Wire};
use inputs::{PlannedBatch, RequestGen, Shape};
use rng::stream;
use stats::{mean, median, percentile, ratio};
use trace::{Recorder, TracingExecutor, TracingHandler};
use world::{semask_config, serve_config, setup, World, WorldSpec};

/// POIs in the metro. Chosen so that three set-ups and a measured window
/// fit the benchmark's time budget on a 2-core host.
pub const WORLD_POIS: usize = 4_000;
/// Set-ups per run; `setup_s` is their median, and each serves an equal
/// share of the measured window.
pub const SETUPS: usize = 3;
/// Mutation batches of 8 per `churn` window: the default checkpoint policy
/// (256 records) folds one checkpoint per 32 batches, so one per window
/// and three per run.
pub const CHURN_BATCHES: usize = 32;
/// Client threads (and connections) of the read workloads: the host's cores.
pub const CLIENTS: u64 = 2;
/// Queries per per-layer probe.
const PROBE_QUERIES: usize = 48;
/// Untimed reads before each measured window share.
const WARMUP_SECONDS: f64 = 0.5;
/// First request stream of the warm-up and of the traced half, so neither
/// replays the requests of the measured or untraced one.
const WARMUP_STREAM: u64 = 10;
const TRACED_STREAM: u64 = 20;
/// Keyword-free unique queries added to the `scan_unique` quality sweep.
const SCAN_SWEEP_EXTRA: usize = 64;
/// Request/response pairs kept for the codec probe, and executed query
/// ranges kept for the candidate count.
const SAMPLES: usize = 64;
/// Length of the equal time slices a window is cut into; latency
/// percentiles are the median over slices, so one burst of interference
/// on the shared host moves one slice, not the result.
const SLICE_SECONDS: f64 = 1.0;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    WireZipf,
    ScanUnique,
    Churn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::WireZipf, Workload::ScanUnique, Workload::Churn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireZipf => "wire_zipf",
            Workload::ScanUnique => "scan_unique",
            Workload::Churn => "churn",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn variant(self) -> Variant {
        match self {
            Workload::WireZipf => Variant::Full,
            Workload::ScanUnique | Workload::Churn => Variant::EmbeddingOnly,
        }
    }

    fn wire(self) -> bool {
        self != Workload::Churn
    }

    fn request_gen(self, shapes: &Arc<Vec<Shape>>, seed: u64, thread: u64) -> RequestGen {
        match self {
            Workload::WireZipf => RequestGen::zipf(shapes, seed, thread),
            Workload::ScanUnique => RequestGen::unique(shapes, seed, thread),
            Workload::Churn => RequestGen::cold(shapes, seed, thread),
        }
    }
}

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub pois: usize,
    pub setups: usize,
    /// Mutation batches per `churn` window.
    pub churn_batches: usize,
    /// Scratch and trace output directory.
    pub out_dir: PathBuf,
}

impl Options {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace,
            pois: WORLD_POIS,
            setups: SETUPS,
            churn_batches: CHURN_BATCHES,
            out_dir: PathBuf::from(".perfbench"),
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Failed output checks and failed operations, for the log.
    pub problems: Vec<String>,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // `+ 0.0` turns a negative zero into zero.
                let value = if m.value.is_finite() {
                    m.value + 0.0
                } else {
                    0.0
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one workload and reports its metrics.
pub fn run(opts: &Options) -> Report {
    let work = opts.out_dir.join(format!(
        "work-{}-{}",
        opts.workload.name(),
        std::process::id()
    ));
    std::fs::create_dir_all(&work).expect("creating the work directory");
    let dirs: Vec<PathBuf> = (0..opts.setups.max(1))
        .map(|i| work.join(format!("durable-{i}")))
        .collect();
    let specs: Vec<WorldSpec<'_>> = dirs
        .iter()
        .map(|dir| WorldSpec {
            pois: opts.pois,
            seed: world_seed(opts.seed),
            variant: opts.workload.variant(),
            wire: opts.workload.wire(),
            durable_dir: (opts.workload == Workload::Churn).then_some(dir.as_path()),
        })
        .collect();
    let report = if opts.trace {
        let (world, _) = setup(&specs[0]);
        let report = traced(&world, opts, &work);
        world.teardown();
        report
    } else {
        untraced(&specs, opts)
    };
    let _ = std::fs::remove_dir_all(&work);
    // Leaves nothing behind unless traces were written.
    let _ = std::fs::remove_dir(&opts.out_dir);
    report
}

fn world_seed(seed: u64) -> u64 {
    stream(seed, 0)
}

/// What the output checks need.
struct Ctx<'a> {
    k: usize,
    locations: &'a Locations,
}

/// Everything the clients saw.
#[derive(Default)]
struct Tally {
    attempted: u64,
    /// Requests that carried a keyword filter.
    keyworded: u64,
    failed: u64,
    wrong: Vec<String>,
    errors: Vec<String>,
    /// Completion time and latency in milliseconds of each successful read.
    latencies: Vec<(Instant, f64)>,
    cache: [u64; 3],
    strategies: [u64; 4],
    executed_ranges: Vec<BoundingBox>,
    codec_samples: Vec<(Request, Response)>,
}

impl Tally {
    /// Counts and checks one reply; returns its outcome when it succeeded
    /// and passed the checks.
    fn record<'r>(&mut self, reply: &'r Reply<'_>, ctx: &Ctx<'_>) -> Option<&'r QueryOutcome> {
        self.attempted += 1;
        self.keyworded += u64::from(reply.query.keywords.is_some());
        let response = match &reply.response {
            Err(e) => return self.fail(format!("transport: {e}")),
            Ok(r) if !r.status.is_success() => return self.fail(format!("status {:?}", r.status)),
            Ok(r) => r,
        };
        let Some(outcome) = response.outcome.as_ref() else {
            return self.wrong(format!(
                "request {} succeeded without an outcome",
                response.id
            ));
        };
        if let Err(e) = check_outcome(&reply.query.range, outcome, ctx.k, ctx.locations) {
            return self.wrong(format!("request {}: {e}", response.id));
        }
        self.latencies.push((reply.done, reply.latency_ms));
        self.cache[response.cached.code() as usize % 3] += 1;
        if response.cached == CacheStatus::Miss {
            if let Some(s) = outcome.latency.filter_strategy {
                self.strategies[strategy_index(s)] += 1;
            }
            if self.executed_ranges.len() < SAMPLES {
                self.executed_ranges.push(reply.query.range);
            }
        }
        if self.codec_samples.len() < SAMPLES {
            self.codec_samples.push((
                Request::new(response.id, reply.query.clone()),
                response.clone(),
            ));
        }
        Some(outcome)
    }

    fn fail(&mut self, problem: String) -> Option<&'static QueryOutcome> {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(problem);
        }
        None
    }

    fn wrong(&mut self, problem: String) -> Option<&'static QueryOutcome> {
        self.failed += 1;
        if self.wrong.len() < 8 {
            self.wrong.push(problem);
        }
        None
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.keyworded += other.keyworded;
        self.failed += other.failed;
        self.wrong.extend(other.wrong);
        self.errors.extend(other.errors);
        self.latencies.extend(other.latencies);
        for i in 0..3 {
            self.cache[i] += other.cache[i];
        }
        for i in 0..4 {
            self.strategies[i] += other.strategies[i];
        }
        self.executed_ranges.extend(other.executed_ranges);
        self.codec_samples.extend(other.codec_samples);
    }

    fn ok(&self) -> usize {
        self.latencies.len()
    }

    fn executed(&self) -> u64 {
        self.cache[CacheStatus::Miss.code() as usize]
    }
}

fn strategy_index(s: RetrievalStrategy) -> usize {
    match s {
        RetrievalStrategy::ExactScan => 0,
        RetrievalStrategy::FilteredHnsw => 1,
        RetrievalStrategy::GridPrefilter => 2,
        RetrievalStrategy::IrTree => 3,
    }
}

/// Acknowledgement latencies of the mutation stream and its checks.
#[derive(Default)]
struct Writes {
    ack_ms: Vec<f64>,
    checkpoint_ack_ms: Vec<f64>,
    reads: Tally,
}

impl Writes {
    fn batches(&self) -> usize {
        self.ack_ms.len() + self.checkpoint_ack_ms.len()
    }

    fn all_ack_ms(&self) -> Vec<f64> {
        self.ack_ms
            .iter()
            .chain(&self.checkpoint_ack_ms)
            .copied()
            .collect()
    }
}

/// One measured window: the read clients' tally and wall time, plus the
/// writer's for `churn`.
struct Phase {
    reads: Tally,
    start: Instant,
    seconds: f64,
    writes: Option<Writes>,
}

impl Phase {
    fn qps(&self) -> f64 {
        ratio(self.reads.ok() as f64, self.seconds)
    }

    /// The latencies of the reads that completed in each of the window's
    /// equal slices.
    fn slices(&self) -> Vec<Vec<f64>> {
        let n = ((self.seconds / SLICE_SECONDS).round() as usize).max(1);
        let width = self.seconds / n as f64;
        let mut slices = vec![Vec::new(); n];
        for &(done, ms) in &self.reads.latencies {
            let at = done.duration_since(self.start).as_secs_f64();
            slices[((at / width) as usize).min(n - 1)].push(ms);
        }
        slices
    }
}

/// Median over the slices of all windows of the 50th and 99th latency
/// percentiles of the reads in each slice.
fn sliced_latency(phases: &[Phase]) -> (f64, f64) {
    let slices: Vec<Vec<f64>> = phases.iter().flat_map(Phase::slices).collect();
    let p50: Vec<f64> = slices.iter().map(|s| percentile(s, 0.5)).collect();
    let p99: Vec<f64> = slices.iter().map(|s| percentile(s, 0.99)).collect();
    (median(&p50), median(&p99))
}

/// Runs one measured window of `seconds` against `serve` (through
/// `addr` when the workload reads over the wire), its clients drawing
/// requests from streams `stream..`. `plan` is the mutation
/// stream of a `churn` window; its writer runs to the end of the stream
/// and the readers run until both the window and the writer are done.
#[allow(clippy::too_many_arguments)]
fn phase(
    workload: Workload,
    shapes: &Arc<Vec<Shape>>,
    seed: u64,
    stream: u64,
    serve: &Arc<ServeEngine>,
    addr: Option<SocketAddr>,
    durable: Option<&DurableEngine>,
    plan: &[PlannedBatch],
    seconds: f64,
    ctx: &Ctx<'_>,
    rec: Option<&Arc<Recorder>>,
) -> Phase {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let writer_done = AtomicBool::new(durable.is_none());
    let stop = || Instant::now() >= deadline && writer_done.load(Ordering::Acquire);
    let readers = if durable.is_some() { 1 } else { CLIENTS };
    std::thread::scope(|scope| {
        let writer = durable.map(|durable| {
            let writer_done = &writer_done;
            scope.spawn(move || {
                let pace = Duration::from_secs_f64(seconds / plan.len().max(1) as f64);
                let writes = churn_writer(serve, durable, plan, pace, ctx);
                writer_done.store(true, Ordering::Release);
                writes
            })
        });
        let clients: Vec<_> = (0..readers)
            .map(|t| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut conn: Box<dyn Conn> = match (addr, rec) {
                        (Some(addr), None) => Box::new(Wire::connect(addr)),
                        (Some(addr), Some(rec)) => {
                            Box::new(TracedWire::connect(addr, Arc::clone(rec)))
                        }
                        (None, rec) => Box::new(InProc::new(Arc::clone(serve), rec.cloned())),
                    };
                    let mut gen = workload.request_gen(shapes, seed, stream + t);
                    let mut tally = Tally::default();
                    let elapsed = closed_loop(
                        conn.as_mut(),
                        (t + 1) << 40,
                        |_| (!stop()).then(|| gen.next_query()),
                        |reply| {
                            tally.record(&reply, ctx);
                        },
                        rec.map(|r| &**r),
                    );
                    (tally, elapsed.as_secs_f64())
                })
            })
            .collect();
        let mut reads = Tally::default();
        let mut seconds: f64 = 0.0;
        for c in clients {
            let (tally, elapsed) = c.join().expect("client thread");
            reads.merge(tally);
            seconds = seconds.max(elapsed);
        }
        let writes = writer.map(|w| w.join().expect("writer thread"));
        Phase {
            reads,
            start,
            seconds,
            writes,
        }
    })
}

/// Sends the mutation stream in batches of 8 through `submit_mutation`,
/// waits for every acknowledgement, then reads each insert back (and
/// checks each delete is gone) with a query over a small box around it.
/// Batch `b` is sent no earlier than `b * pace` into the window, so the
/// fixed stream spreads over the window instead of finishing early.
fn churn_writer(
    serve: &ServeEngine,
    durable: &DurableEngine,
    plan: &[PlannedBatch],
    pace: Duration,
    ctx: &Ctx<'_>,
) -> Writes {
    let mut w = Writes::default();
    let mut next_id = 9u64 << 40;
    let start = Instant::now();
    for (b, batch) in plan.iter().enumerate() {
        if let Some(wait) = (pace * b as u32).checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let records_before = durable.wal_stats().records;
        let t = Instant::now();
        let tickets: Vec<_> = batch
            .mutations
            .iter()
            .map(|m| serve.submit_mutation(m.clone()))
            .collect();
        let mut error = None;
        for ticket in tickets {
            match ticket
                .map_err(|e| e.to_string())
                .and_then(|t| t.wait().map_err(|e| e.to_string()))
            {
                Ok(_) => {}
                Err(e) => error = Some(e),
            }
        }
        let ack_ms = t.elapsed().as_secs_f64() * 1e3;
        w.reads.attempted += 1;
        if let Some(e) = error {
            w.reads.fail(format!("mutation batch: {e}"));
            continue;
        }
        // A checkpoint folds the log, so it holds fewer records than
        // before plus this batch.
        if durable.wal_stats().records < records_before + batch.mutations.len() as u64 {
            w.checkpoint_ack_ms.push(ack_ms);
        } else {
            w.ack_ms.push(ack_ms);
        }

        let probes = batch
            .inserts
            .iter()
            .map(|(id, spec)| (*id, spec.lat, spec.lon, spec.name.as_str(), true))
            .chain(
                batch
                    .deletes
                    .iter()
                    .map(|(id, lat, lon, name)| (*id, *lat, *lon, name.as_str(), false)),
            );
        for (id, lat, lon, name, present) in probes {
            let query = SemaSkQuery::new(inputs::probe_box(lat, lon), name);
            let response = serve
                .submit_request(Request::new(next_id, query.clone()))
                .wait();
            next_id += 1;
            let reply = Reply {
                seq: 0,
                query: &query,
                response: Ok(response),
                latency_ms: 0.0,
                done: Instant::now(),
            };
            let Some(outcome) = w.reads.record(&reply, ctx) else {
                continue;
            };
            let found = outcome
                .pois
                .iter()
                .any(|p| p.id.0 == id && (!present || p.name == name));
            if found != present {
                let what = if present {
                    "acknowledged insert not read back"
                } else {
                    "deleted POI still served"
                };
                w.reads.wrong(format!("{what}: POI {id}"));
            }
        }
    }
    w.reads.latencies.clear();
    w
}

/// Sends every sweep query once through `conn` and scores the answers:
/// recall@k against the exact reference and, where the query has
/// ground truth, the paper's F1@k.
fn sweep(
    conn: &mut dyn Conn,
    queries: &[(SemaSkQuery, Option<&[geotext::ObjectId]>)],
    world: &World,
    ctx: &Ctx<'_>,
    tally: &mut Tally,
) -> (f64, f64) {
    let reference = Reference::capture(world.prepared());
    let embedder = &world.prepared().embedder;
    let mut recalls = Vec::new();
    let mut f1s = Vec::new();
    closed_loop(
        conn,
        7 << 40,
        |seq| queries.get(seq as usize).map(|(q, _)| q.clone()),
        |reply| {
            let Some(outcome) = tally.record(&reply, ctx) else {
                return;
            };
            let (query, truth) = &queries[reply.seq as usize];
            let reference_ids = reference.top_k(
                &embed::Embedder::embed(embedder, &query.text),
                &query.range,
                ctx.k,
            );
            let ids: Vec<_> = outcome.pois.iter().map(|p| p.id).collect();
            recalls.push(check::recall(&ids, &reference_ids));
            if let Some(truth) = truth {
                f1s.push(check::f1(outcome, truth, ctx.k));
            }
        },
        None,
    );
    (mean(&recalls), mean(&f1s))
}

/// `segments` consecutive `churn` windows' mutation streams (none for the
/// read-only workloads).
fn churn_plan(world: &World, opts: &Options, segments: usize) -> Vec<PlannedBatch> {
    if opts.workload == Workload::Churn {
        inputs::mutation_plan(&world.data, opts.churn_batches * segments, opts.seed)
    } else {
        Vec::new()
    }
}

fn locations(world: &World, plan: &[PlannedBatch]) -> Locations {
    Locations::new(
        world.prepared(),
        plan.iter()
            .flat_map(|b| b.inserts.iter().map(|(id, s)| (*id, s.lat, s.lon))),
    )
}

/// The end-to-end run. Each set-up serves an equal share of the window,
/// so the figures are not one set-up's draw (the planner calibrates its
/// cost model by timing at set-up); the last one then answers the quality
/// sweep.
fn untraced(specs: &[WorldSpec<'_>], opts: &Options) -> Report {
    let share = opts.seconds / specs.len() as f64;
    let mut setup_s = Vec::with_capacity(specs.len());
    let mut phases = Vec::with_capacity(specs.len());
    let mut warmups = Vec::with_capacity(specs.len());
    let mut sweep_tally = Tally::default();
    let (mut recall, mut f1) = (0.0, 0.0);
    for (i, spec) in specs.iter().enumerate() {
        let (world, seconds) = setup(spec);
        setup_s.push(seconds);
        let shapes = Arc::new(inputs::shapes(&world.data, opts.seed));
        let plan = churn_plan(&world, opts, 1);
        let locations = locations(&world, &plan);
        let ctx = Ctx {
            k: semask_config().k,
            locations: &locations,
        };
        let addr = world
            .server
            .as_ref()
            .map(semask_net::ServeServer::local_addr);
        let durable = world.executor.durable().map(|d| &**d);
        // Let caches fill and lazy state settle before timing: reads only,
        // on request streams the measured window does not replay.
        warmups.push(phase(
            opts.workload,
            &shapes,
            opts.seed,
            WARMUP_STREAM,
            &world.serve,
            addr,
            None,
            &[],
            WARMUP_SECONDS,
            &ctx,
            None,
        ));
        phases.push(phase(
            opts.workload,
            &shapes,
            opts.seed,
            0,
            &world.serve,
            addr,
            durable,
            &plan,
            share,
            &ctx,
            None,
        ));
        if i + 1 == specs.len() {
            let mut queries: Vec<(SemaSkQuery, Option<&[geotext::ObjectId]>)> = shapes
                .iter()
                .map(|s| (s.query.clone(), Some(s.truth.as_slice())))
                .collect();
            if opts.workload == Workload::ScanUnique {
                let mut gen = opts.workload.request_gen(&shapes, opts.seed, 99);
                queries.extend((0..SCAN_SWEEP_EXTRA).map(|_| (gen.next_query(), None)));
            }
            let mut conn: Box<dyn Conn> = match addr {
                Some(addr) => Box::new(Wire::connect(addr)),
                None => Box::new(InProc::new(Arc::clone(&world.serve), None)),
            };
            (recall, f1) = sweep(conn.as_mut(), &queries, &world, &ctx, &mut sweep_tally);
        }
        world.teardown();
    }

    let mut tallies: Vec<&Tally> = phases.iter().chain(&warmups).map(|p| &p.reads).collect();
    tallies.push(&sweep_tally);
    tallies.extend(
        phases
            .iter()
            .filter_map(|p| p.writes.as_ref())
            .map(|w| &w.reads),
    );
    let (attempted, failed) = totals(&tallies);
    let reads: usize = phases.iter().map(|p| p.reads.ok()).sum();
    let qps = ratio(reads as f64, phases.iter().map(|p| p.seconds).sum());
    let (p50, p99) = sliced_latency(&phases);
    let metrics = vec![
        Metric::new("qps", "1/s", qps),
        Metric::new("latency_p50_ms", "ms", p50),
        Metric::new("latency_p99_ms", "ms", p99),
        Metric::new(
            "success_ratio",
            "ratio",
            1.0 - ratio(failed as f64, attempted as f64),
        ),
        Metric::new("recall_at_10", "ratio", recall),
        Metric::new("f1_at_10", "ratio", f1),
        Metric::new("setup_s", "s", median(&setup_s)),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb()),
    ];
    let missing = phases
        .iter()
        .any(|p| p.reads.ok() == 0)
        .then_some("a window completed no read");
    finish(&tallies, missing, metrics)
}

/// Attempted and failed operations over every tally of a run.
fn totals(tallies: &[&Tally]) -> (u64, u64) {
    (
        tallies.iter().map(|t| t.attempted).sum(),
        tallies.iter().map(|t| t.failed).sum(),
    )
}

/// The run's result: correct unless an output check failed or `missing`
/// names something the run never observed.
fn finish(tallies: &[&Tally], missing: Option<&str>, metrics: Vec<Metric>) -> Report {
    let mut problems: Vec<String> = tallies
        .iter()
        .flat_map(|t| t.wrong.iter().cloned())
        .collect();
    problems.extend(missing.map(str::to_owned));
    let correct = problems.is_empty();
    problems.extend(tallies.iter().flat_map(|t| t.errors.iter().cloned()));
    let (attempted, failed) = totals(tallies);
    Report {
        correct,
        attempted: attempted.max(1),
        failed,
        metrics,
        problems,
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The traced run: the same window untraced and then traced, half the
/// time each, then the layer probes.
fn traced(world: &World, opts: &Options, work: &Path) -> Report {
    let config = semask_config();
    let prep = probe::staged_prep(opts.pois, world_seed(opts.seed), &config);

    let shapes = Arc::new(inputs::shapes(&world.data, opts.seed));
    let plan = churn_plan(world, opts, 2);
    let (plan_plain, plan_traced) = plan.split_at(plan.len() / 2);
    let locations = locations(world, &plan);
    let ctx = Ctx {
        k: config.k,
        locations: &locations,
    };
    let half = opts.seconds / 2.0;
    let durable = world.executor.durable().map(|d| &**d);
    let addr = world
        .server
        .as_ref()
        .map(semask_net::ServeServer::local_addr);
    let plain = phase(
        opts.workload,
        &shapes,
        opts.seed,
        0,
        &world.serve,
        addr,
        durable,
        plan_plain,
        half,
        &ctx,
        None,
    );

    let rec = Recorder::new();
    let serve = Arc::new(ServeEngine::with_parts(
        Arc::new(TracingExecutor {
            inner: world.executor.clone(),
            rec: Arc::clone(&rec),
        }),
        Arc::new(SystemClock::new()),
        serve_config(),
    ));
    let mut server = opts.workload.wire().then(|| {
        world::bind(Arc::new(TracingHandler {
            serve: Arc::clone(&serve),
            rec: Arc::clone(&rec),
        }) as Arc<dyn NetHandler>)
    });
    let prepared = world.prepared();
    let memo_before = prepared.planner.plan_memo_stats();
    let llm_before = world.llm.cost_log().records().len();
    let t = phase(
        opts.workload,
        &shapes,
        opts.seed,
        TRACED_STREAM,
        &serve,
        server.as_ref().map(semask_net::ServeServer::local_addr),
        durable,
        plan_traced,
        half,
        &ctx,
        Some(&rec),
    );
    let memo_after = prepared.planner.plan_memo_stats();
    let rerank_ms: f64 = world.llm.cost_log().records()[llm_before..]
        .iter()
        .filter(|r| r.task == TaskKind::Rerank)
        .map(|r| r.latency_ms)
        .sum();
    if let Some(server) = server.as_mut() {
        server.shutdown();
    }
    serve.shutdown();
    let serve_metrics = serve.metrics();

    let traces = opts.out_dir.join("traces");
    std::fs::create_dir_all(&traces).expect("creating the trace directory");
    let trace_path = traces.join(format!("{}-seed{}.jsonl", opts.workload.name(), opts.seed));
    let a = trace::attribute(&rec, opts.workload.wire(), &trace_path).expect("writing the trace");

    // Layer probes on the workload's own queries.
    let mut gen = opts.workload.request_gen(&shapes, opts.seed, 50);
    let queries: Vec<SemaSkQuery> = (0..PROBE_QUERIES).map(|_| gen.next_query()).collect();
    let plain_queries: Vec<SemaSkQuery> = queries
        .iter()
        .map(|q| SemaSkQuery::new(q.range, q.text.clone()))
        .collect();
    let net_overhead = probe::net_overhead_ms(&world.executor, &plain_queries);
    let (codec_us, bytes) = probe::codec(&t.reads.codec_samples);
    let (llm_cpu, prompt_tokens) = probe::llm_rerank(prepared, &plain_queries, &config);
    let wal_plan = inputs::mutation_plan(&world.data, 32, opts.seed);
    let (wal_us, wal_bytes) = probe::wal(&wal_plan, work);
    let resident = {
        let handle = prepared
            .db
            .collection(&prepared.collection_name)
            .expect("collection");
        let fp = handle.read().memory_footprint();
        fp.resident_bytes_per_point() as f64
    };
    let candidates = mean(
        &t.reads
            .executed_ranges
            .iter()
            .map(|r| locations.count_in(r) as f64)
            .collect::<Vec<_>>(),
    );

    let mutations = rec.mutations.lock().expect("recorder lock");
    let mutate: Vec<f64> = mutations
        .iter()
        .filter(|m| !m.checkpoint)
        .map(|m| (m.end - m.start) as f64 / 1e6)
        .collect();
    let checkpoints: Vec<f64> = mutations
        .iter()
        .filter(|m| m.checkpoint)
        .map(|m| (m.end - m.start) as f64 / 1e9)
        .collect();
    drop(mutations);
    let writes = t.writes.as_ref();
    let strategies = t.reads.strategies;
    let executed: u64 = strategies.iter().sum();
    let share = |i: usize| ratio(strategies[i] as f64, executed as f64);
    let memo_hits = memo_after.hits - memo_before.hits;
    let memo_misses = memo_after.misses - memo_before.misses;

    let metrics = vec![
        Metric::new("net.overhead_ms", "ms", net_overhead),
        Metric::new("net.codec_us", "us", codec_us),
        Metric::new("net.bytes_per_req", "bytes", bytes),
        Metric::new(
            "serve.queue_wait_ms",
            "ms",
            serve_metrics.mean_queue_wait().as_secs_f64() * 1e3,
        ),
        Metric::new("serve.batch_mean", "count", serve_metrics.mean_batch_size()),
        Metric::new(
            "serve.cache_hit_ratio",
            "ratio",
            serve_metrics.cache_hit_rate().unwrap_or(0.0),
        ),
        Metric::new(
            "serve.negative_hits",
            "count",
            serve_metrics.negative_hits as f64,
        ),
        Metric::new("serve.shed", "count", serve_metrics.shed as f64),
        Metric::new("engine.embed_us", "us", probe::embed_us(prepared, &queries)),
        Metric::new("engine.filter_ms", "ms", a.filter_per_query),
        Metric::new("engine.refine_ms", "ms", a.refine_per_query),
        Metric::new(
            "retrieval.plan_us",
            "us",
            probe::plan_us(prepared, &queries, &config),
        ),
        Metric::new(
            "retrieval.plan_memo_hit_ratio",
            "ratio",
            ratio(memo_hits as f64, (memo_hits + memo_misses) as f64),
        ),
        Metric::new("retrieval.share.exact_scan", "ratio", share(0)),
        Metric::new("retrieval.share.filtered_hnsw", "ratio", share(1)),
        Metric::new("retrieval.share.grid_prefilter", "ratio", share(2)),
        Metric::new("retrieval.share.ir_tree", "ratio", share(3)),
        Metric::new(
            "retrieval.cost_error",
            "ratio",
            probe::cost_error(prepared, &plain_queries, &config),
        ),
        Metric::new("retrieval.candidates_per_query", "count", candidates),
        Metric::new(
            "vecdb.exact_scan_ms",
            "ms",
            probe::exact_scan_ms(prepared, &plain_queries, &config),
        ),
        Metric::new(
            "vecdb.insert_us",
            "us",
            prep.index * 1e6 / prep.pois.max(1) as f64,
        ),
        Metric::new("vecdb.resident_bytes_per_poi", "bytes", resident),
        Metric::new("llm.cpu_ms", "ms", llm_cpu),
        Metric::new("llm.prompt_tokens", "count", prompt_tokens),
        Metric::new(
            "llm.sim_ms",
            "ms",
            ratio(rerank_ms, t.reads.executed() as f64),
        ),
        Metric::new("durable.mutate_ms", "ms", mean(&mutate)),
        Metric::new("durable.checkpoint_s", "s", mean(&checkpoints)),
        Metric::new("durable.checkpoints", "count", checkpoints.len() as f64),
        Metric::new(
            "durable.writes_per_s",
            "1/s",
            writes.map_or(0.0, |w| {
                ratio(w.batches() as f64, w.all_ack_ms().iter().sum::<f64>() / 1e3)
            }),
        ),
        Metric::new(
            "durable.write_p50_ms",
            "ms",
            writes.map_or(0.0, |w| median(&w.all_ack_ms())),
        ),
        Metric::new(
            "durable.checkpoint_stall_ms",
            "ms",
            writes.map_or(0.0, |w| median(&w.checkpoint_ack_ms)),
        ),
        Metric::new("wal.append_sync_us", "us", wal_us),
        Metric::new("wal.bytes_per_mutation", "bytes", wal_bytes),
        Metric::new("prep.generate_s", "s", prep.generate),
        Metric::new("prep.enrich_s", "s", prep.enrich),
        Metric::new("prep.embed_s", "s", prep.embed),
        Metric::new("prep.index_s", "s", prep.index),
        Metric::new("prep.planner_s", "s", prep.planner),
        Metric::new("self.net_ms", "ms", a.net),
        Metric::new("self.serve_ms", "ms", a.serve),
        Metric::new("self.engine_filter_ms", "ms", a.filter),
        Metric::new("self.engine_refine_ms", "ms", a.refine),
        Metric::new("self.durable_ms", "ms", a.durable),
        Metric::new("unattributed_ms", "ms", a.unattributed),
        Metric::new("traced_wall_ms", "ms", a.wall),
        Metric::new("tracing_overhead", "ratio", ratio(t.qps(), plain.qps())),
        Metric::new(
            "workload.keyword_share",
            "ratio",
            ratio(t.reads.keyworded as f64, t.reads.attempted as f64),
        ),
    ];

    let tallies: Vec<&Tally> = [&plain.reads, &t.reads]
        .into_iter()
        .chain(plain.writes.iter().map(|w| &w.reads))
        .chain(t.writes.iter().map(|w| &w.reads))
        .collect();
    let missing = (t.reads.ok() == 0 || a.requests == 0).then_some("no traced read completed");
    finish(&tallies, missing, metrics)
}
