//! The traced run's spans, recorded by the benchmark around its own
//! calls into each layer: the client's codec calls, the server-side
//! `ServeEngine` admission and wait (through a `NetHandler`), and the
//! engine's filter, refine and durable-mutation calls (through a
//! `BatchExecutor`). Nothing inside the program is instrumented, and the
//! untraced run never constructs any of these types.
//!
//! Spans live in memory and are written out when the run ends.

use std::any::Any;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use semask::engine::EngineError;
use semask::query::{QueryOutcome, SemaSkQuery};
use semask::retrieval::BatchGroupKey;
use semask::wal::Mutation;
use semask::{FilteredBatch, MutationReceipt};
use semask_net::{NetHandler, Reply};
use semask_serve::api::Request;
use semask_serve::{BatchExecutor, ServeEngine};

use crate::stats::{mean, ratio};
use crate::world::Executor;

/// Identifies a query shape across layers that never see request ids.
pub fn shape_key(q: &SemaSkQuery) -> u64 {
    let mut h = DefaultHasher::new();
    for x in [
        q.range.min_lat,
        q.range.min_lon,
        q.range.max_lat,
        q.range.max_lon,
    ] {
        x.to_bits().hash(&mut h);
    }
    q.text.hash(&mut h);
    q.keywords.hash(&mut h);
    h.finish()
}

/// A client-side request: from the start of its send to its decoded reply.
pub struct RequestRec {
    pub id: u64,
    pub key: u64,
    pub start: u64,
    pub end: u64,
    pub ok: bool,
}

struct HandlerRec {
    start: u64,
    end: u64,
}

struct BatchRec {
    keys: Vec<u64>,
    filter: (u64, u64),
    refine: (u64, u64),
}

pub struct MutationRec {
    pub start: u64,
    pub end: u64,
    pub checkpoint: bool,
}

/// Every span of one traced window, in nanoseconds since `epoch`.
pub struct Recorder {
    epoch: Instant,
    requests: Mutex<Vec<RequestRec>>,
    codec: Mutex<HashMap<u64, u64>>,
    admitted: Mutex<HashMap<u64, u64>>,
    handler: Mutex<HashMap<u64, HandlerRec>>,
    batches: Mutex<Vec<BatchRec>>,
    pub mutations: Mutex<Vec<MutationRec>>,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            requests: Mutex::default(),
            codec: Mutex::default(),
            admitted: Mutex::default(),
            handler: Mutex::default(),
            batches: Mutex::default(),
            mutations: Mutex::default(),
        })
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn request(&self, rec: RequestRec) {
        self.requests.lock().expect("recorder lock").push(rec);
    }

    /// Adds client codec time (encode or decode) to request `id`.
    pub fn codec(&self, id: u64, ns: u64) {
        *self
            .codec
            .lock()
            .expect("recorder lock")
            .entry(id)
            .or_default() += ns;
    }

    /// Marks when an in-process submission returned from admission.
    pub fn admitted(&self, id: u64, at: u64) {
        self.admitted.lock().expect("recorder lock").insert(id, at);
    }
}

/// `NetHandler` that times `ServeEngine::submit_request` to the end of
/// `PendingResponse::wait`, exactly the calls `ServeEngine`'s own handler
/// makes.
pub struct TracingHandler {
    pub serve: Arc<ServeEngine>,
    pub rec: Arc<Recorder>,
}

impl NetHandler for TracingHandler {
    fn handle(&self, request: Request) -> Reply {
        let start = self.rec.now();
        let id = request.id;
        let pending = self.serve.submit_request(request);
        let rec = Arc::clone(&self.rec);
        Reply::Deferred(Box::new(move || {
            let response = pending.wait();
            let end = rec.now();
            rec.handler
                .lock()
                .expect("recorder lock")
                .insert(id, HandlerRec { start, end });
            response
        }))
    }
}

/// `BatchExecutor` that times the engine's `filter_batch` and
/// `refine_batch` and the executor's mutation apply, delegating exactly as
/// the library's executors do.
pub struct TracingExecutor {
    pub inner: Executor,
    pub rec: Arc<Recorder>,
}

struct Staged {
    batch: usize,
    filtered: FilteredBatch,
}

impl TracingExecutor {
    fn filter(&self, queries: &[SemaSkQuery]) -> Result<Staged, EngineError> {
        let start = self.rec.now();
        let filtered = self.inner.engine().filter_batch(queries)?;
        let end = self.rec.now();
        let mut batches = self.rec.batches.lock().expect("recorder lock");
        batches.push(BatchRec {
            keys: queries.iter().map(shape_key).collect(),
            filter: (start, end),
            refine: (end, end),
        });
        Ok(Staged {
            batch: batches.len() - 1,
            filtered,
        })
    }

    fn refine(
        &self,
        queries: &[SemaSkQuery],
        staged: Staged,
    ) -> Result<Vec<QueryOutcome>, EngineError> {
        let start = self.rec.now();
        let out = self.inner.engine().refine_batch(queries, staged.filtered);
        let end = self.rec.now();
        self.rec.batches.lock().expect("recorder lock")[staged.batch].refine = (start, end);
        out
    }
}

impl BatchExecutor for TracingExecutor {
    fn execute_batch(&self, queries: &[SemaSkQuery]) -> Result<Vec<QueryOutcome>, EngineError> {
        let staged = self.filter(queries)?;
        self.refine(queries, staged)
    }

    fn group_key(&self, query: &SemaSkQuery) -> BatchGroupKey {
        self.inner.engine().batch_group_key(query)
    }

    fn filter_stage(
        &self,
        queries: &[SemaSkQuery],
    ) -> Option<Result<Box<dyn Any + Send>, EngineError>> {
        Some(
            self.filter(queries)
                .map(|s| Box::new(s) as Box<dyn Any + Send>),
        )
    }

    fn refine_stage(
        &self,
        queries: &[SemaSkQuery],
        state: Box<dyn Any + Send>,
    ) -> Result<Vec<QueryOutcome>, EngineError> {
        let staged = state
            .downcast::<Staged>()
            .expect("state comes from filter_stage");
        self.refine(queries, *staged)
    }

    fn apply_mutations(&self, mutations: &[Mutation]) -> Result<MutationReceipt, EngineError> {
        let start = self.rec.now();
        // The library's own executor: `DurableEngine::mutate_batch` (log,
        // fsync, apply, checkpoint) or the in-memory apply.
        let receipt = self.inner.batch_executor().apply_mutations(mutations);
        let end = self.rec.now();
        self.rec
            .mutations
            .lock()
            .expect("recorder lock")
            .push(MutationRec {
                start,
                end,
                checkpoint: receipt
                    .as_ref()
                    .is_ok_and(|r| r.checkpoint_records.is_some()),
            });
        receipt
    }

    fn mutation_epoch(&self) -> u64 {
        self.inner.engine().mutation_epoch()
    }

    fn provably_empty(&self, query: &SemaSkQuery) -> bool {
        self.inner.engine().provably_empty(query)
    }
}

/// Mean per-request self time of each layer, in milliseconds. The layer
/// self times plus `unattributed` add up to `wall`, the mean traced
/// request latency.
#[derive(Default)]
pub struct Attribution {
    pub requests: usize,
    pub wall: f64,
    pub net: f64,
    pub serve: f64,
    pub filter: f64,
    pub refine: f64,
    pub durable: f64,
    pub unattributed: f64,
    /// Engine time per query: each batch's filter or refine call divided
    /// by its batch size.
    pub filter_per_query: f64,
    pub refine_per_query: f64,
}

const MS: f64 = 1e6;

/// Splits every successful request's latency into layer self times and
/// writes all spans, one JSON object per line, to `out`.
///
/// Over the wire a request is: client codec (`net`), the server-side
/// `serve` span, and what neither covers (TCP and the server's reader,
/// fair gate and writer) as unattributed. In process, the time from the
/// end of the request's last engine call to the client's wake-up is
/// unattributed. Inside `serve`, the batch that carried the request
/// (matched by query shape and time) contributes `engine.filter` and
/// `engine.refine`, and durable mutation batches that ran between
/// admission and that batch contribute `durable`.
pub fn attribute(rec: &Recorder, wire: bool, out: &Path) -> std::io::Result<Attribution> {
    let requests = rec.requests.lock().expect("recorder lock");
    let codec = rec.codec.lock().expect("recorder lock");
    let admitted = rec.admitted.lock().expect("recorder lock");
    let handler = rec.handler.lock().expect("recorder lock");
    let batches = rec.batches.lock().expect("recorder lock");
    let mutations = rec.mutations.lock().expect("recorder lock");

    let mut by_key: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, b) in batches.iter().enumerate() {
        for &k in &b.keys {
            by_key.entry(k).or_default().push(i);
        }
    }

    let mut file = std::io::BufWriter::new(std::fs::File::create(out)?);
    let mut span_id = 0u64;
    let mut emit = |file: &mut std::io::BufWriter<std::fs::File>,
                    request: u64,
                    name: &str,
                    parent: u64,
                    (start, end): (u64, u64)|
     -> std::io::Result<u64> {
        span_id += 1;
        writeln!(
            file,
            "{{\"request\":{request},\"span\":{span_id},\"parent\":{parent},\"name\":\"{name}\",\"start_ns\":{start},\"end_ns\":{end}}}"
        )?;
        Ok(span_id)
    };

    let mut a = Attribution::default();
    for r in requests.iter().filter(|r| r.ok) {
        let (h_start, h_end, net) = if wire {
            let Some(h) = handler.get(&r.id) else {
                continue;
            };
            (h.start, h.end, codec.get(&r.id).copied().unwrap_or(0))
        } else {
            (r.start, r.end, 0)
        };
        let batch = by_key.get(&r.key).and_then(|ids| {
            ids.iter()
                .map(|&i| &batches[i])
                .filter(|b| b.filter.0 >= h_start && b.refine.1 <= h_end)
                .max_by_key(|b| b.filter.0)
        });
        let blocked_until = batch.map_or(h_end, |b| b.filter.0);
        let durable: u64 = mutations
            .iter()
            .map(|m| {
                m.end
                    .min(blocked_until)
                    .saturating_sub(m.start.max(h_start))
            })
            .sum();
        let (filter, refine) = batch.map_or((0, 0), |b| {
            (b.filter.1 - b.filter.0, b.refine.1 - b.refine.0)
        });
        let serve_span = h_end - h_start;
        let (serve, unattributed) = if wire {
            let serve = serve_span.saturating_sub(filter + refine + durable);
            (serve, (r.end - r.start).saturating_sub(net + serve_span))
        } else {
            let done = batch.map_or_else(
                || admitted.get(&r.id).copied().unwrap_or(h_start),
                |b| b.refine.1,
            );
            let post = h_end.saturating_sub(done);
            (
                serve_span.saturating_sub(filter + refine + durable + post),
                post,
            )
        };

        a.requests += 1;
        a.wall += (r.end - r.start) as f64;
        a.net += net as f64;
        a.serve += serve as f64;
        a.filter += filter as f64;
        a.refine += refine as f64;
        a.durable += durable as f64;
        a.unattributed += unattributed as f64;

        let root = emit(&mut file, r.id, "request", 0, (r.start, r.end))?;
        if net > 0 {
            emit(&mut file, r.id, "net.codec", root, (r.start, r.start + net))?;
        }
        let serve_id = if wire {
            emit(&mut file, r.id, "serve", root, (h_start, h_end))?
        } else {
            root
        };
        if let Some(b) = batch {
            emit(&mut file, r.id, "engine.filter", serve_id, b.filter)?;
            emit(&mut file, r.id, "engine.refine", serve_id, b.refine)?;
        }
        for m in mutations
            .iter()
            .filter(|m| m.start < blocked_until && m.end > h_start)
        {
            emit(
                &mut file,
                r.id,
                "durable.mutate",
                serve_id,
                (m.start.max(h_start), m.end.min(blocked_until)),
            )?;
        }
    }
    file.flush()?;

    let n = a.requests.max(1) as f64 * MS;
    for v in [
        &mut a.wall,
        &mut a.net,
        &mut a.serve,
        &mut a.filter,
        &mut a.refine,
        &mut a.durable,
        &mut a.unattributed,
    ] {
        *v /= n;
    }
    let per_query = |f: fn(&BatchRec) -> (u64, u64)| {
        let v: Vec<f64> = batches
            .iter()
            .map(|b| {
                let (s, e) = f(b);
                ratio((e - s) as f64 / MS, b.keys.len() as f64)
            })
            .collect();
        mean(&v)
    };
    a.filter_per_query = per_query(|b| b.filter);
    a.refine_per_query = per_query(|b| b.refine);
    Ok(a)
}
