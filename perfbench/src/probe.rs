//! Per-layer probes for the traced run: the benchmark times its own calls
//! into each layer's public functions on the workload's inputs.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use datagen::{MetroConfig, ReverseGeocoder};
use embed::{Embedder, SemanticEmbedder};
use geotext::ObjectId;
use llm::prompts::{rerank_prompt, summarize_prompt};
use llm::{ChatRequest, SimLlm};
use semask::clock::SystemClock;
use semask::query::SemaSkQuery;
use semask::retrieval::{QueryPlanner, RetrievalStrategy};
use semask::wal::Wal;
use semask::{PreparedCity, SemaSkConfig};
use semask_net::proto;
use semask_net::{ClientConfig, NetClient, NetHandler};
use semask_serve::api::{Request, Response};
use semask_serve::{ServeConfig, ServeEngine};
use serde_json::{json, Value};
use vecdb::{CollectionConfig, Payload, VectorDb};

use crate::inputs::PlannedBatch;
use crate::stats::{mean, median};
use crate::world::{bind, Executor, PREP_THREADS};

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Prep stage times in seconds.
pub struct PrepStages {
    pub generate: f64,
    pub enrich: f64,
    pub embed: f64,
    pub index: f64,
    pub planner: f64,
    pub pois: usize,
}

/// Runs the offline pipeline stage by stage on the same metro, with the
/// same calls and thread count as `prepare_city_with_threads`, timing
/// each stage: `generate_metro`; `ReverseGeocoder::locate` with the
/// summarizing `SimLlm::complete`; `Embedder::embed`; `Collection::insert`;
/// `QueryPlanner::for_city`.
pub fn staged_prep(pois: usize, seed: u64, config: &SemaSkConfig) -> PrepStages {
    let t = Instant::now();
    let data = datagen::generate_metro(&MetroConfig::new(pois, seed));
    let generate = t.elapsed().as_secs_f64();

    let llm = SimLlm::new();
    let geocoder = ReverseGeocoder::for_city(&data.city);
    let mut dataset = data.dataset.clone();
    let n = dataset.len();
    let chunk = n.div_ceil(PREP_THREADS).max(1);

    let t = Instant::now();
    let objects = dataset.objects();
    let enriched: Vec<(datagen::Address, String)> = parallel(objects, chunk, |obj| {
        let tips = obj
            .attrs
            .get("tips")
            .and_then(|v| v.as_list())
            .map(<[String]>::to_vec)
            .unwrap_or_default();
        let summary = if tips.is_empty() {
            String::from("No customer feedback available.")
        } else {
            let req = ChatRequest::user(config.summarize_model, summarize_prompt(&tips));
            llm.complete(&req).expect("summarize").content
        };
        (geocoder.locate(&obj.location), summary)
    });
    for (idx, (addr, summary)) in enriched.into_iter().enumerate() {
        let obj = dataset.get_mut(ObjectId(idx as u32)).expect("dense ids");
        obj.attrs.set("county", addr.county);
        obj.attrs.set("suburb", addr.suburb);
        obj.attrs.set("neighborhood", addr.neighborhood);
        obj.attrs.set("tip_summary", summary);
    }
    let enrich = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let embedder = SemanticEmbedder::new(config.embedder.clone());
    let vectors: Vec<Vec<f32>> = parallel(dataset.objects(), chunk, |obj| {
        embedder.embed(&PreparedCity::embedding_text_with(
            obj,
            config.embed_raw_tips,
        ))
    });
    let embed = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let db = VectorDb::new();
    let handle = db
        .create_collection(
            "staged",
            CollectionConfig {
                scoring_tier: config.scoring_tier,
                compress_payload_text: config.compress_payload_text,
                ..CollectionConfig::new(embedder.dim())
            },
        )
        .expect("fresh collection");
    {
        let mut collection = handle.write();
        for (obj, vector) in dataset.iter().zip(vectors) {
            let mut pairs = vec![
                ("lat", json!(obj.location.lat)),
                ("lon", json!(obj.location.lon)),
                ("name", json!(obj.name())),
            ];
            if config.compress_payload_text {
                if let Some(summary) = obj.attrs.get_text("tip_summary") {
                    pairs.push(("tip_summary", json!(summary)));
                }
            }
            collection
                .insert(u64::from(obj.id.0), vector, Payload::from_pairs(&pairs))
                .expect("insert into a fresh collection");
        }
    }
    let index = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let planner = QueryPlanner::for_city(Arc::new(dataset), handle, config.planner);
    let planner_s = t.elapsed().as_secs_f64();
    drop(planner);

    PrepStages {
        generate,
        enrich,
        embed,
        index,
        planner: planner_s,
        pois: n,
    }
}

/// Maps `f` over `items` on `PREP_THREADS` threads, one contiguous chunk
/// each, keeping order.
fn parallel<T: Sync, R: Send>(items: &[T], chunk: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| {
                let f = &f;
                scope.spawn(move || part.iter().map(f).collect::<Vec<R>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("prep worker"))
            .collect()
    })
}

/// Median wire round trip minus median in-process `submit_request` →
/// `wait` for the same queries, one at a time, alternating which goes
/// first, on a cache-less `ServeEngine` over the same executor.
pub fn net_overhead_ms(executor: &Executor, queries: &[SemaSkQuery]) -> f64 {
    let serve = Arc::new(ServeEngine::with_parts(
        executor.batch_executor(),
        Arc::new(SystemClock::new()),
        ServeConfig {
            pipeline_depth: 1,
            ..ServeConfig::default()
        },
    ));
    let mut server = bind(Arc::clone(&serve) as Arc<dyn NetHandler>);
    let mut client =
        NetClient::connect(server.local_addr(), &ClientConfig::default()).expect("probe client");
    let mut wire = Vec::new();
    let mut local = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let id = i as u64 * 2;
        let mut over_wire = || {
            let t = Instant::now();
            let _ = client.request(&Request::new(id, q.clone()));
            wire.push(ms(t));
        };
        let mut in_process = || {
            let t = Instant::now();
            let _ = serve.submit_request(Request::new(id + 1, q.clone())).wait();
            local.push(ms(t));
        };
        if i % 2 == 0 {
            over_wire();
            in_process();
        } else {
            in_process();
            over_wire();
        }
    }
    drop(client);
    server.shutdown();
    serve.shutdown();
    median(&wire) - median(&local)
}

/// Mean time of the four `proto` calls a request and its reply cost
/// (encode and decode of each), in microseconds, and the mean framed
/// bytes of both.
pub fn codec(samples: &[(Request, Response)]) -> (f64, f64) {
    let mut us = Vec::new();
    let mut bytes = Vec::new();
    for (request, response) in samples {
        let t = Instant::now();
        let req = proto::encode_request(std::hint::black_box(request));
        let decoded_req = proto::decode_request(&req).expect("own encoding decodes");
        let resp = proto::encode_response(std::hint::black_box(response));
        let decoded_resp = proto::decode_response(&resp).expect("own encoding decodes");
        us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box((decoded_req, decoded_resp));
        bytes.push((req.len() + resp.len() + 2 * proto::HEADER_LEN) as f64);
    }
    (mean(&us), mean(&bytes))
}

pub fn embed_us(prepared: &PreparedCity, queries: &[SemaSkQuery]) -> f64 {
    let t = Instant::now();
    for q in queries {
        std::hint::black_box(prepared.embedder.embed(&q.text));
    }
    t.elapsed().as_secs_f64() * 1e6 / queries.len().max(1) as f64
}

pub fn plan_us(prepared: &PreparedCity, queries: &[SemaSkQuery], config: &SemaSkConfig) -> f64 {
    let t = Instant::now();
    for q in queries {
        std::hint::black_box(prepared.planner.plan_query(
            &q.range,
            q.keywords.as_deref(),
            config.k,
            config.ef,
        ));
    }
    t.elapsed().as_secs_f64() * 1e6 / queries.len().max(1) as f64
}

/// Median of predicted over measured cost of the strategy the planner
/// chooses, executed with `retrieve_with`.
pub fn cost_error(prepared: &PreparedCity, queries: &[SemaSkQuery], config: &SemaSkConfig) -> f64 {
    let ratios: Vec<f64> = queries
        .iter()
        .filter_map(|q| {
            let vec = prepared.embedder.embed(&q.text);
            let plan = prepared
                .planner
                .plan_query(&q.range, None, config.k, config.ef);
            let t = Instant::now();
            prepared
                .planner
                .retrieve_with(plan.chosen, &vec, &q.range, config.k, config.ef)
                .ok()?;
            let measured_us = t.elapsed().as_secs_f64() * 1e6;
            Some(plan.predicted_for(plan.chosen) / measured_us.max(1e-3))
        })
        .collect();
    median(&ratios)
}

/// Mean wall time of a forced exact scan, in milliseconds.
pub fn exact_scan_ms(
    prepared: &PreparedCity,
    queries: &[SemaSkQuery],
    config: &SemaSkConfig,
) -> f64 {
    let times: Vec<f64> = queries
        .iter()
        .map(|q| {
            let vec = prepared.embedder.embed(&q.text);
            let t = Instant::now();
            let _ = std::hint::black_box(prepared.planner.retrieve_with(
                RetrievalStrategy::ExactScan,
                &vec,
                &q.range,
                config.k,
                config.ef,
            ));
            ms(t)
        })
        .collect();
    mean(&times)
}

/// Mean wall time of `SimLlm::complete` on the rerank prompt the engine
/// would send for each query's candidates, and its mean prompt tokens.
pub fn llm_rerank(
    prepared: &PreparedCity,
    queries: &[SemaSkQuery],
    config: &SemaSkConfig,
) -> (f64, f64) {
    let llm = SimLlm::new();
    let mut cpu = Vec::new();
    let mut tokens = Vec::new();
    for q in queries {
        let vec = prepared.embedder.embed(&q.text);
        let Ok(hits) = prepared.filtered_knn(&vec, &q.range, config.k, config.ef) else {
            continue;
        };
        let pois: Vec<Value> = hits
            .iter()
            .filter_map(|h| prepared.dataset.get(ObjectId(h.id as u32)))
            .map(geotext::GeoTextObject::to_json)
            .collect();
        if pois.is_empty() {
            continue;
        }
        let request = ChatRequest::user(
            config.refine_model,
            rerank_prompt(&Value::Array(pois), &q.text),
        );
        let t = Instant::now();
        let response = llm.complete(&request).expect("rerank prompt is recognised");
        cpu.push(ms(t));
        tokens.push(f64::from(response.usage.prompt_tokens));
    }
    (mean(&cpu), mean(&tokens))
}

/// `Wal::append` of each mutation plus one `sync` per batch on a scratch
/// log: mean microseconds per batch and log bytes per mutation.
pub fn wal(plan: &[PlannedBatch], dir: &Path) -> (f64, f64) {
    let path = dir.join("probe-wal.log");
    let _ = std::fs::remove_file(&path);
    let (mut wal, _) = Wal::open(&path).expect("scratch log");
    let mut per_batch = Vec::new();
    for batch in plan {
        let t = Instant::now();
        for m in &batch.mutations {
            wal.append(m).expect("append");
        }
        wal.sync().expect("sync");
        per_batch.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let stats = wal.stats();
    drop(wal);
    let _ = std::fs::remove_file(&path);
    (
        mean(&per_batch),
        stats.bytes as f64 / stats.records.max(1) as f64,
    )
}
