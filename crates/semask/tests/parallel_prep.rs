//! Parallel preparation must be bit-identical to sequential preparation,
//! down to the HNSW graph, at any thread count.

use embed::Embedder;
use llm::SimLlm;
use semask::prep::prepare_city_with_threads;
use semask::retrieval::RetrievalStrategy;
use semask::{prepare_city, SemaSkConfig, SemaSkEngine, SemaSkQuery, Variant};
use std::sync::Arc;

#[test]
fn parallel_prep_matches_sequential() {
    let data = datagen::poi::generate_city(&datagen::CITIES[3], 120, 31);
    let config = SemaSkConfig::default();

    let llm_a = SimLlm::new();
    let seq = prepare_city(&data, &llm_a, &config).expect("sequential");
    let llm_b = SimLlm::new();
    let par = prepare_city_with_threads(&data, &llm_b, &config, 4).expect("parallel");

    // Enriched attributes identical.
    for (a, b) in seq.dataset.iter().zip(par.dataset.iter()) {
        assert_eq!(a, b, "dataset diverged at {}", a.name());
    }
    // Same number of LLM calls and total cost.
    assert_eq!(llm_a.cost_log().num_calls(), llm_b.cost_log().num_calls());
    assert!((llm_a.cost_log().total_cost_usd() - llm_b.cost_log().total_cost_usd()).abs() < 1e-12);
    // Identical vectors in the collection.
    let ca = seq.db.collection(&seq.collection_name).unwrap();
    let cb = par.db.collection(&par.collection_name).unwrap();
    let (ca, cb) = (ca.read(), cb.read());
    assert_eq!(ca.len(), cb.len());
    for obj in seq.dataset.iter() {
        assert_eq!(
            ca.vector(u64::from(obj.id.0)).unwrap(),
            cb.vector(u64::from(obj.id.0)).unwrap()
        );
    }
}

/// Forced filtered-HNSW answers, as `(id, score bits)` per query.
type Answers = Vec<Vec<(u64, u32)>>;

#[test]
fn parallel_prep_builds_the_same_graph_at_any_thread_count() {
    // 400 POIs: the batch build inserts up to 7 points per batch from
    // 350 nodes on, so multi-point batches are exercised.
    let data = datagen::poi::generate_city(&datagen::CITIES[2], 400, 5);
    let config = SemaSkConfig::default();
    let range = geotext::BoundingBox::from_center_km(data.city.center(), 30.0, 30.0);
    let texts = [
        "live music and cheap drinks",
        "family brunch",
        "vegan tacos",
    ];
    let build = |threads: usize| -> (String, Answers) {
        let llm = SimLlm::new();
        let p = prepare_city_with_threads(&data, &llm, &config, threads).expect("prep");
        let handle = p.db.collection(&p.collection_name).unwrap();
        let json = serde_json::to_string(&*handle.read()).unwrap();
        let answers = texts
            .iter()
            .map(|t| {
                let qv = p.embedder.embed(t);
                p.planner
                    .retrieve_with(RetrievalStrategy::FilteredHnsw, &qv, &range, 10, Some(32))
                    .expect("forced HNSW")
                    .hits
                    .iter()
                    .map(|h| (h.id, h.score.to_bits()))
                    .collect()
            })
            .collect();
        (json, answers)
    };
    let (json, answers) = build(1);
    for threads in [2, 4] {
        let (other_json, other_answers) = build(threads);
        assert!(
            json == other_json,
            "serialized collection differs at {threads} threads"
        );
        assert_eq!(
            answers, other_answers,
            "HNSW answers differ at {threads} threads"
        );
    }
}

#[test]
fn parallel_prepared_city_answers_queries() {
    let data = datagen::poi::generate_city(&datagen::CITIES[3], 120, 31);
    let config = SemaSkConfig::default();
    let llm = Arc::new(SimLlm::new());
    let prepared = Arc::new(prepare_city_with_threads(&data, &llm, &config, 4).expect("parallel"));
    let engine = SemaSkEngine::new(prepared, llm, config, Variant::Full);
    let range = geotext::BoundingBox::from_center_km(data.city.center(), 8.0, 8.0);
    let out = engine
        .query(&SemaSkQuery::new(range, "a cozy cafe with pour overs"))
        .expect("query");
    assert!(!out.pois.is_empty());
}
