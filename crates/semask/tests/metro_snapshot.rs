//! A metro snapshot reads back: `load_prepared` and `DurableEngine::open`
//! succeed on a small metro, and the loaded engine — whose HNSW link
//! distances were rebuilt after load — grows exactly like the engine
//! that was never saved.

use std::sync::Arc;

use embed::Embedder;
use geotext::BoundingBox;
use llm::SimLlm;
use semask::persist::{load_prepared, save_prepared};
use semask::retrieval::RetrievalStrategy;
use semask::{
    prepare_city_with_threads, CheckpointPolicy, DurableEngine, Mutation, PoiSpec, SemaSkConfig,
    SemaSkEngine, Variant,
};

fn spec(i: usize, lat: f64, lon: f64) -> PoiSpec {
    PoiSpec {
        name: format!("Snapshot Test Spot {i}"),
        lat: lat + (i % 5) as f64 * 0.01,
        lon: lon + (i / 5) as f64 * 0.01,
        categories: vec![["Coffee & Tea", "Bars", "Pizza"][i % 3].to_owned()],
        tips: vec![format!("tip {i}: friendly staff and quick service")],
    }
}

#[test]
fn metro_snapshot_loads_and_grows_like_the_unsaved_engine() {
    let data = datagen::generate_metro(&datagen::MetroConfig::new(600, 17));
    let config = SemaSkConfig {
        scoring_tier: vecdb::ScoringTier::Quantized { rerank_factor: 4 },
        compress_payload_text: true,
        ..SemaSkConfig::default()
    };
    let llm = Arc::new(SimLlm::new());
    let prepared = prepare_city_with_threads(&data, &llm, &config, 2).expect("prep");

    let dir = std::env::temp_dir().join(format!("semask_metro_snapshot_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    save_prepared(&prepared, &dir).expect("save");
    let loaded = load_prepared(&dir, &config).expect("load a metro snapshot");
    assert_eq!(loaded.city.key, datagen::METRO.key);
    assert_eq!(loaded.dataset.len(), prepared.dataset.len());
    drop(loaded);

    let (durable, report) = DurableEngine::open(
        &dir,
        Arc::clone(&llm),
        config.clone(),
        Variant::EmbeddingOnly,
        CheckpointPolicy::default(),
    )
    .expect("reopen a durable metro");
    assert_eq!(report.replayed, 0);
    let fresh = SemaSkEngine::new(
        Arc::new(prepared),
        Arc::clone(&llm),
        config,
        Variant::EmbeddingOnly,
    );

    let center = data.city.center();
    for i in 0..40 {
        let s = spec(i, center.lat, center.lon);
        fresh
            .insert_poi(s.clone())
            .expect("insert into the unsaved engine");
        durable
            .mutate(Mutation::Insert(s))
            .expect("insert into the loaded engine");
    }

    let range = BoundingBox::from_center_km(center, 40.0, 40.0);
    for text in [
        "espresso and pastries",
        "late night pizza",
        "craft beer bar",
        "quiet spot to read",
    ] {
        let qv = fresh.prepared().embedder.embed(text);
        let answer = |engine: &SemaSkEngine| {
            engine
                .prepared()
                .planner
                .retrieve_with(RetrievalStrategy::FilteredHnsw, &qv, &range, 10, Some(64))
                .expect("forced HNSW retrieval")
                .hits
                .iter()
                .map(|h| (h.id, h.score.to_bits()))
                .collect::<Vec<_>>()
        };
        let a = answer(&fresh);
        assert!(!a.is_empty());
        assert_eq!(a, answer(durable.engine()), "{text}");
    }
    drop(durable);
    std::fs::remove_dir_all(&dir).ok();
}
