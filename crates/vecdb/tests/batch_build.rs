//! Graph quality of the batch-parallel HNSW build: on clustered
//! 2k × 256-d data, recall@10 of the batch-built graph stays within
//! 0.01 of the graph built one point at a time, at ef 10 and 64.

use vecdb::{inv_norm, Distance, FlatIndex, HnswConfig, HnswIndex};

const N: usize = 2_000;
const DIM: usize = 256;
const CLUSTERS: u64 = 40;
const QUERIES: u64 = 100;

fn unit(h: u64) -> f32 {
    let h = h
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(0x632b_e59b_d9b4_e019)
        .wrapping_mul(0xff51_afd7_ed55_8ccd);
    ((h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
}

/// A point near cluster centre `c`: the centre plus 30% noise.
fn clustered(c: u64, seed: u64) -> Vec<f32> {
    (0..DIM as u64)
        .map(|i| unit(c * 1_000_003 + i) + 0.3 * unit((seed << 20) ^ (i + 7)))
        .collect()
}

fn recall(
    idx: &HnswIndex,
    ef: usize,
    vectors: &[Vec<f32>],
    inv: &[f32],
    queries: &[Vec<f32>],
    truth: &[Vec<usize>],
) -> f64 {
    let mut hits = 0usize;
    for (q, t) in queries.iter().zip(truth) {
        let got = idx.search(q, 10, ef, vectors, inv, None);
        hits += got.iter().filter(|(o, _)| t.contains(o)).count();
    }
    hits as f64 / (queries.len() * 10) as f64
}

#[test]
fn batch_build_recall_matches_sequential() {
    let vectors: Vec<Vec<f32>> = (0..N as u64)
        .map(|i| clustered(i % CLUSTERS, i + 1))
        .collect();
    let inv: Vec<f32> = vectors.iter().map(|v| inv_norm(v)).collect();
    let queries: Vec<Vec<f32>> = (0..QUERIES)
        .map(|i| clustered(i % CLUSTERS, 1_000_000 + i))
        .collect();
    let mut flat = FlatIndex::new(Distance::Cosine);
    for v in &vectors {
        flat.push(v.clone());
    }
    let truth: Vec<Vec<usize>> = queries
        .iter()
        .map(|q| {
            flat.search(q, 10, None)
                .into_iter()
                .map(|(o, _)| o)
                .collect()
        })
        .collect();

    let mut sequential = HnswIndex::new(Distance::Cosine, HnswConfig::default());
    for o in 0..N {
        sequential.insert(o, &vectors, &inv);
    }
    let mut batched = HnswIndex::new(Distance::Cosine, HnswConfig::default());
    batched.insert_batch(0..N, &vectors, &inv, 2);

    for ef in [10, 64] {
        let seq = recall(&sequential, ef, &vectors, &inv, &queries, &truth);
        let bat = recall(&batched, ef, &vectors, &inv, &queries, &truth);
        assert!(
            bat >= seq - 0.01,
            "ef {ef}: batch recall@10 {bat:.3} below sequential {seq:.3} - 0.01"
        );
    }
}
