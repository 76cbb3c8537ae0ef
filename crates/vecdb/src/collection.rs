//! Collections: vectors + payloads + index + query planning.

use serde::{Deserialize, Serialize};

use crate::distance::{inv_norm, Distance};
use crate::error::VecDbError;
use crate::hnsw::{HnswConfig, HnswIndex};
use crate::learned::LearnedIdIndex;
use crate::payload::{Filter, Payload, PayloadStore};
use crate::quant::{QuantizedVectors, ScoringTier};
use crate::PointId;

/// Point count at which [`ScoringTier::Auto`] switches the exact-scan
/// paths to quantized-first scoring. Below it a full-precision scan is
/// already cache-resident and the tier would only add a rerank pass;
/// above it the 4× smaller code array wins on memory traffic.
pub const AUTO_QUANT_THRESHOLD: usize = 32_768;

/// Minimum points before a forced [`ScoringTier::Quantized`] trains its
/// codebook — a global affine codebook fitted to fewer vectors than
/// this is noise.
const QUANT_MIN_POINTS: usize = 64;

/// Configuration of a collection.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CollectionConfig {
    /// Vector dimensionality.
    pub dim: usize,
    /// Distance metric.
    pub distance: Distance,
    /// HNSW parameters.
    pub hnsw: HnswConfig,
    /// If a filter qualifies at most this fraction of points, the planner
    /// switches from filtered HNSW to an exact scan of the qualifying
    /// points (Qdrant's "payload-based pre-filtering" heuristic).
    pub full_scan_threshold: f64,
    /// Which representation exact scans score over (quantized-first
    /// with full-precision rerank vs. full precision throughout).
    pub scoring_tier: ScoringTier,
    /// Whether long payload text fields are stored FSST-compressed
    /// (see [`PayloadStore`]). Off by default; the metro-scale prep
    /// turns it on.
    pub compress_payload_text: bool,
}

impl CollectionConfig {
    /// Default configuration at a given dimension.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            distance: Distance::Cosine,
            hnsw: HnswConfig::default(),
            full_scan_threshold: 0.10,
            scoring_tier: ScoringTier::Auto,
            compress_payload_text: false,
        }
    }
}

/// Resident-memory accounting for one collection, component by
/// component — the report the metro bench gates layout regressions on.
/// Every figure is an accounting estimate from container sizes, not an
/// allocator census.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryFootprint {
    /// Stored points (including soft-deleted offsets).
    pub points: usize,
    /// Full-precision vectors + their cached inverse norms.
    pub vector_bytes: usize,
    /// Quantized codes + their cached inverse norms (0 when the tier is
    /// off).
    pub quant_bytes: usize,
    /// The id → offset index.
    pub id_index_bytes: usize,
    /// Payload storage (skeletons + text tier).
    pub payload_bytes: usize,
    /// The HNSW graph: links plus their cached distances. Counted in
    /// [`MemoryFootprint::total_bytes`] only — the scoring paths the
    /// resident figure gates do not walk it.
    pub graph_bytes: usize,
}

impl MemoryFootprint {
    /// Bytes the steady-state *scoring* path keeps hot: codes when the
    /// quantized tier is active (the f32 store is then only touched for
    /// the `rerank_factor × k` survivors per query), the full vectors
    /// otherwise — plus the id index and payloads, which every filtered
    /// query walks.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        let scoring = if self.quant_bytes > 0 {
            self.quant_bytes
        } else {
            self.vector_bytes
        };
        scoring + self.id_index_bytes + self.payload_bytes
    }

    /// Everything, including the full-precision rerank store when the
    /// quantized tier is active and the HNSW graph. The rerank store
    /// currently stays in RAM (spilling it is a roadmap item), so this
    /// is the honest process-size figure.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.vector_bytes
            + self.quant_bytes
            + self.id_index_bytes
            + self.payload_bytes
            + self.graph_bytes
    }

    /// [`MemoryFootprint::resident_bytes`] per stored point.
    #[must_use]
    pub fn resident_bytes_per_point(&self) -> usize {
        self.resident_bytes().checked_div(self.points).unwrap_or(0)
    }
}

/// A point-in-time statistical summary of a collection — the feature
/// source cost-based planners read before choosing an access path
/// (cheap: every field is already tracked, nothing is scanned).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectionStats {
    /// Live (non-deleted) points.
    pub points: usize,
    /// Soft-deleted points still occupying graph nodes.
    pub deleted: usize,
    /// Vector dimensionality.
    pub dim: usize,
    /// Distance metric in use.
    pub distance: Distance,
    /// Whether every stored vector has its inverse L2 norm cached, i.e.
    /// cosine scoring runs as one fused dot product per candidate.
    pub norm_cached: bool,
}

/// A search hit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoredPoint {
    /// Caller-assigned point id.
    pub id: PointId,
    /// Similarity score (**higher is closer**; for cosine this is the
    /// cosine similarity).
    pub score: f32,
}

/// How a search should be executed.
///
/// `Auto` reproduces Qdrant's built-in heuristic (scan when the filter is
/// selective, HNSW otherwise) for callers without a planner of their own.
/// Cost-based planners — like `semask`'s `QueryPlanner` — decide per query
/// and pass `Exact` or `Hnsw` explicitly, so the decision lives in one
/// observable place instead of being buried here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SearchStrategy {
    /// Let the collection's `full_scan_threshold` heuristic decide.
    #[default]
    Auto,
    /// Exact scan of the qualifying points.
    Exact,
    /// Filtered HNSW graph search.
    Hnsw,
}

/// The strategy a search actually executed (never `Auto`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutedStrategy {
    /// Qualifying points were scanned exactly.
    ExactScan,
    /// The HNSW graph was searched with a filter mask.
    FilteredHnsw,
}

/// A search result with its execution metadata, for planners and
/// latency-breakdown reporting.
#[derive(Debug, Clone)]
pub struct PlannedSearch {
    /// The hits, best first.
    pub hits: Vec<ScoredPoint>,
    /// The strategy that produced them.
    pub executed: ExecutedStrategy,
    /// Number of live points matching the filter (exact count — the
    /// ground truth a selectivity estimator approximates).
    pub qualifying: usize,
}

/// The HNSW beam width used when a search does not set `ef`
/// explicitly: `max(4k, 64)`. The single source of truth — external
/// cost models price HNSW searches with this same default.
#[must_use]
pub fn default_ef(k: usize) -> usize {
    (4 * k).max(64)
}

/// Search-time parameters.
#[derive(Debug, Clone)]
pub struct SearchParams {
    /// Number of results.
    pub k: usize,
    /// HNSW beam width (defaults to [`default_ef`] when `None`).
    pub ef: Option<usize>,
    /// Optional payload filter.
    pub filter: Option<Filter>,
    /// Execution strategy.
    pub strategy: SearchStrategy,
}

impl SearchParams {
    /// Top-k search with no filter.
    #[must_use]
    pub fn top_k(k: usize) -> Self {
        Self {
            k,
            ef: None,
            filter: None,
            strategy: SearchStrategy::Auto,
        }
    }

    /// Builder-style filter.
    #[must_use]
    pub fn with_filter(mut self, filter: Filter) -> Self {
        self.filter = Some(filter);
        self
    }

    /// Builder-style exactness toggle (`true` forces an exact scan,
    /// `false` restores the auto heuristic).
    #[must_use]
    pub fn with_exact(mut self, exact: bool) -> Self {
        self.strategy = if exact {
            SearchStrategy::Exact
        } else {
            SearchStrategy::Auto
        };
        self
    }

    /// Builder-style execution strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: SearchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builder-style beam width.
    #[must_use]
    pub fn with_ef(mut self, ef: usize) -> Self {
        self.ef = Some(ef);
        self
    }
}

/// A named set of points: vectors, payloads, and an HNSW index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Collection {
    config: CollectionConfig,
    ids: Vec<PointId>,
    vectors: Vec<Vec<f32>>,
    /// Cached inverse L2 norm per offset, filled at insert time: stored
    /// data is immutable, so cosine scoring never re-derives a stored
    /// vector's norm (it degenerates to one fused dot product).
    inv_norms: Vec<f32>,
    payloads: PayloadStore,
    by_id: LearnedIdIndex,
    /// Soft-delete flags per offset (the HNSW graph keeps the node for
    /// connectivity; search skips flagged offsets — Qdrant's strategy).
    deleted: Vec<bool>,
    live: usize,
    hnsw: HnswIndex,
    /// u8 codes for the quantized scoring tier, parallel to `vectors`.
    /// Built lazily when the tier activates; grown per insert with the
    /// frozen codebook and re-encoded when the collection doubles.
    quant: Option<QuantizedVectors>,
    /// Point count at the last codebook (re-)training.
    quant_trained_at: usize,
}

impl Collection {
    /// An empty collection.
    #[must_use]
    pub fn new(config: CollectionConfig) -> Self {
        let hnsw = HnswIndex::new(config.distance, config.hnsw.clone());
        let payloads = if config.compress_payload_text {
            PayloadStore::compressed()
        } else {
            PayloadStore::plain()
        };
        Self {
            config,
            ids: Vec::new(),
            vectors: Vec::new(),
            inv_norms: Vec::new(),
            payloads,
            by_id: LearnedIdIndex::new(),
            deleted: Vec::new(),
            live: 0,
            hnsw,
            quant: None,
            quant_trained_at: 0,
        }
    }

    /// Number of live (non-deleted) points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the collection has no live points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The collection's configuration.
    #[must_use]
    pub fn config(&self) -> &CollectionConfig {
        &self.config
    }

    /// Statistical summary for cost-based planners: size, dimensionality,
    /// metric, and whether the norm cache covers every stored vector.
    #[must_use]
    pub fn stats(&self) -> CollectionStats {
        CollectionStats {
            points: self.live,
            deleted: self.vectors.len() - self.live,
            dim: self.config.dim,
            distance: self.config.distance,
            norm_cached: self.inv_norms.len() == self.vectors.len(),
        }
    }

    /// Inserts a point. Live ids must be unique; to change a point,
    /// delete it and insert the id again (the HNSW graph itself is
    /// append-only). The one-point case of [`Collection::insert_batch`].
    pub fn insert(
        &mut self,
        id: PointId,
        vector: Vec<f32>,
        payload: Payload,
    ) -> Result<(), VecDbError> {
        self.insert_batch(vec![(id, vector, payload)], 1)
    }

    /// Inserts many points at once, building their HNSW links on up to
    /// `threads` threads (see [`HnswIndex::insert_batch`]: the graph is
    /// the same for every `threads` value). Every point is validated
    /// before any is stored, so a rejected batch leaves the collection
    /// unchanged.
    pub fn insert_batch(
        &mut self,
        points: Vec<(PointId, Vec<f32>, Payload)>,
        threads: usize,
    ) -> Result<(), VecDbError> {
        let mut batch_ids = std::collections::HashSet::with_capacity(points.len());
        for (id, vector, _) in &points {
            if vector.len() != self.config.dim {
                return Err(VecDbError::DimensionMismatch {
                    expected: self.config.dim,
                    found: vector.len(),
                });
            }
            if vector.iter().any(|x| !x.is_finite()) {
                return Err(VecDbError::NonFiniteVector);
            }
            if self.by_id.contains_key(*id) || !batch_ids.insert(*id) {
                return Err(VecDbError::PointExists { id: *id });
            }
        }
        let start = self.vectors.len();
        for (id, vector, payload) in points {
            self.by_id.insert(id, self.vectors.len());
            self.ids.push(id);
            self.inv_norms.push(inv_norm(&vector));
            self.vectors.push(vector);
            self.payloads.push(payload);
            self.deleted.push(false);
            self.live += 1;
        }
        let end = self.vectors.len();
        self.hnsw
            .insert_batch(start..end, &self.vectors, &self.inv_norms, threads);
        // Replay the per-point codebook schedule, exactly as if the
        // points had arrived one at a time.
        for n in start + 1..=end {
            self.maintain_quant(n);
        }
        Ok(())
    }

    /// Restores state that snapshots do not carry (the HNSW link
    /// distances), in one pass; called after deserialization.
    pub(crate) fn rebuild_derived(&mut self) {
        self.hnsw
            .rebuild_link_distances(&self.vectors, &self.inv_norms);
    }

    /// Keeps the quantized tier in sync with the first `n` stored
    /// vectors, as of the arrival of vector `n - 1`: trains the codebook
    /// once the tier's activation threshold is reached, appends with the
    /// frozen codebook in between, and re-encodes everything when the
    /// collection has doubled since training (so the global codebook
    /// tracks the value range as data grows).
    fn maintain_quant(&mut self, n: usize) {
        let activate_at = match self.config.scoring_tier {
            ScoringTier::Full => return,
            ScoringTier::Quantized { .. } => QUANT_MIN_POINTS,
            ScoringTier::Auto => AUTO_QUANT_THRESHOLD,
        };
        if n < activate_at {
            return;
        }
        if self.quant.is_none() || n >= self.quant_trained_at.saturating_mul(2) {
            self.quant = Some(QuantizedVectors::encode(&self.vectors[..n]));
            self.quant_trained_at = n;
        } else if let Some(q) = &mut self.quant {
            q.push(&self.vectors[n - 1]);
        }
    }

    /// The quantized store and rerank factor, when the configured tier
    /// is active for the current collection size.
    fn active_quant(&self) -> Option<(&QuantizedVectors, usize)> {
        let rerank = match self.config.scoring_tier {
            ScoringTier::Full => return None,
            ScoringTier::Quantized { rerank_factor } => rerank_factor.max(1),
            ScoringTier::Auto => ScoringTier::DEFAULT_RERANK_FACTOR,
        };
        self.quant.as_ref().map(|q| (q, rerank))
    }

    /// Soft-deletes a point: it disappears from every search and lookup,
    /// while its graph node keeps serving as a routing hop.
    pub fn delete(&mut self, id: PointId) -> Result<(), VecDbError> {
        let offset = self
            .by_id
            .remove(id)
            .ok_or(VecDbError::PointNotFound { id })?;
        self.deleted[offset] = true;
        self.live -= 1;
        Ok(())
    }

    /// Replaces the payload of an existing point (Qdrant `set_payload`).
    pub fn update_payload(&mut self, id: PointId, payload: Payload) -> Result<(), VecDbError> {
        let offset = self.by_id.get(id).ok_or(VecDbError::PointNotFound { id })?;
        self.payloads.set(offset, payload);
        Ok(())
    }

    /// Whether a live (non-deleted) point with this id exists.
    #[must_use]
    pub fn contains(&self, id: PointId) -> bool {
        self.by_id.contains_key(id)
    }

    /// The payload of a point (reassembled when the compressed text
    /// tier is active, hence owned).
    pub fn payload(&self, id: PointId) -> Result<Payload, VecDbError> {
        self.by_id
            .get(id)
            .map(|o| self.payloads.get(o))
            .ok_or(VecDbError::PointNotFound { id })
    }

    /// The vector of a point.
    pub fn vector(&self, id: PointId) -> Result<&[f32], VecDbError> {
        self.by_id
            .get(id)
            .map(|o| self.vectors[o].as_slice())
            .ok_or(VecDbError::PointNotFound { id })
    }

    /// Ids of all live points whose payload matches `filter`.
    #[must_use]
    pub fn filter_ids(&self, filter: &Filter) -> Vec<PointId> {
        (0..self.ids.len())
            .filter(|&o| !self.deleted[o] && self.payloads.matches(o, filter))
            .map(|o| self.ids[o])
            .collect()
    }

    /// Component-by-component resident-memory accounting.
    #[must_use]
    pub fn memory_footprint(&self) -> MemoryFootprint {
        let n = self.vectors.len();
        MemoryFootprint {
            points: n,
            // Vec<Vec<f32>> data + per-vector (ptr, cap, len) headers,
            // plus the inverse-norm cache.
            vector_bytes: n * (self.config.dim * 4 + 24) + n * 4,
            quant_bytes: self
                .quant
                .as_ref()
                .map_or(0, |q| q.memory_bytes() + q.len() * 4),
            id_index_bytes: self.by_id.memory_bytes(),
            payload_bytes: self.payloads.memory_bytes(),
            graph_bytes: self.hnsw.memory_bytes(),
        }
    }

    /// k-NN search with optional payload filtering.
    ///
    /// Equivalent to [`Collection::search_planned`] with the execution
    /// metadata dropped.
    pub fn search(
        &self,
        query: &[f32],
        params: &SearchParams,
    ) -> Result<Vec<ScoredPoint>, VecDbError> {
        self.search_planned(query, params).map(|p| p.hits)
    }

    /// k-NN search returning execution metadata alongside the hits.
    ///
    /// With [`SearchStrategy::Exact`] or [`SearchStrategy::Hnsw`] the
    /// caller's choice is executed as-is — this is the entry point for
    /// external planners. [`SearchStrategy::Auto`] mirrors Qdrant: a
    /// filter qualifying at most `full_scan_threshold` of the points runs
    /// as an exact scan, anything broader as filtered HNSW.
    pub fn search_planned(
        &self,
        query: &[f32],
        params: &SearchParams,
    ) -> Result<PlannedSearch, VecDbError> {
        if query.len() != self.config.dim {
            return Err(VecDbError::DimensionMismatch {
                expected: self.config.dim,
                found: query.len(),
            });
        }
        // Trivially empty results still report the strategy the caller
        // asked for (latency-breakdown consumers log it).
        let trivial_executed = match params.strategy {
            SearchStrategy::Hnsw => ExecutedStrategy::FilteredHnsw,
            SearchStrategy::Exact | SearchStrategy::Auto => ExecutedStrategy::ExactScan,
        };
        if self.is_empty() || params.k == 0 {
            return Ok(PlannedSearch {
                hits: Vec::new(),
                executed: trivial_executed,
                qualifying: 0,
            });
        }

        // Evaluate the filter once into a bitmap (deleted points never
        // qualify).
        let mask: Option<Vec<bool>> = if params.filter.is_some() || self.live < self.ids.len() {
            let f = params.filter.as_ref();
            Some(
                (0..self.ids.len())
                    .map(|o| !self.deleted[o] && f.is_none_or(|f| self.payloads.matches(o, f)))
                    .collect(),
            )
        } else {
            None
        };
        let qualifying = mask
            .as_ref()
            .map_or(self.len(), |m| m.iter().filter(|&&b| b).count());
        if qualifying == 0 {
            return Ok(PlannedSearch {
                hits: Vec::new(),
                executed: trivial_executed,
                qualifying: 0,
            });
        }

        let executed = match params.strategy {
            SearchStrategy::Exact => ExecutedStrategy::ExactScan,
            SearchStrategy::Hnsw => ExecutedStrategy::FilteredHnsw,
            SearchStrategy::Auto => {
                let selective =
                    qualifying as f64 <= self.config.full_scan_threshold * self.len() as f64;
                if selective {
                    ExecutedStrategy::ExactScan
                } else {
                    ExecutedStrategy::FilteredHnsw
                }
            }
        };

        let hits = match executed {
            ExecutedStrategy::ExactScan => self.exact_hits(query, params.k, mask.as_deref()),
            ExecutedStrategy::FilteredHnsw => {
                let ef = params.ef.unwrap_or_else(|| default_ef(params.k));
                self.hnsw_hits(query, params.k, ef, mask.as_deref())
            }
        };

        Ok(PlannedSearch {
            hits: hits
                .into_iter()
                .map(|(o, d)| ScoredPoint {
                    id: self.ids[o],
                    score: self.config.distance.similarity_from_distance(d),
                })
                .collect(),
            executed,
            qualifying,
        })
    }

    /// Exact scan over offsets passing `mask`, ascending by distance.
    ///
    /// With the quantized tier active this is a two-pass scan: a coarse
    /// pass scores every qualifying offset over the u8 codes (¼ the
    /// memory traffic of the f32 store), keeps the best
    /// `rerank_factor × k`, and a rerank pass rescores only those
    /// survivors at full precision — so reported distances are always
    /// full-precision. Otherwise scoring goes through the norm-cached
    /// fast path (for cosine: one fused dot product per stored vector).
    fn exact_hits(&self, query: &[f32], k: usize, mask: Option<&[bool]>) -> Vec<(usize, f32)> {
        let q_inv = inv_norm(query);
        if let Some((quant, rerank_factor)) = self.active_quant() {
            let fetch = k.saturating_mul(rerank_factor);
            let mut coarse: Vec<(usize, f32)> = (0..self.vectors.len())
                .filter(|&o| mask.is_none_or(|m| m[o]))
                .map(|o| {
                    (
                        o,
                        quant.distance_with_query_inv(self.config.distance, query, q_inv, o),
                    )
                })
                .collect();
            if coarse.len() > fetch {
                // (distance, offset) total order, matching the stable
                // full-precision sort's tie behavior.
                top_k_by(&mut coarse, fetch, |a, b| {
                    a.1.partial_cmp(&b.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0.cmp(&b.0))
                });
                let mut fine: Vec<(usize, f32)> = coarse
                    .into_iter()
                    .map(|(o, _)| {
                        (
                            o,
                            self.config.distance.distance_normed(
                                query,
                                q_inv,
                                &self.vectors[o],
                                self.inv_norms[o],
                            ),
                        )
                    })
                    .collect();
                fine.sort_by(|a, b| {
                    a.1.partial_cmp(&b.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0.cmp(&b.0))
                });
                fine.truncate(k);
                return fine;
            }
            // Candidate set no bigger than the rerank budget: the
            // coarse pass would prune nothing, so scan at full
            // precision directly.
        }
        let mut scored: Vec<(usize, f32)> = self
            .vectors
            .iter()
            .enumerate()
            .filter(|(o, _)| mask.is_none_or(|m| m[*o]))
            .map(|(o, v)| {
                (
                    o,
                    self.config
                        .distance
                        .distance_normed(query, q_inv, v, self.inv_norms[o]),
                )
            })
            .collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k);
        scored
    }

    /// Filtered HNSW beam search.
    fn hnsw_hits(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        mask: Option<&[bool]>,
    ) -> Vec<(usize, f32)> {
        match mask {
            None => self
                .hnsw
                .search(query, k, ef, &self.vectors, &self.inv_norms, None),
            Some(m) => {
                let accept = |o: usize| m[o];
                self.hnsw
                    .search(query, k, ef, &self.vectors, &self.inv_norms, Some(&accept))
            }
        }
    }

    /// Iterates over the live points: `(id, vector, payload)`. Offsets of
    /// soft-deleted points are skipped. This is the bulk-read surface the
    /// sharding layer uses to re-partition an existing collection. The
    /// payload is owned: the compressed text tier reassembles it.
    pub fn iter_points(&self) -> impl Iterator<Item = (PointId, &[f32], Payload)> + '_ {
        self.ids
            .iter()
            .enumerate()
            .filter(|(o, _)| !self.deleted[*o])
            .map(|(o, &id)| (id, self.vectors[o].as_slice(), self.payloads.get(o)))
    }

    /// Exact top-k over an explicit candidate id list (used by backends
    /// that pre-filter candidates with an external spatial index).
    /// Unknown and deleted ids are skipped.
    pub fn knn_among(
        &self,
        query: &[f32],
        ids: &[PointId],
        k: usize,
    ) -> Result<Vec<ScoredPoint>, VecDbError> {
        if query.len() != self.config.dim {
            return Err(VecDbError::DimensionMismatch {
                expected: self.config.dim,
                found: query.len(),
            });
        }
        let q_inv = inv_norm(query);
        let resolved: Vec<(PointId, usize)> = ids
            .iter()
            .filter_map(|&id| self.by_id.get(id).map(|o| (id, o)))
            .collect();
        // Quantized coarse pass, engaged only when the candidate list is
        // meaningfully larger than the rerank budget (a size check, so
        // the decision is a deterministic function of collection state).
        let prescreened: Vec<(PointId, usize)> = match self.active_quant() {
            Some((quant, rerank_factor))
                if resolved.len() > k.saturating_mul(rerank_factor).saturating_mul(2) =>
            {
                let fetch = k.saturating_mul(rerank_factor);
                let mut coarse: Vec<(PointId, usize, f32)> = resolved
                    .into_iter()
                    .map(|(id, o)| {
                        (
                            id,
                            o,
                            quant.distance_with_query_inv(self.config.distance, query, q_inv, o),
                        )
                    })
                    .collect();
                top_k_by(&mut coarse, fetch, |a, b| {
                    a.2.partial_cmp(&b.2)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0.cmp(&b.0))
                });
                coarse.into_iter().map(|(id, o, _)| (id, o)).collect()
            }
            _ => resolved,
        };
        let mut scored: Vec<(PointId, f32)> = prescreened
            .into_iter()
            .map(|(id, o)| {
                (
                    id,
                    self.config.distance.distance_normed(
                        query,
                        q_inv,
                        &self.vectors[o],
                        self.inv_norms[o],
                    ),
                )
            })
            .collect();
        scored.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        scored.truncate(k);
        Ok(scored
            .into_iter()
            .map(|(id, d)| ScoredPoint {
                id,
                score: self.config.distance.similarity_from_distance(d),
            })
            .collect())
    }

    /// Batched [`Collection::search_planned`]: answers `queries.len()`
    /// searches sharing one [`SearchParams`] in a single pass.
    ///
    /// The filter mask is evaluated **once** for the whole batch, and the
    /// exact-scan path streams each stored vector through the
    /// [`Distance::score_batch`] kernel — every stored vector is loaded
    /// from memory once per batch instead of once per query. Results are
    /// bit-identical to calling [`Collection::search_planned`] per query.
    ///
    /// # Errors
    /// [`VecDbError::DimensionMismatch`] if any query has the wrong
    /// dimension.
    pub fn search_batch(
        &self,
        queries: &[&[f32]],
        params: &SearchParams,
    ) -> Result<Vec<PlannedSearch>, VecDbError> {
        for query in queries {
            if query.len() != self.config.dim {
                return Err(VecDbError::DimensionMismatch {
                    expected: self.config.dim,
                    found: query.len(),
                });
            }
        }
        let trivial_executed = match params.strategy {
            SearchStrategy::Hnsw => ExecutedStrategy::FilteredHnsw,
            SearchStrategy::Exact | SearchStrategy::Auto => ExecutedStrategy::ExactScan,
        };
        if self.is_empty() || params.k == 0 {
            return Ok(queries
                .iter()
                .map(|_| PlannedSearch {
                    hits: Vec::new(),
                    executed: trivial_executed,
                    qualifying: 0,
                })
                .collect());
        }

        // One mask evaluation for the whole batch (the single-query path
        // re-derives it per call — the first amortization win).
        let mask: Option<Vec<bool>> = if params.filter.is_some() || self.live < self.ids.len() {
            let f = params.filter.as_ref();
            Some(
                (0..self.ids.len())
                    .map(|o| !self.deleted[o] && f.is_none_or(|f| self.payloads.matches(o, f)))
                    .collect(),
            )
        } else {
            None
        };
        let qualifying = mask
            .as_ref()
            .map_or(self.len(), |m| m.iter().filter(|&&b| b).count());
        if qualifying == 0 {
            return Ok(queries
                .iter()
                .map(|_| PlannedSearch {
                    hits: Vec::new(),
                    executed: trivial_executed,
                    qualifying: 0,
                })
                .collect());
        }

        let executed = match params.strategy {
            SearchStrategy::Exact => ExecutedStrategy::ExactScan,
            SearchStrategy::Hnsw => ExecutedStrategy::FilteredHnsw,
            SearchStrategy::Auto => {
                let selective =
                    qualifying as f64 <= self.config.full_scan_threshold * self.len() as f64;
                if selective {
                    ExecutedStrategy::ExactScan
                } else {
                    ExecutedStrategy::FilteredHnsw
                }
            }
        };

        let per_query: Vec<Vec<(usize, f32)>> = match executed {
            ExecutedStrategy::ExactScan => {
                self.exact_hits_batch(queries, params.k, mask.as_deref())
            }
            ExecutedStrategy::FilteredHnsw => {
                // Graph traversal is inherently per-query; the batch still
                // amortizes the mask evaluation above.
                let ef = params.ef.unwrap_or_else(|| default_ef(params.k));
                queries
                    .iter()
                    .map(|q| self.hnsw_hits(q, params.k, ef, mask.as_deref()))
                    .collect()
            }
        };

        Ok(per_query
            .into_iter()
            .map(|hits| PlannedSearch {
                hits: hits
                    .into_iter()
                    .map(|(o, d)| ScoredPoint {
                        id: self.ids[o],
                        score: self.config.distance.similarity_from_distance(d),
                    })
                    .collect(),
                executed,
                qualifying,
            })
            .collect())
    }

    /// Batched exact scan: one pass over the stored vectors scoring every
    /// query via [`Distance::score_batch`], then a per-query sort. Each
    /// query's result is bit-identical to [`Collection::exact_hits`].
    fn exact_hits_batch(
        &self,
        queries: &[&[f32]],
        k: usize,
        mask: Option<&[bool]>,
    ) -> Vec<Vec<(usize, f32)>> {
        // Quantized tier: run the shared sequential kernel per query.
        // Parity with the sequential path is then by construction, and
        // the coarse pass already reads ¼ the bytes the batched f32
        // kernel would, so the batch amortization matters less.
        if self.active_quant().is_some() {
            return queries
                .iter()
                .map(|q| self.exact_hits(q, k, mask))
                .collect();
        }
        let m = queries.len();
        let q_invs: Vec<f32> = queries.iter().map(|q| inv_norm(q)).collect();
        let mut scored: Vec<Vec<(usize, f32)>> = (0..m)
            .map(|_| Vec::with_capacity(self.vectors.len()))
            .collect();
        let mut row = vec![0.0f32; m];
        for (o, v) in self.vectors.iter().enumerate() {
            if mask.is_some_and(|mk| !mk[o]) {
                continue;
            }
            // Pull the next stored vector toward L1 while this one is
            // being scored; a pure hint, never affects results.
            if let Some(next) = self.vectors.get(o + 1) {
                crate::distance::prefetch_slice(next);
            }
            self.config
                .distance
                .score_batch(queries, &q_invs, v, self.inv_norms[o], &mut row);
            for (per_query, &d) in scored.iter_mut().zip(&row) {
                per_query.push((o, d));
            }
        }
        for per_query in &mut scored {
            // Equivalent to the sequential path's stable sort on distance
            // plus truncate: the input is in offset order, so the stable
            // sort's tie behavior IS the (distance, offset) total order —
            // which lets the batch select the top k in O(n) before
            // sorting only those k.
            top_k_by(per_query, k, |a, b| {
                a.1.partial_cmp(&b.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            });
        }
        scored
    }

    /// Batched [`Collection::knn_among`]: scores one candidate id list
    /// against `queries.len()` query vectors in a single pass. Ids are
    /// resolved to offsets **once** for the batch, each candidate vector
    /// is streamed through [`Distance::score_batch`] once, and results
    /// are bit-identical to calling [`Collection::knn_among`] per query.
    ///
    /// # Errors
    /// [`VecDbError::DimensionMismatch`] if any query has the wrong
    /// dimension.
    pub fn knn_among_batch(
        &self,
        queries: &[&[f32]],
        ids: &[PointId],
        k: usize,
    ) -> Result<Vec<Vec<ScoredPoint>>, VecDbError> {
        for query in queries {
            if query.len() != self.config.dim {
                return Err(VecDbError::DimensionMismatch {
                    expected: self.config.dim,
                    found: query.len(),
                });
            }
        }
        // Quantized tier: per-query calls of the shared sequential
        // kernel — parity by construction, coarse pass already ¼ the
        // memory traffic.
        if self.active_quant().is_some() {
            return queries.iter().map(|q| self.knn_among(q, ids, k)).collect();
        }
        let m = queries.len();
        // One id→offset resolution for the whole batch.
        let resolved: Vec<(PointId, usize)> = ids
            .iter()
            .filter_map(|&id| self.by_id.get(id).map(|o| (id, o)))
            .collect();
        let q_invs: Vec<f32> = queries.iter().map(|q| inv_norm(q)).collect();
        let mut scored: Vec<Vec<(PointId, f32)>> =
            (0..m).map(|_| Vec::with_capacity(resolved.len())).collect();
        let mut row = vec![0.0f32; m];
        for (idx, &(id, o)) in resolved.iter().enumerate() {
            // Candidate offsets are scattered, so the hardware stream
            // prefetcher can't follow them — hint the next candidate's
            // vector toward L1 while scoring this one.
            if let Some(&(_, next)) = resolved.get(idx + 1) {
                crate::distance::prefetch_slice(&self.vectors[next]);
            }
            self.config.distance.score_batch(
                queries,
                &q_invs,
                &self.vectors[o],
                self.inv_norms[o],
                &mut row,
            );
            for (per_query, &d) in scored.iter_mut().zip(&row) {
                per_query.push((id, d));
            }
        }
        Ok(scored
            .into_iter()
            .map(|mut per_query| {
                // Same (distance, id) total order as the sequential
                // `knn_among` sort; O(n) selection + O(k log k) sort
                // instead of a full O(n log n) sort per query.
                top_k_by(&mut per_query, k, |a, b| {
                    a.1.partial_cmp(&b.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0.cmp(&b.0))
                });
                per_query
                    .into_iter()
                    .map(|(id, d)| ScoredPoint {
                        id,
                        score: self.config.distance.similarity_from_distance(d),
                    })
                    .collect()
            })
            .collect())
    }
}

/// Reduces `items` to its `k` smallest elements under `cmp`, sorted —
/// exactly the first `k` of a full sort by `cmp`, computed with an O(n)
/// partial selection instead of sorting the whole slice. `cmp` must be a
/// total order (callers tie-break equal distances by offset or id).
fn top_k_by<T, F>(items: &mut Vec<T>, k: usize, mut cmp: F)
where
    F: FnMut(&T, &T) -> std::cmp::Ordering,
{
    if items.len() > k && k > 0 {
        items.select_nth_unstable_by(k - 1, &mut cmp);
    }
    items.truncate(k);
    items.sort_by(cmp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn unit(angle: f32) -> Vec<f32> {
        vec![angle.cos(), angle.sin()]
    }

    fn collection_with_points(n: usize) -> Collection {
        let mut c = Collection::new(CollectionConfig::new(2));
        for i in 0..n {
            let angle = i as f32 * 0.01;
            let payload = Payload::from_pairs(&[
                ("lat", json!(i as f64 * 0.001)),
                ("lon", json!(-(i as f64) * 0.001)),
                ("city", json!(if i % 2 == 0 { "A" } else { "B" })),
            ]);
            c.insert(i as PointId, unit(angle), payload).unwrap();
        }
        c
    }

    #[test]
    fn insert_and_lookup() {
        let c = collection_with_points(10);
        assert_eq!(c.len(), 10);
        assert_eq!(c.payload(3).unwrap().get_f64("lat"), Some(0.003));
        assert!(c.payload(99).is_err());
        assert_eq!(c.vector(0).unwrap().len(), 2);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut c = Collection::new(CollectionConfig::new(4));
        let err = c.insert(0, vec![1.0; 3], Payload::new());
        assert!(matches!(err, Err(VecDbError::DimensionMismatch { .. })));
    }

    #[test]
    fn nan_rejected() {
        let mut c = Collection::new(CollectionConfig::new(2));
        let err = c.insert(0, vec![f32::NAN, 0.0], Payload::new());
        assert_eq!(err, Err(VecDbError::NonFiniteVector));
    }

    #[test]
    fn duplicate_id_rejected() {
        let mut c = Collection::new(CollectionConfig::new(2));
        c.insert(7, vec![1.0, 0.0], Payload::new()).unwrap();
        assert!(c.insert(7, vec![0.0, 1.0], Payload::new()).is_err());
    }

    #[test]
    fn insert_batch_validates_every_point_first() {
        let mut c = collection_with_points(3);
        let before = c.memory_footprint();
        for bad in [
            vec![
                (10, unit(0.1), Payload::new()),
                (10, unit(0.2), Payload::new()),
            ],
            vec![
                (11, unit(0.1), Payload::new()),
                (2, unit(0.2), Payload::new()),
            ],
            vec![
                (12, unit(0.1), Payload::new()),
                (13, vec![1.0; 3], Payload::new()),
            ],
            vec![
                (14, unit(0.1), Payload::new()),
                (15, vec![f32::NAN, 0.0], Payload::new()),
            ],
        ] {
            assert!(c.insert_batch(bad, 2).is_err());
            assert_eq!(
                c.memory_footprint(),
                before,
                "rejected batch stored something"
            );
        }
        let good: Vec<_> = (10..200u64)
            .map(|i| (i, unit(i as f32 * 0.01), Payload::new()))
            .collect();
        c.insert_batch(good, 2).unwrap();
        assert_eq!(c.len(), 193);
        let r = c.search(&unit(1.5), &SearchParams::top_k(1)).unwrap();
        assert_eq!(r[0].id, 150);
    }

    #[test]
    fn unfiltered_search_finds_self() {
        let c = collection_with_points(200);
        let r = c.search(&unit(0.5), &SearchParams::top_k(1)).unwrap();
        assert_eq!(r[0].id, 50);
        assert!(r[0].score > 0.9999);
    }

    #[test]
    fn scores_descend() {
        let c = collection_with_points(100);
        let r = c.search(&unit(0.3), &SearchParams::top_k(10)).unwrap();
        assert!(r.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn filtered_search_respects_filter() {
        let c = collection_with_points(200);
        let f = Filter::MatchKeyword {
            key: "city".to_owned(),
            value: "A".to_owned(),
        };
        let r = c
            .search(&unit(0.31), &SearchParams::top_k(5).with_filter(f))
            .unwrap();
        assert_eq!(r.len(), 5);
        assert!(r.iter().all(|p| p.id % 2 == 0));
    }

    #[test]
    fn selective_filter_triggers_exact_and_is_correct() {
        let c = collection_with_points(500);
        // Geo filter matching only ~10 points (selective → exact path).
        let f = Filter::geo_box(0.0, -0.010, 0.010, 0.0);
        let r = c
            .search(&unit(0.0), &SearchParams::top_k(3).with_filter(f.clone()))
            .unwrap();
        assert_eq!(r.len(), 3);
        let qualifying = c.filter_ids(&f);
        assert!(r.iter().all(|p| qualifying.contains(&p.id)));
        // Exact top-1 under the filter is point 0 (closest angle to 0).
        assert_eq!(r[0].id, 0);
    }

    #[test]
    fn empty_filter_result_is_empty() {
        let c = collection_with_points(50);
        let f = Filter::MatchKeyword {
            key: "city".to_owned(),
            value: "Z".to_owned(),
        };
        let r = c
            .search(&unit(0.0), &SearchParams::top_k(5).with_filter(f))
            .unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn exact_flag_matches_hnsw_on_easy_data() {
        let c = collection_with_points(300);
        let q = unit(1.23);
        let approx = c.search(&q, &SearchParams::top_k(5)).unwrap();
        let exact = c
            .search(&q, &SearchParams::top_k(5).with_exact(true))
            .unwrap();
        assert_eq!(
            approx.iter().map(|p| p.id).collect::<Vec<_>>(),
            exact.iter().map(|p| p.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn explicit_strategies_execute_as_requested() {
        let c = collection_with_points(300);
        let f = Filter::geo_box(0.0, -0.3, 0.3, 0.0);
        let q = unit(0.2);
        let exact = c
            .search_planned(
                &q,
                &SearchParams::top_k(5)
                    .with_filter(f.clone())
                    .with_strategy(SearchStrategy::Exact),
            )
            .unwrap();
        assert_eq!(exact.executed, ExecutedStrategy::ExactScan);
        let hnsw = c
            .search_planned(
                &q,
                &SearchParams::top_k(5)
                    .with_filter(f.clone())
                    .with_strategy(SearchStrategy::Hnsw),
            )
            .unwrap();
        assert_eq!(hnsw.executed, ExecutedStrategy::FilteredHnsw);
        assert_eq!(exact.qualifying, c.filter_ids(&f).len());
        // Same answer set (equidistant ties may order differently).
        let mut a: Vec<_> = exact.hits.iter().map(|p| p.id).collect();
        let mut b: Vec<_> = hnsw.hits.iter().map(|p| p.id).collect();
        assert_eq!(a[0], b[0]);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn auto_strategy_reports_heuristic_choice() {
        let c = collection_with_points(500);
        // ~10 qualifying points out of 500 → below the 0.10 threshold.
        let narrow = Filter::geo_box(0.0, -0.010, 0.010, 0.0);
        let p = c
            .search_planned(&unit(0.0), &SearchParams::top_k(3).with_filter(narrow))
            .unwrap();
        assert_eq!(p.executed, ExecutedStrategy::ExactScan);
        // No filter → every point qualifies → HNSW.
        let p = c
            .search_planned(&unit(0.0), &SearchParams::top_k(3))
            .unwrap();
        assert_eq!(p.executed, ExecutedStrategy::FilteredHnsw);
        assert_eq!(p.qualifying, 500);
    }

    #[test]
    fn knn_among_scores_candidate_subset() {
        let c = collection_with_points(100);
        let ids: Vec<PointId> = vec![10, 20, 30, 999]; // 999 unknown → skipped
        let r = c.knn_among(&unit(0.2), &ids, 2).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].id, 20); // angle 0.20 exactly
        assert!(r[0].score >= r[1].score);
        // Wrong-length queries are rejected, not silently mis-scored.
        assert!(matches!(
            c.knn_among(&[1.0, 2.0, 3.0], &ids, 2),
            Err(VecDbError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn k_zero_returns_empty() {
        let c = collection_with_points(10);
        assert!(c
            .search(&unit(0.0), &SearchParams::top_k(0))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn search_batch_matches_sequential_search() {
        let c = collection_with_points(300);
        let owned: Vec<Vec<f32>> = (0..17).map(|i| unit(i as f32 * 0.13)).collect();
        let queries: Vec<&[f32]> = owned.iter().map(Vec::as_slice).collect();
        let filters = [
            None,
            Some(Filter::MatchKeyword {
                key: "city".to_owned(),
                value: "A".to_owned(),
            }),
        ];
        for filter in filters {
            for strategy in [
                SearchStrategy::Auto,
                SearchStrategy::Exact,
                SearchStrategy::Hnsw,
            ] {
                let mut params = SearchParams::top_k(7).with_strategy(strategy);
                if let Some(f) = filter.clone() {
                    params = params.with_filter(f);
                }
                let batched = c.search_batch(&queries, &params).unwrap();
                assert_eq!(batched.len(), queries.len());
                for (q, b) in queries.iter().zip(&batched) {
                    let single = c.search_planned(q, &params).unwrap();
                    assert_eq!(b.hits, single.hits, "{strategy:?}");
                    assert_eq!(b.executed, single.executed);
                    assert_eq!(b.qualifying, single.qualifying);
                }
            }
        }
    }

    #[test]
    fn search_batch_handles_ties_like_sequential() {
        // Identical vectors → identical scores; the batched exact scan
        // must keep the stable insertion-order tie-break of the
        // sequential path.
        let mut c = Collection::new(CollectionConfig::new(2));
        for id in 0..6u64 {
            c.insert(id, vec![1.0, 0.0], Payload::new()).unwrap();
        }
        let params = SearchParams::top_k(4).with_strategy(SearchStrategy::Exact);
        let queries: [&[f32]; 2] = [&[1.0, 0.0], &[0.6, 0.8]];
        let batched = c.search_batch(&queries, &params).unwrap();
        for (q, b) in queries.iter().zip(&batched) {
            assert_eq!(b.hits, c.search(q, &params).unwrap());
        }
        assert_eq!(
            batched[0].hits.iter().map(|h| h.id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn search_batch_empty_inputs() {
        let c = collection_with_points(10);
        assert!(c
            .search_batch(&[], &SearchParams::top_k(3))
            .unwrap()
            .is_empty());
        let empty = Collection::new(CollectionConfig::new(2));
        let q = unit(0.1);
        let out = empty
            .search_batch(&[q.as_slice()], &SearchParams::top_k(3))
            .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].hits.is_empty());
        assert!(matches!(
            c.search_batch(&[&[1.0, 2.0, 3.0]], &SearchParams::top_k(1)),
            Err(VecDbError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn knn_among_batch_matches_sequential() {
        let c = collection_with_points(120);
        let ids: Vec<PointId> = (0..120).step_by(2).chain([999]).collect();
        let owned: Vec<Vec<f32>> = (0..9).map(|i| unit(0.07 * i as f32)).collect();
        let queries: Vec<&[f32]> = owned.iter().map(Vec::as_slice).collect();
        let batched = c.knn_among_batch(&queries, &ids, 5).unwrap();
        for (q, b) in queries.iter().zip(&batched) {
            assert_eq!(b, &c.knn_among(q, &ids, 5).unwrap());
        }
        assert!(matches!(
            c.knn_among_batch(&[&[0.0f32; 3] as &[f32]], &ids, 5),
            Err(VecDbError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn query_dim_checked() {
        let c = collection_with_points(10);
        assert!(matches!(
            c.search(&[1.0, 2.0, 3.0], &SearchParams::top_k(1)),
            Err(VecDbError::DimensionMismatch { .. })
        ));
    }
}
