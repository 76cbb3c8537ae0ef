//! Output checks and the references answers are scored against.

use std::collections::HashSet;

use geotext::{BoundingBox, ObjectId};
use semask::eval::f1_at_k;
use semask::query::QueryOutcome;
use semask::PreparedCity;

/// Where every POI id the run can see lives: the base metro plus every
/// insert the mutation stream will make (updates never move a POI).
pub struct Locations(Vec<(f64, f64)>);

impl Locations {
    pub fn new(
        prepared: &PreparedCity,
        inserts: impl IntoIterator<Item = (u32, f64, f64)>,
    ) -> Self {
        let mut points: Vec<(f64, f64)> = prepared
            .dataset
            .iter()
            .map(|o| (o.location.lat, o.location.lon))
            .collect();
        for (id, lat, lon) in inserts {
            let id = id as usize;
            if points.len() <= id {
                points.resize(id + 1, (f64::NAN, f64::NAN));
            }
            points[id] = (lat, lon);
        }
        Self(points)
    }

    fn get(&self, id: ObjectId) -> Option<(f64, f64)> {
        self.0.get(id.index()).copied().filter(|p| !p.0.is_nan())
    }

    /// POIs of the base metro or planned inserts inside `range`.
    pub fn count_in(&self, range: &BoundingBox) -> usize {
        self.0
            .iter()
            .filter(|&&(lat, lon)| inside(range, lat, lon))
            .count()
    }
}

fn inside(range: &BoundingBox, lat: f64, lon: f64) -> bool {
    lat >= range.min_lat && lat <= range.max_lat && lon >= range.min_lon && lon <= range.max_lon
}

/// Checks one successful answer: at most `k` POIs, unique ids, and every
/// POI a known id inside the query range.
pub fn check_outcome(
    range: &BoundingBox,
    outcome: &QueryOutcome,
    k: usize,
    locations: &Locations,
) -> Result<(), String> {
    if outcome.pois.len() > k {
        return Err(format!("{} POIs returned for k = {k}", outcome.pois.len()));
    }
    let mut seen = HashSet::with_capacity(outcome.pois.len());
    for poi in &outcome.pois {
        if !seen.insert(poi.id) {
            return Err(format!("POI {} returned twice", poi.id.0));
        }
        match locations.get(poi.id) {
            None => return Err(format!("POI {} is not a known id", poi.id.0)),
            Some((lat, lon)) if !inside(range, lat, lon) => {
                return Err(format!(
                    "POI {} at ({lat}, {lon}) lies outside the range",
                    poi.id.0
                ))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// Exact top-k by cosine similarity over the live points of the served
/// collection, with positions from their payloads. Captured once; the
/// scoring is the benchmark's own, independent of every search path.
pub struct Reference {
    points: Vec<(u32, f64, f64, Vec<f32>, f32)>,
}

impl Reference {
    pub fn capture(prepared: &PreparedCity) -> Self {
        let handle = prepared
            .db
            .collection(&prepared.collection_name)
            .expect("the prepared collection exists");
        let guard = handle.read();
        let points = guard
            .iter_points()
            .map(|(id, vector, payload)| {
                let lat = payload.get_f64("lat").expect("payload carries lat");
                let lon = payload.get_f64("lon").expect("payload carries lon");
                (id as u32, lat, lon, vector.to_vec(), norm(vector))
            })
            .collect();
        Self { points }
    }

    pub fn top_k(&self, query: &[f32], range: &BoundingBox, k: usize) -> Vec<u32> {
        let qn = norm(query);
        let mut scored: Vec<(f32, u32)> = self
            .points
            .iter()
            .filter(|p| inside(range, p.1, p.2))
            .map(|p| {
                let dot: f32 = p.3.iter().zip(query).map(|(a, b)| a * b).sum();
                (dot / (p.4 * qn).max(f32::MIN_POSITIVE), p.0)
            })
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.into_iter().take(k).map(|(_, id)| id).collect()
    }
}

fn norm(v: &[f32]) -> f32 {
    v.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// Share of the reference ids the answer contains (1 for an empty
/// reference).
pub fn recall(returned: &[ObjectId], reference: &[u32]) -> f64 {
    if reference.is_empty() {
        return 1.0;
    }
    let got: HashSet<u32> = returned.iter().map(|id| id.0).collect();
    reference.iter().filter(|id| got.contains(id)).count() as f64 / reference.len() as f64
}

/// The paper's Table-2 F1@k of the recommended answers.
pub fn f1(outcome: &QueryOutcome, truth: &[ObjectId], k: usize) -> f64 {
    f1_at_k(&outcome.answer_ids(), truth, k)
}
