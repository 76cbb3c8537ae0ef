//! Workload inputs, all derived from the workload seed.
//!
//! The program under test receives only what these generators produce:
//! query shapes from `datagen::queries::generate_queries` on the metro,
//! request streams drawn from them, and a mutation stream whose POI specs
//! come from a second `generate_metro` seed.

use std::sync::Arc;

use datagen::queries::{generate_queries, QueryGenConfig};
use datagen::{CityData, MetroConfig, METRO};
use geotext::{BoundingBox, GeoPoint, ObjectId};
use semask::query::SemaSkQuery;
use semask::wal::{Mutation, PoiSpec, PoiUpdate};

use crate::rng::{stream, Rng, Zipf};

/// Paper-shaped query shapes generated per range size.
pub const SHAPES_PER_RANGE: usize = 256;
/// Share of `wire_zipf` requests drawn from the Zipf-ranked hot set; the
/// rest are cold (their range is jittered, so the result cache misses).
pub const HOT_SHARE: f64 = 0.5;
/// Shapes in the hot set, and the Zipf exponent over their ranks.
pub const HOT_SHAPES: usize = 64;
pub const ZIPF_S: f64 = 1.0;
/// Share of pool shapes that carry a keyword filter, and the share of
/// those whose token is out of vocabulary.
pub const KEYWORD_SHARE: f64 = 0.25;
pub const OOV_SHARE: f64 = 1.0 / 3.0;
/// Share of `scan_unique` requests over the whole metro; the rest use
/// 10 km boxes.
pub const BROAD_SHARE: f64 = 0.25;
/// The slots of one mutation batch: 5 inserts, 2 updates, 1 delete.
const BATCH: [Op; 8] = [
    Op::Insert,
    Op::Insert,
    Op::Update,
    Op::Insert,
    Op::Insert,
    Op::Update,
    Op::Insert,
    Op::Delete,
];

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Insert,
    Update,
    Delete,
}

/// One query shape from `generate_queries`, with its ground truth.
#[derive(Clone)]
pub struct Shape {
    /// The shape without a keyword filter (what quality is scored on).
    pub query: SemaSkQuery,
    /// The keyword filter this shape carries in request streams.
    pub keywords: Option<String>,
    pub truth: Vec<ObjectId>,
}

impl Shape {
    pub fn request(&self) -> SemaSkQuery {
        match &self.keywords {
            Some(kw) => self.query.clone().with_keywords(kw.clone()),
            None => self.query.clone(),
        }
    }
}

/// The paper's 5 km query boxes and 2 km boxes over the metro, a quarter
/// of them with keyword filters (a third of those out of vocabulary).
pub fn shapes(data: &CityData, seed: u64) -> Vec<Shape> {
    let mut rng = Rng::new(stream(seed, 1));
    let mut out = Vec::new();
    for (i, range_km) in [5.0, 2.0].into_iter().enumerate() {
        let config = QueryGenConfig {
            per_city: SHAPES_PER_RANGE,
            range_km,
            seed: stream(seed, 10 + i as u64),
            ..QueryGenConfig::default()
        };
        for q in generate_queries(data, &config) {
            let keywords = if rng.unit() < KEYWORD_SHARE {
                if rng.unit() < OOV_SHARE {
                    Some(oov_token(&mut rng))
                } else {
                    category_token(data, q.target)
                }
            } else {
                None
            };
            out.push(Shape {
                query: SemaSkQuery::new(q.range, q.text),
                keywords,
                truth: q.answers,
            });
        }
    }
    out
}

/// A letters-only token no generated corpus contains.
fn oov_token(rng: &mut Rng) -> String {
    const LETTERS: &[u8] = b"qxzjvkw";
    (0..9)
        .map(|_| LETTERS[rng.below(LETTERS.len())] as char)
        .collect()
}

/// A word from the target POI's categories, so the filter can match.
fn category_token(data: &CityData, target: ObjectId) -> Option<String> {
    let obj = data.dataset.get(target)?;
    let categories = obj.attrs.get("categories")?.as_list()?;
    categories
        .iter()
        .flat_map(|c| c.split(|ch: char| !ch.is_alphabetic()))
        .find(|w| w.len() >= 4)
        .map(str::to_lowercase)
}

/// The request stream of one client thread.
pub enum Stream {
    /// `wire_zipf`: hot shapes by Zipf rank, or a cold shape with a
    /// jittered range.
    Zipf {
        shapes: Arc<Vec<Shape>>,
        hot: Vec<usize>,
        zipf: Zipf,
    },
    /// `scan_unique`: a unique text over a 10 km box or the whole metro.
    Unique { shapes: Arc<Vec<Shape>>, tag: u64 },
    /// `churn` reads: a keyword-free shape with a jittered range, so
    /// answers come from the engine rather than the result cache.
    Cold { shapes: Arc<Vec<Shape>> },
}

pub struct RequestGen {
    stream: Stream,
    rng: Rng,
    issued: u64,
}

impl RequestGen {
    pub fn new(stream: Stream, seed: u64) -> Self {
        Self {
            stream,
            rng: Rng::new(seed),
            issued: 0,
        }
    }

    pub fn zipf(shapes: &Arc<Vec<Shape>>, seed: u64, thread: u64) -> Self {
        // Every thread shares one hot set; only its draws differ.
        let mut perm = Rng::new(stream(seed, 2)).permutation(shapes.len());
        perm.truncate(HOT_SHAPES);
        Self::new(
            Stream::Zipf {
                shapes: Arc::clone(shapes),
                zipf: Zipf::new(perm.len(), ZIPF_S),
                hot: perm,
            },
            stream(seed, 100 + thread),
        )
    }

    pub fn unique(shapes: &Arc<Vec<Shape>>, seed: u64, thread: u64) -> Self {
        Self::new(
            Stream::Unique {
                shapes: Arc::clone(shapes),
                tag: thread,
            },
            stream(seed, 200 + thread),
        )
    }

    pub fn cold(shapes: &Arc<Vec<Shape>>, seed: u64, thread: u64) -> Self {
        Self::new(
            Stream::Cold {
                shapes: Arc::clone(shapes),
            },
            stream(seed, 300 + thread),
        )
    }

    pub fn next_query(&mut self) -> SemaSkQuery {
        self.issued += 1;
        let rng = &mut self.rng;
        match &self.stream {
            Stream::Zipf { shapes, hot, zipf } => {
                if rng.unit() < HOT_SHARE {
                    shapes[hot[zipf.sample(rng)]].request()
                } else {
                    let mut q = shapes[rng.below(shapes.len())].request();
                    q.range = jitter(&q.range, rng);
                    q
                }
            }
            Stream::Unique { shapes, tag } => {
                let text = format!(
                    "{} (ref {tag}-{})",
                    shapes[rng.below(shapes.len())].query.text,
                    self.issued
                );
                let range = if rng.unit() < BROAD_SHARE {
                    broad_box()
                } else {
                    let c = METRO
                        .center()
                        .offset_km(rng.range(-6.0, 6.0), rng.range(-6.0, 6.0));
                    BoundingBox::from_center_km(c, 10.0, 10.0)
                };
                SemaSkQuery::new(range, text)
            }
            Stream::Cold { shapes } => {
                let mut q = shapes[rng.below(shapes.len())].query.clone();
                q.range = jitter(&q.range, rng);
                q
            }
        }
    }
}

/// The whole metro: every district fits inside 24 km x 24 km.
pub fn broad_box() -> BoundingBox {
    BoundingBox::from_center_km(METRO.center(), 24.0, 24.0)
}

/// Moves a range's centre by up to 1 km each way, keeping its size.
fn jitter(range: &BoundingBox, rng: &mut Rng) -> BoundingBox {
    let (w, h) = range.extent_km();
    let center = range
        .center()
        .offset_km(rng.range(-1.0, 1.0), rng.range(-1.0, 1.0));
    BoundingBox::from_center_km(center, w, h)
}

/// A small box around a point, for reading back one POI.
pub fn probe_box(lat: f64, lon: f64) -> BoundingBox {
    BoundingBox::from_center_km(GeoPoint::new_unchecked(lat, lon), 0.2, 0.2)
}

/// One mutation batch with what the output checks need to know.
pub struct PlannedBatch {
    pub mutations: Vec<Mutation>,
    /// `(expected id, spec)` of each insert: ids are dense and assigned
    /// in submission order, and one writer submits them all.
    pub inserts: Vec<(u32, PoiSpec)>,
    /// `(id, lat, lon, name)` of each delete.
    pub deletes: Vec<(u32, f64, f64, String)>,
}

/// A seeded mutation stream: per batch of 8, five inserts, two updates
/// (new tips, so summarize and re-embed run) and one delete. Update and
/// delete targets are distinct base POIs.
pub fn mutation_plan(data: &CityData, batches: usize, seed: u64) -> Vec<PlannedBatch> {
    let base_len = data.dataset.len();
    // Inserts take a spec, updates a spec's tips.
    let needed = batches * BATCH.iter().filter(|&&op| op != Op::Delete).count();
    let source = datagen::generate_metro(&MetroConfig::new(needed, stream(seed, 7)));
    let mut rng = Rng::new(stream(seed, 8));
    let specs: Vec<PoiSpec> = rng
        .permutation(source.dataset.len())
        .into_iter()
        .map(|i| {
            let obj = &source.dataset.objects()[i];
            let list = |key: &str| {
                obj.attrs
                    .get(key)
                    .and_then(|v| v.as_list())
                    .map(<[String]>::to_vec)
                    .unwrap_or_default()
            };
            PoiSpec {
                name: obj.name().to_owned(),
                lat: obj.location.lat,
                lon: obj.location.lon,
                categories: list("categories"),
                tips: list("tips"),
            }
        })
        .collect();
    let mut specs = specs.into_iter();
    let mut targets = rng.permutation(base_len).into_iter();
    let mut next_id = base_len as u32;
    (0..batches)
        .map(|_| {
            let mut batch = PlannedBatch {
                mutations: Vec::with_capacity(BATCH.len()),
                inserts: Vec::new(),
                deletes: Vec::new(),
            };
            for op in BATCH {
                match op {
                    Op::Update => {
                        let id = targets.next().expect("enough base POIs") as u32;
                        let tips = specs.next().expect("enough specs").tips;
                        batch.mutations.push(Mutation::Update {
                            id,
                            update: PoiUpdate {
                                name: None,
                                tips: Some(tips),
                            },
                        });
                    }
                    Op::Delete => {
                        let id = targets.next().expect("enough base POIs") as u32;
                        let obj = &data.dataset.objects()[id as usize];
                        batch.deletes.push((
                            id,
                            obj.location.lat,
                            obj.location.lon,
                            obj.name().to_owned(),
                        ));
                        batch.mutations.push(Mutation::Delete { id });
                    }
                    Op::Insert => {
                        let spec = specs.next().expect("enough specs");
                        batch.inserts.push((next_id, spec.clone()));
                        batch.mutations.push(Mutation::Insert(spec));
                        next_id += 1;
                    }
                }
            }
            batch
        })
        .collect()
}
