//! Set-up: one seeded metro, prepared and served exactly as the
//! repository's public entry points do it.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use datagen::{CityData, MetroConfig};
use llm::SimLlm;
use semask::clock::SystemClock;
use semask::retrieval::RetrievalStrategy;
use semask::{
    prepare_city_with_threads, CheckpointPolicy, DurableEngine, PreparedCity, SemaSkConfig,
    SemaSkEngine, Variant,
};
use semask_net::{NetHandler, ServeServer, ServerConfig};
use semask_serve::{BatchExecutor, ServeConfig, ServeEngine};
use vecdb::ScoringTier;

/// Worker threads for prep: the host's two cores.
pub const PREP_THREADS: usize = 2;

/// The metro serving configuration. The world is smaller than
/// `vecdb::AUTO_QUANT_THRESHOLD`, so the quantized-first tier that `Auto`
/// turns on at metro scale is selected explicitly, with the compressed
/// payload tier the metro bench serves with.
pub fn semask_config() -> SemaSkConfig {
    SemaSkConfig {
        scoring_tier: ScoringTier::Quantized {
            rerank_factor: ScoringTier::DEFAULT_RERANK_FACTOR,
        },
        compress_payload_text: true,
        ..SemaSkConfig::default()
    }
}

/// The front door every workload reads through: result and negative
/// caches on, filter and refine pipelined one flush deep.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        pipeline_depth: 1,
        result_cache_entries: 1024,
        negative_cache: true,
        ..ServeConfig::default()
    }
}

/// What serves the queries: the in-memory engine or its durable wrapper.
#[derive(Clone)]
pub enum Executor {
    Memory(Arc<SemaSkEngine>),
    Durable(Arc<DurableEngine>),
}

impl Executor {
    pub fn engine(&self) -> &SemaSkEngine {
        match self {
            Executor::Memory(engine) => engine,
            Executor::Durable(durable) => durable.engine(),
        }
    }

    pub fn batch_executor(&self) -> Arc<dyn BatchExecutor> {
        match self {
            Executor::Memory(engine) => Arc::clone(engine) as Arc<dyn BatchExecutor>,
            Executor::Durable(durable) => Arc::clone(durable) as Arc<dyn BatchExecutor>,
        }
    }

    pub fn durable(&self) -> Option<&Arc<DurableEngine>> {
        match self {
            Executor::Memory(_) => None,
            Executor::Durable(durable) => Some(durable),
        }
    }
}

/// What one set-up builds.
pub struct WorldSpec<'a> {
    pub pois: usize,
    pub seed: u64,
    pub variant: Variant,
    /// Serve over loopback TCP as well as in process.
    pub wire: bool,
    /// Wrap the engine in a `DurableEngine` logging into this directory.
    pub durable_dir: Option<&'a Path>,
}

/// A prepared, served metro.
pub struct World {
    pub data: CityData,
    pub llm: Arc<SimLlm>,
    pub executor: Executor,
    pub serve: Arc<ServeEngine>,
    pub server: Option<ServeServer>,
    durable_dir: Option<PathBuf>,
}

impl World {
    pub fn prepared(&self) -> &PreparedCity {
        self.executor.engine().prepared()
    }

    /// Stops the server and the serving engine, waits for their threads,
    /// and removes the durable directory.
    pub fn teardown(mut self) {
        if let Some(server) = self.server.as_mut() {
            server.shutdown();
        }
        self.serve.shutdown();
        drop(self.server.take());
        if let Some(dir) = self.durable_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Builds a world and returns it with its set-up time in seconds: world
/// generation, prep, planner build, forced lazy builds, the durable
/// baseline snapshot and the server bind.
pub fn setup(spec: &WorldSpec<'_>) -> (World, f64) {
    let t0 = Instant::now();
    let data = datagen::generate_metro(&MetroConfig::new(spec.pois, spec.seed));
    let llm = Arc::new(SimLlm::new());
    let config = semask_config();
    let prepared = prepare_city_with_threads(&data, &llm, &config, PREP_THREADS)
        .expect("prep of a generated metro succeeds");
    // Lazy structures the first query would otherwise pay for.
    let _ = prepared.planner.backend(RetrievalStrategy::IrTree);
    let _ = prepared.planner.provably_empty("warmup");
    let engine = SemaSkEngine::new(Arc::new(prepared), Arc::clone(&llm), config, spec.variant);
    let executor = match spec.durable_dir {
        None => Executor::Memory(Arc::new(engine)),
        Some(dir) => Executor::Durable(Arc::new(
            DurableEngine::create(engine, dir, CheckpointPolicy::default())
                .expect("durable engine in the work directory"),
        )),
    };
    let serve = Arc::new(ServeEngine::with_parts(
        executor.batch_executor(),
        Arc::new(SystemClock::new()),
        serve_config(),
    ));
    let server = spec
        .wire
        .then(|| bind(Arc::clone(&serve) as Arc<dyn NetHandler>));
    let seconds = t0.elapsed().as_secs_f64();
    let world = World {
        data,
        llm,
        executor,
        serve,
        server,
        durable_dir: spec.durable_dir.map(Path::to_path_buf),
    };
    (world, seconds)
}

/// Binds a loopback server on an ephemeral port.
pub fn bind(handler: Arc<dyn NetHandler>) -> ServeServer {
    ServeServer::bind("127.0.0.1:0", handler, ServerConfig::default())
        .expect("binding a loopback port")
}
