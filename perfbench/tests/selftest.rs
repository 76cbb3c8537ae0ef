//! Smoke-size self-test of the harness on a tiny metro: every metric
//! named in `BENCHMARK.json` prints with its unit, the traced run's layer
//! self times add up to its wall time, and the output checks reject a
//! corrupted response.

use std::path::PathBuf;

use perfbench::check::{check_outcome, Locations};
use perfbench::world::{setup, WorldSpec};
use perfbench::{run, Options, Report, Workload};
use semask::query::{RankedPoi, SemaSkQuery};
use semask::Variant;
use semask_serve::api::Request;
use serde_json::Value;

const TINY_POIS: usize = 300;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn tiny(workload: Workload, trace: bool) -> Options {
    let mut opts = Options::new(workload, 11, 1.0, trace);
    opts.pois = TINY_POIS;
    opts.setups = 1;
    opts.churn_batches = 4;
    opts.out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest");
    opts
}

/// The printed line parses and carries exactly the named metrics, each
/// with its declared unit and a finite value.
fn assert_prints(report: &Report, declared: &Value) -> Value {
    assert!(report.correct, "checks failed: {:?}", report.problems);
    assert_eq!(report.failed, 0, "failed operations: {:?}", report.problems);
    let line: Value = serde_json::from_str(&report.json()).expect("result line is JSON");
    let metrics = line["metrics"].as_object().expect("metrics object");
    let declared = declared.as_array().expect("metric list");
    assert_eq!(
        metrics.len(),
        declared.len(),
        "exactly the declared metrics"
    );
    for m in declared {
        let name = m["name"].as_str().expect("name");
        let printed = metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} missing"));
        assert_eq!(
            printed["unit"].as_str(),
            m["unit"].as_str(),
            "unit of {name}"
        );
        let value = printed["value"]
            .as_f64()
            .unwrap_or_else(|| panic!("{name} is not a number"));
        assert!(value.is_finite(), "{name} = {value}");
    }
    line
}

#[test]
fn every_metric_prints_with_its_unit() {
    let bench = benchmark_json();
    for workload in Workload::ALL {
        let untraced = run(&tiny(workload, false));
        let line = assert_prints(&untraced, &bench["end_to_end"]);
        assert!(line["metrics"]["qps"]["value"].as_f64().unwrap() > 0.0);

        let traced = run(&tiny(workload, true));
        let line = assert_prints(&traced, &bench["per_layer"]);
        let value = |name: &str| line["metrics"][name]["value"].as_f64().unwrap();
        let layers: f64 = [
            "self.net_ms",
            "self.serve_ms",
            "self.engine_filter_ms",
            "self.engine_refine_ms",
            "self.durable_ms",
            "unattributed_ms",
        ]
        .iter()
        .map(|n| value(n))
        .sum();
        let wall = value("traced_wall_ms");
        assert!(wall > 0.0, "{}: traced wall time", workload.name());
        assert!(
            (layers - wall).abs() <= 1e-6 * wall.max(1.0),
            "{}: layers sum to {layers} ms, wall is {wall} ms",
            workload.name()
        );
    }
}

#[test]
fn checks_catch_a_corrupted_response() {
    let (world, _) = setup(&WorldSpec {
        pois: TINY_POIS,
        seed: 5,
        variant: Variant::EmbeddingOnly,
        wire: false,
        durable_dir: None,
    });
    let locations = Locations::new(world.prepared(), []);
    let range = perfbench::inputs::broad_box();
    let response = world
        .serve
        .submit_request(Request::new(
            1,
            SemaSkQuery::new(range, "coffee and pastries"),
        ))
        .wait();
    let good = response.outcome.expect("a served answer");
    assert!(!good.pois.is_empty());
    check_outcome(&range, &good, 10, &locations).expect("the real answer passes");

    let mut duplicated = good.clone();
    if duplicated.pois.len() >= 2 {
        duplicated.pois[1] = duplicated.pois[0].clone();
    } else {
        duplicated.pois.push(duplicated.pois[0].clone());
    }
    assert!(
        check_outcome(&range, &duplicated, 10, &locations).is_err(),
        "duplicate id"
    );

    let first = &good.pois[0];
    let narrow = perfbench::inputs::probe_box(0.0, 0.0);
    assert!(
        check_outcome(&narrow, &good, 10, &locations).is_err(),
        "POI outside the range"
    );

    let mut too_many = good.clone();
    while too_many.pois.len() <= 10 {
        let id = geotext::ObjectId(too_many.pois.len() as u32 + 100);
        too_many.pois.push(RankedPoi {
            id,
            ..first.clone()
        });
    }
    assert!(
        check_outcome(&range, &too_many, 10, &locations).is_err(),
        "more than k"
    );

    let mut unknown = good.clone();
    unknown.pois[0].id = geotext::ObjectId(u32::MAX);
    assert!(
        check_outcome(&range, &unknown, 10, &locations).is_err(),
        "unknown id"
    );

    world.teardown();
}
