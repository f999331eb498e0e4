//! Determinism contract of the continuous-profiling layer.
//!
//! The pinned invariant: a profile's *shape* — the set of stack paths,
//! their invocation counts and byte weights, and the per-stage rollup —
//! is bit-identical for the same workload at any thread count and with
//! the metrics registry live or disabled. Timings are explicitly
//! outside the contract; the shape exports carry none. And with the
//! tracer disabled, the whole layer stays a clock-free no-op.
//!
//! Three workloads — fleet evaluation, warm-store serve batches, and
//! ingest + replay — additionally run at a pinned sizing whose shapes
//! (`tests/golden/profile_*.shape.json`) and outcome counts are fixed:
//! an extra fit, a lost cache hit or a changed seal count is a shape
//! change, and fails here before it can hide in a timing.

use std::path::PathBuf;

use vehicle_usage_prediction::bench::{evaluable_ids, small_fleet};
use vehicle_usage_prediction::core::fleet_eval::{evaluate_fleet_traced, FleetEvaluation};
use vehicle_usage_prediction::ingest::IngestStats;
use vehicle_usage_prediction::obs::{Profile, ProfileWeight};
use vehicle_usage_prediction::prelude::*;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vup-profiling-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_pipeline() -> PipelineConfig {
    PipelineConfig {
        scenario: Scenario::NextDay,
        train_window: 40,
        max_lag: 10,
        k: 5,
        model: ModelSpec::Baseline(BaselineSpec::LastValue),
        retrain_every: 5,
        ..PipelineConfig::default()
    }
}

/// How big a profiled workload is.
struct Sizing {
    fleet: Fleet,
    config: PipelineConfig,
    /// Vehicles a serve batch requests (ids `0..vehicles`), or the
    /// evaluable vehicles a fleet evaluation picks.
    vehicles: usize,
    /// Serve batches over the same requests; the first one is cold.
    batches: usize,
    /// Serve request horizon.
    horizon: usize,
    /// What is streamed into a replay's commit log.
    stream: StreamConfig,
}

/// The small sizing of the invariance tests.
fn small_sizing(fleet: Fleet) -> Sizing {
    Sizing {
        fleet,
        config: small_pipeline(),
        vehicles: 8,
        batches: 2,
        horizon: 2,
        stream: StreamConfig {
            start_offset: 0,
            days: 60,
            dropout: vup_fleetsim::dropout::DropoutConfig::none(),
            shift: None,
        },
    }
}

/// The pinned sizing: the experiment fleet (`fleet_vehicles` of it)
/// under a linear model, 1 cold + 3 warm batches of 10 vehicles, and 90
/// days of telemetry with the default dropout.
fn pinned_sizing(fleet_vehicles: usize) -> Sizing {
    Sizing {
        fleet: small_fleet(fleet_vehicles),
        config: PipelineConfig {
            model: ModelSpec::Learned(RegressorSpec::Linear),
            train_window: 120,
            max_lag: 30,
            k: 10,
            retrain_every: 7,
            ..PipelineConfig::default()
        },
        vehicles: 10,
        batches: 4,
        horizon: 3,
        stream: StreamConfig {
            start_offset: 0,
            days: 90,
            dropout: Default::default(),
            shift: None,
        },
    }
}

/// The deterministic face of a profile: everything the contract covers.
fn shape(profile: &Profile) -> (String, String, String) {
    (
        profile.to_shape_json(),
        profile.to_collapsed(ProfileWeight::Count),
        profile.to_collapsed(ProfileWeight::Bytes),
    )
}

/// Runs the serve batches of `sizing` and profiles them; also returns
/// how many models the store holds afterwards.
fn serve_profile(sizing: &Sizing, threads: usize, live_registry: bool) -> (Profile, usize) {
    let registry = if live_registry {
        Registry::new()
    } else {
        Registry::disabled()
    };
    let tracer = Tracer::new();
    let service =
        PredictionService::new_observed(&sizing.fleet, sizing.config.clone(), threads, &registry)
            .unwrap()
            .with_tracer(tracer.clone());
    let requests: Vec<BatchRequest> = (0..sizing.vehicles as u32)
        .map(|id| BatchRequest {
            vehicle_id: VehicleId(id),
            horizon: sizing.horizon,
        })
        .collect();
    for _ in 0..sizing.batches {
        service.serve_batch(&requests, None);
    }
    (
        Profile::from_snapshot(&tracer.snapshot()),
        service.store().len(),
    )
}

#[test]
fn serve_batch_profile_shape_is_invariant_across_threads_and_registry() {
    let sizing = small_sizing(Fleet::generate(FleetConfig::small(8, 11)));
    let (baseline, _) = serve_profile(&sizing, 1, false);
    assert!(!baseline.truncated);
    assert!(baseline.spans > 0);
    // The canonical stages this workload exercises, with real weights.
    assert_eq!(baseline.stage("view_build").unwrap().count, 16);
    assert!(baseline.stage("view_build").unwrap().bytes > 0);
    assert_eq!(baseline.stage("predict").unwrap().count, 16);
    assert_eq!(
        baseline.stage("fit").unwrap().count,
        8,
        "second batch hits the cache"
    );
    // The elided per-worker frames never appear as stack nodes.
    assert!(baseline
        .nodes
        .iter()
        .all(|n| !n.stack.contains("executor_worker")));

    let want = shape(&baseline);
    for threads in [1, 2, 4] {
        for live_registry in [false, true] {
            let (profile, _) = serve_profile(&sizing, threads, live_registry);
            assert_eq!(
                shape(&profile),
                want,
                "shape diverged at threads={threads} live_registry={live_registry}"
            );
        }
    }
}

/// Streams `sizing`'s telemetry into a fresh commit log under `dir`.
fn stream_log(dir: &std::path::Path, sizing: &Sizing) -> IngestStats {
    let (mut log, _) = CommitLog::open(
        Box::new(DiskBackend),
        dir,
        LogOptions::default(),
        &Registry::disabled(),
        &Tracer::disabled(),
    )
    .unwrap();
    ingest_stream(&mut log, &sizing.fleet, &sizing.stream).unwrap()
}

/// Recovers the commit log under `dir` and profiles its replay.
fn replay_profile(
    dir: &std::path::Path,
    sizing: &Sizing,
    threads: usize,
) -> (Profile, ReplayReport) {
    let tracer = Tracer::new();
    let (log, _) = CommitLog::open(
        Box::new(DiskBackend),
        dir,
        LogOptions::default(),
        &Registry::disabled(),
        &tracer,
    )
    .unwrap();
    let records = log.records().unwrap();
    assert!(!records.is_empty());
    let config = ReplayConfig::new(sizing.config.clone(), MonitorConfig::default(), threads);
    let report = replay(
        &records,
        &sizing.fleet,
        &config,
        &Registry::disabled(),
        &tracer,
    )
    .unwrap();
    (Profile::from_snapshot(&tracer.snapshot()), report)
}

#[test]
fn replay_profile_shape_is_invariant_across_threads() {
    let sizing = small_sizing(Fleet::generate(FleetConfig::small(3, 2024)));
    let dir = temp_dir("replay");
    stream_log(&dir, &sizing);

    let (baseline, _) = replay_profile(&dir, &sizing, 1);
    assert!(!baseline.truncated);
    // Replay exercises the streaming stages: log recovery (persist) and
    // sealing, both with byte weights from real payload sizes.
    assert!(baseline.stage("persist").unwrap().bytes > 0);
    assert!(baseline.stage("ingest_seal").unwrap().count > 0);
    assert!(baseline.stage("ingest_seal").unwrap().bytes > 0);

    let want = shape(&baseline);
    for threads in [2, 4] {
        assert_eq!(
            shape(&replay_profile(&dir, &sizing, threads).0),
            want,
            "replay shape diverged at threads={threads}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Evaluates `sizing.vehicles` evaluable vehicles of the fleet and
/// profiles the run.
fn eval_profile(sizing: &Sizing, threads: usize) -> (Profile, FleetEvaluation) {
    let ids = evaluable_ids(
        &sizing.fleet,
        &sizing.config,
        sizing.config.scenario,
        sizing.vehicles,
    );
    let tracer = Tracer::new();
    let (evaluation, _) = evaluate_fleet_traced(
        &sizing.fleet,
        &ids,
        &sizing.config,
        threads,
        &Registry::disabled(),
        &tracer,
    );
    (Profile::from_snapshot(&tracer.snapshot()), evaluation)
}

#[test]
fn fleet_eval_profile_shape_and_counts_are_pinned_across_threads() {
    let sizing = Sizing {
        vehicles: 6,
        ..pinned_sizing(12)
    };
    for threads in [1, 2, 4] {
        let (profile, evaluation) = eval_profile(&sizing, threads);
        assert_eq!(
            profile.to_shape_json(),
            include_str!("golden/profile_fleet_eval.shape.json"),
            "threads={threads}"
        );
        assert_eq!(profile.spans, 437, "threads={threads}");
        assert_eq!(
            (evaluation.evaluated, evaluation.skipped),
            (6, 0),
            "threads={threads}"
        );
    }
}

#[test]
fn serve_batch_profile_shape_and_counts_are_pinned_across_threads() {
    let sizing = pinned_sizing(10);
    for threads in [1, 2, 4] {
        let (profile, cached) = serve_profile(&sizing, threads, false);
        assert_eq!(
            profile.to_shape_json(),
            include_str!("golden/profile_serve_batch.shape.json"),
            "threads={threads}"
        );
        assert_eq!(profile.spans, 112, "threads={threads}");
        assert_eq!(cached, 10, "threads={threads}");
        assert_eq!(profile.stage("view_build").unwrap().bytes, 5_175_872);
    }
}

#[test]
fn ingest_replay_profile_shape_and_counts_are_pinned_across_threads() {
    let sizing = pinned_sizing(8);
    let dir = temp_dir("pinned-replay");
    let stats = stream_log(&dir, &sizing);
    assert_eq!(stats.records_appended, 7_823);
    for threads in [1, 2, 4] {
        let (profile, report) = replay_profile(&dir, &sizing, threads);
        assert_eq!(
            profile.to_shape_json(),
            include_str!("golden/profile_ingest_replay.shape.json"),
            "threads={threads}"
        );
        assert_eq!(profile.spans, 79, "threads={threads}");
        assert_eq!(
            (
                report.records_replayed,
                report.slots_sealed,
                report.decisions.len()
            ),
            (7_823, 313, 0),
            "threads={threads}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disabled_tracer_keeps_the_whole_layer_a_no_op() {
    let fleet = Fleet::generate(FleetConfig::small(4, 11));
    let tracer = Tracer::disabled();
    let service =
        PredictionService::new_observed(&fleet, small_pipeline(), 2, &Registry::disabled())
            .unwrap()
            .with_tracer(tracer.clone());
    let requests: Vec<BatchRequest> = (0..4)
        .map(|id| BatchRequest {
            vehicle_id: VehicleId(id),
            horizon: 2,
        })
        .collect();
    service.serve_batch(&requests, None);
    let snapshot = tracer.snapshot();
    assert!(snapshot.events.is_empty());
    assert_eq!(snapshot.dropped, 0);
    let profile = Profile::from_snapshot(&snapshot);
    assert_eq!(profile.spans, 0);
    assert!(profile.nodes.is_empty());
    assert!(profile.stages.is_empty());
    assert!(!profile.truncated);
    assert_eq!(profile.to_collapsed(ProfileWeight::Count), "");

    // Publishing trace health off a disabled tracer still registers the
    // metrics (at zero) so dashboards keep their series.
    let registry = Registry::new();
    tracer.publish_metrics(&registry);
    let text = registry.snapshot().to_prometheus_text();
    assert!(text.contains("vup_trace_dropped_total 0"));
    assert!(text.contains("vup_trace_ring_capacity 0"));
}

#[test]
fn saturated_ring_truncates_the_profile_and_counts_drops() {
    let tracer = Tracer::with_capacity(4);
    let service_like_load = 16;
    for _ in 0..service_like_load {
        tracer.root("view_build").end();
    }
    let profile = Profile::from_snapshot(&tracer.snapshot());
    assert!(profile.truncated);
    assert_eq!(profile.dropped, service_like_load - 4);
    // The drop surfaces through the metrics registry too — and only
    // once, no matter how often it is published.
    let registry = Registry::new();
    tracer.publish_metrics(&registry);
    tracer.publish_metrics(&registry);
    let samples = vehicle_usage_prediction::obs::parse_prometheus_text(
        &registry.snapshot().to_prometheus_text(),
    )
    .unwrap();
    let value = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.value)
            .unwrap()
    };
    assert_eq!(
        value("vup_trace_dropped_total"),
        (service_like_load - 4) as f64
    );
    assert_eq!(value("vup_trace_ring_high_watermark"), 4.0);
    assert_eq!(value("vup_trace_ring_capacity"), 4.0);
}
