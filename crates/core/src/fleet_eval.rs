//! Fleet-level evaluation, parallelized over vehicles.
//!
//! The paper's step (6) averages the per-vehicle prediction errors over
//! all vehicles. Vehicles are independent, so the work is dispatched on
//! the lock-free [`crate::executor`]: workers claim vehicle indices from
//! an atomic cursor and write each result into its own pre-allocated
//! slot, so the hot path takes no mutex and results arrive already in
//! input order. A vehicle whose evaluation panics is captured as a
//! [`FleetMember`] with an [`MlError::WorkerPanic`] outcome instead of
//! aborting the whole fleet.

use vup_fleetsim::fleet::{Fleet, VehicleId};
use vup_ml::instrument::MlTimers;
use vup_ml::MlError;
use vup_obs::{FleetMonitor, Registry, SpanCtx, Tracer};

use crate::config::PipelineConfig;
use crate::evaluate::VehicleEvaluation;
use crate::executor;
use crate::view::VehicleView;

/// Per-vehicle outcome within a fleet evaluation.
#[derive(Debug, Clone)]
pub struct FleetMember {
    /// Vehicle id.
    pub vehicle_id: u32,
    /// The vehicle's evaluation, or the error that prevented it (e.g. a
    /// vehicle with too few working days for one full training window,
    /// or a captured worker panic).
    pub outcome: std::result::Result<VehicleEvaluation, MlError>,
}

/// Aggregated fleet evaluation.
#[derive(Debug, Clone)]
pub struct FleetEvaluation {
    /// Every vehicle's outcome, ordered by id.
    pub members: Vec<FleetMember>,
    /// Macro-averaged Percentage Error over evaluable vehicles (paper
    /// step 6).
    pub mean_percentage_error: f64,
    /// Number of vehicles that could be evaluated.
    pub evaluated: usize,
    /// Number of vehicles skipped (series too short for the config, or
    /// failed with a captured panic).
    pub skipped: usize,
}

impl FleetEvaluation {
    /// Per-vehicle PE values of the evaluable vehicles, ordered by id —
    /// the distribution plotted in the paper's Fig. 5.
    pub fn pe_distribution(&self) -> Vec<f64> {
        self.members
            .iter()
            .filter_map(|m| m.outcome.as_ref().ok().map(|e| e.percentage_error))
            .collect()
    }
}

/// Evaluates a set of vehicles in parallel and macro-averages their PEs.
///
/// `n_threads` caps the worker count (pass `0` for the available
/// parallelism). Results are deterministic: identical inputs produce an
/// identical `FleetEvaluation` regardless of thread scheduling. A panic
/// inside one vehicle's evaluation becomes that vehicle's
/// [`MlError::WorkerPanic`] outcome; the other vehicles are unaffected.
pub fn evaluate_fleet(
    fleet: &Fleet,
    ids: &[VehicleId],
    config: &PipelineConfig,
    n_threads: usize,
) -> FleetEvaluation {
    evaluate_fleet_observed(fleet, ids, config, n_threads, &Registry::disabled()).0
}

/// [`evaluate_fleet`] with observability: executor worker stats are
/// published under `pool="fleet_eval"`, model fits are timed into
/// `vup_ml_fit_nanos` / `vup_ml_predict_nanos`, and per-vehicle outcomes
/// are counted in `vup_fleet_eval_vehicles_total{outcome=…}`. The
/// returned [`executor::RunSummary`] holds the per-worker stats of this
/// run. With a disabled registry this is exactly [`evaluate_fleet`]: no
/// clock reads, bit-identical results.
pub fn evaluate_fleet_observed(
    fleet: &Fleet,
    ids: &[VehicleId],
    config: &PipelineConfig,
    n_threads: usize,
    registry: &Registry,
) -> (FleetEvaluation, executor::RunSummary) {
    evaluate_fleet_traced(fleet, ids, config, n_threads, registry, &Tracer::disabled())
}

/// [`evaluate_fleet_observed`] with structured tracing: the whole run
/// becomes an `evaluate_fleet` root span, each vehicle an
/// `evaluate_vehicle` child (with a `view_build` sub-span and the ML
/// layer's `ml_fit` spans nested under it), and each executor worker an
/// `executor_worker` span. With a disabled tracer this is exactly
/// [`evaluate_fleet_observed`] — no events, no clock reads, bit-identical
/// results.
pub fn evaluate_fleet_traced(
    fleet: &Fleet,
    ids: &[VehicleId],
    config: &PipelineConfig,
    n_threads: usize,
    registry: &Registry,
    tracer: &Tracer,
) -> (FleetEvaluation, executor::RunSummary) {
    let metrics = executor::ExecutorMetrics::register(registry, "fleet_eval");
    if registry.is_enabled() {
        registry.describe(
            "vup_fleet_eval_vehicles_total",
            "Fleet-evaluation vehicles, by outcome.",
        );
    }
    let timers = MlTimers::register(registry);
    let mut root = tracer.root("evaluate_fleet");
    root.arg("vehicles", ids.len());
    let parent = root.ctx();
    let (evaluation, summary) = evaluate_fleet_with(
        fleet,
        ids,
        config,
        n_threads,
        |_, view, config, span| {
            crate::evaluate::evaluate_vehicle_observed(view, config, &timers.for_span(span))
        },
        &metrics,
        &parent,
    );
    root.arg("evaluated", evaluation.evaluated);
    root.arg("skipped", evaluation.skipped);
    if registry.is_enabled() {
        registry
            .counter_with("vup_fleet_eval_vehicles_total", &[("outcome", "evaluated")])
            .add(evaluation.evaluated as u64);
        registry
            .counter_with("vup_fleet_eval_vehicles_total", &[("outcome", "skipped")])
            .add(evaluation.skipped as u64);
    }
    (evaluation, summary)
}

/// Feeds a finished fleet evaluation into per-vehicle quality monitors.
///
/// For each evaluated vehicle the prediction residuals
/// (`predicted - actual`, in evaluation order) flow into `monitor`: the
/// leading ones establish the vehicle's training-time baseline MAE, the
/// rest drive the rolling-window and CUSUM drift statistics. Each
/// vehicle's day-index series (rebuilt from `fleet` under the evaluated
/// scenario) feeds the report-gap and stale-history monitors, using the
/// latest day any monitored vehicle reported as the fleet reference.
/// Unevaluable vehicles still get their data-quality checks — often the
/// very reason they could not be evaluated.
pub fn monitor_fleet_evaluation(
    evaluation: &FleetEvaluation,
    fleet: &Fleet,
    config: &PipelineConfig,
    monitor: &FleetMonitor,
) {
    let day_series: Vec<(u32, Vec<i64>)> = evaluation
        .members
        .iter()
        .map(|member| {
            let view = VehicleView::build(fleet, VehicleId(member.vehicle_id), config.scenario);
            let days = view.slots().iter().map(|slot| slot.day).collect();
            (member.vehicle_id, days)
        })
        .collect();
    let fleet_last_day = day_series
        .iter()
        .filter_map(|(_, days)| days.last().copied())
        .max()
        .unwrap_or(0);
    for (vehicle_id, days) in &day_series {
        monitor.observe_days(*vehicle_id, days, fleet_last_day);
    }
    for member in &evaluation.members {
        if let Ok(eval) = &member.outcome {
            let residuals: Vec<f64> = eval.points.iter().map(|p| p.predicted - p.actual).collect();
            monitor.ingest_residuals(member.vehicle_id, &residuals);
        }
    }
}

/// Evaluation core with an injectable per-vehicle function, used by the
/// public entry points and by tests that need to inject failures. The
/// `eval` callback receives the vehicle's `evaluate_vehicle` span context
/// so nested work (model fits) lands under the right tree node.
fn evaluate_fleet_with<F>(
    fleet: &Fleet,
    ids: &[VehicleId],
    config: &PipelineConfig,
    n_threads: usize,
    eval: F,
    metrics: &executor::ExecutorMetrics,
    parent: &SpanCtx,
) -> (FleetEvaluation, executor::RunSummary)
where
    F: Fn(VehicleId, &VehicleView, &PipelineConfig, &SpanCtx) -> crate::Result<VehicleEvaluation>
        + Sync,
{
    let (results, summary) = executor::run_tasks_traced(
        ids.len(),
        n_threads,
        |i| {
            let id = ids[i];
            let mut vehicle_span = parent.child("evaluate_vehicle");
            vehicle_span.arg("vehicle", id.0);
            let view = {
                let _view_span = vehicle_span.child("view_build");
                VehicleView::build(fleet, id, config.scenario)
            };
            let result = eval(id, &view, config, &vehicle_span.ctx());
            if let Ok(eval) = &result {
                vehicle_span.arg("points", eval.points.len());
                vehicle_span.arg("retrains", eval.retrain_count);
            }
            result
        },
        metrics,
        parent,
    );
    (assemble(ids, results), summary)
}

/// Folds per-slot executor results into the aggregate, converting captured
/// panics into per-vehicle `WorkerPanic` outcomes.
fn assemble(
    ids: &[VehicleId],
    results: Vec<executor::TaskResult<crate::Result<VehicleEvaluation>>>,
) -> FleetEvaluation {
    let mut members: Vec<FleetMember> = results
        .into_iter()
        .zip(ids)
        .map(|(result, id)| FleetMember {
            vehicle_id: id.0,
            outcome: match result {
                Ok(outcome) => outcome,
                Err(message) => Err(MlError::WorkerPanic { message }),
            },
        })
        .collect();
    members.sort_by_key(|m| m.vehicle_id);

    let pes: Vec<f64> = members
        .iter()
        .filter_map(|m| m.outcome.as_ref().ok().map(|e| e.percentage_error))
        .collect();
    let evaluated = pes.len();
    let skipped = members.len() - evaluated;
    let mean_percentage_error = if pes.is_empty() {
        f64::NAN
    } else {
        pes.iter().sum::<f64>() / pes.len() as f64
    };
    FleetEvaluation {
        members,
        mean_percentage_error,
        evaluated,
        skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelSpec;
    use crate::evaluate::evaluate_vehicle;
    use vup_fleetsim::fleet::FleetConfig;
    use vup_ml::baseline::BaselineSpec;
    use vup_ml::RegressorSpec;

    fn fast_config() -> PipelineConfig {
        PipelineConfig {
            model: ModelSpec::Learned(RegressorSpec::Linear),
            train_window: 120,
            max_lag: 30,
            k: 10,
            retrain_every: 60,
            ..PipelineConfig::default()
        }
    }

    /// Cheap config (no model training) for the many-run stress test.
    fn baseline_config() -> PipelineConfig {
        PipelineConfig {
            model: ModelSpec::Baseline(BaselineSpec::LastValue),
            train_window: 120,
            retrain_every: 60,
            eval_tail: Some(60),
            ..PipelineConfig::default()
        }
    }

    fn assert_identical(a: &FleetEvaluation, b: &FleetEvaluation, label: &str) {
        assert_eq!(a.members.len(), b.members.len(), "{label}");
        for (ma, mb) in a.members.iter().zip(&b.members) {
            assert_eq!(ma.vehicle_id, mb.vehicle_id, "{label}");
            match (&ma.outcome, &mb.outcome) {
                (Ok(ea), Ok(eb)) => {
                    assert_eq!(ea.percentage_error, eb.percentage_error, "{label}");
                    assert_eq!(ea.mae, eb.mae, "{label}");
                    assert_eq!(ea.points.len(), eb.points.len(), "{label}");
                }
                (Err(ea), Err(eb)) => assert_eq!(ea, eb, "{label}"),
                _ => panic!("{label}: outcome mismatch"),
            }
        }
        assert_eq!(a.evaluated, b.evaluated, "{label}");
        assert_eq!(a.skipped, b.skipped, "{label}");
        // Bitwise-equal mean (both may be NaN when nothing evaluated).
        assert_eq!(
            a.mean_percentage_error.to_bits(),
            b.mean_percentage_error.to_bits(),
            "{label}"
        );
    }

    #[test]
    fn parallel_evaluation_is_deterministic_and_ordered() {
        let fleet = Fleet::generate(FleetConfig::small(8, 99));
        let ids: Vec<VehicleId> = (0..8).map(VehicleId).collect();
        let cfg = fast_config();

        // Every thread count — including 0 = auto — and repeated runs at
        // the same count must produce bitwise-identical fleet results.
        let reference = evaluate_fleet(&fleet, &ids, &cfg, 1);
        for threads in [1usize, 2, 4, 0] {
            for run in 0..2 {
                let eval = evaluate_fleet(&fleet, &ids, &cfg, threads);
                assert_identical(&reference, &eval, &format!("threads {threads}, run {run}"));
            }
        }

        assert_eq!(reference.members.len(), 8);
        for w in reference.members.windows(2) {
            assert!(w[0].vehicle_id < w[1].vehicle_id);
        }
    }

    #[test]
    fn scheduler_stress_many_runs_stay_deterministic() {
        // Hammer the scheduler: 50 evaluations with a cheap baseline
        // model, alternating thread counts, all compared bitwise to the
        // single-threaded reference. Catches racy dispatch or slot
        // mix-ups that a single repetition could miss.
        let fleet = Fleet::generate(FleetConfig::small(12, 31));
        let ids: Vec<VehicleId> = (0..12).map(VehicleId).collect();
        let cfg = baseline_config();
        let reference = evaluate_fleet(&fleet, &ids, &cfg, 1);
        for run in 0..50 {
            let threads = [1usize, 2, 4, 0][run % 4];
            let eval = evaluate_fleet(&fleet, &ids, &cfg, threads);
            assert_identical(&reference, &eval, &format!("stress run {run}"));
        }
    }

    #[test]
    fn mean_pe_matches_distribution() {
        let fleet = Fleet::generate(FleetConfig::small(5, 7));
        let ids: Vec<VehicleId> = (0..5).map(VehicleId).collect();
        let eval = evaluate_fleet(&fleet, &ids, &fast_config(), 0);
        let dist = eval.pe_distribution();
        assert_eq!(dist.len(), eval.evaluated);
        if !dist.is_empty() {
            let mean = dist.iter().sum::<f64>() / dist.len() as f64;
            assert!((mean - eval.mean_percentage_error).abs() < 1e-12);
        }
        assert_eq!(eval.evaluated + eval.skipped, 5);
    }

    #[test]
    fn unevaluable_vehicles_are_skipped_not_fatal() {
        let fleet = Fleet::generate(FleetConfig::small(3, 55));
        let ids: Vec<VehicleId> = (0..3).map(VehicleId).collect();
        let mut cfg = fast_config();
        // A window so large that no vehicle can be evaluated.
        cfg.train_window = 10_000;
        let eval = evaluate_fleet(&fleet, &ids, &cfg, 2);
        assert_eq!(eval.evaluated, 0);
        assert_eq!(eval.skipped, 3);
        assert!(eval.mean_percentage_error.is_nan());
    }

    #[test]
    fn traced_evaluation_matches_untraced_and_builds_a_span_tree() {
        let fleet = Fleet::generate(FleetConfig::small(5, 23));
        let ids: Vec<VehicleId> = (0..5).map(VehicleId).collect();
        let cfg = fast_config();
        let reference = evaluate_fleet(&fleet, &ids, &cfg, 1);

        let tracer = Tracer::new();
        let (traced, _) =
            evaluate_fleet_traced(&fleet, &ids, &cfg, 2, &Registry::disabled(), &tracer);
        assert_identical(&reference, &traced, "traced vs plain");

        let snapshot = tracer.snapshot();
        let count = |name: &str| snapshot.events.iter().filter(|e| e.name == name).count();
        assert_eq!(count("evaluate_fleet"), 1);
        assert_eq!(count("evaluate_vehicle"), ids.len());
        assert_eq!(count("view_build"), ids.len());
        assert!(
            count("ml_fit") >= ids.len(),
            "every vehicle fits at least once"
        );
        // Vehicle spans hang off the root; fits hang off vehicle spans.
        let root = snapshot
            .events
            .iter()
            .find(|e| e.name == "evaluate_fleet")
            .unwrap();
        let vehicle_ids: Vec<u64> = snapshot
            .events
            .iter()
            .filter(|e| e.name == "evaluate_vehicle")
            .map(|e| {
                assert_eq!(e.parent, root.id);
                e.id
            })
            .collect();
        assert!(snapshot
            .events
            .iter()
            .filter(|e| e.name == "ml_fit")
            .all(|e| vehicle_ids.contains(&e.parent)));
    }

    #[test]
    fn monitor_feed_covers_every_member_and_flags_residual_counts() {
        let fleet = Fleet::generate(FleetConfig::small(6, 77));
        let ids: Vec<VehicleId> = (0..6).map(VehicleId).collect();
        let cfg = fast_config();
        let evaluation = evaluate_fleet(&fleet, &ids, &cfg, 0);
        assert!(evaluation.evaluated > 0, "fixture must evaluate something");

        let monitor = FleetMonitor::new(vup_obs::MonitorConfig {
            baseline_window: 10,
            ..vup_obs::MonitorConfig::default()
        });
        monitor_fleet_evaluation(&evaluation, &fleet, &cfg, &monitor);
        let health = monitor.health();
        assert_eq!(health.len(), ids.len(), "every member is monitored");
        for member in &evaluation.members {
            let h = health
                .iter()
                .find(|h| h.vehicle_id == member.vehicle_id)
                .unwrap();
            if let Ok(eval) = &member.outcome {
                let expected = eval.points.len().saturating_sub(10);
                assert_eq!(h.residuals_seen, expected, "vehicle {}", member.vehicle_id);
                assert!(h.baseline_mae.is_some() || eval.points.len() < 10);
            }
        }
        // Feeding the same evaluation twice is deterministic in the
        // data-quality dimensions (they are recomputed, not accumulated).
        monitor_fleet_evaluation(&evaluation, &fleet, &cfg, &monitor);
        let again = monitor.health();
        for (a, b) in health.iter().zip(&again) {
            assert_eq!(a.data_gaps, b.data_gaps);
            assert_eq!(a.stale, b.stale);
        }
    }

    #[test]
    fn a_panicking_vehicle_becomes_a_worker_panic_member() {
        let fleet = Fleet::generate(FleetConfig::small(6, 5));
        let ids: Vec<VehicleId> = (0..6).map(VehicleId).collect();
        let cfg = baseline_config();

        for threads in [1usize, 4] {
            let (eval, _) = evaluate_fleet_with(
                &fleet,
                &ids,
                &cfg,
                threads,
                |id, view, config, _span| {
                    if id.0 == 2 {
                        panic!("injected failure for vehicle {}", id.0);
                    }
                    evaluate_vehicle(view, config)
                },
                &executor::ExecutorMetrics::disabled(),
                &SpanCtx::disabled(),
            );

            assert_eq!(eval.members.len(), 6, "threads {threads}");
            let failed = &eval.members[2];
            assert_eq!(failed.vehicle_id, 2);
            match &failed.outcome {
                Err(MlError::WorkerPanic { message }) => {
                    assert!(message.contains("injected failure for vehicle 2"));
                }
                other => panic!("expected WorkerPanic, got {other:?}"),
            }
            // The other vehicles still evaluated normally.
            let healthy = eval.members.iter().filter(|m| m.outcome.is_ok()).count();
            assert_eq!(healthy + eval.skipped, 6);
            assert!(eval.skipped >= 1, "panicked vehicle counts as skipped");
        }
    }
}
