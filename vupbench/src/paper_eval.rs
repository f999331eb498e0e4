//! `paper_eval`: the paper's evaluation loop (Fig. 5, §4.5). One op is
//! one `evaluate_fleet` pass over a fixed seeded vehicle set under LR,
//! then under the paper-default SVR, at two executor threads.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use vup_core::evaluate::first_evaluable_slot;
use vup_core::fleet_eval::{evaluate_fleet, FleetEvaluation};
use vup_core::{ModelSpec, PipelineConfig, VehicleView};
use vup_fleetsim::generator::generate_history;
use vup_fleetsim::{Fleet, FleetConfig, VehicleId};
use vup_ml::{RegressorSpec, TrainArena};

use crate::calib::{Kernel, Rounds, Setups, Typical};
use crate::fitpath::{self, FitCounts, FitJob};
use crate::screen;
use crate::stats::{self, Report};
use crate::sys::{self, timed};
use crate::trace::{self, Trace};
use crate::Options;

/// Vehicles generated per fleet; the evaluated set is drawn from them.
const FLEET_SIZE: usize = 400;
/// Vehicles evaluated per op: enough that the cost of the seed's
/// vehicles averages out (at 48 the op cost moved by a sixth from seed
/// to seed; at 144 by a tenth).
const VEHICLES: usize = 144;
/// Evaluated slots per vehicle (the most recent ones), so every vehicle
/// costs the same number of fits whatever its history length.
const EVAL_TAIL: usize = 7;
/// Executor threads of the timed op (pinned, never "one per core").
/// One, because on a 2-vCPU share a second thread's time depends on
/// what else the other vCPU runs.
const THREADS: usize = 1;
/// Executor threads of the reference evaluation the ops are checked
/// against, so the gate also checks that the answers do not depend on
/// the thread count.
const REFERENCE_THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Traced re-drives in a traced run, after its untraced timed phase.
const TRACED_OPS: usize = 8;

/// The paper-default pipeline (SVR, K = 20, w = 140, next working day,
/// sliding window, retrain every 7) over the last `EVAL_TAIL` slots.
pub fn svr_config() -> PipelineConfig {
    PipelineConfig {
        eval_tail: Some(EVAL_TAIL),
        ..PipelineConfig::default()
    }
}

/// [`svr_config`] with linear regression in place of SVR.
pub fn lr_config() -> PipelineConfig {
    PipelineConfig {
        model: ModelSpec::Learned(RegressorSpec::Linear),
        ..svr_config()
    }
}

struct Inputs {
    fleet: Fleet,
    ids: Vec<VehicleId>,
}

/// Generates the fleet and picks the first `VEHICLES` vehicles that the
/// cleaned telemetry of the last weeks shows in use and whose history
/// covers a training window plus the evaluated tail.
fn set_up(seed: u64, t: &mut Trace) -> Result<Inputs, String> {
    let fleet = t.span("fleetsim.generate", |_| {
        Fleet::generate(FleetConfig::small(FLEET_SIZE, seed))
    });
    let config = svr_config();
    let mut ids = Vec::new();
    let min_slots = first_evaluable_slot(&config) + EVAL_TAIL;
    for vehicle in fleet.vehicles() {
        if screen::qualifies(t, &fleet, vehicle.id, min_slots)? {
            ids.push(vehicle.id);
        }
    }
    // Every vehicle is screened, so set-up work does not depend on where
    // the qualifying ones sit in the roster.
    if ids.len() >= VEHICLES {
        ids.truncate(VEHICLES);
        return Ok(Inputs { fleet, ids });
    }
    Err(format!(
        "seed {seed}: only {} of {FLEET_SIZE} vehicles qualify, {VEHICLES} needed",
        ids.len()
    ))
}

/// One op: LR then SVR over the vehicle set.
fn op(inputs: &Inputs, threads: usize) -> (FleetEvaluation, FleetEvaluation) {
    (
        evaluate_fleet(&inputs.fleet, &inputs.ids, &lr_config(), threads),
        evaluate_fleet(&inputs.fleet, &inputs.ids, &svr_config(), threads),
    )
}

/// Checks that `candidate` gives bit-for-bit the answers of `reference`:
/// the same members, per-vehicle PE and MAE, and fleet PE.
pub fn same_answers(
    reference: &FleetEvaluation,
    candidate: &FleetEvaluation,
) -> Result<(), String> {
    if reference.members.len() != candidate.members.len() {
        return Err("member count differs".into());
    }
    for (a, b) in reference.members.iter().zip(&candidate.members) {
        match (&a.outcome, &b.outcome) {
            (Ok(ea), Ok(eb))
                if a.vehicle_id == b.vehicle_id
                    && ea.percentage_error.to_bits() == eb.percentage_error.to_bits()
                    && ea.mae.to_bits() == eb.mae.to_bits()
                    && ea.points.len() == eb.points.len() => {}
            _ => return Err(format!("vehicle {} answers differ", a.vehicle_id)),
        }
    }
    if reference.mean_percentage_error.to_bits() != candidate.mean_percentage_error.to_bits() {
        return Err(format!(
            "fleet PE {} differs from {}",
            candidate.mean_percentage_error, reference.mean_percentage_error
        ));
    }
    Ok(())
}

/// Whether every vehicle of `evaluation` was evaluated.
fn complete(evaluation: &FleetEvaluation) -> bool {
    evaluation.skipped == 0 && evaluation.mean_percentage_error.is_finite()
}

/// The step-by-step re-drive of one vehicle's evaluation (what
/// `evaluate_vehicle` does), with a span around each layer's call.
/// Queues its fits for replication and returns the vehicle's PE.
fn redrive_vehicle(
    t: &mut Trace,
    fleet: &Fleet,
    id: VehicleId,
    config: &PipelineConfig,
    jobs: &mut Vec<FitJob>,
    arena_stats: &mut vup_ml::ArenaStats,
) -> Result<f64, String> {
    let history = t.span("fleetsim.history", |_| generate_history(fleet, id));
    let view = Rc::new(t.span("core.view_build", |_| {
        VehicleView::from_history(fleet, &history, config.scenario)
    }));
    let start = first_evaluable_slot(config).max(view.len().saturating_sub(EVAL_TAIL));
    let mut arena = TrainArena::new();
    let mut fitted = None;
    let (mut predicted, mut actual) = (Vec::new(), Vec::new());
    for target in start..view.len() {
        if fitted.is_none() || (target - start).is_multiple_of(config.retrain_every) {
            let from = target - config.train_window;
            let model = t.span("core.fit", |_| {
                fitpath::fit(&view, config, from, target, &mut arena)
            })?;
            jobs.push(FitJob {
                view: Rc::clone(&view),
                from,
                to: target,
                fitted: model.clone(),
            });
            fitted = Some(model);
        }
        let model = fitted.as_ref().expect("fitted above");
        let p = t
            .span("core.predict", |_| model.predict(&view, target))
            .map_err(|e| format!("predict: {e}"))?;
        predicted.push(p);
        actual.push(view.slot(target).hours);
    }
    *arena_stats = arena_stats.merged(arena.stats());
    vup_ml::metrics::percentage_error(&predicted, &actual).map_err(|e| e.to_string())
}

/// Runs the workload.
pub fn run(options: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let mut kernel = Kernel::new();
    let mut setups = Setups::default();
    let mut inputs = None;
    let mut setup_trace = Trace::new();
    for _ in 0..SETUPS {
        setup_trace = Trace::new();
        let measured = kernel.measure()?;
        let start = Instant::now();
        let built = set_up(options.seed, &mut setup_trace)?;
        // Warm-up: one op, so lazy state and caches are filled before
        // timing.
        let _ = op(&built, THREADS);
        let took = start.elapsed().as_secs_f64();
        setups.record(measured, kernel.measure()?, took);
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up");
    let (reference_lr, reference_svr) = op(&inputs, REFERENCE_THREADS);
    report.gate(
        complete(&reference_lr) && complete(&reference_svr),
        "reference evaluation skipped vehicles",
    );

    let deadline = Instant::now() + Duration::from_secs(options.seconds);
    // Each op is a round of its own, timed between two kernel
    // measurements.
    let mut rounds = Rounds::new(Typical::MedianOp);
    let mut before = kernel.measure()?;
    while Instant::now() < deadline {
        let cpu_before = sys::cpu_seconds();
        let ((lr, svr), took) = timed(|| op(&inputs, THREADS));
        let cpu_s = sys::cpu_seconds() - cpu_before;
        let after = kernel.measure()?;
        rounds.record(before, after, &[sys::ms(took)], cpu_s);
        before = after;
        let ok =
            same_answers(&reference_lr, &lr).is_ok() && same_answers(&reference_svr, &svr).is_ok();
        report.tally.record(ok);
    }
    report.gate(
        report.tally.failed == 0,
        "an op gave different answers from the two-thread reference",
    );
    report.notes.push(stats::timing_note(
        "op at reference speed",
        &rounds.reference_ms,
    ));

    if !options.trace {
        setups.report_end_to_end(&mut report);
        report.metric("peak_rss_mb", "MiB", sys::peak_rss_mib(), 1);
        rounds.report_end_to_end(&mut report);
    } else {
        setups.report_raw(&mut report);
        rounds.report_raw(&mut report);
        // Traced ops re-drive the evaluation step by step on one thread;
        // each is paired with an untraced one-thread op for the overhead.
        let mut t = Trace::new();
        let mut counts = FitCounts::default();
        let mut arena_stats = vup_ml::ArenaStats::default();
        let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
        for _ in 0..TRACED_OPS {
            untraced_ms.push(sys::ms(timed(|| op(&inputs, 1)).1));
            let mut jobs = Vec::new();
            let (pes, took) = timed(|| {
                t.span("bench.op", |t| -> Result<Vec<Vec<f64>>, String> {
                    [lr_config(), svr_config()]
                        .iter()
                        .map(|config| {
                            let mut queued = Vec::new();
                            let pes = inputs
                                .ids
                                .iter()
                                .map(|&id| {
                                    let fleet = &inputs.fleet;
                                    redrive_vehicle(
                                        t,
                                        fleet,
                                        id,
                                        config,
                                        &mut queued,
                                        &mut arena_stats,
                                    )
                                })
                                .collect();
                            jobs.push((config.clone(), queued));
                            pes
                        })
                        .collect()
                })
            });
            traced_ms.push(sys::ms(took));
            // Replicas run after the op, so they neither warm nor evict
            // caches for its real work.
            let replicated = jobs.iter().try_for_each(|(config, queued)| {
                let mut arenas: BTreeMap<u32, TrainArena> = BTreeMap::new();
                queued.iter().try_for_each(|job| {
                    let arena = arenas.entry(job.view.vehicle_id.0).or_default();
                    fitpath::replicate(&mut t, job, config, arena, &mut counts)
                })
            });
            if let Err(e) = replicated {
                report.gate(false, format!("replica: {e}"));
            }
            match pes {
                Ok(pes) => {
                    for (pe, reference) in pes.iter().zip([&reference_lr, &reference_svr]) {
                        report.gate(
                            pe.iter()
                                .map(|v| v.to_bits())
                                .eq(reference.pe_distribution().iter().map(|v| v.to_bits())),
                            "traced re-drive PE differs from evaluate_fleet",
                        );
                    }
                }
                Err(e) => report.gate(false, format!("traced re-drive: {e}")),
            }
        }
        per_layer(
            &mut report,
            &t,
            &setup_trace,
            &traced_ms,
            &counts,
            arena_stats,
        );
        report.metric(
            "obs.trace_overhead_pct",
            "%",
            100.0 * (stats::median(&traced_ms) / stats::median(&untraced_ms) - 1.0),
            traced_ms.len(),
        );
        if let Some((p90, _)) = stats::windowed_percentile(&rounds.reference_ms, 0.9) {
            report.metric("op.p90_ms", "ms", p90, rounds.ops());
        }
        report.metric(
            "quality.pe_lr_pct",
            "%",
            reference_lr.mean_percentage_error,
            inputs.ids.len(),
        );
        report.metric(
            "quality.pe_svr_pct",
            "%",
            reference_svr.mean_percentage_error,
            inputs.ids.len(),
        );
    }
    report.notes.push(format!(
        "paper_eval: {} vehicles x {EVAL_TAIL} slots; fleet PE LR {:.4}% SVR {:.4}%",
        inputs.ids.len(),
        reference_lr.mean_percentage_error,
        reference_svr.mean_percentage_error
    ));
    Ok(report)
}

fn per_layer(
    report: &mut Report,
    t: &Trace,
    setup: &Trace,
    traced_ms: &[f64],
    counts: &FitCounts,
    arena: vup_ml::ArenaStats,
) {
    let ops = traced_ms.len().max(1) as f64;
    let per_op_us = |name: &str| t.totals(name).self_ns as f64 / 1e3 / ops;
    let per_op_calls = |name: &str| t.totals(name).calls / traced_ms.len().max(1) as u64;
    report.metric(
        "fleetsim.generate_ms",
        "ms",
        setup.layer_ns("fleetsim") as f64 / 1e6,
        1,
    );
    report.metric(
        "dataprep.prepare_ms",
        "ms",
        setup.layer_ns("dataprep") as f64 / 1e6,
        1,
    );
    report.count(
        "dataprep.prepare_calls",
        setup.totals("dataprep.prepare").calls,
    );
    report.metric(
        "fleetsim.history_us",
        "us",
        per_op_us("fleetsim.history"),
        traced_ms.len(),
    );
    for (metric, span) in [
        ("tseries.acf_us", "tseries.acf"),
        ("core.view_build_us", "core.view_build"),
        ("core.select_lags_us", "core.select_lags"),
        ("core.design_matrix_us", "core.design_matrix"),
        ("core.fit_us", "core.fit"),
        ("core.predict_us", "core.predict"),
        ("ml.lr_fit_us", "ml.lr_fit"),
        ("ml.svr_fit_us", "ml.svr_fit"),
        ("linalg.qr_us", "linalg.qr"),
    ] {
        report.metric(metric, "us", per_op_us(span), traced_ms.len());
    }
    for (metric, span) in [
        ("tseries.acf_calls", "tseries.acf"),
        ("core.view_builds", "core.view_build"),
        ("core.select_calls", "core.select_lags"),
        ("core.fits", "core.fit"),
        ("core.predicts", "core.predict"),
        ("linalg.solves", "linalg.qr"),
    ] {
        report.count(metric, per_op_calls(span));
    }
    report.count(
        "core.design_rows",
        counts.design_rows / traced_ms.len().max(1) as u64,
    );
    report.count(
        "linalg.ridge_fallbacks",
        counts.ridge_fallbacks / traced_ms.len().max(1) as u64,
    );
    report.metric(
        "linalg.cholesky_us",
        "us",
        per_op_us("linalg.cholesky"),
        traced_ms.len(),
    );
    let rows = arena.reused_rows + arena.filled_rows;
    report.metric(
        "ml.arena_reuse_ratio",
        "ratio",
        if rows == 0 {
            0.0
        } else {
            arena.reused_rows as f64 / rows as f64
        },
        rows as usize,
    );
    let whole_ns: f64 = traced_ms.iter().sum::<f64>() * 1e6;
    for (name, pct) in trace::shares(t, crate::SHARE_LAYERS, whole_ns) {
        report.metric(&name, "%", pct, traced_ms.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vup_core::evaluate::{PredictionPoint, VehicleEvaluation};
    use vup_core::fleet_eval::FleetMember;

    fn evaluation(pe: f64) -> FleetEvaluation {
        let points = vec![PredictionPoint {
            slot: 200,
            day: 16_800,
            actual: 8.0,
            predicted: 8.0 * (1.0 + pe / 100.0),
        }];
        FleetEvaluation {
            members: vec![FleetMember {
                vehicle_id: 3,
                outcome: Ok(VehicleEvaluation {
                    vehicle_id: 3,
                    points,
                    percentage_error: pe,
                    mae: 0.08 * pe,
                    retrain_count: 4,
                }),
            }],
            mean_percentage_error: pe,
            evaluated: 1,
            skipped: 0,
        }
    }

    #[test]
    fn identical_answers_pass_the_gate() {
        assert!(same_answers(&evaluation(12.5), &evaluation(12.5)).is_ok());
    }

    #[test]
    fn a_perturbed_pe_trips_the_gate() {
        let reference = evaluation(12.5);
        let perturbed = evaluation(f64::from_bits(12.5f64.to_bits() + 1));
        assert!(same_answers(&reference, &perturbed).is_err());
        let mut skipped = evaluation(12.5);
        skipped.members[0].outcome = Err(vup_ml::MlError::NotFitted);
        assert!(same_answers(&reference, &skipped).is_err());
    }
}
