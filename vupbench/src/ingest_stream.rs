//! `ingest_stream`: the live streaming loop, the only workload that
//! writes. Set-up ingests a warm-up prefix long enough that every
//! vehicle holds a model; one op is then one fleet-day: every report of
//! the day is appended to a fresh commit log and folded through the
//! aggregator and the retrain scheduler, whose triggered retrains are
//! drained into a service serving aggregated views from a durable
//! model store.

use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vup_core::forecast::forecast_horizon;
use vup_core::{PipelineConfig, VehicleView};
use vup_fleetsim::canbus::RawReport;
use vup_fleetsim::dropout::DropoutConfig;
use vup_fleetsim::generator::{generate_day_raw_reports, generate_history};
use vup_fleetsim::{Fleet, FleetConfig, VehicleId};
use vup_ingest::{
    replay, AggregatedViews, CommitLog, FleetAggregator, LogOptions, LogRecord, ReplayConfig,
    RetrainDecision, RetrainScheduler, SchedulerConfig,
};
use vup_ml::TrainArena;
use vup_obs::{MonitorConfig, Registry, Tracer};
use vup_serve::{
    parse_snapshot_name, verify_snapshot, DiskBackend, ModelStore, PredictionService, ServeOutcome,
    SnapshotStore,
};

use crate::calib::{Kernel, Rounds, Setups, Typical};
use crate::fitpath::{self, FitCounts, FitJob};
use crate::stats::{self, Report};
use crate::sys::{self, timed, Scratch};
use crate::trace::{self, maybe, Trace};
use crate::Options;

/// Vehicles generated per fleet; the streamed ones are drawn from them.
const FLEET_SIZE: usize = 96;
/// Vehicles whose telemetry is streamed.
const VEHICLES: usize = 24;
/// Fleet-days ingested during set-up, before the first timed op.
const WARM_DAYS: usize = 360;
/// Working days each streamed vehicle must reach within the warm-up:
/// a training window and a week, so its first model is fitted during
/// set-up.
const WARM_SLOTS: usize = 140 + 7;
/// Mean daily utilization hours of a typical streamed vehicle.
const TYPICAL_DAILY_HOURS: f64 = 3.0;
/// Fleet-days timed per second of `--seconds`, so the timed phase
/// covers a fixed set of days for a given run length.
const DAYS_PER_SECOND: usize = 60;
/// Executor threads of the retrain service.
const EXECUTOR_THREADS: usize = 1;
/// Fleet-days per round; each round is timed between two kernel
/// measurements (see [`crate::calib`]).
const ROUND_DAYS: usize = 20;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The live pipeline of one set-up.
struct Live<'f> {
    fleet: &'f Fleet,
    ids: &'f [VehicleId],
    log_dir: Scratch,
    store_dir: Scratch,
    log: CommitLog,
    log_registry: Registry,
    aggregator: FleetAggregator,
    scheduler: RetrainScheduler,
    service: PredictionService<'f>,
    next_day: usize,
    appended: u64,
}

/// Generates the fleet and picks, among the vehicles that work
/// `WARM_SLOTS` days within the warm-up, the `VEHICLES` whose mean daily
/// usage over the `days` timed days is closest to `TYPICAL_DAILY_HOURS`.
/// Usage varies several-fold between vehicles and over time, so this
/// keeps the report volume of the streamed days alike from seed to seed.
fn inputs(seed: u64, days: usize, t: &mut Trace) -> Result<(Fleet, Vec<VehicleId>), String> {
    let fleet = t.span("fleetsim.generate", |_| {
        Fleet::generate(FleetConfig::small(FLEET_SIZE, seed))
    });
    let scenario = PipelineConfig::default().scenario;
    let mut candidates = Vec::new();
    for vehicle in fleet.vehicles() {
        let history = t.span("fleetsim.generate", |_| {
            generate_history(&fleet, vehicle.id)
        });
        let warm = &history.records[..WARM_DAYS];
        if warm.iter().filter(|r| scenario.includes(r.hours)).count() >= WARM_SLOTS {
            let timed = &history.records[WARM_DAYS..WARM_DAYS + days];
            let daily = timed.iter().map(|r| r.hours).sum::<f64>() / days as f64;
            candidates.push(((daily - TYPICAL_DAILY_HOURS).abs(), vehicle.id));
        }
    }
    if candidates.len() < VEHICLES {
        return Err(format!(
            "seed {seed}: only {} of {FLEET_SIZE} vehicles work {WARM_SLOTS} warm-up days",
            candidates.len()
        ));
    }
    candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut ids: Vec<VehicleId> = candidates[..VEHICLES].iter().map(|c| c.1).collect();
    ids.sort_unstable();
    Ok((fleet, ids))
}

/// Every raw report of fleet-day `day`, vehicle by vehicle.
fn day_reports(fleet: &Fleet, ids: &[VehicleId], day: usize) -> Vec<(u32, RawReport)> {
    let date = fleet.config().start.plus_days(day as i64);
    ids.iter()
        .flat_map(|&id| {
            generate_day_raw_reports(fleet, id, date, &DropoutConfig::default())
                .into_iter()
                .map(move |r| (id.0, r))
        })
        .collect()
}

impl<'f> Live<'f> {
    fn open(fleet: &'f Fleet, ids: &'f [VehicleId]) -> Result<Live<'f>, String> {
        let config = PipelineConfig::default();
        let log_dir = Scratch::new("log")?;
        let store_dir = Scratch::new("store")?;
        let log_registry = Registry::new();
        let (log, _) = CommitLog::open(
            Box::new(DiskBackend),
            log_dir.path(),
            LogOptions::default(),
            &log_registry,
            &Tracer::disabled(),
        )
        .map_err(|e| format!("open log: {e}"))?;
        let aggregator = FleetAggregator::new(fleet.config().start.day_index(), config.scenario);
        let store = ModelStore::open(store_dir.path()).map_err(|e| format!("open store: {e}"))?;
        let service = PredictionService::new(fleet, config.clone(), EXECUTOR_THREADS)
            .map_err(|e| e.to_string())?
            .with_views(Arc::new(AggregatedViews::new(aggregator.histories())))
            .with_store(store);
        Ok(Live {
            fleet,
            ids,
            log_dir,
            store_dir,
            log,
            log_registry,
            aggregator,
            scheduler: RetrainScheduler::new(
                MonitorConfig::default(),
                SchedulerConfig::from_pipeline(&config),
                &Registry::disabled(),
            ),
            service,
            next_day: 0,
            appended: 0,
        })
    }

    /// One fleet-day through the streaming loop. Returns the drained
    /// outcomes and the number of slots sealed.
    fn day(
        &mut self,
        reports: Vec<(u32, RawReport)>,
        mut t: Option<&mut Trace>,
    ) -> Result<(Vec<ServeOutcome>, u64), String> {
        let mut outcomes = Vec::new();
        let mut sealed_slots = 0u64;
        for (vehicle_id, report) in reports {
            let offset = maybe(t.as_deref_mut(), "ingest.append", || {
                self.log.append(vehicle_id, &report)
            })
            .map_err(|e| format!("append: {e}"))?;
            self.appended += 1;
            let record = LogRecord {
                offset,
                vehicle_id,
                report,
            };
            let sealed = maybe(t.as_deref_mut(), "ingest.observe", || {
                self.aggregator.observe(&record)
            });
            sealed_slots += sealed.len() as u64;
            self.fold(&sealed, &mut outcomes, t.as_deref_mut());
        }
        self.next_day += 1;
        Ok((outcomes, sealed_slots))
    }

    fn fold(
        &mut self,
        sealed: &[vup_ingest::SealedSlot],
        outcomes: &mut Vec<ServeOutcome>,
        mut t: Option<&mut Trace>,
    ) {
        if !sealed.is_empty() {
            maybe(t.as_deref_mut(), "ingest.schedule", || {
                for slot in sealed {
                    self.scheduler.on_sealed(slot);
                }
            });
        }
        if self.scheduler.has_pending() {
            let scheduler = &mut self.scheduler;
            let service = &self.service;
            outcomes.extend(maybe(t, "ingest.drain", || scheduler.drain(service)));
        }
    }

    /// Seals the last day, as a replay of the log does at its end.
    fn seal_all(&mut self) -> Vec<ServeOutcome> {
        let sealed = self.aggregator.seal_all();
        let mut outcomes = Vec::new();
        self.fold(&sealed, &mut outcomes, None);
        outcomes
    }
}

/// Whether a drained outcome served a forecast from a real model (not
/// the degraded fallback).
fn retrained(outcome: &ServeOutcome) -> bool {
    outcome.forecast().is_some() && !outcome.is_degraded()
}

/// FNV-1a over the serialised predictor: the model digest `replay`
/// reports.
fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Digest of a predictor's serialised snapshot.
fn saved_digest(predictor: &vup_core::FittedPredictor) -> String {
    digest(
        serde_json::to_string(&predictor.save())
            .expect("predictor serializes")
            .as_bytes(),
    )
}

/// `(vehicle, trained_at, digest)` of every live model.
fn live_models(live: &Live) -> Vec<(u32, usize, String)> {
    live.scheduler
        .modeled_vehicles()
        .into_iter()
        .filter_map(|v| {
            let stored = live
                .service
                .store()
                .peek(VehicleId(v), live.service.config())?;
            Some((v, stored.trained_at, saved_digest(&stored.predictor)))
        })
        .collect()
}

/// Checks the live run's decisions and models against a replay of the
/// log: the decision streams must be identical and so must every
/// model's training position and digest.
pub fn same_as_replay(
    live_decisions: &[RetrainDecision],
    live_models: &[(u32, usize, String)],
    replay_decisions: &[RetrainDecision],
    replay_models: &[(u32, usize, String)],
) -> Result<(), String> {
    if live_decisions != replay_decisions {
        return Err(format!(
            "live decisions ({}) differ from the replay's ({})",
            live_decisions.len(),
            replay_decisions.len()
        ));
    }
    if live_models != replay_models {
        return Err("live model digests differ from the replay's".into());
    }
    Ok(())
}

/// What reopening the final log and store found.
struct Reopened {
    log_open: Duration,
    store_open: Duration,
    quarantined: usize,
}

/// Recovers the final log and store, replays the log and checks the
/// live run against it.
fn gates(report: &mut Report, live: Live) -> Result<Reopened, String> {
    let mut live = live;
    let tail = live.seal_all();
    report.gate(tail.iter().all(retrained), "final seal's retrains failed");
    let decisions = live.scheduler.decisions().to_vec();
    let models = live_models(&live);
    let Live {
        fleet,
        log,
        log_dir,
        store_dir,
        appended,
        service,
        ..
    } = live;
    drop(log);
    drop(service);

    let ((reopened, recovery), open_took) = match timed(|| {
        CommitLog::open(
            Box::new(DiskBackend),
            log_dir.path(),
            LogOptions::default(),
            &Registry::disabled(),
            &Tracer::disabled(),
        )
    }) {
        (Ok(opened), took) => (opened, took),
        (Err(e), _) => return Err(format!("reopen log: {e}")),
    };
    let records = reopened.records().map_err(|e| format!("read log: {e}"))?;
    report.gate(
        recovery.quarantined_count() == 0 && records.len() as u64 == appended,
        format!(
            "log recovered {} of {appended} records, {} files quarantined",
            records.len(),
            recovery.quarantined_count()
        ),
    );
    let replayed = replay(
        &records,
        fleet,
        &ReplayConfig::new(
            PipelineConfig::default(),
            MonitorConfig::default(),
            EXECUTOR_THREADS,
        ),
        &Registry::disabled(),
        &Tracer::disabled(),
    )
    .map_err(|e| format!("replay: {e}"))?;
    let replay_models: Vec<(u32, usize, String)> = replayed
        .models
        .iter()
        .map(|m| (m.vehicle_id, m.trained_at, m.digest.clone()))
        .collect();
    if let Err(e) = same_as_replay(&decisions, &models, &replayed.decisions, &replay_models) {
        report.gate(false, e);
    }

    let (store, store_took) = timed(|| ModelStore::open(store_dir.path()));
    let store = store.map_err(|e| format!("reopen store: {e}"))?;
    let stats = store.recovery().cloned().unwrap_or_default();
    report.gate(
        stats.quarantined_count() == 0 && stats.recovered == models.len(),
        format!(
            "store recovered {} of {} models, {} quarantined",
            stats.recovered,
            models.len(),
            stats.quarantined_count()
        ),
    );
    report.gate(
        verify_snapshots(store_dir.path())? == models.len(),
        "a persisted snapshot fails verification",
    );
    Ok(Reopened {
        log_open: open_took,
        store_open: store_took,
        quarantined: recovery.quarantined_count() + stats.quarantined_count(),
    })
}

/// Verifies every snapshot file in `dir`; returns how many passed.
fn verify_snapshots(dir: &Path) -> Result<usize, String> {
    let mut passed = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if parse_snapshot_name(&name).is_none() {
            continue;
        }
        let bytes = std::fs::read(entry.path()).map_err(|e| e.to_string())?;
        if verify_snapshot(&name, &bytes).is_ok() {
            passed += 1;
        }
    }
    Ok(passed)
}

/// Per-vehicle arenas of the traced replicas of retrain fits.
#[derive(Default)]
struct Replicas {
    arenas: BTreeMap<u32, (TrainArena, TrainArena)>,
    counts: FitCounts,
    persisted: u64,
    snapshot_bytes: u64,
}

/// A retrain a traced op drained, kept for replication after the traced
/// phase (so replicas neither warm nor evict caches for the ops).
struct Retrain {
    id: VehicleId,
    /// Sealed days of the vehicle's history when it was retrained.
    days: usize,
    train_from: usize,
    trained_at: usize,
    horizon: usize,
    hours: Vec<f64>,
    /// Digest of the model the service stored.
    digest: String,
}

/// The retrains among an op's drained outcomes.
fn retrains_of(live: &Live, outcomes: &[ServeOutcome]) -> Result<Vec<Retrain>, String> {
    let config = live.service.config();
    let histories = live.aggregator.histories();
    let histories = histories.read().map_err(|_| "histories lock poisoned")?;
    let mut out = Vec::new();
    for outcome in outcomes {
        let ServeOutcome::RetrainedThenServed(forecast) = outcome else {
            continue;
        };
        let id = VehicleId(forecast.vehicle_id);
        let stored = live
            .service
            .store()
            .peek(id, config)
            .ok_or("retrained model missing")?;
        out.push(Retrain {
            id,
            days: histories.get(&id.0).map_or(0, Vec::len),
            train_from: forecast
                .provenance
                .train_from
                .ok_or("retrain without a window")?,
            trained_at: forecast.trained_at,
            horizon: forecast.horizon,
            hours: forecast.hours.clone(),
            digest: saved_digest(&stored.predictor),
        });
    }
    Ok(out)
}

/// Replicates what the drains of the traced ops did: for each retrain,
/// the view build, the fit (and the layers inside it), the forecast and
/// the snapshot persist, each checked against what the service
/// produced.
fn replicate_retrains(
    t: &mut Trace,
    live: &Live,
    retrains: &[Retrain],
    replicas: &mut Replicas,
    replica_store: &ModelStore,
    replica_dir: &Path,
) -> Result<(), String> {
    let config = live.service.config();
    let histories = live.aggregator.histories();
    let histories = histories.read().map_err(|_| "histories lock poisoned")?;
    for r in retrains {
        let vehicle = live.fleet.vehicle(r.id).ok_or("unknown vehicle")?;
        let records = &histories.get(&r.id.0).ok_or("vehicle without history")?[..r.days];
        let view = t.replica("core.view_build", "ingest.drain", |_| {
            VehicleView::from_records(live.fleet, vehicle, records, config.scenario)
        });
        if view.len() != r.trained_at {
            return Err(format!(
                "vehicle {}: replica view has {} slots, the fit saw {}",
                r.id.0,
                view.len(),
                r.trained_at
            ));
        }
        let (arena, replica_arena) = replicas.arenas.entry(r.id.0).or_default();
        let fitted = t.replica("core.fit", "ingest.drain", |_| {
            fitpath::fit(&view, config, r.train_from, r.trained_at, arena)
        })?;
        if saved_digest(&fitted) != r.digest {
            return Err(format!(
                "vehicle {}: replica fit differs from the stored model",
                r.id.0
            ));
        }
        let job = FitJob {
            view: Rc::new(view),
            from: r.train_from,
            to: r.trained_at,
            fitted,
        };
        fitpath::replicate(t, &job, config, replica_arena, &mut replicas.counts)?;
        let hours = t
            .replica("core.predict", "ingest.drain", |_| {
                forecast_horizon(&job.fitted, &job.view, live.fleet, r.horizon)
            })
            .map_err(|e| e.to_string())?;
        if hours != r.hours {
            return Err(format!("vehicle {}: replica forecast differs", r.id.0));
        }
        t.replica("serve.persist", "ingest.drain", |_| {
            replica_store.insert(r.id, config, job.fitted.clone(), r.trained_at)
        });
        replicas.persisted += 1;
        let name = SnapshotStore::file_name(r.id, ModelStore::fingerprint(config));
        replicas.snapshot_bytes += std::fs::metadata(replica_dir.join(name))
            .map(|m| m.len())
            .unwrap_or(0);
    }
    Ok(())
}

/// A set-up: inputs, a fresh log and store, and the warm-up prefix.
fn set_up<'f>(fleet: &'f Fleet, ids: &'f [VehicleId]) -> Result<Live<'f>, String> {
    let mut live = Live::open(fleet, ids)?;
    for day in 0..WARM_DAYS {
        let (outcomes, _) = live.day(day_reports(fleet, ids, day), None)?;
        if !outcomes.iter().all(retrained) {
            return Err("a warm-up retrain failed".into());
        }
    }
    if live.scheduler.modeled_vehicles().len() != ids.len() {
        return Err(format!(
            "warm-up left {} of {} vehicles without a model",
            ids.len() - live.scheduler.modeled_vehicles().len(),
            ids.len()
        ));
    }
    Ok(live)
}

struct Phase {
    rounds: Rounds,
    retrains: u64,
    sealed: u64,
    degraded: u64,
    failed: u64,
    hits: u64,
    records: u64,
}

/// Runs the timed days on `live`; when traced, with spans, collecting
/// the drained retrains for replication.
fn timed_days(
    report: &mut Report,
    live: &mut Live,
    days: usize,
    kernel: &mut Kernel,
    mut t: Option<(&mut Trace, &mut Vec<Retrain>)>,
) -> Result<Phase, String> {
    let mut phase = Phase {
        rounds: Rounds::new(Typical::MedianRoundMean),
        retrains: 0,
        sealed: 0,
        degraded: 0,
        failed: 0,
        hits: 0,
        records: 0,
    };
    let (mut round_ms, mut round_cpu) = (Vec::new(), 0.0);
    let mut before = kernel.measure()?;
    for day in 0..days {
        if day > 0 && day % ROUND_DAYS == 0 {
            let after = kernel.measure()?;
            phase.rounds.record(before, after, &round_ms, round_cpu);
            (round_ms, round_cpu, before) = (Vec::new(), 0.0, after);
        }
        let reports = day_reports(live.fleet, live.ids, live.next_day);
        phase.records += reports.len() as u64;
        let cpu_before = sys::cpu_seconds();
        let start = Instant::now();
        let result = match t.as_mut() {
            Some((trace, _)) => trace.span("bench.op", |trace| live.day(reports, Some(trace))),
            None => live.day(reports, None),
        };
        let took = start.elapsed();
        round_cpu += sys::cpu_seconds() - cpu_before;
        let (outcomes, sealed) = result?;
        round_ms.push(sys::ms(took));
        report.tally.record(outcomes.iter().all(retrained));
        phase.retrains += outcomes.len() as u64;
        phase.sealed += sealed;
        phase.degraded += outcomes.iter().filter(|o| o.is_degraded()).count() as u64;
        phase.failed += outcomes.iter().filter(|o| o.forecast().is_none()).count() as u64;
        phase.hits += outcomes.iter().filter(|o| o.is_cache_hit()).count() as u64;
        if let Some((_, retrains)) = t.as_mut() {
            retrains.extend(retrains_of(live, &outcomes)?);
        }
    }
    let after = kernel.measure()?;
    phase.rounds.record(before, after, &round_ms, round_cpu);
    Ok(phase)
}

/// Runs the workload.
pub fn run(options: &Options) -> Result<Report, String> {
    sys::flush_filesystems();
    let result = run_flushed(options);
    // The scratch directories are gone by now; finish their removal too.
    sys::flush_filesystems();
    result
}

fn run_flushed(options: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let days = DAYS_PER_SECOND * options.seconds as usize;
    let mut kernel = Kernel::new();
    let mut setups = Setups::default();
    for rep in 0..SETUPS {
        let measured = kernel.measure()?;
        let start = Instant::now();
        let mut st = Trace::new();
        if FleetConfig::small(1, 0).n_days() < WARM_DAYS + days {
            return Err(format!(
                "--seconds {} asks for more days than the fleet has",
                options.seconds
            ));
        }
        let (fleet, ids) = inputs(options.seed, days, &mut st)?;
        let mut live = set_up(&fleet, &ids)?;
        let took = start.elapsed().as_secs_f64();
        setups.record(measured, kernel.measure()?, took);
        if rep + 1 < SETUPS {
            continue;
        }
        let phase = timed_days(&mut report, &mut live, days, &mut kernel, None)?;
        // Read before the gates, whose replay holds the whole log.
        let peak_rss = sys::peak_rss_mib();
        if options.trace {
            drop(live);
            setups.report_raw(&mut report);
            phase.rounds.report_raw(&mut report);
            traced(&mut report, options, &phase, &st, days)?;
        } else {
            gates(&mut report, live)?;
            setups.report_end_to_end(&mut report);
            report.metric("peak_rss_mb", "MiB", peak_rss, 1);
            phase.rounds.report_end_to_end(&mut report);
            report.notes.push(stats::timing_note(
                "fleet-day at reference speed",
                &phase.rounds.reference_ms,
            ));
        }
        report.notes.push(format!(
            "ingest_stream: {VEHICLES} vehicles, {WARM_DAYS} warm-up days, {days} timed days with {} records and {} retrains",
            phase.records, phase.retrains
        ));
    }
    Ok(report)
}

/// The traced run: the same days again on a fresh set-up, with spans
/// and replicas; the untraced pass is the overhead baseline.
fn traced(
    report: &mut Report,
    options: &Options,
    untraced: &Phase,
    setup: &Trace,
    days: usize,
) -> Result<(), String> {
    let (fleet, ids) = inputs(options.seed, days, &mut Trace::new())?;
    let mut live = set_up(&fleet, &ids)?;
    let mut t = Trace::new();
    let mut replicas = Replicas::default();
    let replica_dir = Scratch::new("replica-store")?;
    let replica_store = ModelStore::open(replica_dir.path()).map_err(|e| e.to_string())?;
    let bytes = |live: &Live| {
        live.log_registry
            .counter("vup_ingest_appended_bytes_total")
            .get()
    };
    let (bytes_before, appended_before) = (bytes(&live), live.appended);
    let mut retrains = Vec::new();
    let phase = timed_days(
        report,
        &mut live,
        days,
        &mut Kernel::new(),
        Some((&mut t, &mut retrains)),
    )?;
    replicate_retrains(
        &mut t,
        &live,
        &retrains,
        &mut replicas,
        &replica_store,
        replica_dir.path(),
    )?;
    let bytes_appended = bytes(&live) - bytes_before;
    let records = live.appended - appended_before;
    let reopened = gates(report, live)?;

    let n = phase.rounds.ops();
    let per_op_us = |name: &str| t.totals(name).self_ns as f64 / 1e3 / n as f64;
    for (metric, span) in [
        ("ingest.append_us", "ingest.append"),
        ("ingest.observe_us", "ingest.observe"),
        ("ingest.schedule_us", "ingest.schedule"),
        ("ingest.drain_us", "ingest.drain"),
        ("core.view_build_us", "core.view_build"),
        ("core.fit_us", "core.fit"),
        ("core.select_lags_us", "core.select_lags"),
        ("core.design_matrix_us", "core.design_matrix"),
        ("core.predict_us", "core.predict"),
        ("tseries.acf_us", "tseries.acf"),
        ("ml.svr_fit_us", "ml.svr_fit"),
        ("serve.persist_us", "serve.persist"),
    ] {
        report.metric(metric, "us", per_op_us(span), n);
    }
    report.count("ingest.records_appended", records);
    report.metric("ingest.bytes_appended", "bytes", bytes_appended as f64, 1);
    report.count("ingest.slots_sealed", phase.sealed);
    report.count("ingest.retrain_decisions", phase.retrains);
    report.metric("ingest.open_ms", "ms", sys::ms(reopened.log_open), 1);
    report.count("ingest.quarantined", reopened.quarantined as u64);
    report.count("serve.retrains", replicas.persisted);
    report.count("core.fits", t.totals("core.fit").calls);
    report.count("core.view_builds", t.totals("core.view_build").calls);
    report.count("core.select_calls", t.totals("core.select_lags").calls);
    report.count("core.predicts", t.totals("core.predict").calls);
    report.count("tseries.acf_calls", t.totals("tseries.acf").calls);
    report.count("core.design_rows", replicas.counts.design_rows);
    let arena = replicas
        .arenas
        .values()
        .fold(vup_ml::ArenaStats::default(), |acc, (a, _)| {
            acc.merged(a.stats())
        });
    let rows = arena.reused_rows + arena.filled_rows;
    report.metric(
        "ml.arena_reuse_ratio",
        "ratio",
        arena.reused_rows as f64 / rows.max(1) as f64,
        rows as usize,
    );
    report.metric(
        "serve.snapshot_bytes",
        "bytes",
        replicas.snapshot_bytes as f64 / replicas.persisted.max(1) as f64,
        replicas.persisted as usize,
    );
    report.metric("serve.warm_start_ms", "ms", sys::ms(reopened.store_open), 1);
    report.metric(
        "serve.hit_ratio",
        "ratio",
        phase.hits as f64 / phase.retrains.max(1) as f64,
        phase.retrains as usize,
    );
    report.count("serve.degraded", phase.degraded);
    report.count("serve.failed", phase.failed);
    report.metric(
        "fleetsim.generate_ms",
        "ms",
        setup.layer_ns("fleetsim") as f64 / 1e6,
        1,
    );
    let whole_ns: f64 = phase.rounds.raw_ms.iter().sum::<f64>() * 1e6;
    for (name, pct) in trace::shares(&t, crate::SHARE_LAYERS, whole_ns) {
        report.metric(&name, "%", pct, n);
    }
    report.metric(
        "obs.trace_overhead_pct",
        "%",
        100.0
            * (stats::median(&phase.rounds.raw_ms) / stats::median(&untraced.rounds.raw_ms) - 1.0),
        n,
    );
    if let Some((p90, _)) = stats::windowed_percentile(&untraced.rounds.reference_ms, 0.9) {
        report.metric("op.p90_ms", "ms", p90, untraced.rounds.ops());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vup_ingest::RetrainReason;

    fn decision(seq: u64, slot: usize) -> RetrainDecision {
        RetrainDecision {
            seq,
            vehicle_id: 4,
            slot,
            reason: RetrainReason::Stale,
        }
    }

    #[test]
    fn matching_runs_pass_and_perturbed_ones_trip_the_gate() {
        let decisions = vec![decision(0, 140), decision(1, 147)];
        let models = vec![(4, 150, "00ff".to_string())];
        assert!(same_as_replay(&decisions, &models, &decisions, &models).is_ok());
        let moved = vec![decision(0, 140), decision(1, 148)];
        assert!(same_as_replay(&decisions, &models, &moved, &models).is_err());
        let other_model = vec![(4, 150, "00fe".to_string())];
        assert!(same_as_replay(&decisions, &models, &decisions, &other_model).is_err());
    }

    #[test]
    fn digests_are_fnv1a() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    }
}
