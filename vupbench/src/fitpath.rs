//! The traced training step shared by `paper_eval` and `ingest_stream`:
//! a real `FittedPredictor` fit, and replicas of the layers it runs
//! inside (ACF lag selection, design matrix, model fit, QR solve), each
//! checked against the real fit.

use std::rc::Rc;

use vup_core::select::select_lags;
use vup_core::window::{build_dataset_arena, feature_row_into};
use vup_core::{FittedPredictor, ModelSpec, PipelineConfig, VehicleView};
use vup_linalg::{Cholesky, Matrix, QrDecomposition};
use vup_ml::instrument::MlTimers;
use vup_ml::linear::LinearRegression;
use vup_ml::scaler::StandardScaler;
use vup_ml::{Regressor, RegressorSpec, TrainArena};

use crate::trace::Trace;

/// Counts the replicas gather besides time.
#[derive(Debug, Default, Clone, Copy)]
pub struct FitCounts {
    /// Design-matrix rows built.
    pub design_rows: u64,
    /// LR fits whose QR solve met a rank-deficient design, so the
    /// regressor's ridge (Cholesky) fallback ran.
    pub ridge_fallbacks: u64,
}

/// The key `FittedPredictor` gives its arena: everything a design row
/// depends on besides its target slot.
fn arena_key(view: &VehicleView, config: &PipelineConfig, lags: &[usize]) -> u64 {
    let f = &config.features;
    let can_idx = f.can_channels.indices();
    vup_ml::arena::fingerprint(
        [
            view.vehicle_id.0 as u64,
            config.scenario as u64,
            f.lag_hours as u64,
            f.target_calendar as u64,
            f.target_weather as u64,
            can_idx.len() as u64,
        ]
        .into_iter()
        .chain(can_idx.iter().map(|&c| c as u64))
        .chain([lags.len() as u64])
        .chain(lags.iter().map(|&l| l as u64)),
    )
}

/// Centres the columns of `x` and the targets `y` the way the linear
/// regressor does before its least-squares solve.
fn centred(x: &Matrix, y: &[f64]) -> (Matrix, Vec<f64>) {
    let n = x.rows() as f64;
    let mut means = vec![0.0; x.cols()];
    for row in x.iter_rows() {
        for (m, &v) in means.iter_mut().zip(row) {
            *m += v;
        }
    }
    for m in &mut means {
        *m /= n;
    }
    let mut xc = x.clone();
    for i in 0..xc.rows() {
        for (v, &m) in xc.row_mut(i).iter_mut().zip(&means) {
            *v -= m;
        }
    }
    let y_mean = y.iter().sum::<f64>() / n;
    (xc, y.iter().map(|&v| v - y_mean).collect())
}

/// The linear regressor's fallback for a rank-deficient design: a tiny
/// ridge, `(XᵀX + λ·s·I) β = Xᵀy` with `s` the mean Gram diagonal and
/// λ its `FALLBACK_RIDGE` of 1e-8.
fn ridge_solve(xc: &Matrix, yc: &[f64]) -> vup_linalg::Result<Vec<f64>> {
    let mut gram = xc.gram();
    let p = gram.rows();
    let diag_scale = (0..p).map(|i| gram[(i, i)]).sum::<f64>() / p as f64;
    gram.shift_diagonal(1e-8 * diag_scale.max(1.0));
    let xty = xc.matvec_t(yc)?;
    Cholesky::decompose(&gram)?.solve(&xty)
}

/// One fit whose inner layers are to be replicated after the op that
/// ran it, so replicas neither warm nor evict caches for the op.
pub struct FitJob {
    /// The view the fit trained on.
    pub view: Rc<VehicleView>,
    /// First training slot.
    pub from: usize,
    /// End of the training window (exclusive).
    pub to: usize,
    /// What the fit produced.
    pub fitted: FittedPredictor,
}

/// Fits slots `[from, to)` of `view` through the program's own
/// `FittedPredictor::fit_arena_observed`.
pub fn fit(
    view: &VehicleView,
    config: &PipelineConfig,
    from: usize,
    to: usize,
    arena: &mut TrainArena,
) -> Result<FittedPredictor, String> {
    FittedPredictor::fit_arena_observed(view, config, from, to, &MlTimers::disabled(), arena)
        .map_err(|e| format!("fit of vehicle {}: {e}", view.vehicle_id.0))
}

/// Replicates the layers a fit runs inside — ACF lag selection, design
/// matrix, scaler and regressor fit, and for LR the QR (or ridge
/// Cholesky) solve — on the fit's inputs, each checked against the fit
/// and its time moved out of the `core.fit` span's. `replica_arena`
/// must be the same vehicle's across its fits, as the fit's own arena is.
pub fn replicate(
    t: &mut Trace,
    job: &FitJob,
    config: &PipelineConfig,
    replica_arena: &mut TrainArena,
    counts: &mut FitCounts,
) -> Result<(), String> {
    let (view, from, to, fitted) = (job.view.as_ref(), job.from, job.to, &job.fitted);
    let ModelSpec::Learned(spec) = &config.model else {
        return Ok(());
    };
    let hours = view.hours_range(from, to);
    let (k, max_lag) = (config.effective_k(), config.max_lag);
    let lags = t.replica("core.select_lags", "core.fit", |t| {
        let lags = select_lags(&hours, k, max_lag);
        if k < max_lag {
            t.replica("tseries.acf", "core.select_lags", |_| {
                vup_tseries::acf(&hours, max_lag)
            });
        }
        lags
    });
    if lags != fitted.selected_lags() {
        return Err(format!(
            "vehicle {}: replica lags {lags:?} differ from the fit's {:?}",
            view.vehicle_id.0,
            fitted.selected_lags()
        ));
    }
    let mut dataset = t
        .replica("core.design_matrix", "core.fit", |_| {
            build_dataset_arena(
                replica_arena,
                arena_key(view, config, &lags),
                view,
                from + max_lag,
                to,
                &lags,
                &config.features,
            )
        })
        .map_err(|e| format!("design matrix: {e}"))?;
    counts.design_rows += dataset.len() as u64;

    let (name, linear) = match spec {
        RegressorSpec::Linear => ("ml.lr_fit", true),
        RegressorSpec::Svr(_) => ("ml.svr_fit", false),
        _ => ("ml.other_fit", false),
    };
    let mut lr = LinearRegression::new();
    let mut other = spec.build();
    let scaler = t
        .replica(name, "core.fit", |_| -> Result<StandardScaler, String> {
            let scaler = StandardScaler::fit(dataset.x()).map_err(|e| e.to_string())?;
            dataset
                .standardize_in_place(&scaler)
                .map_err(|e| e.to_string())?;
            let model: &mut dyn Regressor = if linear { &mut lr } else { other.as_mut() };
            model.fit(&dataset).map_err(|e| e.to_string())?;
            Ok(scaler)
        })
        .map_err(|e| format!("replica {name}: {e}"))?;
    let model: &dyn Regressor = if linear { &lr } else { other.as_ref() };

    // The replica model must predict exactly what the real fit predicts.
    let target = to - 1;
    let mut row = vec![0.0; config.features.n_features(lags.len())];
    feature_row_into(view, target, &lags, &config.features, &mut row);
    scaler.transform_row(&mut row).map_err(|e| e.to_string())?;
    let replica = model
        .predict_row(&row)
        .map_err(|e| e.to_string())?
        .clamp(0.0, 24.0);
    let real = fitted.predict(view, target).map_err(|e| e.to_string())?;
    if replica.to_bits() != real.to_bits() {
        return Err(format!(
            "vehicle {}: replica {name} predicts {replica}, the fit {real}",
            view.vehicle_id.0
        ));
    }

    if linear {
        let (xc, yc) = centred(dataset.x(), dataset.y());
        let mut solved = Err(vup_linalg::LinalgError::Empty);
        if dataset.len() > dataset.n_features() {
            solved = t.replica("linalg.qr", name, |_| {
                QrDecomposition::decompose(&xc).and_then(|qr| qr.solve_lstsq(&yc))
            });
        }
        if solved.is_err() {
            counts.ridge_fallbacks += 1;
            solved = t.replica("linalg.cholesky", name, |_| ridge_solve(&xc, &yc));
        }
        let coef = solved.map_err(|e| format!("linalg replica: {e}"))?;
        let fitted_coef = lr.coefficients().expect("fitted above");
        let same = coef.len() == fitted_coef.len()
            && coef
                .iter()
                .zip(fitted_coef)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err(format!(
                "vehicle {}: linalg replica coefficients differ from the LR fit",
                view.vehicle_id.0
            ));
        }
    }
    replica_arena.reclaim(dataset);
    Ok(())
}
