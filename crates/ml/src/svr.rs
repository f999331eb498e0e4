//! ε-insensitive support-vector regression solved with SMO.
//!
//! Implements the standard dual formulation (Smola & Schölkopf) in the
//! LibSVM 2n-variable layout: variables `a = [α; α*]` with constraint signs
//! `s = [+1…; −1…]`, box `0 ≤ a ≤ C`, equality `Σ s_p a_p = 0`, objective
//! `½ aᵀQa + pᵀa` where `Q_pq = s_p s_q K(x_p, x_q)` and
//! `p = [ε − y; ε + y]`. The solver uses maximal-violating-pair working-set
//! selection and the two-variable analytic update, i.e. classic SMO.
//!
//! The paper's grid search selected `kernel = rbf, C = 10, ε = 0.1, γ = 1`
//! ([`SvrParams::default`]). SVR assumes comparable feature scales; the
//! `vup-core` pipeline standardizes features before fitting.

use serde::{Deserialize, Serialize};
use vup_linalg::Matrix;

use crate::kernel::Kernel;
use crate::{Dataset, MlError, Regressor, Result};

/// Guard against a non-positive curvature denominator in the two-variable
/// update (LibSVM's `TAU`).
const TAU: f64 = 1e-12;

/// Hyperparameters for [`Svr`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SvrParams {
    /// Box constraint `C` (> 0); the paper uses `10`.
    pub c: f64,
    /// Width of the ε-insensitive tube (≥ 0); the paper uses `0.1`.
    pub epsilon: f64,
    /// Kernel; the paper uses RBF with `γ = 1`.
    pub kernel: Kernel,
    /// KKT-violation stopping tolerance (LibSVM default `1e-3`).
    pub tol: f64,
    /// Hard cap on SMO iterations.
    pub max_iter: usize,
}

impl Default for SvrParams {
    fn default() -> Self {
        SvrParams {
            c: 10.0,
            epsilon: 0.1,
            kernel: Kernel::paper(),
            tol: 1e-3,
            max_iter: 100_000,
        }
    }
}

impl SvrParams {
    /// The paper's hyperparameters with the RBF bandwidth rescaled to the
    /// feature dimensionality: `γ = 1/p`.
    ///
    /// The paper's grid search selected `γ = 1` *for its own feature
    /// space*; with `p` standardized features the expected squared
    /// distance between two points is `≈ 2p`, so a fixed `γ = 1` drives
    /// every off-diagonal kernel entry to ~0 once `p` grows past a
    /// handful, leaving SVR able to predict only its bias. `γ = 1/p`
    /// (scikit-learn's `gamma="scale"` on unit-variance features) keeps
    /// the kernel informative at any dimensionality — this mirrors
    /// re-running the paper's §4.2 grid search on our feature space.
    pub fn paper_scaled(n_features: usize) -> SvrParams {
        SvrParams {
            kernel: Kernel::Rbf {
                gamma: 1.0 / n_features.max(1) as f64,
            },
            ..SvrParams::default()
        }
    }

    fn validate(&self) -> Result<()> {
        if !(self.c > 0.0 && self.c.is_finite()) {
            return Err(MlError::InvalidParameter {
                name: "c",
                reason: format!("must be positive and finite, got {}", self.c),
            });
        }
        if !self.epsilon.is_finite() || self.epsilon < 0.0 {
            return Err(MlError::InvalidParameter {
                name: "epsilon",
                reason: format!("must be non-negative and finite, got {}", self.epsilon),
            });
        }
        if let Kernel::Rbf { gamma } = self.kernel {
            if !(gamma > 0.0 && gamma.is_finite()) {
                return Err(MlError::InvalidParameter {
                    name: "gamma",
                    reason: format!("must be positive and finite, got {gamma}"),
                });
            }
        }
        if self.tol.is_nan() || self.tol <= 0.0 {
            return Err(MlError::InvalidParameter {
                name: "tol",
                reason: "must be positive".into(),
            });
        }
        if self.max_iter == 0 {
            return Err(MlError::InvalidParameter {
                name: "max_iter",
                reason: "must be positive".into(),
            });
        }
        Ok(())
    }
}

/// ε-support-vector regression (the paper's "SVR").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Svr {
    params: SvrParams,
    fitted: Option<FittedSvr>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct FittedSvr {
    /// Support rows (training samples with non-zero dual coefficient).
    support: Matrix,
    /// Dual coefficients `β_i = α_i − α*_i` aligned with `support` rows.
    beta: Vec<f64>,
    bias: f64,
    n_features: usize,
    iterations: usize,
    converged: bool,
}

impl Svr {
    /// Creates an unfitted model with the given hyperparameters.
    pub fn new(params: SvrParams) -> Self {
        Svr {
            params,
            fitted: None,
        }
    }

    /// Creates the paper's configuration (`rbf, C = 10, ε = 0.1, γ = 1`).
    pub fn paper() -> Self {
        Svr::new(SvrParams::default())
    }

    /// Number of support vectors, or `None` before fitting.
    pub fn n_support(&self) -> Option<usize> {
        self.fitted.as_ref().map(|f| f.beta.len())
    }

    /// SMO iterations performed by the last fit.
    pub fn iterations(&self) -> Option<usize> {
        self.fitted.as_ref().map(|f| f.iterations)
    }

    /// Whether the last fit reached the KKT tolerance before the iteration
    /// cap.
    pub fn converged(&self) -> Option<bool> {
        self.fitted.as_ref().map(|f| f.converged)
    }

    /// Fitted bias term `b`, or `None` before fitting.
    pub fn bias(&self) -> Option<f64> {
        self.fitted.as_ref().map(|f| f.bias)
    }
}

struct SmoState {
    k: Matrix,
    /// 2n dual variables: `a[p]` for p < n is α, for p ≥ n is α*.
    a: Vec<f64>,
    /// Gradient of the dual objective.
    g: Vec<f64>,
    n: usize,
    c: f64,
}

impl SmoState {
    /// Constraint sign of variable `p`.
    #[inline]
    fn sign(&self, p: usize) -> f64 {
        if p < self.n {
            1.0
        } else {
            -1.0
        }
    }

    /// `Q_pq = s_p s_q K(x_p, x_q)`.
    #[inline]
    fn q(&self, p: usize, q: usize) -> f64 {
        self.sign(p) * self.sign(q) * self.k[(p % self.n, q % self.n)]
    }

    /// Runs SMO until no pair violates the KKT conditions by `tol` or
    /// `max_iter` pairs have been updated; returns the iteration count and
    /// whether it converged.
    fn solve(&mut self, tol: f64, max_iter: usize) -> (usize, bool) {
        for iterations in 0..max_iter {
            match self.select_pair(tol) {
                Some((i, j)) => self.update_pair(i, j),
                None => return (iterations, true),
            }
        }
        (max_iter, false)
    }

    /// Maximal-violating-pair selection over `v_p = −s_p G_p`. Returns
    /// `None` at optimality.
    ///
    /// Scans the α half (`s = +1`: up while `a < C`, low while `a > 0`),
    /// then the α* half (`s = −1`: up while `a > 0`, low while `a < C`),
    /// keeping the first strict extremum in index order.
    fn select_pair(&self, tol: f64) -> Option<(usize, usize)> {
        let (n, c) = (self.n, self.c);
        let (a_alpha, a_star) = self.a.split_at(n);
        let (g_alpha, g_star) = self.g.split_at(n);
        let mut i = usize::MAX;
        let mut m_up = f64::NEG_INFINITY;
        let mut j = usize::MAX;
        let mut m_low = f64::INFINITY;
        for (p, (&a, &g)) in a_alpha.iter().zip(g_alpha).enumerate() {
            let v = -g;
            if a < c && v > m_up {
                m_up = v;
                i = p;
            }
            if a > 0.0 && v < m_low {
                m_low = v;
                j = p;
            }
        }
        for (p, (&a, &v)) in a_star.iter().zip(g_star).enumerate() {
            if a > 0.0 && v > m_up {
                m_up = v;
                i = n + p;
            }
            if a < c && v < m_low {
                m_low = v;
                j = n + p;
            }
        }
        if i == usize::MAX || j == usize::MAX || m_up - m_low < tol {
            None
        } else {
            Some((i, j))
        }
    }

    /// Analytic two-variable update (LibSVM `Solver::solve` inner step).
    fn update_pair(&mut self, i: usize, j: usize) {
        let (old_i, old_j) = (self.a[i], self.a[j]);
        self.clip_pair(i, j);
        let (di, dj) = (self.a[i] - old_i, self.a[j] - old_j);
        if di == 0.0 && dj == 0.0 {
            return;
        }
        // Rank-two gradient update `G_p += Q_pi Δa_i + Q_pj Δa_j`. With
        // `Q_pq = s_p s_q K_pq` the α* half's step is the exact negation
        // of the α half's (sign flips and round-to-nearest are
        // symmetric), so one product pair per kernel column serves both.
        // `K` is stored exactly symmetric, so row `i mod n` is column
        // `i mod n`.
        let n = self.n;
        let (ci, cj) = (self.sign(i) * di, self.sign(j) * dj);
        let (k_i, k_j) = (self.k.row(i % n), self.k.row(j % n));
        let (g_alpha, g_star) = self.g.split_at_mut(n);
        for (((g_a, g_s), &kpi), &kpj) in g_alpha.iter_mut().zip(g_star).zip(k_i).zip(k_j) {
            let u = kpi * ci + kpj * cj;
            *g_a += u;
            *g_s -= u;
        }
    }

    /// Moves `a_i`, `a_j` to the analytic optimum of the two-variable
    /// subproblem, clipped back into the box along the equality
    /// constraint.
    fn clip_pair(&mut self, i: usize, j: usize) {
        let c = self.c;
        let (old_i, old_j) = (self.a[i], self.a[j]);
        if self.sign(i) != self.sign(j) {
            let quad = (self.q(i, i) + self.q(j, j) + 2.0 * self.q(i, j)).max(TAU);
            let delta = (-self.g[i] - self.g[j]) / quad;
            let diff = old_i - old_j;
            self.a[i] += delta;
            self.a[j] += delta;
            if diff > 0.0 {
                if self.a[j] < 0.0 {
                    self.a[j] = 0.0;
                    self.a[i] = diff;
                }
            } else if self.a[i] < 0.0 {
                self.a[i] = 0.0;
                self.a[j] = -diff;
            }
            if diff > 0.0 {
                if self.a[i] > c {
                    self.a[i] = c;
                    self.a[j] = c - diff;
                }
            } else if self.a[j] > c {
                self.a[j] = c;
                self.a[i] = c + diff;
            }
        } else {
            let quad = (self.q(i, i) + self.q(j, j) - 2.0 * self.q(i, j)).max(TAU);
            let delta = (self.g[i] - self.g[j]) / quad;
            let sum = old_i + old_j;
            self.a[i] -= delta;
            self.a[j] += delta;
            if sum > c {
                if self.a[i] > c {
                    self.a[i] = c;
                    self.a[j] = sum - c;
                }
            } else if self.a[j] < 0.0 {
                self.a[j] = 0.0;
                self.a[i] = sum;
            }
            if sum > c {
                if self.a[j] > c {
                    self.a[j] = c;
                    self.a[i] = sum - c;
                }
            } else if self.a[i] < 0.0 {
                self.a[i] = 0.0;
                self.a[j] = sum;
            }
        }
    }

    /// LibSVM-style bias recovery: average `s_p G_p` over free variables,
    /// falling back to the midpoint of the KKT interval.
    fn compute_bias(&self) -> f64 {
        let mut ub = f64::INFINITY;
        let mut lb = f64::NEG_INFINITY;
        let mut sum_free = 0.0;
        let mut n_free = 0usize;
        for p in 0..2 * self.n {
            let s = self.sign(p);
            let yg = s * self.g[p];
            if self.a[p] >= self.c {
                if s < 0.0 {
                    ub = ub.min(yg);
                } else {
                    lb = lb.max(yg);
                }
            } else if self.a[p] <= 0.0 {
                if s > 0.0 {
                    ub = ub.min(yg);
                } else {
                    lb = lb.max(yg);
                }
            } else {
                n_free += 1;
                sum_free += yg;
            }
        }
        let rho = if n_free > 0 {
            sum_free / n_free as f64
        } else {
            (ub + lb) / 2.0
        };
        -rho
    }
}

impl Svr {
    /// Fits with `solve` running the SMO iterations on the initial state
    /// (`tol`, `max_iter`) and returning `(iterations, converged)`.
    fn fit_with(
        &mut self,
        data: &Dataset,
        solve: fn(&mut SmoState, f64, usize) -> (usize, bool),
    ) -> Result<()> {
        self.params.validate()?;
        let n = data.len();
        if n < 2 {
            return Err(MlError::NotEnoughSamples {
                required: 2,
                actual: n,
            });
        }
        let x = data.x();
        let y = data.y();
        let k = self.params.kernel.matrix(x);

        // At a = 0 the gradient is just the linear term p = [ε − y; ε + y].
        let mut g = Vec::with_capacity(2 * n);
        g.extend(y.iter().map(|&t| self.params.epsilon - t));
        g.extend(y.iter().map(|&t| self.params.epsilon + t));

        let mut state = SmoState {
            k,
            a: vec![0.0; 2 * n],
            g,
            n,
            c: self.params.c,
        };
        let (iterations, converged) = solve(&mut state, self.params.tol, self.params.max_iter);
        let bias = state.compute_bias();

        // Collect support vectors: β_i = α_i − α*_i ≠ 0.
        let mut support_rows: Vec<&[f64]> = Vec::new();
        let mut beta = Vec::new();
        for i in 0..n {
            let b = state.a[i] - state.a[n + i];
            if b != 0.0 {
                support_rows.push(x.row(i));
                beta.push(b);
            }
        }
        let support = if support_rows.is_empty() {
            Matrix::zeros(0, x.cols())
        } else {
            Matrix::from_rows(&support_rows)?
        };

        self.fitted = Some(FittedSvr {
            support,
            beta,
            bias,
            n_features: x.cols(),
            iterations,
            converged,
        });
        Ok(())
    }
}

impl Regressor for Svr {
    fn fit(&mut self, data: &Dataset) -> Result<()> {
        self.fit_with(data, SmoState::solve)
    }

    fn predict_row(&self, row: &[f64]) -> Result<f64> {
        let f = self.fitted.as_ref().ok_or(MlError::NotFitted)?;
        if row.len() != f.n_features {
            return Err(MlError::FeatureMismatch {
                expected: f.n_features,
                actual: row.len(),
            });
        }
        let mut acc = f.bias;
        for (sv, &b) in f.support.iter_rows().zip(&f.beta) {
            acc += b * self.params.kernel.eval(sv, row);
        }
        Ok(acc)
    }

    fn name(&self) -> &'static str {
        "SVR"
    }

    fn clone_box(&self) -> Box<dyn Regressor + Send + Sync> {
        Box::new(self.clone())
    }

    fn save(&self) -> crate::SavedModel {
        crate::SavedModel::Svr(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The solver's original element-at-a-time loops, kept as the oracle
    /// that the split-half loops must match bit for bit.
    impl SmoState {
        fn solve_reference(&mut self, tol: f64, max_iter: usize) -> (usize, bool) {
            let mut iterations = 0usize;
            let mut converged = false;
            while iterations < max_iter {
                match self.select_pair_reference(tol) {
                    Some((i, j)) => self.update_pair_reference(i, j),
                    None => {
                        converged = true;
                        break;
                    }
                }
                iterations += 1;
            }
            (iterations, converged)
        }

        fn select_pair_reference(&self, tol: f64) -> Option<(usize, usize)> {
            let two_n = 2 * self.n;
            let mut i = usize::MAX;
            let mut m_up = f64::NEG_INFINITY;
            let mut j = usize::MAX;
            let mut m_low = f64::INFINITY;
            for p in 0..two_n {
                let s = self.sign(p);
                let v = -s * self.g[p];
                let in_up = (s > 0.0 && self.a[p] < self.c) || (s < 0.0 && self.a[p] > 0.0);
                let in_low = (s < 0.0 && self.a[p] < self.c) || (s > 0.0 && self.a[p] > 0.0);
                if in_up && v > m_up {
                    m_up = v;
                    i = p;
                }
                if in_low && v < m_low {
                    m_low = v;
                    j = p;
                }
            }
            if i == usize::MAX || j == usize::MAX || m_up - m_low < tol {
                None
            } else {
                Some((i, j))
            }
        }

        fn update_pair_reference(&mut self, i: usize, j: usize) {
            let (old_i, old_j) = (self.a[i], self.a[j]);
            self.clip_pair(i, j);
            let (di, dj) = (self.a[i] - old_i, self.a[j] - old_j);
            if di == 0.0 && dj == 0.0 {
                return;
            }
            let two_n = 2 * self.n;
            for p in 0..two_n {
                self.g[p] += self.q(p, i) * di + self.q(p, j) * dj;
            }
        }
    }

    fn dataset_1d(xs: &[f64], y: &[f64]) -> Dataset {
        let rows: Vec<Vec<f64>> = xs.iter().map(|&v| vec![v]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Dataset::new(Matrix::from_rows(&refs).unwrap(), y.to_vec()).unwrap()
    }

    #[test]
    fn fits_linear_function_within_epsilon_band() {
        let xs: Vec<f64> = (0..30).map(|i| i as f64 / 29.0).collect();
        let y: Vec<f64> = xs.iter().map(|&x| 2.0 * x - 0.5).collect();
        let mut svr = Svr::paper();
        svr.fit(&dataset_1d(&xs, &y)).unwrap();
        assert_eq!(svr.converged(), Some(true));
        for (&x, &t) in xs.iter().zip(&y) {
            let p = svr.predict_row(&[x]).unwrap();
            // Training-point error bounded by the ε-tube plus slack.
            assert!((p - t).abs() < 0.15, "x={x}: pred {p} vs {t}");
        }
    }

    #[test]
    fn fits_nonlinear_function_better_than_linear_model() {
        use crate::linear::LinearRegression;
        let xs: Vec<f64> = (0..60).map(|i| -2.0 + 4.0 * i as f64 / 59.0).collect();
        let y: Vec<f64> = xs.iter().map(|&x| (2.0 * x).sin() + 0.5 * x).collect();
        let data = dataset_1d(&xs, &y);

        let mut svr = Svr::paper();
        svr.fit(&data).unwrap();
        let mut lr = LinearRegression::new();
        lr.fit(&data).unwrap();

        let svr_pred: Vec<f64> = xs.iter().map(|&x| svr.predict_row(&[x]).unwrap()).collect();
        let lr_pred: Vec<f64> = xs.iter().map(|&x| lr.predict_row(&[x]).unwrap()).collect();
        let svr_err = crate::metrics::rmse(&svr_pred, &y).unwrap();
        let lr_err = crate::metrics::rmse(&lr_pred, &y).unwrap();
        assert!(
            svr_err < lr_err / 2.0,
            "svr {svr_err} should beat lr {lr_err}"
        );
    }

    #[test]
    fn constant_targets_inside_tube_need_no_support_vectors() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let y = vec![3.0; 10];
        let mut svr = Svr::paper();
        svr.fit(&dataset_1d(&xs, &y)).unwrap();
        // A constant fits entirely inside the ε-tube via the bias alone.
        assert_eq!(svr.n_support(), Some(0));
        let p = svr.predict_row(&[100.0]).unwrap();
        assert!((p - 3.0).abs() <= 0.1 + 1e-9);
    }

    #[test]
    fn dual_feasibility_holds() {
        let xs: Vec<f64> = (0..25).map(|i| i as f64 / 5.0).collect();
        let y: Vec<f64> = xs.iter().map(|&x| x * x * 0.3 - x).collect();
        let params = SvrParams::default();
        let mut svr = Svr::new(params.clone());
        svr.fit(&dataset_1d(&xs, &y)).unwrap();
        let f = svr.fitted.as_ref().unwrap();
        // |β_i| ≤ C and Σ β_i = 0 (equality constraint).
        for &b in &f.beta {
            assert!(b.abs() <= params.c + 1e-9);
        }
        let total: f64 = f.beta.iter().sum();
        assert!(total.abs() < 1e-6, "sum beta = {total}");
    }

    #[test]
    fn linear_kernel_recovers_line() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64 / 4.0).collect();
        let y: Vec<f64> = xs.iter().map(|&x| 1.5 * x + 2.0).collect();
        let mut svr = Svr::new(SvrParams {
            kernel: Kernel::Linear,
            ..SvrParams::default()
        });
        svr.fit(&dataset_1d(&xs, &y)).unwrap();
        let p = svr.predict_row(&[2.0]).unwrap();
        assert!((p - 5.0).abs() < 0.2, "pred {p}");
    }

    #[test]
    fn parameter_validation() {
        let data = dataset_1d(&[0.0, 1.0], &[0.0, 1.0]);
        for bad in [
            SvrParams {
                c: 0.0,
                ..SvrParams::default()
            },
            SvrParams {
                c: -1.0,
                ..SvrParams::default()
            },
            SvrParams {
                epsilon: -0.1,
                ..SvrParams::default()
            },
            SvrParams {
                kernel: Kernel::Rbf { gamma: 0.0 },
                ..SvrParams::default()
            },
            SvrParams {
                tol: 0.0,
                ..SvrParams::default()
            },
            SvrParams {
                max_iter: 0,
                ..SvrParams::default()
            },
        ] {
            assert!(Svr::new(bad).fit(&data).is_err());
        }
    }

    #[test]
    fn unfitted_and_mismatched_predictions_error() {
        let svr = Svr::paper();
        assert!(matches!(svr.predict_row(&[1.0]), Err(MlError::NotFitted)));
        let mut fitted = Svr::paper();
        fitted
            .fit(&dataset_1d(&[0.0, 1.0, 2.0], &[0.0, 1.0, 2.0]))
            .unwrap();
        assert!(matches!(
            fitted.predict_row(&[1.0, 2.0]),
            Err(MlError::FeatureMismatch { .. })
        ));
    }

    #[test]
    fn needs_two_samples() {
        let mut svr = Svr::paper();
        assert!(matches!(
            svr.fit(&dataset_1d(&[1.0], &[1.0])),
            Err(MlError::NotEnoughSamples { .. })
        ));
    }

    /// Options the solver proptest draws from: small `C` makes the box
    /// bind, `ε = 0` and the linear kernel are edge settings, and a short
    /// iteration cap exercises the unconverged exit.
    const CS: [f64; 4] = [0.05, 0.5, 1.0, 10.0];
    const EPSILONS: [f64; 3] = [0.0, 0.05, 0.1];
    const KERNELS: [Kernel; 3] = [
        Kernel::Linear,
        Kernel::Rbf { gamma: 0.2 },
        Kernel::Rbf { gamma: 1.0 },
    ];
    const MAX_ITERS: [usize; 2] = [100_000, 7];

    /// `(iterations, converged, bias, β, support rows)` as exact bits;
    /// the support rows are folded into an FNV-1a digest.
    fn fitted_bits(svr: &Svr) -> (usize, bool, u64, Vec<u64>, u64) {
        let f = svr.fitted.as_ref().unwrap();
        let support = f
            .support
            .as_slice()
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, v| {
                (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
            });
        (
            f.iterations,
            f.converged,
            f.bias.to_bits(),
            f.beta.iter().map(|b| b.to_bits()).collect(),
            support,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The split-half solver matches the element-at-a-time reference
        /// bit for bit: β, bias, iteration count, convergence and support
        /// rows. Rows are drawn from a pool that may be smaller than `n`
        /// and targets from a coarse grid, so duplicated rows and equal
        /// gradients put ties into the pair selection.
        #[test]
        fn prop_solver_matches_reference_bit_for_bit(
            n in 2usize..80,
            cols in 1usize..8,
            pool in 1usize..80,
            picks in proptest::collection::vec(0usize..80, 80),
            values in proptest::collection::vec(-2.0_f64..2.0, 80 * 8),
            steps in proptest::collection::vec(-8i32..8, 80),
            coarse in any::<bool>(),
            setting in (0usize..4, 0usize..3, 0usize..3, 0usize..2),
        ) {
            let rows: Vec<&[f64]> = picks[..n]
                .iter()
                .map(|&r| &values[(r % pool) * cols..(r % pool + 1) * cols])
                .collect();
            let y: Vec<f64> = steps[..n]
                .iter()
                .zip(&values)
                .map(|(&s, &v)| if coarse { f64::from(s) / 4.0 } else { v * 3.0 })
                .collect();
            let data = Dataset::new(Matrix::from_rows(&rows).unwrap(), y).unwrap();
            let params = SvrParams {
                c: CS[setting.0],
                epsilon: EPSILONS[setting.1],
                kernel: KERNELS[setting.2],
                max_iter: MAX_ITERS[setting.3],
                ..SvrParams::default()
            };
            let mut fast = Svr::new(params.clone());
            fast.fit(&data).unwrap();
            let mut reference = Svr::new(params);
            reference.fit_with(&data, SmoState::solve_reference).unwrap();
            prop_assert_eq!(fitted_bits(&fast), fitted_bits(&reference));
        }
    }
}
