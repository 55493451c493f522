"""Ordinary least squares and logistic regression on dense designs.

Both fitters solve their normal equations with the LAPACK Cholesky
factor and solve (``dpotrf``/``dpotrs``) in :mod:`attbench.numeric`,
whose pivot floor turns rank deficiency into :class:`RankDeficientError`
rather than a silently pseudo-inverted fit.
The logistic fitter is plain IRLS with a hard separation guard: runaway
coefficients mark the fit non-converged and the fitted probabilities are
clamped away from 0 and 1 so downstream weighting stays finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats
from scipy.special import expit

from .errors import NonSpdError, OneClassError, RankDeficientError, ZeroSeError
from .numeric import cholesky_factor, solve_from_factor

IRLS_SCORE_TOL = 1e-6
IRLS_MAX_ITER = 50
# Any coefficient beyond this magnitude is treated as (quasi-)complete
# separation: the likelihood has no interior maximum and IRLS diverges.
SEPARATION_COEF_BOUND = 15.0
PROB_CLAMP = 1e-8


@dataclass(frozen=True)
class OlsFit:
    """Least-squares fit with classical (homoskedastic) standard errors."""

    coefficients: np.ndarray = field(repr=False)
    standard_errors: np.ndarray = field(repr=False)
    residual_variance: float
    n_obs: int
    n_params: int


@dataclass(frozen=True)
class LogisticFit:
    coefficients: np.ndarray = field(repr=False)
    fitted_probabilities: np.ndarray = field(repr=False)
    converged: bool
    separated: bool


def _normal_equations_factor(design: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    if weights is None:
        gram = design.T @ design
    else:
        gram = design.T @ (design * weights[:, None])
    gram = (gram + gram.T) / 2.0
    try:
        return cholesky_factor(gram)
    except NonSpdError as exc:
        raise RankDeficientError(str(exc)) from exc


def fit_ols(design: np.ndarray, y: np.ndarray) -> OlsFit:
    """Fit ``y = design @ beta + noise`` by least squares.

    Parameters
    ----------
    design : ndarray, shape (n, p)
        Model matrix including any intercept column.
    y : ndarray, shape (n,)

    Returns
    -------
    OlsFit
        Coefficients, their standard errors computed from
        ``residual_variance * diag((X'X)^-1)``, and the residual variance
        with denominator ``n - p``.

    Raises
    ------
    RankDeficientError
        If the normal equations are not positive definite.
    """
    design = np.asarray(design, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = design.shape
    if y.shape != (n,):
        raise ValueError(f"y has shape {y.shape}, expected ({n},)")
    if n <= p:
        raise ValueError(f"need more observations than parameters: n={n}, p={p}")
    lower = _normal_equations_factor(design)
    beta = solve_from_factor(lower, design.T @ y)
    resid = y - design @ beta
    sigma2 = float(resid @ resid) / (n - p)
    gram_inv = solve_from_factor(lower, np.eye(p))
    se = np.sqrt(sigma2 * np.diag(gram_inv))
    return OlsFit(beta, se, sigma2, n, p)


def predict_ols(fit: OlsFit, design: np.ndarray) -> np.ndarray:
    design = np.asarray(design, dtype=np.float64)
    if design.shape[1] != fit.n_params:
        raise ValueError(f"design has {design.shape[1]} columns, fit has {fit.n_params}")
    return design @ fit.coefficients


def ols_wald_test(fit: OlsFit, coef_index: int) -> tuple[float, float]:
    """Student-t Wald test of a single coefficient against zero.

    Returns ``(t_statistic, p_value)`` with ``n - p`` degrees of freedom.
    """
    if not 0 <= coef_index < fit.n_params:
        raise ValueError(f"coef_index out of range: {coef_index}")
    se = float(fit.standard_errors[coef_index])
    if se == 0.0:
        raise ZeroSeError(f"coefficient {coef_index} has zero standard error")
    t_stat = float(fit.coefficients[coef_index]) / se
    p_value = 2.0 * float(stats.t.sf(abs(t_stat), fit.n_obs - fit.n_params))
    return t_stat, p_value


def fit_logistic(design: np.ndarray, y: np.ndarray, max_iter: int = IRLS_MAX_ITER) -> LogisticFit:
    """Fit a logistic regression by iteratively reweighted least squares.

    Starts from the zero vector and stops when the score's max-norm falls
    to ``IRLS_SCORE_TOL``.  If any coefficient escapes
    ``SEPARATION_COEF_BOUND`` during iteration, the data are treated as
    separated: the fit is returned non-converged with probabilities
    clamped to ``[PROB_CLAMP, 1 - PROB_CLAMP]``.

    Raises
    ------
    OneClassError
        If ``y`` is constant; the MLE does not exist in any direction.
    """
    design = np.asarray(design, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = design.shape
    if y.shape != (n,):
        raise ValueError(f"y has shape {y.shape}, expected ({n},)")
    if n <= p:
        raise ValueError(f"need more observations than parameters: n={n}, p={p}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("y must be 0/1")
    if y.min() == y.max():
        raise OneClassError("response contains a single class")

    beta = np.zeros(p)
    converged = False
    separated = False
    for _ in range(max_iter):
        probs = expit(design @ beta)
        score = design.T @ (y - probs)
        if np.max(np.abs(score)) <= IRLS_SCORE_TOL:
            converged = True
            break
        weights = np.maximum(probs * (1.0 - probs), 1e-10)
        try:
            lower = _normal_equations_factor(design, weights)
        except RankDeficientError:
            # Information matrix collapsed: probabilities pinned at 0/1.
            separated = True
            break
        beta = beta + solve_from_factor(lower, score)
        if np.max(np.abs(beta)) > SEPARATION_COEF_BOUND:
            separated = True
            break

    fitted = expit(design @ beta)
    if separated:
        fitted = np.clip(fitted, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return LogisticFit(beta, fitted, converged, separated)


def predict_logistic(fit: LogisticFit, design: np.ndarray) -> np.ndarray:
    design = np.asarray(design, dtype=np.float64)
    if design.shape[1] != fit.coefficients.shape[0]:
        raise ValueError(f"design has {design.shape[1]} columns, fit has {fit.coefficients.shape[0]}")
    probs = expit(design @ fit.coefficients)
    return np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
