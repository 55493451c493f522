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
from functools import cache

import numpy as np
from scipy.special import expit, stdtr

from .errors import NonSpdError, OneClassError, RankDeficientError, ZeroSeError
from .numeric import cholesky_factor, solve_from_factor, solve_spd_stack

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


@dataclass(frozen=True)
class FoldFits:
    """One design fitted on each of ``k`` training folds and on all rows.

    Fold ``f`` is fitted on the rows with ``folds != f``.
    ``out_of_fold[i]`` is row ``i``'s prediction from the fit that held it
    out, clamped to ``[PROB_CLAMP, 1 - PROB_CLAMP]`` for the logistic family.
    ``converged`` and ``separated`` hold one :class:`LogisticFit` flag per
    fold; least-squares folds are all converged and none separated.
    ``refit_coefficients`` and ``refit_separated`` belong to the fit on all rows.
    """

    out_of_fold: np.ndarray = field(repr=False)
    converged: np.ndarray = field(repr=False)
    separated: np.ndarray = field(repr=False)
    refit_coefficients: np.ndarray = field(repr=False)
    refit_separated: bool


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
    p_value = 2.0 * float(stdtr(fit.n_obs - fit.n_params, -abs(t_stat)))
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


# --- every training fold of one design, and its refit, in one stacked pass ---
#
# A fold is a 0/1 row weight on the full design: holdout rows enter neither
# the score nor the information matrix.  Weight row k + 1 (no row's fold is
# k) is all ones: the full-sample refit rides along as one more fold.  The
# products of every column pair are formed once per design, so one matrix
# product gives all k + 1 weighted grams, and one stacked Cholesky screen
# and solve replace k + 1 factorizations.  Each row follows the rules of
# fit_ols/fit_logistic on ``design[folds != f]`` and agrees with them to
# round-off.  A single fit is cheaper through those functions.


def _training_weights(design: np.ndarray, y: np.ndarray, folds: np.ndarray, k_folds: int) -> np.ndarray:
    n, p = design.shape
    if y.shape != (n,) or folds.shape != (n,):
        raise ValueError(f"y and folds must have shape ({n},): {y.shape}, {folds.shape}")
    train = (folds != np.arange(k_folds + 1)[:, None]).astype(np.float64)
    smallest = int(train[:k_folds].sum(axis=1).min())
    if smallest <= p:
        raise ValueError(f"need more observations than parameters in every fold: n={smallest}, p={p}")
    return train


# One index table per design width, shared by every call: read, never written.
_lower_triangle = cache(np.tril_indices)


def _weighted_grams(design: np.ndarray):
    """Return ``grams(weights)``, the stack of ``design.T @ diag(w) @ design``
    over the rows ``w`` of ``weights``, each exactly symmetric."""
    p = design.shape[1]
    rows, cols = _lower_triangle(p)
    columns = design.T.copy()
    pairs = columns[rows]
    pairs *= columns[cols]
    pairs = pairs.T

    def grams(weights: np.ndarray) -> np.ndarray:
        lower = weights @ pairs
        out = np.empty((weights.shape[0], p, p))
        out[:, rows, cols] = lower
        out[:, cols, rows] = lower
        return out

    return grams


def _out_of_fold(design: np.ndarray, coefficients: np.ndarray, folds: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", design, coefficients[folds])


def fit_ols_folds(design: np.ndarray, y: np.ndarray, folds: np.ndarray, k_folds: int) -> FoldFits:
    """Least-squares fits of ``design`` on each training fold and on all rows, as one stack.

    ``folds[i]`` in ``range(k_folds)`` is row ``i``'s holdout fold.

    Raises
    ------
    RankDeficientError
        If the normal equations of some fold, or of all rows, fail the pivot floor.
    """
    design = np.asarray(design, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    train = _training_weights(design, y, folds, k_folds)
    beta, ok = solve_spd_stack(_weighted_grams(design)(train), (train * y) @ design)
    if not ok.all():
        raise RankDeficientError(f"normal equations of weight row {int(np.argmin(ok))} are not positive definite")
    return FoldFits(_out_of_fold(design, beta, folds), ok[:k_folds], ~ok[:k_folds], beta[k_folds], False)


def fit_logistic_folds(design: np.ndarray, y: np.ndarray, folds: np.ndarray, k_folds: int) -> FoldFits:
    """IRLS logistic fits of ``design`` on each training fold and on all rows, in one loop.

    ``folds`` is as in :func:`fit_ols_folds`.  Each fit keeps
    :func:`fit_logistic`'s rules on its own: it starts at zero, stops once
    its score's max-norm is at most ``IRLS_SCORE_TOL`` or after
    ``IRLS_MAX_ITER`` steps, and freezes as separated when its information
    matrix fails the pivot floor or a coefficient escapes
    ``SEPARATION_COEF_BOUND``.  Only fits still iterating are computed.
    Probabilities inside the loop are ``1 / (1 + exp(-eta))``, which agrees
    with ``expit`` to an ulp at a third of its cost.

    Raises
    ------
    OneClassError
        If some training fold's response is constant.
    """
    design = np.asarray(design, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    train = _training_weights(design, y, folds, k_folds)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("y must be 0/1")
    positives = train @ y
    if np.any((positives == 0.0) | (positives == train.sum(axis=1))):
        raise OneClassError("a training fold contains a single class")

    grams = _weighted_grams(design)
    beta = np.zeros((k_folds + 1, design.shape[1]))
    converged = np.zeros(k_folds + 1, dtype=bool)
    separated = np.zeros(k_folds + 1, dtype=bool)
    # ``active`` lists the fits still iterating; ``mask`` is their rows of ``train``.
    active, mask = np.arange(k_folds + 1), train
    for _ in range(IRLS_MAX_ITER):
        with np.errstate(over="ignore"):  # exp(-eta) = inf gives probability 0
            probs = 1.0 / (1.0 + np.exp(-(beta[active] @ design.T)))
        score = (mask * (y - probs)) @ design
        going = np.abs(score).max(axis=1) > IRLS_SCORE_TOL
        converged[active[~going]] = True
        active, mask, probs, score = active[going], mask[going], probs[going], score[going]
        if active.size == 0:
            break
        # The weight floor applies to training rows only.
        weights = mask * np.maximum(probs * (1.0 - probs), 1e-10)
        step, ok = solve_spd_stack(grams(weights), score)
        # Information matrix collapsed: probabilities pinned at 0/1.
        separated[active[~ok]] = True
        active, mask = active[ok], mask[ok]
        beta[active] += step[ok]
        going = np.abs(beta[active]).max(axis=1) <= SEPARATION_COEF_BOUND
        separated[active[~going]] = True
        active, mask = active[going], mask[going]
        if active.size == 0:
            break

    out_of_fold = np.clip(expit(_out_of_fold(design, beta, folds)), PROB_CLAMP, 1.0 - PROB_CLAMP)
    return FoldFits(out_of_fold, converged[:k_folds], separated[:k_folds], beta[k_folds], bool(separated[k_folds]))
