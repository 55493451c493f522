"""Ordinary least squares and logistic regression on dense designs.

Every fit runs through one engine that fits one design under a stack of
0/1 row weights.  A single fit is its one-row case, a row of ones; the
fits on every cross-validation fold and on all rows, :func:`fit_folds`,
are its (k + 1)-row case.  The normal equations of every row come from
one matrix product over the column pairs' products, and are solved by
:func:`attbench.numeric.solve_spd_stack`, one LAPACK Cholesky factor and
solve per row, whose pivot floor turns rank deficiency into
:class:`RankDeficientError` rather than a silently pseudo-inverted fit.
The intercept-only design needs no engine: :func:`fit_mean_folds` fits
it on every fold from each fold's row count and response sum, under the
engine's rules.
The logistic fitter is plain IRLS with a hard separation guard: runaway
coefficients mark the fit separated and the fitted probabilities are
clamped away from 0 and 1 so downstream weighting stays finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np
from scipy.special import expit

from .errors import OneClassError, RankDeficientError, ZeroSeError
from .numeric import CHOLESKY_PIVOT_TOL, cholesky_factor, solve_from_factor, solve_spd_stack, two_sided_p

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
    n_obs: int
    n_params: int


@dataclass(frozen=True)
class LogisticFit:
    coefficients: np.ndarray = field(repr=False)
    fitted_probabilities: np.ndarray = field(repr=False)
    separated: bool


@dataclass(frozen=True)
class FoldFits:
    """One design fitted on each of ``k`` training folds and on all rows.

    Fold ``f`` is fitted on the rows with ``folds != f``.
    ``out_of_fold[i]`` is row ``i``'s prediction from the fit that held it
    out, clamped to ``[PROB_CLAMP, 1 - PROB_CLAMP]`` for the logistic family.
    ``refit_coefficients`` and ``refit_separated`` belong to the fit on all
    rows; a least-squares refit is never separated.
    """

    out_of_fold: np.ndarray = field(repr=False)
    refit_coefficients: np.ndarray = field(repr=False)
    refit_separated: bool


@cache
def _gram_index(p: int) -> np.ndarray:
    """Where entry ``(a, b)`` of a flattened p x p gram sits among the
    lower-triangle pair products: one table per width, read, never written."""
    rows, cols = np.tril_indices(p)
    index = np.empty((p, p), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size)
    index = index.ravel()
    index.flags.writeable = False
    return index


def _weighted_grams(design: np.ndarray):
    """Return ``grams(weights)``, the stack of ``design.T @ diag(w) @ design``
    over the rows ``w`` of ``weights``, each exactly symmetric.

    The products of each column pair ``(i, j)``, ``j <= i``, are formed
    once, row ``i`` of the lower triangle at a time, in the order of
    ``np.tril_indices``."""
    n, p = design.shape
    columns = design.T.copy()
    pairs = np.empty((p * (p + 1) // 2, n))
    start = 0
    for i in range(p):
        np.multiply(columns[i], columns[: i + 1], out=pairs[start : start + i + 1])
        start += i + 1
    pairs = pairs.T
    index = _gram_index(p)

    def grams(weights: np.ndarray) -> np.ndarray:
        return np.take(weights @ pairs, index, axis=1).reshape(weights.shape[0], p, p)

    return grams


def _fit_stack(design: np.ndarray, y: np.ndarray, weights: np.ndarray, family: str):
    """Fit ``design`` (n, p) to ``y`` under each row of ``weights`` (m, n), as one stack.

    A weight row holds one 0/1 weight per observation: rows it weighs 0
    enter neither the score nor the normal equations.  Least squares
    (``family="gaussian"``) solves the normal equations of every row.
    Logistic IRLS (``family="binomial"``) starts every row at zero and
    stops it once its score's max-norm is at most ``IRLS_SCORE_TOL``
    (converged) or after ``IRLS_MAX_ITER`` steps; a row whose information
    matrix fails the pivot floor, or one of whose coefficients escapes
    ``SEPARATION_COEF_BOUND``, stops there as separated.  Only rows still
    iterating are computed.  Probabilities inside the loop are
    ``1 / (1 + exp(-eta))``, which agrees with ``expit`` to an ulp at a
    third of its cost.

    Returns ``(coefficients, converged, separated, normal)``: the (m, p)
    coefficients, one flag of each kind per row, and for least squares the
    (m, p, p) normal matrices (``None`` for the logistic family).

    Raises
    ------
    ValueError
        If ``y`` is not a vector of length n, some row weighs no more
        observations than there are parameters, or a logistic ``y`` is not 0/1.
    OneClassError
        If the logistic response under some row is constant.
    RankDeficientError
        If the least-squares normal equations of some row fail the pivot floor.
    """
    n, p = design.shape
    if y.shape != (n,):
        raise ValueError(f"y has shape {y.shape}, expected ({n},)")
    counts = weights.sum(axis=1)
    if counts.min() <= p:
        raise ValueError(f"need more observations than parameters: n={int(counts.min())}, p={p}")
    grams = _weighted_grams(design)
    if family == "gaussian":
        normal = grams(weights)
        beta, ok = solve_spd_stack(normal, (weights * y) @ design)
        if not ok.all():
            raise RankDeficientError(f"normal equations of weight row {int(np.argmin(ok))} are not positive definite")
        return beta, ok, ~ok, normal
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("y must be 0/1")
    positives = weights @ y
    one_class = (positives == 0.0) | (positives == counts)
    if one_class.any():
        raise OneClassError(f"the response under weight row {int(np.argmax(one_class))} contains a single class")

    m = weights.shape[0]
    beta = np.zeros((m, p))
    converged = np.zeros(m, dtype=bool)
    separated = np.zeros(m, dtype=bool)
    # ``active`` lists the rows still iterating, ``mask`` their weights and
    # ``coef`` their coefficients; all three are re-indexed only when some row stops.
    active, mask, coef = np.arange(m), weights, beta.copy()
    with np.errstate(over="ignore"):  # exp(-eta) = inf gives probability 0
        for _ in range(IRLS_MAX_ITER):
            probs = 1.0 / (1.0 + np.exp(-(coef @ design.T)))
            score = (mask * (y - probs)) @ design
            going = np.abs(score).max(axis=1) > IRLS_SCORE_TOL
            if not going.all():
                converged[active[~going]] = True
                active, mask, coef, probs, score = active[going], mask[going], coef[going], probs[going], score[going]
                if active.size == 0:
                    break
            # The weight floor applies to weighted rows only.
            step, ok = solve_spd_stack(grams(mask * np.maximum(probs * (1.0 - probs), 1e-10)), score)
            # A row that fails the pivot floor gets a zero step: its information
            # matrix collapsed, with probabilities pinned at 0/1.
            coef += step
            beta[active] = coef
            going = ok & (np.abs(coef).max(axis=1) <= SEPARATION_COEF_BOUND)
            if not going.all():
                separated[active[~going]] = True
                active, mask, coef = active[going], mask[going], coef[going]
                if active.size == 0:
                    break
    return beta, converged, separated, None


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
        Coefficients and their standard errors, ``sqrt(s2 * diag((X'X)^-1))``
        with ``s2`` the residual variance on ``n - p`` degrees of freedom.

    Raises
    ------
    RankDeficientError
        If the normal equations are not positive definite.
    """
    design = np.asarray(design, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = design.shape
    beta, _, _, normal = _fit_stack(design, y, np.ones((1, n)), "gaussian")
    resid = y - design @ beta[0]
    sigma2 = float(resid @ resid) / (n - p)
    # The normal matrix passed the pivot floor above; column i of (X'X)^-1 solves X'X v = e_i.
    inverse = solve_from_factor(cholesky_factor(normal[0]), np.eye(p))
    se = np.sqrt(sigma2 * inverse.diagonal())
    return OlsFit(beta[0], se, n, p)


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
    return t_stat, two_sided_p(t_stat, fit.n_obs - fit.n_params)


def fit_logistic(design: np.ndarray, y: np.ndarray) -> LogisticFit:
    """Fit a logistic regression by iteratively reweighted least squares.

    Starts from the zero vector and stops when the score's max-norm falls
    to ``IRLS_SCORE_TOL``.  If the information matrix fails the pivot
    floor or any coefficient escapes ``SEPARATION_COEF_BOUND`` during
    iteration, the data are treated as separated: the fit is returned with
    probabilities clamped to ``[PROB_CLAMP, 1 - PROB_CLAMP]``.

    Raises
    ------
    OneClassError
        If ``y`` is constant; the MLE does not exist in any direction.
    """
    design = np.asarray(design, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    beta, _, separated, _ = _fit_stack(design, y, np.ones((1, design.shape[0])), "binomial")
    fitted = expit(design @ beta[0])
    if separated[0]:
        fitted = np.clip(fitted, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return LogisticFit(beta[0], fitted, bool(separated[0]))


# --- every training fold of one design, and its refit, in one stack ---
#
# A fold is a 0/1 row weight on the full design: holdout rows enter neither
# the score nor the normal equations.  Weight row k + 1 (no row's fold is
# k) is all ones: the full-sample refit rides along as one more fold.  Each
# row is fitted by the engine's rules on ``design[folds != f]``, as a single
# fit on those rows would be, and agrees with it to round-off.


def fit_folds(design: np.ndarray, y: np.ndarray, folds: np.ndarray, k_folds: int, family: str) -> FoldFits:
    """Fits of ``design`` on each training fold and on all rows, as one stack.

    ``folds[i]`` in ``range(k_folds)`` is row ``i``'s holdout fold.
    ``family="gaussian"`` fits least squares; ``family="binomial"`` fits
    logistic IRLS, each fit under :func:`fit_logistic`'s rules on its own rows.

    Raises
    ------
    RankDeficientError
        If the least-squares normal equations of some fold, or of all rows,
        fail the pivot floor.
    OneClassError
        If some logistic training fold's response is constant.
    """
    design = np.asarray(design, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if folds.shape != (design.shape[0],):
        raise ValueError(f"folds has shape {folds.shape}, expected ({design.shape[0]},)")
    train = (folds != np.arange(k_folds + 1)[:, None]).astype(np.float64)
    beta, _, separated, _ = _fit_stack(design, y, train, family)
    out_of_fold = np.einsum("ij,ij->i", design, beta[folds])
    if family == "binomial":
        out_of_fold = np.clip(expit(out_of_fold), PROB_CLAMP, 1.0 - PROB_CLAMP)
    return FoldFits(out_of_fold, beta[k_folds], bool(separated[k_folds]))


# --- the intercept-only design, from each training fold's count and sum ---


def fit_mean_folds(y: np.ndarray, folds: np.ndarray, k_folds: int, family: str) -> FoldFits:
    """The fits of :func:`fit_folds` on a column of ones, with no design built.

    An intercept-only fit sees its rows only through their count and the
    sum of their responses, so each training fold, and all rows as the
    refit, is fitted from those two numbers: least squares divides them,
    and logistic IRLS runs the engine's recurrence on one scalar per fold
    (see :func:`_logistic_intercepts`).  Each fit agrees with the engine's
    to round-off, under the same rules and errors.

    Raises
    ------
    ValueError
        If ``folds`` and ``y`` are not vectors of one length, some training
        fold holds at most one row, or a logistic ``y`` is not 0/1.
    OneClassError
        If some logistic training fold's response is constant.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or folds.shape != y.shape:
        raise ValueError(f"folds has shape {folds.shape} and y shape {y.shape}, expected one vector length")
    # Entry k_folds belongs to the refit, which holds out no row.
    counts = y.size - np.bincount(folds, minlength=k_folds + 1)[: k_folds + 1]
    sums = y.sum() - np.bincount(folds, weights=y, minlength=k_folds + 1)[: k_folds + 1]
    if counts.min() <= 1:
        raise ValueError(f"need more observations than parameters: n={int(counts.min())}, p=1")
    if family == "gaussian":
        beta = sums / counts
        refit_separated = False
        out_of_fold = beta[folds]
    else:
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("y must be 0/1")
        one_class = (sums == 0.0) | (sums == counts)
        if one_class.any():
            raise OneClassError(f"the response under weight row {int(np.argmax(one_class))} contains a single class")
        beta, _, separated = _logistic_intercepts(counts, sums)
        refit_separated = bool(separated[k_folds])
        out_of_fold = np.clip(expit(beta[folds]), PROB_CLAMP, 1.0 - PROB_CLAMP)
    return FoldFits(out_of_fold, beta[k_folds:], refit_separated)


def _logistic_intercepts(counts: np.ndarray, sums: np.ndarray):
    """:func:`_fit_stack`'s logistic IRLS for a column of ones, on one scalar per row.

    Row ``r`` weighs ``counts[r]`` observations whose responses sum to
    ``sums[r]``.  Its score is ``sums - counts * p`` and its information
    ``counts * max(p * (1 - p), 1e-10)``; the stopping, pivot-floor and
    separation rules are the engine's.  Returns ``(beta, converged, separated)``.
    """
    beta = np.zeros(counts.size)
    converged = np.zeros(counts.size, dtype=bool)
    separated = np.zeros(counts.size, dtype=bool)
    for r, (count, total) in enumerate(zip(counts.tolist(), sums.tolist())):
        # |b| <= SEPARATION_COEF_BOUND at every exp, so it cannot overflow.
        b = 0.0
        for _ in range(IRLS_MAX_ITER):
            prob = 1.0 / (1.0 + math.exp(-b))
            score = total - count * prob
            if not abs(score) > IRLS_SCORE_TOL:
                converged[r] = True
                break
            info = count * max(prob * (1.0 - prob), 1e-10)
            if not info > CHOLESKY_PIVOT_TOL:
                separated[r] = True
                break
            b += score / info
            if not abs(b) <= SEPARATION_COEF_BOUND:
                separated[r] = True
                break
        beta[r] = b
    return beta, converged, separated
