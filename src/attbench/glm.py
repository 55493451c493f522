"""Ordinary least squares and logistic regression on dense designs.

Every fit runs through one engine that fits one design under a stack of
0/1 row weights.  A single fit is its one-row case, a row of ones; the
fits on every cross-validation fold and on all rows, :func:`fit_folds`,
are its (k + 1)-row case.  The normal equations of every row come from
one matrix product over the column pairs' products, and are solved by
:func:`attbench.numeric.solve_spd_stack`: one stacked numpy Cholesky
factorization, whose pivot floor turns rank deficiency into
:class:`RankDeficientError` rather than a silently pseudo-inverted fit,
and one stacked solve.
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

from .errors import OneClassError, RankDeficientError
from .numeric import cholesky_factor, expit, solve_from_factor, solve_spd_stack

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


def _require_two_classes(y: np.ndarray, counts: np.ndarray, positives: np.ndarray) -> None:
    """The logistic family's check of a response under a stack of weight
    rows: ``y`` must be 0/1, and row ``r``, weighing ``counts[r]``
    observations of which ``positives[r]`` are 1, must hold both classes.

    Raises ``ValueError`` for a ``y`` that is not 0/1 and
    :class:`OneClassError`, naming the first such row, for a single class.
    """
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("y must be 0/1")
    one_class = (positives == 0.0) | (positives == counts)
    if one_class.any():
        raise OneClassError(f"the response under weight row {int(np.argmax(one_class))} contains a single class")


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
    :func:`attbench.numeric.expit`'s ``1 / (1 + exp(-eta))`` written out, so
    that one ``errstate`` covers every iteration instead of one a call.

    Returns ``(coefficients, separated, normal)``: the (m, p)
    coefficients, one separation flag per row, and for least squares the
    (m, p, p) normal matrices (``None`` for the logistic family).

    Raises
    ------
    ValueError
        If some row weighs no more observations than there are parameters,
        or a logistic ``y`` is not 0/1.
    OneClassError
        If the logistic response under some row is constant.
    RankDeficientError
        If the least-squares normal equations of some row fail the pivot floor.
    """
    p = design.shape[1]
    counts = weights.sum(axis=1)
    if counts.min() <= p:
        raise ValueError(f"need more observations than parameters: n={int(counts.min())}, p={p}")
    grams = _weighted_grams(design)
    if family == "gaussian":
        normal = grams(weights)
        beta, ok = solve_spd_stack(normal, (weights * y) @ design)
        if not ok.all():
            raise RankDeficientError(f"normal equations of weight row {int(np.argmin(ok))} are not positive definite")
        return beta, ~ok, normal
    _require_two_classes(y, counts, weights @ y)

    m = weights.shape[0]
    beta = np.zeros((m, p))
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
    return beta, separated, None


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
    n, p = design.shape
    beta, _, normal = _fit_stack(design, y, np.ones((1, n)), "gaussian")
    resid = y - design @ beta[0]
    sigma2 = float(resid @ resid) / (n - p)
    # The normal matrix passed the pivot floor above; column i of (X'X)^-1 solves X'X v = e_i.
    inverse = solve_from_factor(cholesky_factor(normal[0]), np.eye(p))
    se = np.sqrt(sigma2 * inverse.diagonal())
    return OlsFit(beta[0], se)


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
    beta, separated, _ = _fit_stack(design, y, np.ones((1, design.shape[0])), "binomial")
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
    The bits depend on the design's memory order: the same design in C and
    in F order can give fits that differ by round-off, so the ensemble
    passes its designs in F order only.

    Raises
    ------
    RankDeficientError
        If the least-squares normal equations of some fold, or of all rows,
        fail the pivot floor.
    OneClassError
        If some logistic training fold's response is constant.
    """
    train = (folds != np.arange(k_folds + 1)[:, None]).astype(np.float64)
    beta, separated, _ = _fit_stack(design, y, train, family)
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
        If some training fold holds at most one row, or a logistic ``y`` is
        not 0/1.
    OneClassError
        If some logistic training fold's response is constant.
    """
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
        _require_two_classes(y, counts, sums)
        beta, separated = _logistic_intercepts(counts, sums)
        refit_separated = bool(separated[k_folds])
        out_of_fold = np.clip(expit(beta[folds]), PROB_CLAMP, 1.0 - PROB_CLAMP)
    return FoldFits(out_of_fold, beta[k_folds:], refit_separated)


def _logistic_intercepts(counts: np.ndarray, sums: np.ndarray):
    """:func:`_fit_stack`'s logistic IRLS for a column of ones, on one scalar per row.

    Row ``r`` weighs ``counts[r]`` observations whose responses sum to
    ``sums[r]``.  Its score is ``sums - counts * p`` and its information
    ``counts * max(p * (1 - p), 1e-10)``; the stopping and separation rules
    are the engine's.  The engine's pivot floor, 1e-12, cannot bind here:
    every count is at least 2, so the information is at least 2e-10.
    Returns ``(beta, separated)``.
    """
    beta = np.zeros(counts.size)
    separated = np.zeros(counts.size, dtype=bool)
    for r, (count, total) in enumerate(zip(counts.tolist(), sums.tolist())):
        # |b| <= SEPARATION_COEF_BOUND at every exp, so it cannot overflow.
        b = 0.0
        for _ in range(IRLS_MAX_ITER):
            prob = 1.0 / (1.0 + math.exp(-b))
            score = total - count * prob
            if not abs(score) > IRLS_SCORE_TOL:
                break
            info = count * max(prob * (1.0 - prob), 1e-10)
            b += score / info
            if not abs(b) <= SEPARATION_COEF_BOUND:
                separated[r] = True
                break
        beta[r] = b
    return beta, separated
