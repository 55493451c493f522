"""Cross-validated stacking over a small fixed learner library.

The library deliberately stays at three members (a grand mean, a
main-effects GLM, and a degree-2 polynomial GLM) so the ensemble can be
stacked exactly: the level-one weights minimize squared error over the
probability simplex by enumerating every support and solving the
equality-constrained normal equations on each: seven tiny systems for
three learners, solved as one stack.  Unlike non-negative least squares
with a renormalization step this guarantees the stacked cross-validation
risk never exceeds the best single learner's risk.

The level-one predictions come from ``K_FOLDS`` fits per learner, one
per training fold, and the full-sample refit is one more fit of the same
kind.  For each GLM learner all ``K_FOLDS + 1`` are made in one stacked
pass (:func:`attbench.glm.fit_folds`): each fold is a 0/1 row weight on
the learner's full design and the refit an all-ones weight, fitted by
the same engine, under the same convergence and separation rules, as
every other GLM fit in :mod:`attbench.glm`.  The grand mean's fits need
only each training fold's row count and response sum, so
:func:`attbench.glm.fit_mean_folds` fits them from those, under the
engine's rules, with no design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

import numpy as np
from scipy.special import expit

from .errors import OneClassError
from .glm import PROB_CLAMP, fit_folds, fit_mean_folds
# Not called here: perfbench/spans.py wraps these two names in this module.
from .glm import fit_logistic, fit_ols  # noqa: F401
from .numeric import RngStream

LEARNER_KINDS = ("mean_only", "glm_main_effects", "glm_degree2")
FAMILIES = ("gaussian", "binomial")
K_FOLDS = 10
# Two candidate supports whose objectives differ by less than this are a
# tie; enumeration order (smaller supports first) breaks it.
_OBJECTIVE_TIE_TOL = 1e-15


def expand_degree2(x: np.ndarray) -> np.ndarray:
    """Append squares and pairwise products to the columns of ``x``.

    Output column order: the d originals, the d squares, then the
    d*(d-1)/2 products x_i * x_j with i < j in lexicographic order.
    """
    x = np.asarray(x, dtype=np.float64)
    i, j = np.triu_indices(x.shape[1], 1)
    return np.hstack([x, x**2, x[:, i] * x[:, j]])


def _learner_design(kind: str, x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    intercept = np.ones((n, 1))
    if kind == "mean_only":
        return intercept
    if kind == "glm_main_effects":
        return np.hstack([intercept, x])
    return np.hstack([intercept, expand_degree2(x)])


def _distinct_columns(design: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of each distinct column, in order.

    The degree-2 expansion of a binary column reproduces the column
    itself (z**2 == z exactly in floats), which would make the normal
    equations singular.  Dropping exact duplicates keeps the fit
    well-posed without changing the fitted subspace.  Equal columns have
    equal sums, so only columns whose sums match are compared in full.
    """
    sums = design.sum(axis=0).tolist()
    keep: list[int] = []
    for j, total in enumerate(sums):
        if not any(sums[k] == total and np.array_equal(design[:, j], design[:, k]) for k in keep):
            keep.append(j)
    return np.asarray(keep, dtype=np.intp)


@dataclass(frozen=True)
class FittedLearner:
    """A learner refitted on all rows; ``separated`` is False for least squares."""

    kind: str
    family: str
    kept_columns: np.ndarray = field(repr=False)
    coefficients: np.ndarray = field(repr=False)
    separated: bool

    def predict_from(self, design: np.ndarray) -> np.ndarray:
        """Prediction from ``design``: this learner's design, or a wider one
        it prefixes, such as the degree-2 design."""
        linear = design[:, self.kept_columns] @ self.coefficients
        if self.family == "gaussian":
            return linear
        return np.clip(expit(linear), PROB_CLAMP, 1.0 - PROB_CLAMP)


@dataclass(frozen=True)
class EnsembleFit:
    """A weighted library refit on the full sample.

    ``fitted`` is the ensemble's prediction on its own training rows, as
    :func:`predict_ensemble` would give it.
    """

    learners: tuple[FittedLearner, ...]
    weights: np.ndarray = field(repr=False)
    family: str
    n_features: int
    fitted: np.ndarray = field(repr=False)


def _assign_folds(n: int, k_folds: int, rng: RngStream) -> np.ndarray:
    perm = rng.generator.permutation(n)
    folds = np.empty(n, dtype=np.intp)
    folds[perm] = np.arange(n) % k_folds
    return folds


def _folds_trainable(y: np.ndarray, folds: np.ndarray, k_folds: int, family: str) -> bool:
    """Whether every training fold of a 0/1 ``y`` holds both classes (always, for least squares)."""
    if family == "gaussian":
        return True
    sizes = y.size - np.bincount(folds, minlength=k_folds)
    positives = y.sum() - np.bincount(folds, weights=y, minlength=k_folds)
    return bool(np.all((positives > 0.0) & (positives < sizes)))


@cache
def _support_tables(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(members, pairs, kkt)`` over every support ``s`` of ``k`` learners, smaller first.

    ``members[s]`` marks the learners in ``s`` and ``pairs[s]`` their gram
    block.  ``kkt[s]`` is the KKT matrix without that block: row and column
    ``k`` hold the constraint, and a learner outside ``s`` gets an identity
    row and column, so its weight solves to zero.
    """
    supports = [set(c) for size in range(1, k + 1) for c in combinations(range(k), size)]
    members = np.array([[j in support for j in range(k)] for support in supports])
    kkt = np.zeros((len(supports), k + 1, k + 1))
    kkt[:, :k, :k] = np.eye(k) * ~members[:, :, None]
    kkt[:, :k, k] = kkt[:, k, :k] = members
    pairs = members[:, :, None] & members[:, None, :]
    for table in (members, pairs, kkt):
        table.flags.writeable = False
    return members, pairs, kkt


def simplex_weights(level_one: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize ``mean((level_one @ w - y)**2)`` over the simplex.

    Enumerates supports; on each, solves the KKT system of the
    equality-constrained problem in the minimum-norm sense (so duplicated
    learners split weight evenly and deterministically), keeps feasible
    candidates, and returns the best.  One batched pseudo-inverse, with
    ``np.linalg.lstsq(rcond=None)``'s cutoff, solves every support.
    Returns the weights and the attained mean squared error.
    """
    z = np.asarray(level_one, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    k = z.shape[1]
    members, pairs, kkt = _support_tables(k)
    kkt = kkt.copy()
    kkt[:, :k, :k] = np.where(pairs, 2.0 * (z.T @ z), kkt[:, :k, :k])
    rhs = np.ones((members.shape[0], k + 1, 1))
    rhs[:, :k, 0] = np.where(members, 2.0 * (z.T @ y), 0.0)
    solutions = np.linalg.pinv(kkt, rcond=np.finfo(np.float64).eps * (k + 1)) @ rhs
    w = np.where(members, solutions[:, :k, 0], 0.0)
    feasible = ~(np.any(w < -1e-12, axis=1) | (np.abs(w.sum(axis=1) - 1.0) > 1e-9))
    candidates = np.clip(w[feasible], 0.0, None)
    candidates /= candidates.sum(axis=1, keepdims=True)
    # Scored through the residuals, as a learner's own out-of-fold risk is, so
    # a vertex reproduces that risk exactly, unblurred by cancellation
    # in the quadratic form.  Size-1 supports are always feasible.
    objectives = np.mean((z @ candidates.T - y[:, None]) ** 2, axis=0).tolist()
    best = 0
    for s, objective in enumerate(objectives):
        if objective < objectives[best] - _OBJECTIVE_TIE_TOL:
            best = s
    return candidates[best], objectives[best]


def fit_superlearner(x: np.ndarray, y: np.ndarray, family: str, rng: RngStream) -> EnsembleFit:
    """Stack the ``LEARNER_KINDS`` library by ``K_FOLDS``-fold cross validation.

    Each GLM learner's design is built once on all ``n`` rows.  Its
    training-fold fits and its full-sample refit run in one stacked pass
    that gives every row its out-of-fold prediction and the learner its
    refit coefficients; the grand mean's come from per-fold counts and
    sums.  The simplex weights are fitted to those predictions.

    Parameters
    ----------
    x : ndarray, shape (n, d)
        Covariates; the learners build their own intercepts and
        polynomial expansions.
    y : ndarray
        Response; 0/1 for ``family="binomial"``.
    family : {"gaussian", "binomial"}
    rng : RngStream
        Source of the fold assignment, the only randomness here.

    Raises
    ------
    OneClassError
        If a binomial response is constant, or some training fold is
        single-class even after one refold attempt.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if family not in FAMILIES:
        raise ValueError(f"unknown family: {family}")
    n = x.shape[0]
    if y.shape != (n,):
        raise ValueError(f"y has shape {y.shape}, expected ({n},)")
    if n < 2 * K_FOLDS:
        raise ValueError(f"need n >= 2 * K_FOLDS: n={n}, K_FOLDS={K_FOLDS}")
    if family == "binomial":
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("binomial response must be 0/1")
        if y.min() == y.max():
            raise OneClassError("binomial response contains a single class")

    folds = _assign_folds(n, K_FOLDS, rng)
    if not _folds_trainable(y, folds, K_FOLDS, family):
        folds = _assign_folds(n, K_FOLDS, rng)
        if not _folds_trainable(y, folds, K_FOLDS, family):
            raise OneClassError("a training fold is single-class after refold")

    # The degree-2 design and its distinct columns are found once, on the full
    # sample, for the fold fits and the refit alike.  The one duplicate the
    # expansion makes (z**2 == z for a binary z) repeats in every row subset.
    # The other learners' designs are its leading columns, and a first
    # occurrence inside a prefix is one in the whole design.
    full = _learner_design("glm_degree2", x)
    distinct = _distinct_columns(full)
    widths = {"mean_only": 1, "glm_main_effects": 1 + x.shape[1], "glm_degree2": full.shape[1]}
    kept = [distinct[distinct < widths[kind]] for kind in LEARNER_KINDS]
    # The library's first learner, the grand mean, needs no design.
    fits = [fit_mean_folds(y, folds, K_FOLDS, family)]
    fits += [fit_folds(full[:, columns], y, folds, K_FOLDS, family) for columns in kept[1:]]
    level_one = np.column_stack([fit.out_of_fold for fit in fits])

    weights, _ = simplex_weights(level_one, y)
    learners = tuple(
        FittedLearner(kind, family, columns, fit.refit_coefficients, fit.refit_separated)
        for kind, columns, fit in zip(LEARNER_KINDS, kept, fits)
    )
    fitted = _weighted_prediction(weights, learners, full, family)
    return EnsembleFit(learners, weights, family, x.shape[1], fitted)


def _weighted_prediction(weights: np.ndarray, learners, design: np.ndarray, family: str) -> np.ndarray:
    """The weighted library prediction from ``design``, the covariates'
    design of the widest learner with positive weight (or a wider one)."""
    preds = np.zeros(design.shape[0])
    for weight, learner in zip(weights, learners):
        if weight > 0.0:
            preds += weight * learner.predict_from(design)
    if family == "binomial":
        preds = np.clip(preds, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return preds


def predict_ensemble(fit: EnsembleFit, x: np.ndarray) -> np.ndarray:
    """Weighted prediction of the refit library on new covariates."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != fit.n_features:
        raise ValueError(f"x must have {fit.n_features} columns")
    # The learners are in library order, narrowest design first, so the last
    # one with positive weight has the design every weighted learner prefixes.
    widest = [learner for weight, learner in zip(fit.weights, fit.learners) if weight > 0.0][-1]
    design = _learner_design(widest.kind, x)
    return _weighted_prediction(fit.weights, fit.learners, design, fit.family)
