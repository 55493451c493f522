"""Cross-validated stacking over a small fixed learner library.

The library deliberately stays at three members (a grand mean, a
main-effects GLM, and a degree-2 polynomial GLM) so the ensemble can be
stacked exactly: the level-one weights minimize squared error over the
probability simplex by enumerating every support and solving the
equality-constrained normal equations on each: seven tiny systems for
three learners, solved as one stack.  Unlike non-negative least squares
with a renormalization step this guarantees the stacked cross-validation
risk never exceeds the best single learner's risk.

Every learner's design is a leading block of columns (a prefix) of one
degree-2 design: the intercept, then the covariates, then the squares
and pairwise products of :func:`expand_degree2`, which leaves out the
square of a 0/1 column because it equals the column.  The grand mean
fits the first column, the main-effects GLM the first ``1 + d`` and the
degree-2 GLM all of them, so a refit is just its coefficients and a
prediction takes as many leading columns as it has coefficients.
Designs are column-major (F order): :func:`attbench.glm.fit_folds`
gives other bits for the same design in C order.

The fold assignment is one permutation drawn from the caller's numpy
``Generator``.  When :func:`attbench.glm.fit_mean_folds` finds a
single-class training fold of a 0/1 response, it raises
:class:`OneClassError` and the folds are drawn once more from the same
``Generator`` (the refold); a second :class:`OneClassError` propagates.
The level-one predictions come from ``K_FOLDS`` fits per learner, one
per training fold, and the full-sample refit is one more fit of the same
kind.  For each GLM learner all ``K_FOLDS + 1`` are made in one stacked pass
(:func:`attbench.glm.fit_folds`): each fold is a 0/1 row weight on the
learner's prefix and the refit an all-ones weight, fitted by the
same engine, under the same convergence and separation rules, as every
other GLM fit in :mod:`attbench.glm`.  The grand mean's fits need
only each training fold's row count and response sum, so
:func:`attbench.glm.fit_mean_folds` fits them from those, under the
engine's rules, with no design.  Every prediction of a fit, on its own
training rows or on new covariates, is :func:`predict_ensemble`'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

import numpy as np

from .errors import OneClassError
from .glm import PROB_CLAMP, fit_folds, fit_mean_folds
# Not called here: perfbench/spans.py wraps these two names in this module.
from .glm import fit_logistic, fit_ols  # noqa: F401
from .numeric import expit

LEARNER_KINDS = ("mean_only", "glm_main_effects", "glm_degree2")
FAMILIES = ("gaussian", "binomial")
K_FOLDS = 10
# Two candidate supports whose objectives differ by less than this are a
# tie; enumeration order (smaller supports first) breaks it.
_OBJECTIVE_TIE_TOL = 1e-15


def expand_degree2(x: np.ndarray) -> np.ndarray:
    """Append squares and pairwise products to the columns of ``x``.

    Output column order: the d originals, the square of each column that
    is not its own square, then the d*(d-1)/2 products x_i * x_j with
    i < j in lexicographic order.  A 0/1 column equals its square
    (z**2 == z exactly in floats), so its square is left out: it would
    only repeat the column and make the normal equations singular.
    """
    squares = x**2
    i, j = np.triu_indices(x.shape[1], 1)
    return np.hstack([x, squares[:, np.any(squares != x, axis=0)], x[:, i] * x[:, j]])


def _learner_design(kind: str, x: np.ndarray) -> np.ndarray:
    """The design of learner ``kind`` on ``x``, column-major.

    Each kind's design is the leading columns of the next one's: the
    intercept, then ``x``, then the rest of :func:`expand_degree2`.
    """
    if kind == "glm_degree2":
        x = expand_degree2(x)
    elif kind == "mean_only":
        x = x[:, :0]
    design = np.ones((x.shape[0], 1 + x.shape[1]), order="F")
    design[:, 1:] = x
    return design


@dataclass(frozen=True)
class EnsembleFit:
    """The ``LEARNER_KINDS`` library refit on the full sample, and its weights.

    ``coefficients[k]`` is learner ``k``'s refit on the leading columns of
    the degree-2 design.  ``separated`` is whether some logistic refit
    separated; it is False for least squares.
    """

    coefficients: tuple[np.ndarray, ...] = field(repr=False)
    weights: np.ndarray = field(repr=False)
    family: str
    separated: bool


def _assign_folds(n: int, k_folds: int, rng: np.random.Generator) -> np.ndarray:
    perm = rng.permutation(n)
    folds = np.empty(n, dtype=np.intp)
    folds[perm] = np.arange(n) % k_folds
    return folds


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


def simplex_weights(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize ``mean((z @ w - y)**2)`` over the simplex, for level-one
    predictions ``z`` with one column per learner.

    Enumerates supports; on each, solves the KKT system of the
    equality-constrained problem in the minimum-norm sense (so duplicated
    learners split weight evenly and deterministically), keeps feasible
    candidates, and returns the best.  One batched pseudo-inverse, with
    ``np.linalg.lstsq(rcond=None)``'s cutoff, solves every support.
    Returns the weights and the attained mean squared error.
    """
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


def fit_superlearner(x: np.ndarray, y: np.ndarray, family: str, rng: np.random.Generator) -> EnsembleFit:
    """Stack the ``LEARNER_KINDS`` library by ``K_FOLDS``-fold cross validation.

    The degree-2 design is built once on all ``n`` rows, and each GLM
    learner fits its prefix.  A learner's training-fold fits and its
    full-sample refit run in one stacked pass that gives every row its
    out-of-fold prediction and the learner its refit coefficients; the
    grand mean's come from per-fold counts and sums.  The simplex weights
    are fitted to those predictions.

    Parameters
    ----------
    x : ndarray, shape (n, d)
        Covariates; the learners build their own intercepts and
        polynomial expansions.
    y : ndarray
        Response; 0/1 for ``family="binomial"``.
    family : {"gaussian", "binomial"}
    rng : numpy Generator
        Source of the fold assignment, the only randomness here.

    Raises
    ------
    OneClassError
        If a binomial response is constant, or some training fold is
        single-class under the refolded assignment too.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family: {family}")
    folds = _assign_folds(y.size, K_FOLDS, rng)
    # The grand mean, the library's first learner, needs no design and is
    # fitted first, so a single-class training fold fails it before any
    # other fit: refold once.
    try:
        fits = [fit_mean_folds(y, folds, K_FOLDS, family)]
    except OneClassError:
        folds = _assign_folds(y.size, K_FOLDS, rng)
        fits = [fit_mean_folds(y, folds, K_FOLDS, family)]

    # The degree-2 design is built once, column-major, on the full sample, for
    # the fold fits and the refit alike.  The main-effects learner fits its
    # leading 1 + d columns and the degree-2 learner all of them, each as an
    # F-contiguous view, the layout fit_folds's bits depend on.
    full = _learner_design("glm_degree2", x)
    fits += [fit_folds(full[:, :width], y, folds, K_FOLDS, family) for width in (1 + x.shape[1], full.shape[1])]
    weights, _ = simplex_weights(np.column_stack([fit.out_of_fold for fit in fits]), y)
    return EnsembleFit(tuple(f.refit_coefficients for f in fits), weights, family, any(f.refit_separated for f in fits))


def predict_ensemble(fit: EnsembleFit, x: np.ndarray) -> np.ndarray:
    """Weighted prediction of the refit library on covariates ``x``.

    Raises
    ------
    ValueError
        If the design of the widest weighted learner on ``x`` is not as wide
        as its coefficients, as when a 0/1 column of the fit's covariates is
        no longer 0/1 in ``x``.
    """
    # The learners are in library order, narrowest design first, so the last
    # one with positive weight has the design every weighted learner prefixes.
    weighted = np.flatnonzero(fit.weights > 0.0).tolist()
    kind, width = LEARNER_KINDS[weighted[-1]], fit.coefficients[weighted[-1]].size
    design = _learner_design(kind, x)
    if design.shape[1] != width:
        raise ValueError(f"the {kind} design of x has {design.shape[1]} columns, its fit {width} coefficients")
    preds = np.zeros(x.shape[0])
    for k in weighted:
        linear = design[:, : fit.coefficients[k].size] @ fit.coefficients[k]
        if fit.family == "binomial":
            linear = np.clip(expit(linear), PROB_CLAMP, 1.0 - PROB_CLAMP)
        preds += fit.weights[k] * linear
    if fit.family == "binomial":
        preds = np.clip(preds, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return preds
