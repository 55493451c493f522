"""Cross-validated stacking over a small fixed learner library.

The library deliberately stays at three members (a grand mean, a
main-effects GLM, and a degree-2 polynomial GLM) so the ensemble can be
stacked exactly: the level-one weights minimize squared error over the
probability simplex by enumerating every support and solving the
equality-constrained normal equations on each.  With three learners that
is seven tiny solves, and unlike non-negative least squares with a
renormalization step it guarantees the stacked cross-validation risk
never exceeds the best single learner's risk.

The level-one predictions come from ``k`` fits per learner, one per
training fold.  They are made in one stacked pass per learner
(:func:`attbench.glm.fit_ols_folds`, :func:`attbench.glm.fit_logistic_folds`):
each fold is a 0/1 row weight on the learner's full design, and every
fold keeps the convergence and separation rules of a single fit.  The
full-sample refits go through :func:`attbench.glm.fit_ols` and
:func:`attbench.glm.fit_logistic`, like every fit outside the ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import OneClassError
from .glm import (
    LogisticFit,
    OlsFit,
    fit_logistic,
    fit_logistic_folds,
    fit_ols,
    fit_ols_folds,
    predict_logistic,
    predict_ols,
)
from .numeric import RngStream

LEARNER_KINDS = ("mean_only", "glm_main_effects", "glm_degree2")
FAMILIES = ("gaussian", "binomial")
DEFAULT_K_FOLDS = 10
# Two candidate supports whose objectives differ by less than this are a
# tie; enumeration order (smaller supports first) breaks it.
_OBJECTIVE_TIE_TOL = 1e-15


@dataclass(frozen=True)
class LearnerSpec:
    kind: str
    family: str

    def __post_init__(self):
        if self.kind not in LEARNER_KINDS:
            raise ValueError(f"unknown learner kind: {self.kind}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family: {self.family}")


def default_library(family: str) -> tuple[LearnerSpec, ...]:
    return tuple(LearnerSpec(kind, family) for kind in LEARNER_KINDS)


def expand_degree2(x: np.ndarray) -> np.ndarray:
    """Append squares and pairwise products to the columns of ``x``.

    Output column order: the d originals, the d squares, then the
    d*(d-1)/2 products x_i * x_j with i < j in lexicographic order.
    """
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    blocks = [x, x**2]
    for i in range(d):
        for j in range(i + 1, d):
            blocks.append((x[:, i] * x[:, j])[:, None])
    return np.hstack(blocks)


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
    spec: LearnerSpec
    kept_columns: np.ndarray = field(repr=False)
    fit: OlsFit | LogisticFit = field(repr=False)

    def predict(self, x: np.ndarray) -> np.ndarray:
        design = _learner_design(self.spec.kind, x)[:, self.kept_columns]
        if self.spec.family == "gaussian":
            return predict_ols(self.fit, design)
        return predict_logistic(self.fit, design)


@dataclass(frozen=True)
class EnsembleFit:
    """A weighted library refit on the full sample.

    ``cv_risks`` holds each learner's out-of-fold mean squared error and
    ``cv_objective`` the same risk for the weighted combination; by
    construction ``cv_objective <= cv_risks.min()``.
    """

    learners: tuple[FittedLearner, ...]
    weights: np.ndarray = field(repr=False)
    cv_risks: np.ndarray = field(repr=False)
    cv_objective: float
    family: str
    n_features: int
    fold_assignment: np.ndarray = field(repr=False)


def _assign_folds(n: int, k_folds: int, rng: RngStream) -> np.ndarray:
    perm = rng.generator.permutation(n)
    folds = np.empty(n, dtype=np.intp)
    folds[perm] = np.arange(n) % k_folds
    return folds


def _folds_trainable(y: np.ndarray, folds: np.ndarray, k_folds: int, family: str) -> bool:
    if family == "gaussian":
        return True
    for f in range(k_folds):
        train = y[folds != f]
        if train.min() == train.max():
            return False
    return True


def simplex_weights(level_one: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize ``mean((level_one @ w - y)**2)`` over the simplex.

    Enumerates supports; on each, solves the KKT system of the
    equality-constrained problem by least squares (minimum-norm, so
    duplicated learners split weight evenly and deterministically), keeps
    feasible candidates, and returns the best.  Returns the weights and
    the attained mean squared error.
    """
    z = np.asarray(level_one, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, k = z.shape
    gram = z.T @ z
    cross = z.T @ y
    best_w: np.ndarray | None = None
    best_obj = np.inf
    for size in range(1, k + 1):
        for support in combinations(range(k), size):
            idx = np.asarray(support, dtype=np.intp)
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = 2.0 * gram[np.ix_(idx, idx)]
            kkt[:size, size] = 1.0
            kkt[size, :size] = 1.0
            rhs = np.concatenate([2.0 * cross[idx], [1.0]])
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
            w_support = sol[:size]
            if np.any(w_support < -1e-12) or abs(w_support.sum() - 1.0) > 1e-9:
                continue
            w = np.zeros(k)
            w[idx] = np.clip(w_support, 0.0, None)
            w /= w.sum()
            # Evaluate through the residuals, the same arithmetic as the
            # per-learner CV risks, so vertex candidates reproduce those
            # risks exactly and dominance is not blurred by cancellation
            # in the quadratic form.
            obj = float(np.mean((z @ w - y) ** 2))
            if obj < best_obj - _OBJECTIVE_TIE_TOL:
                best_obj = obj
                best_w = w
    assert best_w is not None  # size-1 supports are always feasible
    return best_w, best_obj


def fit_superlearner(
    x: np.ndarray,
    y: np.ndarray,
    family: str,
    k_folds: int = DEFAULT_K_FOLDS,
    rng: RngStream | None = None,
) -> EnsembleFit:
    """Stack the default library by k-fold cross validation.

    Each learner's design is built once on all ``n`` rows.  Its ``k``
    training-fold fits run in one stacked pass that gives every row its
    out-of-fold prediction; the simplex weights are fitted to those
    predictions, and each learner is then refitted on the full sample.

    Parameters
    ----------
    x : ndarray, shape (n, d)
        Covariates; the learners build their own intercepts and
        polynomial expansions.
    y : ndarray
        Response; 0/1 for ``family="binomial"``.
    family : {"gaussian", "binomial"}
    k_folds : int
        Number of cross-validation folds.
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
    if k_folds < 2:
        raise ValueError(f"k_folds must be at least 2: {k_folds}")
    if n < 2 * k_folds:
        raise ValueError(f"need n >= 2 * k_folds: n={n}, k_folds={k_folds}")
    if rng is None:
        rng = RngStream(0)
    if family == "binomial":
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("binomial response must be 0/1")
        if y.min() == y.max():
            raise OneClassError("binomial response contains a single class")

    folds = _assign_folds(n, k_folds, rng)
    if not _folds_trainable(y, folds, k_folds, family):
        folds = _assign_folds(n, k_folds, rng)
        if not _folds_trainable(y, folds, k_folds, family):
            raise OneClassError("a training fold is single-class after refold")

    # Designs and their distinct columns are found once, on the full sample,
    # for the fold fits and the refit alike.  The one duplicate the expansion
    # makes (z**2 == z for a binary z) repeats in every row subset.
    library = default_library(family)
    full = [_learner_design(spec.kind, x) for spec in library]
    kept = [_distinct_columns(design) for design in full]
    designs = [design[:, columns] for design, columns in zip(full, kept)]
    gaussian = family == "gaussian"
    fit_folds, fit_glm = (fit_ols_folds, fit_ols) if gaussian else (fit_logistic_folds, fit_logistic)
    level_one = np.column_stack([fit_folds(design, y, folds, k_folds).out_of_fold for design in designs])

    cv_risks = np.mean((level_one - y[:, None]) ** 2, axis=0)
    weights, cv_objective = simplex_weights(level_one, y)
    learners = tuple(
        FittedLearner(spec, columns, fit_glm(design, y)) for spec, columns, design in zip(library, kept, designs)
    )
    return EnsembleFit(learners, weights, cv_risks, cv_objective, family, x.shape[1], folds)


def predict_ensemble(fit: EnsembleFit, x: np.ndarray) -> np.ndarray:
    """Weighted prediction of the refit library on new covariates."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != fit.n_features:
        raise ValueError(f"x must have {fit.n_features} columns")
    preds = np.zeros(x.shape[0])
    for weight, learner in zip(fit.weights, fit.learners):
        if weight > 0.0:
            preds += weight * learner.predict(x)
    if fit.family == "binomial":
        preds = np.clip(preds, 1e-8, 1.0 - 1e-8)
    return preds
