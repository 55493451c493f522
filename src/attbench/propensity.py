"""Propensity score estimation, trimming, and truncation.

Trimming and truncation are different animals and are kept separate on
purpose.  Trimming *drops* units whose score falls outside
``[delta, 1 - delta]`` by clearing their ``kept_mask`` bit; the score
values themselves are untouched.  Truncation *clamps* the score values
to a sample-size-dependent band and keeps every unit.  Estimators that
advertise trimming consume the mask; estimators that advertise
truncation consume the clamped values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AllTrimmedError, OneClassError
from .glm import PROB_CLAMP, fit_logistic
from .numeric import RngStream
from .superlearner import fit_superlearner
# Not called here: perfbench/spans.py wraps this name in this module.
from .superlearner import predict_ensemble  # noqa: F401

PS_METHODS = ("logistic", "ensemble")
DEFAULT_TRIM_DELTA = 0.05


@dataclass(frozen=True)
class PsVector:
    """Estimated propensity scores with unit bookkeeping.

    ``values`` are strictly inside (0, 1).  ``kept_mask`` marks units that
    survive trimming; estimation itself keeps everyone.  ``score_basis``,
    when present, holds one row per unit of the score columns of the
    model that produced the values (for a logistic fit, the design
    columns times the response residual).  Downstream variance
    calculations use it to account for the scores having been fitted on
    the analysis sample; externally supplied or ensemble scores carry
    no basis.
    """

    values: np.ndarray = field(repr=False)
    kept_mask: np.ndarray = field(repr=False)
    separated: bool = False
    score_basis: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        kept = np.asarray(self.kept_mask, dtype=bool)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty vector")
        if np.any(values <= 0.0) or np.any(values >= 1.0):
            raise ValueError("propensity scores must lie strictly in (0, 1)")
        if kept.shape != values.shape:
            raise ValueError("kept_mask must match values in length")
        if self.score_basis is not None:
            basis = np.asarray(self.score_basis, dtype=np.float64)
            if basis.ndim != 2 or basis.shape[0] != values.size:
                raise ValueError("score_basis must have one row per unit")
            object.__setattr__(self, "score_basis", basis)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "kept_mask", kept)

    @property
    def n_dropped(self) -> int:
        return int((~self.kept_mask).sum())


def estimate_ps(
    x: np.ndarray, z: np.ndarray, method: str = "logistic", rng: RngStream | None = None
) -> PsVector:
    """Estimate P(Z = 1 | X) for every unit.

    ``method="logistic"`` fits a main-effects logistic regression;
    ``method="ensemble"`` stacks the cross-validated library, with ``rng``
    driving the fold assignment.  Either way the returned values are
    clamped to ``[PROB_CLAMP, 1 - PROB_CLAMP]`` so ratio weights stay
    finite even under separation.
    """
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z)
    if method not in PS_METHODS:
        raise ValueError(f"unknown method: {method}")
    if z.min() == z.max():
        raise OneClassError("treatment indicator contains a single class")
    if method == "logistic":
        design = np.hstack([np.ones((x.shape[0], 1)), x])
        fit = fit_logistic(design, z.astype(np.float64))
        values = np.clip(fit.fitted_probabilities, PROB_CLAMP, 1.0 - PROB_CLAMP)
        separated = fit.separated
        basis = design * (z.astype(np.float64) - fit.fitted_probabilities)[:, None]
    else:
        fit = fit_superlearner(x, z.astype(np.float64), "binomial", rng=rng)
        values = fit.fitted
        separated = any(learner.separated for learner in fit.learners)
        basis = None
    return PsVector(values, np.ones(values.size, dtype=bool), separated, basis)


def trim_ps(ps: PsVector, delta: float = DEFAULT_TRIM_DELTA) -> PsVector:
    """Drop units with scores outside ``[delta, 1 - delta]``.

    Returns a new :class:`PsVector` whose ``kept_mask`` is the
    intersection of the incoming mask with the band, making the operation
    idempotent.  Raises :class:`AllTrimmedError` if nothing survives;
    single-arm survival is left to the consuming estimator, which is the
    only place the treatment indicator is visible.
    """
    if not 0.0 <= delta < 0.5:
        raise ValueError(f"delta must lie in [0, 0.5): {delta}")
    inside = (ps.values >= delta) & (ps.values <= 1.0 - delta)
    kept = ps.kept_mask & inside
    if not kept.any():
        raise AllTrimmedError(f"no unit has a score in [{delta}, {1 - delta}]")
    return PsVector(ps.values, kept, ps.separated, ps.score_basis)


def truncation_bound(n: int) -> float:
    """Sample-size-dependent clamp level ``5 / (sqrt(n) * ln(n))``."""
    if n < 8:
        raise ValueError(f"need n >= 8: {n}")
    bound = 5.0 / (np.sqrt(n) * np.log(n))
    if bound >= 0.5:
        raise ValueError(f"truncation bound {bound:.4f} >= 0.5 at n={n}; band is empty")
    return float(bound)


def truncate_ps(ps: PsVector, n: int) -> PsVector:
    """Clamp scores into ``[bound, 1 - bound]`` without dropping units."""
    bound = truncation_bound(n)
    values = np.clip(ps.values, bound, 1.0 - bound)
    return PsVector(values, ps.kept_mask.copy(), ps.separated, ps.score_basis)
