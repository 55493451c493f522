"""Propensity score estimation, trimming, and truncation.

Trimming and truncation are different animals and are kept separate on
purpose.  Trimming *drops* units whose score falls outside
``[TRIM_DELTA, 1 - TRIM_DELTA]`` by clearing their ``kept_mask`` bit;
the score values themselves are untouched.  Truncation *clamps* the
score values to a sample-size-dependent band and keeps every unit.
Estimators that advertise trimming consume the mask; estimators that
advertise truncation consume the clamped values.

A :class:`PsVector` comes only from the functions here, which keep its
contract (scores strictly inside (0, 1), one mask bit and one basis row
per unit), so it checks nothing itself.  A treatment of one class fails
in the fit: :func:`estimate_ps` raises the fit's :class:`OneClassError`.
An ensemble's scores are :func:`predict_ensemble` on its training rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AllTrimmedError
from .glm import PROB_CLAMP, fit_logistic
from .superlearner import fit_superlearner, predict_ensemble

TRIM_DELTA = 0.05


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

    @property
    def n_dropped(self) -> int:
        return int((~self.kept_mask).sum())


def estimate_ps(
    x: np.ndarray, z: np.ndarray, method: str = "logistic", rng: np.random.Generator | None = None
) -> PsVector:
    """Estimate P(Z = 1 | X) for every unit.

    ``method="logistic"`` fits a main-effects logistic regression;
    ``method="ensemble"``, the only other value callers pass, stacks the
    cross-validated library, with ``rng`` driving the fold assignment.
    Either way the returned values are clamped to ``[PROB_CLAMP, 1 -
    PROB_CLAMP]`` so ratio weights stay finite even under separation.  A ``z`` of one class raises
    :class:`OneClassError` from the logistic fit or the ensemble's refold.
    """
    if method == "logistic":
        design = np.hstack([np.ones((x.shape[0], 1)), x])
        fit = fit_logistic(design, z.astype(np.float64))
        values = np.clip(fit.fitted_probabilities, PROB_CLAMP, 1.0 - PROB_CLAMP)
        separated = fit.separated
        basis = design * (z.astype(np.float64) - fit.fitted_probabilities)[:, None]
    else:
        fit = fit_superlearner(x, z.astype(np.float64), "binomial", rng=rng)
        values = predict_ensemble(fit, x)
        separated = fit.separated
        basis = None
    return PsVector(values, np.ones(values.size, dtype=bool), separated, basis)


def trim_ps(ps: PsVector) -> PsVector:
    """Drop units with scores outside ``[TRIM_DELTA, 1 - TRIM_DELTA]``.

    Returns a new :class:`PsVector` whose ``kept_mask`` is the
    intersection of the incoming mask with the band, making the operation
    idempotent.  Raises :class:`AllTrimmedError` if nothing survives;
    single-arm survival is left to the consuming estimator, which is the
    only place the treatment indicator is visible.
    """
    inside = (ps.values >= TRIM_DELTA) & (ps.values <= 1.0 - TRIM_DELTA)
    kept = ps.kept_mask & inside
    if not kept.any():
        raise AllTrimmedError(f"no unit has a score in [{TRIM_DELTA}, {1 - TRIM_DELTA}]")
    return PsVector(ps.values, kept, ps.separated, ps.score_basis)


def truncation_bound(n: int) -> float:
    """Sample-size-dependent clamp level ``5 / (sqrt(n) * ln(n))``, below
    0.5 from n = 15 on; the design's cohorts have n of 100 or more."""
    return float(5.0 / (np.sqrt(n) * np.log(n)))


def truncate_ps(ps: PsVector) -> PsVector:
    """Clamp scores into ``[bound, 1 - bound]`` without dropping units,
    with the bound :func:`truncation_bound` of the cohort size."""
    bound = truncation_bound(ps.values.size)
    values = np.clip(ps.values, bound, 1.0 - bound)
    return PsVector(values, ps.kept_mask, ps.separated, ps.score_basis)
