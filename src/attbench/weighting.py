"""Inverse-probability and augmented weighting estimators of the ATT.

IPW is AIPW with a zero outcome model.  AIPW is built from ratio-of-sums
terms with the treated-oriented weight ``w_i = 1`` for treated and
``ps_i / (1 - ps_i)`` for controls.  Standard errors come from the
empirical influence function of the ratio terms; each term
``T = sum(w a) / sum(w)`` contributes ``w (a - T) / mean(w)`` and the
per-unit contributions sum across terms.
When the incoming :class:`PsVector` carries the score columns of the
model that produced it, the component of the influence values explained
by those columns is removed before squaring: weights fitted by maximum
likelihood on the analysis sample absorb part of its noise, which
shrinks the estimator's sampling variance below the known-weights
formula by the variance of exactly that projection.  Scores without a
basis (externally supplied or ensemble-estimated) get the known-weights
variance.  P-values are two-sided normal.

Trimming is honored through the ``kept_mask`` of the incoming
:class:`PsVector`: dropped units appear in no sum and no influence
contribution, and ``n`` is the kept count.
"""

from __future__ import annotations

import numpy as np

from .errors import AllTrimmedError
from .glm import OlsFit, predict_ols
# Not called here: perfbench/spans.py wraps this name in this module.
from .glm import fit_ols  # noqa: F401
from .numeric import Estimate, wald_estimate
from .propensity import PsVector
from .superlearner import fit_superlearner, predict_ensemble


def _att_weights(z: np.ndarray, ps: np.ndarray) -> np.ndarray:
    return np.where(z == 1, 1.0, ps / (1.0 - ps))


def _kept_arrays(ps: PsVector, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    kept = ps.kept_mask
    z = arrays[0]
    zk = z[kept]
    if zk.size == 0 or zk.min() == zk.max():
        raise AllTrimmedError("trimming left no treated or no control units")
    return (ps.values[kept],) + tuple(a[kept] for a in arrays)


def _ratio_term(w: np.ndarray, a: np.ndarray) -> tuple[float, np.ndarray]:
    """Value and influence contributions of ``sum(w * a) / sum(w)``.

    ``sum(w)`` is positive: every weight is a score or a ratio weight, and
    both arms have a kept unit."""
    value = float((w * a).sum()) / float(w.sum())
    phi = w * (a - value) / w.mean()
    return value, phi


def _kept_basis(ps: PsVector) -> np.ndarray | None:
    return None if ps.score_basis is None else ps.score_basis[ps.kept_mask]


def _finish(att: float, phi: np.ndarray, basis: np.ndarray | None = None) -> Estimate:
    n = phi.size
    if basis is not None and n > basis.shape[1]:
        coef, *_ = np.linalg.lstsq(basis, phi, rcond=None)
        phi = phi - basis @ coef
    return wald_estimate(att, float(np.sqrt((phi**2).mean() / n)))


def aipw_att(
    y: np.ndarray, z: np.ndarray, ps: PsVector, q1: np.ndarray, q0: np.ndarray
) -> Estimate:
    """Doubly robust ATT: regression contrast plus weighted residual terms.

    The first term averages ``q1 - q0`` over the treated covariate
    distribution via propensity weights; the residual terms correct it
    with treated and reweighted-control outcome residuals.  Consistency
    survives misspecification of either the outcome model or the
    propensity model, but not both.
    """
    psk, zk, yk, q1k, q0k = _kept_arrays(ps, z, y, q1, q0)
    w = _att_weights(zk, psk)
    contrast, phi_contrast = _ratio_term(psk, q1k - q0k)
    resid_treat, phi_rt = _ratio_term(w * (zk == 1), yk - q1k)
    resid_ctrl, phi_rc = _ratio_term(w * (zk == 0), yk - q0k)
    att = contrast + resid_treat - resid_ctrl
    return _finish(att, phi_contrast + phi_rt - phi_rc, _kept_basis(ps))


def ipw_att(y: np.ndarray, z: np.ndarray, ps: PsVector) -> Estimate:
    """Weighted difference of treated and control outcome means: AIPW with
    a zero outcome model.

    The treated term reduces to the plain treated mean (unit weights);
    the control term reweights controls by the odds of treatment,
    standardizing them to the treated covariate distribution.  AIPW's
    contrast term and its influence values are exact zeros here, and
    ``y - 0.0`` is ``y``, so every sum keeps the bits of the two weighted
    means alone.
    """
    zeros = np.zeros(y.shape)
    return aipw_att(y, z, ps, zeros, zeros)


def ols_outcome_design(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``[1, x, z]``, the least-squares outcome design: main effects plus
    treatment, whose coefficient is the last."""
    return np.hstack([np.ones((x.shape[0], 1)), x, z[:, None]])


def ols_arm_predictions(fit: OlsFit, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(q1, q0)`` of an :func:`ols_outcome_design` fit: every unit's
    predicted outcome with its treatment set to 1 and to 0."""
    n = x.shape[0]
    q1 = predict_ols(fit, ols_outcome_design(x, np.ones(n)))
    q0 = predict_ols(fit, ols_outcome_design(x, np.zeros(n)))
    return q1, q0


def fit_outcome_models(
    x: np.ndarray, y: np.ndarray, z: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Stack the cross-validated library on ``[X, Z]`` to fit E[Y | X, Z]
    on the full sample, with ``rng`` driving the fold assignment.

    Returns ``(q1, q0)``, the predicted outcome for every unit with its
    treatment set to 1 and to 0.  The least-squares counterpart is
    :func:`ols_arm_predictions` of an :func:`ols_outcome_design` fit.
    """
    n = x.shape[0]
    fit = fit_superlearner(np.hstack([x, z[:, None]]), y, "gaussian", rng=rng)
    q1 = predict_ensemble(fit, np.hstack([x, np.ones((n, 1))]))
    q0 = predict_ensemble(fit, np.hstack([x, np.zeros((n, 1))]))
    return q1, q0
