"""Targeted maximum likelihood estimation of the ATT.

The targeting step works on a min-max scaled copy of the outcome so the
logistic fluctuation is well defined for continuous Y.  Initial outcome
predictions are clamped into ``[Q_CLAMP, 1 - Q_CLAMP]`` on the scaled
axis before every logit, a scalar fluctuation coefficient is fit by
Newton's method on the clever-covariate score, and the cycle repeats
until the efficient influence function has mean below ``EIF_TOL`` on the
original outcome scale (or the round limit is reached, which is reported,
not raised).  The final estimate averages the targeted treatment
contrast over treated units and is unscaled back to outcome units.
A zero standard error raises :class:`ZeroSeError`, which the harness
records as a flagged failure, as it does for every other estimator.
:func:`tmle_att` takes the replicate's outcome and treatment, the initial
outcome predictions and the propensity score; the covariates reach it
only through those fits.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import FlatOutcomeError
from .numeric import expit, logit, wald_estimate
from .propensity import PsVector

Q_CLAMP = 1e-4
EIF_TOL = 1e-6
MAX_TARGETING_ROUNDS = 10
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 50
_NEWTON_STEP_CAP = 10.0


class TmleFit(NamedTuple):
    att: float
    theoretical_se: float
    p_value: float
    eif_values: np.ndarray
    targeting_converged: bool


def _solve_fluctuation(h: np.ndarray, y_scaled: np.ndarray, offset: np.ndarray) -> float:
    """Scalar MLE of ``y ~ expit(offset + eps * h)`` via damped Newton."""
    eps = 0.0
    for _ in range(_NEWTON_MAX_ITER):
        probs = expit(offset + eps * h)
        score = float(h @ (y_scaled - probs))
        if abs(score) < _NEWTON_TOL:
            break
        info = float((h * h) @ (probs * (1.0 - probs)))
        if info <= 0.0:
            break
        eps += float(np.clip(score / info, -_NEWTON_STEP_CAP, _NEWTON_STEP_CAP))
    return eps


def tmle_att(y: np.ndarray, z: np.ndarray, q1: np.ndarray, q0: np.ndarray, ps: PsVector) -> TmleFit:
    """Target initial outcome predictions toward the ATT.

    Parameters
    ----------
    y, z : ndarray
        Outcome and 0/1 treatment indicator, both arms present.
    q1, q0 : ndarray
        Initial predictions of E[Y | Z=1, X] and E[Y | Z=0, X] for every
        unit, on the original outcome scale.
    ps : PsVector
        Estimated (typically truncated, never trimmed) propensity scores.

    Notes
    -----
    The clever covariate is ``1 / P(Z=1)`` for treated units and
    ``-ps / (P(Z=1) (1 - ps))`` for controls, with ``P(Z=1)`` the sample
    treated fraction, so the fluctuation moves the treated-arm and
    control-arm predictions in the directions that solve the ATT
    efficient-score equation.  Standard errors come from the empirical
    variance of the influence function; the p-value is two-sided normal,
    by :func:`attbench.numeric.wald_estimate` as for every estimator.

    Raises
    ------
    FlatOutcomeError
        If the outcome has zero range.
    ZeroSeError
        If the influence values are constant, so the standard error is zero.
    """
    n = y.shape[0]
    y_min = float(y.min())
    y_max = float(y.max())
    if y_max == y_min:
        raise FlatOutcomeError("outcome has zero range")
    y_range = y_max - y_min
    y_scaled = (y - y_min) / y_range
    q1_s = (q1 - y_min) / y_range
    q0_s = (q0 - y_min) / y_range

    p_treat = float(np.mean(z == 1))
    treated = z == 1
    h_treated = 1.0 / p_treat
    h_control = -ps.values / (p_treat * (1.0 - ps.values))
    h_obs = np.where(treated, h_treated, h_control)

    converged = False
    for _ in range(MAX_TARGETING_ROUNDS):
        q1_s = np.clip(q1_s, Q_CLAMP, 1.0 - Q_CLAMP)
        q0_s = np.clip(q0_s, Q_CLAMP, 1.0 - Q_CLAMP)
        offset = logit(np.where(treated, q1_s, q0_s))
        eps = _solve_fluctuation(h_obs, y_scaled, offset)
        q1_s = expit(logit(q1_s) + eps * h_treated)
        q0_s = expit(logit(q0_s) + eps * h_control)

        q1_u = y_min + y_range * q1_s
        q0_u = y_min + y_range * q0_s
        q_obs = np.where(treated, q1_u, q0_u)
        att = float((q1_u[treated] - q0_u[treated]).mean())
        eif = h_obs * (y - q_obs) + (treated / p_treat) * (q1_u - q0_u - att)
        if abs(float(eif.mean())) < EIF_TOL:
            converged = True
            break

    return TmleFit(*wald_estimate(att, float(np.sqrt(np.var(eif, ddof=1) / n))), eif, converged)
