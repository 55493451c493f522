"""Deliberately slow, loop-based re-implementations used as oracles.

These mirror the documented matching and stacking rules with explicit
Python loops and no shared code with the package internals (beyond the
caliper arithmetic, which is kept bit-identical on purpose so eligibility
never flips on a final-ulp boundary).  The exceptions are
:func:`naive_fit_ols` and :func:`naive_fit_logistic`, the one-design
fits that the stacked engine replaced, and :func:`mahalanobis_distance`,
all built on the package's Cholesky factor and solve;
:func:`row_gather_distances`, the Mahalanobis pair distances as one
row gather summed along rows, on the package's caliper block;
:func:`naive_fold_fits`, the one-fit-per-fold loop over those two; :func:`naive_calibrate_intercept`, the plain bisection, built on
the package's oracle draw and on :func:`naive_treatment_logit_terms`,
the treatment logit as one array expression; :func:`naive_true_att`, the
setting-3 truth with each chunk's draws and products held whole, on the
package's oracle draw; :func:`naive_ipw`, IPW as its own two weighted
means, on the package's p-value; and the coarsened-strata,
matched-difference and simplex-support loops, which keep the float
arithmetic of the loops the vectorized estimators replace so the two can
be compared with ``==`` or to round-off.  Unit and acceptance tests
compare the fast implementations against these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy import stats
from scipy.special import expit

from attbench.dgp import (
    _BISECTION_BRACKET,
    _BISECTION_X_TOL,
    CALIBRATION_TOL,
    _draw_treatment_covariates,
    draw_true_propensity,
)
from attbench.errors import BracketFailureError, NonSpdError, OneClassError, RankDeficientError
from attbench.glm import IRLS_MAX_ITER, IRLS_SCORE_TOL, PROB_CLAMP, SEPARATION_COEF_BOUND, OlsFit
from attbench.numeric import Estimate, cholesky_factor, solve_from_factor, two_sided_p


def logit_vector(ps_values) -> list[float]:
    return [float(np.log(p / (1.0 - p))) for p in ps_values]


def caliper_width(ps_values) -> float:
    logits = np.asarray(logit_vector(ps_values))
    return 0.2 * float(np.std(logits, ddof=1))


def naive_psm(ps_values, z, ratio: int = 1):
    """Greedy caliper matching on |logit ps| distance, written longhand.

    Returns ``(pairs, discarded)`` as :func:`match_tuples` reads a
    ``MatchSet``: pairs in greedy (descending treated ps) order, each a
    ``(treated, controls)`` tuple holding up to ``ratio`` controls in
    ascending-distance order, ties to lowest index.
    """
    n = len(z)
    logits = logit_vector(ps_values)
    cal = caliper_width(ps_values)
    treated = sorted(
        (i for i in range(n) if z[i] == 1), key=lambda i: (-ps_values[i], i)
    )
    controls = [i for i in range(n) if z[i] == 0]
    used: set[int] = set()
    pairs: list[tuple[int, tuple[int, ...]]] = []
    discarded: list[int] = []
    for t in treated:
        scored = []
        for c in controls:
            if c in used:
                continue
            d = abs(logits[c] - logits[t])
            if d <= cal:
                scored.append((d, c))
        if not scored:
            discarded.append(t)
            continue
        scored.sort()
        chosen = tuple(c for _, c in scored[:ratio])
        pairs.append((t, chosen))
        used.update(chosen)
    return pairs, discarded


def match_tuples(matches):
    """A ``MatchSet`` as ``(pairs, discarded)`` tuples of Python ints: each
    pair is ``(treated, controls)`` with the ``-1`` padding left out."""
    pairs = tuple((int(row[0]), tuple(int(c) for c in row[1:] if c >= 0)) for row in matches.pairs)
    return pairs, tuple(int(t) for t in matches.discarded_treated)


def naive_mdm(x, z, ps_values):
    """Greedy Mahalanobis matching with the propensity caliper screen.

    The covariance is inverted explicitly (np.linalg.inv) so the distance
    arithmetic shares nothing with the Cholesky-whitening implementation.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(z)
    logits = logit_vector(ps_values)
    cal = caliper_width(ps_values)
    cov_inv = np.linalg.inv(np.cov(x, rowvar=False, ddof=1).reshape(x.shape[1], -1))
    treated = sorted(
        (i for i in range(n) if z[i] == 1), key=lambda i: (-ps_values[i], i)
    )
    controls = [i for i in range(n) if z[i] == 0]
    used: set[int] = set()
    pairs: list[tuple[int, tuple[int, ...]]] = []
    discarded: list[int] = []
    for t in treated:
        scored = []
        for c in controls:
            if c in used or abs(logits[c] - logits[t]) > cal:
                continue
            diff = x[t] - x[c]
            scored.append((float(np.sqrt(diff @ cov_inv @ diff)), c))
        if not scored:
            discarded.append(t)
            continue
        scored.sort()
        chosen = scored[0][1]
        pairs.append((t, (chosen,)))
        used.add(chosen)
    return pairs, discarded


def row_gather_distances(white, block):
    """Whitened distances of the pairs ``block`` admits, ``inf`` elsewhere,
    from one gathered (pairs, d) array of unit rows reduced by ``sum(axis=1)``.

    ``white`` holds one row per coordinate, as ``matching._whiten`` returns it.
    """
    units = white.T
    eligible = np.flatnonzero(block.dist < np.inf)
    rows, cols = np.divmod(eligible, block.controls.size)
    dist = np.full(block.dist.shape, np.inf)
    dist.flat[eligible] = np.sqrt(((units[block.controls[cols]] - units[block.treated[rows]]) ** 2).sum(axis=1))
    return dist


def mahalanobis_distance(u, v, cov) -> float:
    """Distance ``sqrt((u - v)' cov^{-1} (u - v))`` for a symmetric matrix ``cov``,
    solved through its Cholesky factor (``NonSpdError`` if it has none)."""
    diff = np.asarray(u, dtype=np.float64) - np.asarray(v, dtype=np.float64)
    return float(np.sqrt(diff @ solve_from_factor(cholesky_factor(cov), diff)))


def naive_bin_signatures(x, n_bins):
    """Each unit's tuple of per-covariate bin indices, one float at a time.

    Bins are ``n_bins`` equal widths over each covariate's observed
    min..max, with the maximum in the top bin.
    """
    x = np.asarray(x, dtype=np.float64)
    lows, highs = x.min(axis=0).tolist(), x.max(axis=0).tolist()
    return [
        tuple(min(math.floor((v - lo) / (hi - lo) * n_bins), n_bins - 1) for v, lo, hi in zip(row, lows, highs))
        for row in x.tolist()
    ]


def naive_cem_retained(signatures, z):
    """Units whose bin signature is shared by a treated and a control unit.

    Strata are a dict keyed by each row's signature tuple.
    """
    retained = np.zeros(len(z), dtype=bool)
    strata: dict[tuple[int, ...], list[int]] = {}
    for i in range(len(z)):
        strata.setdefault(tuple(signatures[i]), []).append(i)
    for members in strata.values():
        zs = z[members]
        if zs.min() == 0 and zs.max() == 1:
            retained[members] = True
    return retained


def naive_paired_t(differences):
    """``(att, se, p_value)`` of a paired t-test, p from ``scipy.stats.t``."""
    differences = np.asarray(differences, dtype=np.float64)
    m = differences.size
    att = float(differences.mean())
    se = float(differences.std(ddof=1)) / np.sqrt(m)
    return att, float(se), 2.0 * float(stats.t.sf(abs(att / se), m - 1))


def naive_matched_differences(y, pairs):
    """Treated outcome minus the mean outcome of its matched controls."""
    y = np.asarray(y, dtype=np.float64)
    return np.array([y[t] - y[list(cs)].mean() for t, cs in pairs])


def naive_cem_differences(y, z, signatures, retained):
    """Each retained treated outcome minus its stratum's control mean.

    Control sums accumulate in ascending row order as Python floats;
    differences come in ascending row order of the treated units.
    """
    y = np.asarray(y, dtype=np.float64)
    control_sum: dict[tuple[int, ...], float] = {}
    control_n: dict[tuple[int, ...], int] = {}
    treated: list[tuple[int, tuple[int, ...]]] = []
    for i in np.flatnonzero(retained):
        key = tuple(signatures[i])
        if z[i] == 1:
            treated.append((int(i), key))
        else:
            control_sum[key] = control_sum.get(key, 0.0) + float(y[i])
            control_n[key] = control_n.get(key, 0) + 1
    return np.asarray([y[i] - control_sum[key] / control_n[key] for i, key in treated])


def naive_gaussian_library(x, y, folds, binary_column: int):
    """Out-of-fold risks and full-sample fits of the gaussian learner library.

    Each learner's design is written out row by row: the intercept alone;
    the intercept and the columns of ``x``; and those plus every square and
    pairwise product, except the square of ``binary_column``, which equals
    that column.  Every fit is a plain ``np.linalg.lstsq``, once per
    training fold and once on the full sample.

    Returns ``(cv_risks, predictions)``: each learner's out-of-fold mean
    squared error, and an array of shape ``(3, n)`` holding each learner's
    full-sample fitted values.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = x.shape

    def design(kind):
        rows = []
        for i in range(n):
            row = [1.0]
            if kind != "mean_only":
                row += [x[i, j] for j in range(d)]
            if kind == "glm_degree2":
                row += [x[i, j] ** 2 for j in range(d) if j != binary_column]
                row += [x[i, j] * x[i, k] for j in range(d) for k in range(j + 1, d)]
            rows.append(row)
        return np.array(rows)

    risks = []
    predictions = []
    for kind in ("mean_only", "glm_main_effects", "glm_degree2"):
        m = design(kind)
        squared_error = 0.0
        for f in sorted(set(int(v) for v in folds)):
            train = [i for i in range(n) if folds[i] != f]
            beta = np.linalg.lstsq(m[train], y[train], rcond=None)[0]
            for i in range(n):
                if folds[i] == f:
                    squared_error += (float(m[i] @ beta) - y[i]) ** 2
        risks.append(squared_error / n)
        predictions.append(m @ np.linalg.lstsq(m, y, rcond=None)[0])
    return np.array(risks), np.array(predictions)


@dataclass(frozen=True)
class NaiveLogisticFit:
    coefficients: np.ndarray = field(repr=False)
    fitted_probabilities: np.ndarray = field(repr=False)
    converged: bool
    separated: bool


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


def naive_fit_ols(design: np.ndarray, y: np.ndarray) -> OlsFit:
    """Least squares through one Cholesky factor of ``X'X``, as ``glm.fit_ols``
    once ran: the gram is ``design.T @ design`` symmetrized, the solve is
    :func:`attbench.numeric.solve_from_factor`, and ``diag((X'X)^-1)``
    comes from solving against the identity."""
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
    return OlsFit(beta, se)


def naive_fit_logistic(design: np.ndarray, y: np.ndarray, max_iter: int = IRLS_MAX_ITER) -> NaiveLogisticFit:
    """IRLS one design at a time, as ``glm.fit_logistic`` once ran: ``expit``
    probabilities, one Cholesky factor per step, the same stopping and
    separation rules, and its own input checks."""
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
    return NaiveLogisticFit(beta, fitted, converged, separated)


def naive_fold_fits(design, y, folds, family: str):
    """Fit each training fold on its own, as ``fit_superlearner`` once did.

    For every fold ``f`` in ``sorted(set(folds))``, fits ``naive_fit_ols`` or
    ``naive_fit_logistic`` on ``design[folds != f]`` and predicts the rows of
    fold ``f`` with ``design @ coefficients`` or with ``expit`` probabilities clamped
    to ``[PROB_CLAMP, 1 - PROB_CLAMP]``.  Returns
    ``(out_of_fold, converged, separated)``: the predictions in row order
    and one flag per fold (always converged and never separated for OLS).
    Errors of the single fits propagate.
    """
    design = np.asarray(design, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    out_of_fold = np.empty(y.size)
    converged = []
    separated = []
    for f in sorted(set(int(v) for v in folds)):
        holdout = folds == f
        if family == "gaussian":
            fit = naive_fit_ols(design[~holdout], y[~holdout])
            out_of_fold[holdout] = design[holdout] @ fit.coefficients
            converged.append(True)
            separated.append(False)
        else:
            fit = naive_fit_logistic(design[~holdout], y[~holdout])
            probs = expit(design[holdout] @ fit.coefficients)
            out_of_fold[holdout] = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
            converged.append(fit.converged)
            separated.append(fit.separated)
    return out_of_fold, np.array(converged), np.array(separated)


def naive_simplex_weights(level_one, y, tie_tol: float = 1e-15):
    """Minimize ``mean((level_one @ w - y)**2)`` over the simplex, one support at a time.

    Supports come smaller first, then in ``itertools.combinations`` order.
    Each support's KKT system is solved by ``np.linalg.lstsq(rcond=None)``
    (the minimum-norm solution); a feasible candidate replaces the best so
    far only when its objective is lower by more than ``tie_tol``.  Returns
    the weights and their objective.
    """
    z = np.asarray(level_one, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    k = z.shape[1]
    gram = z.T @ z
    cross = z.T @ y
    best_w = None
    best_obj = np.inf
    for size in range(1, k + 1):
        for support in combinations(range(k), size):
            idx = np.asarray(support, dtype=np.intp)
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = 2.0 * gram[np.ix_(idx, idx)]
            kkt[:size, size] = 1.0
            kkt[size, :size] = 1.0
            rhs = np.concatenate([2.0 * cross[idx], [1.0]])
            w_support = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:size]
            if np.any(w_support < -1e-12) or abs(w_support.sum() - 1.0) > 1e-9:
                continue
            w = np.zeros(k)
            w[idx] = np.clip(w_support, 0.0, None)
            w /= w.sum()
            obj = float(np.mean((z @ w - y) ** 2))
            if obj < best_obj - tie_tol:
                best_obj = obj
                best_w = w
    return best_w, best_obj


def naive_treatment_logit_terms(spec, x1, x2, x4=None):
    """The covariate part of the treatment logit as one array expression,
    term by term in ``dgp.treatment_logit_terms``' order."""
    terms = (
        spec.coef_x1 * x1
        + spec.coef_x2 * x2
        + spec.coef_x1_sq * x1**2
        + spec.coef_x2_sq * x2**2
        + spec.coef_x1_x2 * x1 * x2
    )
    if spec.includes_x4:
        if x4 is None:
            raise ValueError("scenario includes x4 but none was given")
        terms = terms + spec.coef_x4 * x4 + spec.coef_x4_sq * x4**2
    return terms


def naive_calibrate_intercept(spec, prevalence, rng, oracle_n=10**6, tol=CALIBRATION_TOL):
    """The plain bisection ``calibrate_intercept`` once ran, evaluating the
    gap at both bracket ends, every midpoint and the result."""
    if not 0.0 < prevalence < 1.0:
        raise ValueError(f"prevalence must lie in (0, 1): {prevalence}")
    x1, x2, x4 = _draw_treatment_covariates(spec, oracle_n, rng)
    terms = naive_treatment_logit_terms(spec, x1, x2, x4)

    def gap(alpha: float) -> float:
        return float(np.mean(expit(alpha + terms))) - prevalence

    lo, hi = _BISECTION_BRACKET
    if gap(lo) > 0.0 or gap(hi) < 0.0:
        raise BracketFailureError(f"bracket {_BISECTION_BRACKET} does not straddle {prevalence}")
    while hi - lo > _BISECTION_X_TOL:
        mid = (lo + hi) / 2.0
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    alpha = (lo + hi) / 2.0
    if abs(gap(alpha)) > tol:
        raise BracketFailureError(f"calibration missed target by {gap(alpha):.2e}")
    return float(alpha)


def naive_true_att(spec, alpha0, rng, oracle_n):
    """The setting-3 ``(truth, oracle_se)`` as ``dgp.true_att`` once computed
    it: chunks of 10^6 rows, each drawn, weighted and summed as whole
    arrays by ``np.sum``, the chunk sums accumulated as Python floats."""
    s_w = s_wx = s_w2 = s_w2x = s_w2x2 = 0.0
    remaining = oracle_n
    while remaining > 0:
        chunk = min(10**6, remaining)
        x1, w = draw_true_propensity(spec, alpha0, chunk, rng)
        s_w += float(w.sum())
        s_wx += float((w * x1).sum())
        w *= w
        s_w2 += float(w.sum())
        w *= x1
        s_w2x += float(w.sum())
        w *= x1
        s_w2x2 += float(w.sum())
        remaining -= chunk
    mean_x1_treated = s_wx / s_w
    e_w = s_w / oracle_n
    e_w2_dev = (s_w2x2 - 2.0 * mean_x1_treated * s_w2x + mean_x1_treated**2 * s_w2) / oracle_n
    se_mean = float(np.sqrt(e_w2_dev / (e_w**2) / oracle_n))
    return 1.0 + 1.5 * mean_x1_treated, 1.5 * se_mean


def naive_ipw(y, z, ps) -> Estimate:
    """IPW's two weighted means over the kept units, with their influence
    values and the score-basis projection, in the float arithmetic
    ``weighting.ipw_att`` had before it became AIPW with a zero outcome
    model."""
    kept = ps.kept_mask
    psk, zk, yk = ps.values[kept], z[kept], y[kept]
    w = np.where(zk == 1, 1.0, psk / (1.0 - psk))
    means, phis = [], []
    for arm_w in (w * (zk == 1), w * (zk == 0)):
        mean = float((arm_w * yk).sum()) / float(arm_w.sum())
        means.append(mean)
        phis.append(arm_w * (yk - mean) / arm_w.mean())
    att, phi = means[0] - means[1], phis[0] - phis[1]
    if ps.score_basis is not None and phi.size > ps.score_basis.shape[1]:
        basis = ps.score_basis[kept]
        coef, *_ = np.linalg.lstsq(basis, phi, rcond=None)
        phi = phi - basis @ coef
    se = float(np.sqrt((phi**2).mean() / phi.size))
    return Estimate(att, se, two_sided_p(att / se))
