"""Greedy matching estimators: propensity, Mahalanobis, and coarsened exact.

All matching is without replacement and greedy in descending estimated
propensity of the treated unit, the order in which good controls are
scarcest.  Ties (equal scores, equal distances) break toward the lowest
index so a permutation of the input rows cannot change who matches whom
beyond the relabeling itself.  The caliper is fixed at 0.2 sample
standard deviations of the logit propensity and treated units with no
eligible control are discarded, never force-matched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats
from scipy.linalg import solve_triangular

from .errors import NoMatchesError, TooFewPairsError, ZeroVarianceError
from .numeric import SpdMatrix, cholesky_factor, cholesky_solve, sample_covariance
from .propensity import PsVector

CALIPER_SD_FACTOR = 0.2


def _logit(p: np.ndarray) -> np.ndarray:
    return np.log(p / (1.0 - p))


def _caliper(logit_ps: np.ndarray) -> float:
    return CALIPER_SD_FACTOR * float(np.std(logit_ps, ddof=1))


@dataclass(frozen=True)
class MatchSet:
    """Result of a greedy matching pass.

    ``pairs`` maps each matched treated index to the tuple of its control
    indices (one for 1:1 matching, up to ``ratio`` otherwise).  Controls
    are matched without replacement, so no index appears twice anywhere.
    """

    pairs: tuple[tuple[int, tuple[int, ...]], ...]
    discarded_treated: tuple[int, ...]
    ratio: int

    def __post_init__(self):
        if self.ratio < 1:
            raise ValueError(f"ratio must be positive: {self.ratio}")
        seen_controls: set[int] = set()
        seen_treated: set[int] = set()
        for treated, controls in self.pairs:
            if treated in seen_treated:
                raise ValueError(f"treated unit {treated} matched twice")
            seen_treated.add(treated)
            if not 1 <= len(controls) <= self.ratio:
                raise ValueError(f"treated unit {treated} has {len(controls)} controls")
            for c in controls:
                if c in seen_controls:
                    raise ValueError(f"control unit {c} reused")
                seen_controls.add(c)
        if seen_treated & set(self.discarded_treated):
            raise ValueError("a treated unit is both matched and discarded")

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)


def _greedy_order(ps_values: np.ndarray, treated_idx: np.ndarray) -> np.ndarray:
    # argsort on (-ps, index); stable sort on index-ordered input gives
    # the lowest index first among exact ties.
    order = np.argsort(-ps_values[treated_idx], kind="stable")
    return treated_idx[order]


def psm_match(ps: PsVector, z: np.ndarray, ratio: int = 1) -> MatchSet:
    """Nearest-neighbor caliper matching on the logit propensity score.

    Each treated unit takes the ``ratio`` nearest unused controls within
    the caliper; at least one is required or the unit is discarded.
    Raises :class:`NoMatchesError` when every treated unit is discarded.
    """
    z = np.asarray(z)
    if z.shape != ps.values.shape:
        raise ValueError("z must match ps in length")
    if ratio < 1:
        raise ValueError(f"ratio must be positive: {ratio}")
    logit_ps = _logit(ps.values)
    caliper = _caliper(logit_ps)
    treated_idx = np.flatnonzero(z == 1)
    control_idx = np.flatnonzero(z == 0)
    if treated_idx.size == 0 or control_idx.size == 0:
        raise NoMatchesError("need both treated and control units")

    available = np.ones(control_idx.size, dtype=bool)
    pairs = []
    discarded = []
    for t in _greedy_order(ps.values, treated_idx):
        pool = control_idx[available]
        if pool.size == 0:
            discarded.append(int(t))
            continue
        dist = np.abs(logit_ps[pool] - logit_ps[t])
        in_caliper = dist <= caliper
        if not in_caliper.any():
            discarded.append(int(t))
            continue
        eligible = pool[in_caliper]
        order = np.argsort(dist[in_caliper], kind="stable")[:ratio]
        chosen = eligible[order]
        pairs.append((int(t), tuple(int(c) for c in chosen)))
        available[np.searchsorted(control_idx, chosen)] = False
    if not pairs:
        raise NoMatchesError("caliper discarded every treated unit")
    return MatchSet(tuple(pairs), tuple(discarded), ratio)


def mahalanobis_distance(u: np.ndarray, v: np.ndarray, cov: SpdMatrix) -> float:
    """Distance ``sqrt((u - v)' cov^{-1} (u - v))``."""
    diff = np.asarray(u, dtype=np.float64) - np.asarray(v, dtype=np.float64)
    return float(np.sqrt(diff @ cholesky_solve(cov, diff)))


def mdm_match(x: np.ndarray, z: np.ndarray, ps: PsVector) -> MatchSet:
    """1:1 Mahalanobis matching with a propensity caliper screen.

    The caliper decides which controls are eligible; the Mahalanobis
    metric (covariance pooled over the full sample) decides which
    eligible control is closest.  Distances are computed in whitened
    coordinates: with ``cov = L L'``, the metric is plain Euclidean on
    ``L^{-1} x``.
    """
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z)
    if z.shape[0] != x.shape[0] or z.shape != ps.values.shape:
        raise ValueError("x, z, and ps must agree in length")
    cov = sample_covariance(x)
    lower = cholesky_factor(cov.entries)
    white = solve_triangular(lower, x.T, lower=True, check_finite=False).T

    logit_ps = _logit(ps.values)
    caliper = _caliper(logit_ps)
    treated_idx = np.flatnonzero(z == 1)
    control_idx = np.flatnonzero(z == 0)
    if treated_idx.size == 0 or control_idx.size == 0:
        raise NoMatchesError("need both treated and control units")

    available = np.ones(control_idx.size, dtype=bool)
    pairs = []
    discarded = []
    for t in _greedy_order(ps.values, treated_idx):
        pool = control_idx[available]
        eligible = pool[np.abs(logit_ps[pool] - logit_ps[t]) <= caliper]
        if eligible.size == 0:
            discarded.append(int(t))
            continue
        dist = np.sqrt(((white[eligible] - white[t]) ** 2).sum(axis=1))
        c = eligible[int(np.argmin(dist))]  # argmin takes the first, i.e. lowest index
        pairs.append((int(t), (int(c),)))
        available[np.searchsorted(control_idx, c)] = False
    if not pairs:
        raise NoMatchesError("caliper discarded every treated unit")
    return MatchSet(tuple(pairs), tuple(discarded), 1)


@dataclass(frozen=True)
class CemStrata:
    """Coarsened exact matching strata.

    ``signatures`` holds each unit's per-covariate bin index;
    ``retained`` marks units whose stratum contains both classes.
    """

    n_bins: int
    signatures: np.ndarray = field(repr=False)
    retained: np.ndarray = field(repr=False)


def cem_match(x: np.ndarray, z: np.ndarray, n_bins: int) -> CemStrata:
    """Coarsen each covariate into ``n_bins`` equal-width bins.

    Bins span the observed min..max of each covariate; the maximum falls
    into the top bin.  A stratum (joint bin signature) is retained only
    if it contains at least one treated and one control unit.
    """
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z)
    if n_bins < 1:
        raise ValueError(f"n_bins must be positive: {n_bins}")
    n, d = x.shape
    if z.shape != (n,):
        raise ValueError("z must match x in length")
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    if np.any(hi == lo):
        raise ValueError("every covariate must be non-constant")
    signatures = np.floor((x - lo) / (hi - lo) * n_bins).astype(np.int64)
    signatures = np.minimum(signatures, n_bins - 1)

    retained = np.zeros(n, dtype=bool)
    strata: dict[tuple[int, ...], list[int]] = {}
    for i in range(n):
        strata.setdefault(tuple(signatures[i]), []).append(i)
    for members in strata.values():
        zs = z[members]
        if zs.min() == 0 and zs.max() == 1:
            retained[members] = True
    return CemStrata(n_bins, signatures, retained)


@dataclass(frozen=True)
class MatchedAttEstimate:
    att: float
    theoretical_se: float
    p_value: float
    n_pairs: int


def _paired_t(differences: np.ndarray) -> MatchedAttEstimate:
    m = differences.size
    if m < 2:
        raise TooFewPairsError(f"need at least 2 matched sets, got {m}")
    att = float(differences.mean())
    sd = float(differences.std(ddof=1))
    if sd == 0.0:
        raise ZeroVarianceError("matched differences are constant")
    se = sd / np.sqrt(m)
    t_stat = att / se
    p_value = 2.0 * float(stats.t.sf(abs(t_stat), m - 1))
    return MatchedAttEstimate(att, float(se), p_value, m)


def matched_att(y: np.ndarray, matches: MatchSet) -> MatchedAttEstimate:
    """Paired t estimate over treated-minus-matched-control differences.

    Each difference is the treated outcome minus the mean outcome of its
    matched controls; inference is a paired t-test with ``n_pairs - 1``
    degrees of freedom.
    """
    y = np.asarray(y, dtype=np.float64)
    diffs = np.array([y[t] - y[list(cs)].mean() for t, cs in matches.pairs])
    return _paired_t(diffs)


def cem_att(y: np.ndarray, z: np.ndarray, strata: CemStrata) -> MatchedAttEstimate:
    """Paired t estimate within coarsened strata.

    Every retained treated unit contributes one difference against the
    mean control outcome of its own stratum.
    """
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z)
    control_sum: dict[tuple[int, ...], float] = {}
    control_n: dict[tuple[int, ...], int] = {}
    treated: list[tuple[int, tuple[int, ...]]] = []
    for i in np.flatnonzero(strata.retained):
        key = tuple(strata.signatures[i])
        if z[i] == 1:
            treated.append((int(i), key))
        else:
            control_sum[key] = control_sum.get(key, 0.0) + float(y[i])
            control_n[key] = control_n.get(key, 0) + 1
    diffs = [y[i] - control_sum[key] / control_n[key] for i, key in treated]
    return _paired_t(np.asarray(diffs))
