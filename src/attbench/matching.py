"""Greedy matching estimators: propensity, Mahalanobis, and coarsened exact.

All matching is without replacement and greedy in descending estimated
propensity of the treated unit, the order in which good controls are
scarcest.  Ties (equal scores, equal distances) break toward the lowest
index so a permutation of the input rows cannot change who matches whom
beyond the relabeling itself.  The caliper is fixed at 0.2 sample
standard deviations of the logit propensity and treated units with no
eligible control are discarded, never force-matched.

The greedy pass works on one precomputed block: a row per treated unit
in greedy order, a column per control, holding the pair's distance
where the caliper admits it and ``inf`` elsewhere.  The distances use
the same elementwise arithmetic a per-unit search of the remaining pool
would, and a pair's distance does not depend on which controls are
still free, so the block is built once.  Each unit then takes the
``argmin`` of its row (the first of equal minima, i.e. the lowest
control index), ``ratio`` times, and every taken control's column is
set to ``inf`` for the units after it.  The matches equal those of the
per-unit search exactly, and come back as a :class:`MatchSet` of two
int arrays, one row per matched unit.  The propensity block, a
:class:`CaliperBlock`, depends on the score and treatment alone: its one
read-only table holds each pair's logit gap inside the caliper and
``inf`` outside it.  :func:`caliper_block` builds it once per replicate
and the matchers take it as given, :func:`psm_match` as ``(block,
ratio)``, walking a copy of the table, and :func:`mdm_match` as ``(x,
block)``, overwriting a copy's finite cells with Mahalanobis distances.
Coarsened strata are integer codes counted with ``np.bincount``,
coded once per :func:`cem_match` and carried to :func:`cem_att`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NoMatchesError, TooFewPairsError
from .numeric import Estimate, cholesky_factor, logit, sample_covariance, wald_estimate

CALIPER_SD_FACTOR = 0.2


class MatchSet(NamedTuple):
    """Result of a greedy matching pass.

    ``pairs`` has one row per matched treated unit, in greedy order: the
    treated index, then the indices of its controls (one for 1:1
    matching, up to ``ratio`` otherwise), padded with ``-1`` after the
    last control found.  Controls are matched without replacement, so no
    index appears twice anywhere.  ``discarded_treated`` holds the
    treated units with no eligible control, in greedy order.
    """

    pairs: np.ndarray
    discarded_treated: np.ndarray


class CaliperBlock(NamedTuple):
    """Treated units in greedy order, controls, and their caliper-masked distances.

    ``dist`` has one row per treated unit and one column per control: the
    pair's ``|logit gap|`` where the caliper admits it, ``inf`` elsewhere,
    so a pair is eligible exactly where ``dist < inf``.  It is read-only,
    so one block can serve every matcher of a replicate; each walks its
    own copy.
    """

    treated: np.ndarray
    controls: np.ndarray
    dist: np.ndarray


def caliper_block(ps_values: np.ndarray, z: np.ndarray) -> CaliperBlock:
    """The :class:`CaliperBlock` of scores ``ps_values`` and treatment ``z``.

    Raises :class:`NoMatchesError` unless both arms have a unit.
    """
    treated_idx = np.flatnonzero(z == 1)
    control_idx = np.flatnonzero(z == 0)
    if treated_idx.size == 0 or control_idx.size == 0:
        raise NoMatchesError("need both treated and control units")
    # argsort on (-ps, index); stable sort on index-ordered input gives
    # the lowest index first among exact ties.
    treated = treated_idx[np.argsort(-ps_values[treated_idx], kind="stable")]
    logit_ps = logit(ps_values)
    dist = np.abs(logit_ps[control_idx] - logit_ps[treated][:, None])
    # Negated so that a NaN gap falls outside the caliper.
    dist[~(dist <= CALIPER_SD_FACTOR * float(np.std(logit_ps, ddof=1)))] = np.inf
    dist.flags.writeable = False
    return CaliperBlock(treated, control_idx, dist)


def _greedy_walk(treated: np.ndarray, control_idx: np.ndarray, dist: np.ndarray, ratio: int) -> MatchSet:
    """Give each treated unit, in order, its ``ratio`` nearest free controls.

    ``dist`` holds one row per treated unit and one column per control,
    ``inf`` where the pair is ineligible; it is overwritten.  ``argmin``
    returns the first of equal minima, so a distance tie goes to the
    lowest control index, and a taken control's column is set to ``inf``
    for every later unit.
    """
    controls = control_idx.tolist()
    pairs = np.full((treated.size, 1 + ratio), -1, dtype=np.intp)
    pairs[:, 0] = treated
    for i, row in enumerate(dist):
        for k in range(1, 1 + ratio):
            j = int(row.argmin())
            if row[j] == np.inf:
                break
            dist[i:, j] = np.inf
            pairs[i, k] = controls[j]
    matched = pairs[:, 1] >= 0
    if not matched.any():
        raise NoMatchesError("caliper discarded every treated unit")
    return MatchSet(pairs[matched], treated[~matched])


def psm_match(block: CaliperBlock, ratio: int) -> MatchSet:
    """Nearest-neighbor caliper matching on the logit propensity score.

    Each treated unit of ``block`` takes the ``ratio`` nearest unused
    controls within the caliper; at least one is required or the unit is
    discarded.  Raises :class:`NoMatchesError` when every treated unit is
    discarded.
    """
    return _greedy_walk(block.treated, block.controls, block.dist.copy(), ratio)


def mdm_match(x: np.ndarray, block: CaliperBlock) -> MatchSet:
    """1:1 Mahalanobis matching on covariates ``x`` with the propensity
    caliper screen of ``block``.

    The caliper decides which controls are eligible; the Mahalanobis
    metric (covariance pooled over the full sample) decides which
    eligible control is closest.  Distances are computed in whitened
    coordinates: with ``cov = L L'``, the metric is plain Euclidean on
    ``L^{-1} x``.
    """
    return _greedy_walk(block.treated, block.controls, _pair_distances(_whiten(x), block), 1)


def _whiten(x: np.ndarray) -> np.ndarray:
    """``L^{-1} x'`` with ``cov(x) = L L'``: one row per coordinate.

    ``L^{-1}`` comes from one small ``np.linalg.solve`` against the
    identity and is applied as one product, far cheaper than solving for
    every unit's column."""
    lower = cholesky_factor(sample_covariance(x))
    return np.linalg.solve(lower, np.eye(lower.shape[0])) @ x.T


def _pair_distances(white: np.ndarray, block: CaliperBlock) -> np.ndarray:
    """Euclidean distances of whitened units where ``block`` admits the
    pair, ``inf`` elsewhere.

    Each pair's squares are added over coordinates 0..d-1 in order, as a
    per-unit search adds them.
    """
    dist = block.dist.copy()
    flat = np.flatnonzero(dist < np.inf)
    rows, cols = np.divmod(flat, dist.shape[1])
    t, c = block.treated[rows], block.controls[cols]
    squared = (white[0, c] - white[0, t]) ** 2
    for coordinate in white[1:]:
        squared += (coordinate[c] - coordinate[t]) ** 2
    dist.ravel()[flat] = np.sqrt(squared)
    return dist


class CemStrata(NamedTuple):
    """Coarsened exact matching strata.

    ``codes`` holds each unit's stratum number (the rank of its joint bin
    signature among the distinct ones), and ``retained`` marks units whose
    stratum contains both classes.
    """

    codes: np.ndarray
    retained: np.ndarray


def cem_match(x: np.ndarray, z: np.ndarray, n_bins: int) -> CemStrata:
    """Coarsen each covariate into ``n_bins`` equal-width bins.

    Bins span the observed min..max of each covariate; the maximum falls
    into the top bin.  A stratum (joint bin signature) is retained only
    if it contains at least one treated and one control unit.
    """
    d = x.shape[1]
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    if np.any(hi == lo):
        raise ValueError("every covariate must be non-constant")
    if int(n_bins) ** d - 1 > np.iinfo(np.int64).max:
        raise ValueError(f"{n_bins}**{d} strata overflow a 64-bit stratum code")
    signatures = np.floor((x - lo) / (hi - lo) * n_bins).astype(np.int64)
    signatures = np.minimum(signatures, n_bins - 1)
    # Strata are numbered 0, 1, ... in the ascending order of their bin
    # signatures read as base-n_bins integers, so the counts per stratum
    # are at most n long however many covariates there are.
    radix = n_bins ** np.arange(d, dtype=np.int64)
    codes = np.unique(signatures @ radix, return_inverse=True)[1]
    n_strata = codes.max() + 1
    has_treated = np.bincount(codes[z == 1], minlength=n_strata) > 0
    has_control = np.bincount(codes[z == 0], minlength=n_strata) > 0
    retained = (has_treated & has_control)[codes]
    return CemStrata(codes, retained)


def _paired_t(differences: np.ndarray) -> Estimate:
    m = differences.size
    if m < 2:
        raise TooFewPairsError(f"need at least 2 matched sets, got {m}")
    se = float(differences.std(ddof=1) / np.sqrt(m))
    return wald_estimate(float(differences.mean()), se, m - 1)


def matched_att(y: np.ndarray, matches: MatchSet) -> Estimate:
    """Paired t estimate over treated-minus-matched-control differences.

    Each difference is the treated outcome minus the mean outcome of its
    matched controls, a ``-1`` pad aside; inference is a paired t-test
    with one degree of freedom fewer than there are matched sets.
    """
    controls = matches.pairs[:, 1:]
    found = controls >= 0
    # Masked row sum over size: for a set of one or two controls, the bits of its mean.
    control_sum = np.where(found, y[controls], 0.0).sum(axis=1)
    return _paired_t(y[matches.pairs[:, 0]] - control_sum / found.sum(axis=1))


def cem_att(y: np.ndarray, z: np.ndarray, strata: CemStrata) -> Estimate:
    """Paired t estimate within coarsened strata.

    Every retained treated unit contributes one difference against the
    mean control outcome of its own stratum.
    """
    codes = strata.codes
    retained = np.flatnonzero(strata.retained)
    treated = retained[z[retained] == 1]
    control = retained[z[retained] != 1]
    control_sum = np.bincount(codes[control], weights=y[control])
    control_n = np.bincount(codes[control])
    return _paired_t(y[treated] - control_sum[codes[treated]] / control_n[codes[treated]])
