"""Simulated cohorts with quadratic treatment assignment.

Three confounding scenarios share one skeleton: covariates are iid
standard normal, treatment is Bernoulli with a logit quadratic in (x1,
x2), and the outcome is linear in (x1, x3) with additive N(0, 2) noise.
Scenario 2 amplifies the treatment coefficients to induce strong
separation between arms; scenario 3 adds a covariate x4 to both the
treatment and outcome models and then hides it from every estimator.

Outcome settings vary the response surface: setting 1 is homogeneous,
setting 2 adds a quadratic term in x1 that estimation models omit, and
setting 3 makes the treatment effect heterogeneous in x1 so the ATT
depends on who gets treated.  A null variant zeroes every term involving
Z, which is what the type-I-error cells run on.

The treatment intercept is calibrated against a large Monte Carlo sample
so each configuration hits its target prevalence, by one bisection loop:
steered by a guess of the root when two passes over the sample certify
the guess's leaf, else by the sample's own gap at each midpoint.  Sample
sizes are chosen to keep the expected treated count at 50.

Every draw comes straight from a numpy ``Generator`` (see
:mod:`attbench.numeric`).  Scenario, setting and prevalence are checked
once, by :class:`CellConfig` and the grid, not again here.

Both Monte Carlo oracles stream their samples in leaves of a few ten
thousand rows and never hold a whole draw.  Their sums still carry the
bits of ``np.sum`` over the whole vector: numpy adds a contiguous float64
vector by a fixed pairwise tree, and :func:`_pairwise_sum` sums each leaf
of that tree with ``np.sum`` and adds the leaf sums up the same tree.  The
normal draws come leaf by leaf in row order, which the stream makes the
same values as one draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BracketFailureError, DegenerateDrawError
from .numeric import PURPOSE_DATASET, expit, logit, substream

NOISE_VARIANCE = 2.0
NOISE_SD = float(np.sqrt(NOISE_VARIANCE))
CALIBRATION_TOL = 1e-3
# Default oracle sample sizes: the intercept calibration's and the truth's.
DEFAULT_CALIBRATION_N = 10**6
DEFAULT_TRUTH_N = 10**7
_BISECTION_BRACKET = (-20.0, 20.0)
_BISECTION_X_TOL = 1e-10
# Newton stops once a step is this small: the next would move the estimate
# by about its square, far below the width of a bisection leaf.
_NEWTON_STEP_TOL = 1e-8
_NEWTON_MAX_STEPS = 16
_ORACLE_CHUNK = 10**6
# Rows per oracle leaf: its normals and temporaries take under 1 MB.  Any
# size of at least numpy's pairwise block of 128 gives the same bits.  At
# 2**15 the scratch of a 10**5-row calibration outgrew what glibc's malloc
# keeps between calls, and each certified calibration of a resume
# page-faulted about 440 times; at 2**14 it does not, and passes are as fast.
_ORACLE_LEAF = 2**14
_MAX_REDRAWS = 64

PREVALENCE_LABELS = ("0.05", "0.10", "0.20", "0.33", "0.50")
# 0.33 is shorthand for one third, keeping the expected treated count at
# exactly 50 for every prevalence.
PREVALENCE_VALUES = (0.05, 0.10, 0.20, 1.0 / 3.0, 0.50)
SAMPLE_SIZES = (1000, 500, 250, 150, 100)


@dataclass(frozen=True)
class ScenarioSpec:
    """Treatment-assignment model: logit P(Z=1|X) = alpha0 + f(X)."""

    coef_x1: float
    coef_x2: float
    coef_x1_sq: float
    coef_x2_sq: float
    coef_x1_x2: float
    coef_x4: float = 0.0
    coef_x4_sq: float = 0.0
    includes_x4: bool = False


SCENARIOS: dict[int, ScenarioSpec] = {
    1: ScenarioSpec(0.1, 0.1, 0.05, 0.02, 0.02),
    2: ScenarioSpec(1.25, 1.0, 0.5, 0.5, 0.75),
    3: ScenarioSpec(0.1, 0.1, 0.05, 0.02, 0.02, 0.05, 0.02, includes_x4=True),
}

SETTING_IDS = (1, 2, 3)
# The two arms of a cell, as store names spell them, indexed by ``null_effect``.
ARMS = ("effect", "null")


def treatment_logit_terms(
    spec: ScenarioSpec, x1: np.ndarray, x2: np.ndarray, x4: np.ndarray | None = None
) -> np.ndarray:
    """The covariate part f(X) of the treatment logit (no intercept).

    The terms are summed left to right in the order written: the bits of
    every intercept and cohort depend on it.  ``x4`` is read only when the
    scenario includes it.
    """
    terms = (
        spec.coef_x1 * x1
        + spec.coef_x2 * x2
        + spec.coef_x1_sq * x1**2
        + spec.coef_x2_sq * x2**2
        + spec.coef_x1_x2 * x1 * x2
    )
    if spec.includes_x4:
        terms = terms + spec.coef_x4 * x4 + spec.coef_x4_sq * x4**2
    return terms


def outcome_mean(
    spec: ScenarioSpec, setting: int, x: np.ndarray, z: np.ndarray, null_effect: bool
) -> np.ndarray:
    """Systematic part of the outcome, before noise.

    ``null_effect`` zeroes every Z-bearing term (the main effect and, in
    setting 3, the interaction), leaving the confounding structure
    intact.
    """
    x1 = x[:, 0]
    x3 = x[:, 2]
    mean = 1.5 * x1 + 0.75 * x3
    if spec.includes_x4:
        mean = mean + 5.0 * x[:, 3]
    if setting == 2:
        mean = mean + 1.75 * x1**2
    if not null_effect:
        mean = mean + z
        if setting == 3:
            mean = mean + 1.5 * x1 * z
    return mean


@dataclass(frozen=True)
class Dataset:
    """One simulated cohort; ``x`` holds all covariates, scenario 3's hidden
    x4 included."""

    x: np.ndarray = field(repr=False)
    z: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)

    @property
    def observed_covariates(self) -> np.ndarray:
        """x1, x2 and x3, the covariates every estimator sees, in column-major
        order: the estimators' last bits depend on it."""
        return np.asfortranarray(self.x[:, :3])


@dataclass(frozen=True)
class CellConfig:
    """One simulation cell: scenario x setting x prevalence x effect/null."""

    scenario: int
    setting: int
    prevalence_label: str
    null_effect: bool
    n_reps: int
    master_seed: int

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario: {self.scenario}")
        if self.setting not in SETTING_IDS:
            raise ValueError(f"unknown setting: {self.setting}")
        if self.prevalence_label not in PREVALENCE_LABELS:
            raise ValueError(f"unknown prevalence label: {self.prevalence_label}")
        if self.n_reps < 1:
            raise ValueError(f"n_reps must be positive: {self.n_reps}")

    @property
    def prevalence_index(self) -> int:
        return PREVALENCE_LABELS.index(self.prevalence_label)

    @property
    def n(self) -> int:
        return SAMPLE_SIZES[self.prevalence_index]

    @property
    def cell_code(self) -> int:
        """Stable integer identity used to derive the cell's rng streams."""
        return (
            self.scenario * 1000
            + self.setting * 100
            + self.prevalence_index * 10
            + int(self.null_effect)
        )

    @property
    def name(self) -> str:
        return f"s{self.scenario}t{self.setting}p{self.prevalence_label.replace('.', '')}_{ARMS[self.null_effect]}"


def prevalence_label_for(value: float | str) -> str:
    """Canonical label for a prevalence given as float or string."""
    if isinstance(value, str):
        if value in PREVALENCE_LABELS:
            return value
        try:
            value = float(value)
        except ValueError:
            raise ValueError(f"prevalence {value!r} is not in the design: {PREVALENCE_LABELS}") from None
    for label, v in zip(PREVALENCE_LABELS, PREVALENCE_VALUES):
        if abs(value - v) < 5e-3:
            return label
    raise ValueError(f"prevalence {value} is not in the design: {PREVALENCE_LABELS}")


def _draw_treatment_covariates(
    spec: ScenarioSpec, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, ...]:
    k = 3 if spec.includes_x4 else 2
    draws = rng.standard_normal(n * k).reshape(n, k)
    if spec.includes_x4:
        return draws[:, 0], draws[:, 1], draws[:, 2]
    return draws[:, 0], draws[:, 1], None


def draw_true_propensity(
    spec: ScenarioSpec, alpha0: float, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` draws of x1 and of the true treatment probability at ``alpha0``."""
    x1, x2, x4 = _draw_treatment_covariates(spec, n, rng)
    p = treatment_logit_terms(spec, x1, x2, x4)
    p += alpha0
    return x1, expit(p, out=p)


def _pairwise_sum(start: int, stop: int, leaf_sum):
    """``np.sum`` of rows ``start:stop`` of a vector no one holds whole, from
    ``leaf_sum(lo, hi)``, the ``np.sum`` of rows ``lo:hi``.

    NumPy sums a contiguous float64 vector of more than 128 elements as the
    sum of its first ``n//2 - (n//2) % 8`` elements plus the sum of the
    rest, each split again the same way.  This follows that tree down to
    subtrees of at most ``_ORACLE_LEAF`` rows, hands each to ``leaf_sum`` in
    row order, and adds the results up the tree, so the total is ``==``
    ``np.sum`` of the whole vector.  ``leaf_sum`` may return an array of
    several sums; they are added elementwise.
    """
    n = stop - start
    if n <= _ORACLE_LEAF:
        return leaf_sum(start, stop)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(start, start + half, leaf_sum) + _pairwise_sum(start + half, stop, leaf_sum)


def _expit_leaf(terms: np.ndarray, alpha: float, buf: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``expit(alpha + terms[lo:hi])``, in the leaf-sized ``buf``."""
    p = buf[: hi - lo]
    np.add(terms[lo:hi], alpha, out=p)
    return expit(p, out=p)


def _newton_root(terms: np.ndarray, prevalence: float, buf: np.ndarray) -> float:
    """Estimate of the intercept where ``mean(expit(alpha + terms))`` equals
    ``prevalence``, by Newton steps from ``logit(prevalence)``.

    The slope is ``mean(p (1 - p))``.  Each evaluation narrows a bracket
    inside the bisection's, and a step that would leave it bisects it
    instead.  The result is only a guess: the caller certifies it.
    """

    def leaf_sums(lo: int, hi: int) -> np.ndarray:
        p = _expit_leaf(terms, alpha, buf, lo, hi)
        total = p.sum()
        p *= p
        return np.array((total, p.sum()))

    lo, hi = _BISECTION_BRACKET
    alpha = min(max(float(logit(prevalence)), lo), hi)
    for _ in range(_NEWTON_MAX_STEPS):
        mean, mean_sq = (_pairwise_sum(0, terms.size, leaf_sums) / terms.size).tolist()
        slope = mean - mean_sq
        if mean < prevalence:
            lo = alpha
        else:
            hi = alpha
        step = (prevalence - mean) / slope if slope > 0.0 else np.nan
        following = alpha + step if lo < alpha + step < hi else (lo + hi) / 2.0
        if abs(following - alpha) < _NEWTON_STEP_TOL:
            return following
        alpha = following
    return alpha


def _bisect(root_above) -> tuple[float, float]:
    """The final bracket ``[lo, hi]`` of the bisection that moves ``lo`` up
    to each midpoint where ``root_above(mid)`` holds and ``hi`` down to the
    others."""
    lo, hi = _BISECTION_BRACKET
    while hi - lo > _BISECTION_X_TOL:
        mid = (lo + hi) / 2.0
        if root_above(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def calibrate_intercept(
    spec: ScenarioSpec,
    prevalence: float,
    rng: np.random.Generator,
    oracle_n: int = DEFAULT_CALIBRATION_N,
    *,
    guess: float | None = None,
) -> float:
    """Bisection for the intercept hitting the target prevalence.

    The Monte Carlo sample of covariate terms is drawn once and held
    fixed; marginal prevalence is then monotone in the intercept, so
    bisection on the bracket converges to the root of the empirical
    moment condition.  Raises :class:`BracketFailureError` if the bracket
    does not straddle the target or the achieved prevalence misses it by
    more than ``CALIBRATION_TOL``.

    The computed gap ``mean(expit(alpha + terms)) - prevalence`` is itself
    non-decreasing in ``alpha``: the rounded sum ``alpha + t``, ``expit``
    and every rounded addition of the pairwise mean are monotone.  For
    ``expit`` (``1 / (1 + exp(-x))``) this rests on a scan: numpy's
    vectorized ``exp`` is not correctly rounded, so rounding alone does not
    make it monotone.  A scan of 117 million pairs of consecutive doubles,
    most in runs sampled across [-75, 75], found no step down; the tests
    scan a sample of their own and compare the result with the plain
    bisection.  So the bisection need not evaluate its midpoints.  Its one
    loop, :func:`_bisect`, steered by a guess of the root, ends in a leaf
    ``[lo, hi]``; if the gap there straddles zero, ``gap(lo) < 0 <=
    gap(hi)``, then every midpoint it moved ``lo`` to lies at or below
    ``lo`` and has a negative gap, and every one it moved ``hi`` to lies at
    or above ``hi`` and has a non-negative gap.  Steered by the gap at each
    midpoint instead, the loop takes the same steps and returns the same
    bits, ``(lo + hi) / 2``, whose gap lies between the two.  That is two
    passes over the sample for the certificate, against 42 for the plain
    bisection, which runs when the certificate fails.

    ``guess`` defaults to a Newton estimate from the sample (about four
    more passes); a resume passes the intercept it stored.  Any guess
    costs at most the certificate's two passes, never a different result.

    Only the ``oracle_n`` terms are held: the normals are drawn a leaf at a
    time into them, and each pass adds, applies ``expit`` and sums one
    leaf at a time in a leaf-sized buffer.  Its leaves are those of numpy's
    pairwise tree over the whole vector, added up that tree by
    :func:`_pairwise_sum`, so every gap has the bits of ``np.mean`` over
    the whole sample.  Newton's slope sums the squares up the same tree;
    only the guess depends on it.
    """
    terms = np.empty(oracle_n)
    for lo in range(0, oracle_n, _ORACLE_LEAF):
        hi = min(lo + _ORACLE_LEAF, oracle_n)
        terms[lo:hi] = treatment_logit_terms(spec, *_draw_treatment_covariates(spec, hi - lo, rng))
    buf = np.empty(min(oracle_n, _ORACLE_LEAF))

    def gap(alpha: float) -> float:
        total = _pairwise_sum(0, oracle_n, lambda lo, hi: _expit_leaf(terms, alpha, buf, lo, hi).sum())
        return total / oracle_n - prevalence

    guess = _newton_root(terms, prevalence, buf) if guess is None else guess
    lo, hi = _bisect(lambda mid: mid < guess)
    g_lo, g_hi = gap(lo), gap(hi)
    certified = g_lo < 0.0 <= g_hi
    if not certified:
        if gap(_BISECTION_BRACKET[0]) > 0.0 or gap(_BISECTION_BRACKET[1]) < 0.0:
            raise BracketFailureError(f"bracket {_BISECTION_BRACKET} does not straddle {prevalence}")
        lo, hi = _bisect(lambda mid: gap(mid) < 0.0)
    alpha = (lo + hi) / 2.0
    # In a certified leaf the gap at alpha lies between g_lo and g_hi.
    if not (certified and -CALIBRATION_TOL <= g_lo and g_hi <= CALIBRATION_TOL):
        miss = gap(alpha)
        if abs(miss) > CALIBRATION_TOL:
            raise BracketFailureError(f"calibration missed target by {miss:.2e}")
    return float(alpha)


def generate_dataset(cfg: CellConfig, alpha0: float, rng: np.random.Generator) -> Dataset:
    """Draw one cohort from a single stream.

    Draw order is fixed (covariate matrix, then treatment uniforms, then
    outcome noise) so the stream fully determines the data.  A draw with
    fewer than two units in either arm raises
    :class:`DegenerateDrawError`; redrawing is the caller's job because
    it changes the stream.
    """
    spec = SCENARIOS[cfg.scenario]
    n = cfg.n
    d = 4 if spec.includes_x4 else 3
    x = rng.standard_normal(n * d).reshape(n, d)
    x4 = x[:, 3] if spec.includes_x4 else None
    p_treat = expit(alpha0 + treatment_logit_terms(spec, x[:, 0], x[:, 1], x4))
    # One uniform per unit, whatever its probability.
    z = (rng.random(n) < p_treat).astype(np.int64)
    noise = NOISE_SD * rng.standard_normal(n)
    n_treated = int(z.sum())
    if n_treated < 2 or n - n_treated < 2:
        raise DegenerateDrawError(f"{n_treated} treated of {n}")
    y = outcome_mean(spec, cfg.setting, x, z, cfg.null_effect) + noise
    return Dataset(x, z, y)


def generate_replicate(cfg: CellConfig, alpha0: float, replicate: int) -> tuple[Dataset, int]:
    """Draw a replicate, redrawing degenerate cohorts on fresh substreams.

    Returns the dataset and the attempt index that produced it (0 for a
    clean first draw).  Every attempt consumes its own substream, so a
    redraw in one replicate cannot shift any other replicate's data.
    """
    for attempt in range(_MAX_REDRAWS):
        rng = substream(
            cfg.master_seed,
            cell_code=cfg.cell_code,
            replicate=replicate,
            attempt=attempt,
            purpose=PURPOSE_DATASET,
        )
        try:
            return generate_dataset(cfg, alpha0, rng), attempt
        except DegenerateDrawError:
            continue
    raise DegenerateDrawError(f"no viable draw in {_MAX_REDRAWS} attempts for replicate {replicate}")


def true_att(
    spec: ScenarioSpec,
    setting: int,
    alpha0: float,
    rng: np.random.Generator,
    oracle_n: int = DEFAULT_TRUTH_N,
    null_effect: bool = False,
) -> tuple[float, float]:
    """Population ATT and the Monte Carlo error of its computation.

    Settings 1 and 2 have a homogeneous effect, so the ATT is exactly 1
    (0 under the null) with zero oracle error.  Setting 3's ATT is
    ``1 + 1.5 * E[x1 | Z=1]``, estimated by importance-weighting x1 by
    the treatment probability over a large fixed-chunk Monte Carlo
    sample, with a delta-method standard error for the weighted mean.

    The sample comes in chunks of ``_ORACLE_CHUNK`` rows, whose five sums
    are added to running totals in chunk order.  A chunk is never held
    whole: each leaf of numpy's pairwise tree over it draws its normals,
    forms its weights and products and sums them with ``np.sum``, and
    :func:`_pairwise_sum` adds the leaf sums up that tree.  So each chunk
    sum is ``==`` ``np.sum`` over the whole chunk, and the truth and its
    error keep the bits the chunk-at-once computation gave.
    """
    if null_effect:
        return 0.0, 0.0
    if setting in (1, 2):
        return 1.0, 0.0

    def leaf_sums(lo: int, hi: int) -> np.ndarray:
        x1, w = draw_true_propensity(spec, alpha0, hi - lo, rng)
        w2 = w * w
        return np.array((w.sum(), (w * x1).sum(), w2.sum(), (w2 * x1).sum(), (w2 * x1 * x1).sum()))

    # Each chunk's sums are added to the running totals in chunk order.
    totals = np.zeros(5)
    for start in range(0, oracle_n, _ORACLE_CHUNK):
        totals += _pairwise_sum(start, min(start + _ORACLE_CHUNK, oracle_n), leaf_sums)
    s_w, s_wx, s_w2, s_w2x, s_w2x2 = totals.tolist()
    mean_x1_treated = s_wx / s_w
    # Delta method for the ratio estimator: Var = E[w^2 (x - m)^2] / (n E[w]^2).
    e_w = s_w / oracle_n
    e_w2_dev = (s_w2x2 - 2.0 * mean_x1_treated * s_w2x + mean_x1_treated**2 * s_w2) / oracle_n
    se_mean = float(np.sqrt(e_w2_dev / (e_w**2) / oracle_n))
    return 1.0 + 1.5 * mean_x1_treated, 1.5 * se_mean
