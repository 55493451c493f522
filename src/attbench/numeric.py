"""Deterministic random streams, small dense linear algebra, the logistic
function, and the estimate every ATT estimator returns with its p-value.

All simulation randomness comes from numpy PCG64 ``Generator``s that
:func:`rng_stream` seeds through ``SeedSequence`` spawn keys; the code
that consumes a stream draws from it directly.  A stream is identified by
``(master_seed, stream_id)`` alone, so any unit of work that derives its
id from stable coordinates reproduces bit-for-bit regardless of
scheduling or worker count.

The linear-algebra helpers are deliberately small: numpy's LAPACK
Cholesky factorization (``np.linalg.cholesky``, one call for a whole
stack) behind a hard pivot floor, ``np.linalg.solve`` for the solves, and
a two-pass covariance.  Estimators depend on these instead of calling
into general-purpose decompositions so that failure modes (non-SPD systems,
a zero-variance covariate among them) surface as typed errors rather than
warnings.

:func:`wald_estimate` is the one rule that turns an ATT and its standard
error into an :class:`Estimate`: the p-value of ``att / se``, normal or
Student-t, :class:`ZeroSeError` for a zero standard error, and
:class:`NonFiniteEstimateError` for an ATT or standard error that is NaN or
infinite.  Every estimator returns its estimate through it.

Everything here, like the rest of the package, needs numpy alone: the
logistic function and its inverse are numpy's ``exp`` and ``log``, and the
normal and Student-t tails of :func:`two_sided_p` are computed in plain
Python floats.
"""

from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteEstimateError, NonSpdError, ZeroSeError

# Absolute floor for Cholesky pivots.  The matrices seen here (normal
# equations, sample covariances of standardized draws) have O(1) or larger
# diagonals, so anything at or below this is rank deficiency, not scale.
CHOLESKY_PIVOT_TOL = 1e-12

_MAX_UINT64 = 2**64

# Replicates per cell: ``pack_stream_id`` gives the replicate 16 bits.
MAX_REPLICATES = 2**16

# Substream purpose codes.  Packed into the low bits of a stream id so a
# replicate's dataset draw, PS ensemble folds, and outcome ensemble folds
# never share a stream.
PURPOSE_DATASET = 0
PURPOSE_PS_FOLDS = 1
PURPOSE_OUTCOME_FOLDS = 2
PURPOSE_CALIBRATION = 3
PURPOSE_TRUTH = 4
PURPOSE_PS_HIST = 5


def rng_stream(master_seed: int, stream_id: int = 0) -> np.random.Generator:
    """The numpy PCG64 generator of stream ``stream_id`` of ``master_seed``.

    Both are in ``[0, 2**64)``.  Equal ids reproduce equal draw sequences;
    distinct ids give statistically independent sequences via SeedSequence
    spawning.  A generator is stateful and must not be shared across
    concurrent consumers.  Normal variates come from its ziggurat sampler,
    uniforms from its 53-bit doubles: both fixed algorithms in numpy, which
    is what makes golden outputs stable across platforms.
    """
    if not 0 <= master_seed < _MAX_UINT64:
        raise ValueError(f"master_seed out of range: {master_seed}")
    if not 0 <= stream_id < _MAX_UINT64:
        raise ValueError(f"stream_id out of range: {stream_id}")
    seq = np.random.SeedSequence(master_seed, spawn_key=(stream_id,))
    return np.random.Generator(np.random.PCG64(seq))


def pack_stream_id(cell_code: int, replicate: int, attempt: int, purpose: int) -> int:
    """Pack work-unit coordinates into a unique stream id.

    Layout (low to high): 4 bits purpose, 8 bits attempt, 16 bits
    replicate, then the cell code.  Collisions are impossible within the
    stated ranges, so every (cell, replicate, attempt, purpose) tuple owns
    a distinct substream of the master seed.
    """
    if not 0 <= purpose < 16:
        raise ValueError(f"purpose out of range: {purpose}")
    if not 0 <= attempt < 256:
        raise ValueError(f"attempt out of range: {attempt}")
    if not 0 <= replicate < MAX_REPLICATES:
        raise ValueError(f"replicate out of range: {replicate}")
    if cell_code < 0:
        raise ValueError(f"cell_code must be non-negative: {cell_code}")
    return (((cell_code << 16 | replicate) << 8 | attempt) << 4) | purpose


def substream(
    master_seed: int, *, cell_code: int, replicate: int = 0, attempt: int = 0, purpose: int = PURPOSE_DATASET
) -> np.random.Generator:
    """The stream owned by one unit of work."""
    return rng_stream(master_seed, pack_stream_id(cell_code, replicate, attempt, purpose))


class Estimate(NamedTuple):
    """One estimator's ATT with its standard error and two-sided p-value."""

    att: float
    theoretical_se: float
    p_value: float


@np.errstate(over="ignore")
def expit(x, out=None):
    """The logistic function ``1 / (1 + exp(-x))``, elementwise.

    With ``out`` (which may be ``x`` itself) every step runs in place, so
    no temporary is allocated.  For ``x`` below about -709.78, ``exp(-x)``
    overflows to inf and the result is 0, without a warning.  The result is
    within 2 ulp of the exact value: numpy's ``exp`` and the one addition
    and division each round.  It is non-decreasing as far as a scan of
    consecutive doubles can tell (see :func:`attbench.dgp.calibrate_intercept`).
    """
    out = np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def logit(p):
    """The inverse of :func:`expit`, ``log(p / (1 - p))``, elementwise."""
    return np.log(p / (1.0 - p))


def two_sided_p(stat: float, df: int | None = None) -> float:
    """Two-sided p-value of a Student-t statistic with ``df`` degrees of
    freedom (a positive integer), or of a standard normal one when ``df``
    is None.

    A NaN statistic gives NaN and an infinite one 0.  So does a finite t
    statistic whose square overflows, where SciPy's tail is 0 too.  The
    normal tail is ``erfc(|stat| / sqrt(2))``.  The t tail is the
    regularized incomplete beta function ``I_x(df/2, 1/2)`` at
    ``x = df / (df + stat^2)``, see :func:`_t_two_sided`.  Over df 1 to
    1000 both are within 1e-11 relative of SciPy's ``2 ndtr(-|stat|)`` and
    ``2 stdtr(df, -|stat|)``, p-values far below 1e-12 included; past
    df 10**5 the t tail loses digits, up to about 2e-9 relative at df 10**8.
    """
    stat = abs(float(stat))
    if df is None:
        return math.erfc(stat * _SQRT_HALF)
    if math.isnan(stat):
        return math.nan
    return _t_two_sided(stat, int(df))


def wald_estimate(att: float, se: float, df: int | None = None) -> Estimate:
    """The :class:`Estimate` of ``att`` with standard error ``se``: its
    p-value is :func:`two_sided_p` of ``att / se`` on ``df`` degrees of
    freedom (standard normal when None).

    Every estimator's p-value comes from here, so an estimate without a
    p-value fails alike for every method: a zero standard error raises
    :class:`ZeroSeError`, and an ATT or standard error that is NaN or
    infinite raises :class:`NonFiniteEstimateError`.  The harness records
    either as a flagged failure, so every valid record has a p-value.
    """
    if se == 0.0:
        raise ZeroSeError("the standard error is zero, so the Wald statistic is undefined")
    if not (math.isfinite(att) and math.isfinite(se)):
        raise NonFiniteEstimateError(f"the estimate is not finite (att {att}, standard error {se})")
    return Estimate(att, se, two_sided_p(att / se, df))


_SQRT_HALF = math.sqrt(0.5)
# The continued fraction stops once a step changes it by at most this.
_FRACTION_TOL = 2.0**-52
# Stand-in for a zero denominator in the modified Lentz recurrence.
_FRACTION_TINY = 1e-300
# The most pairs of partial numerators a fraction may take.
_MAX_PAIRS = 10_000


def _t_two_sided(t: float, df: int) -> float:
    """``I_x(a, 1/2)`` at ``a = df/2``, ``x = df / (df + t^2)``, for ``t >= 0``;
    0 when ``t^2`` overflows.

    ``I_x(a, b) = x^a (1-x)^b / (a B(a, b)) * F`` with ``F`` the continued
    fraction of :func:`_beta_fraction`, which converges fast for ``x`` below
    about ``(a + 1) / (a + b + 2)``; here that means ``t^2`` above about 1.
    For ``t^2 < min(9, df + 1)`` the p-value is at least 0.0027, and the
    fraction of the other side, ``1 - I_{1-x}(1/2, a)``, is used instead:
    its 1 - p loses at most three digits of the fifteen.  Either way, for
    df up to 1000 the fraction takes at most 39 pairs of terms.
    """
    t2 = t * t
    if math.isinf(t2):
        return 0.0
    total = df + t2
    x = df / total
    y = t2 / total
    a = 0.5 * df
    # x^a sqrt(1 - x) / B(a, 1/2), with log(x) from log1p(-y) when x is near 1.
    scale = _half_beta_reciprocal(df) * math.sqrt(y) * math.exp(a * (math.log(x) if x < 0.5 else math.log1p(-y)))
    if t2 < min(9.0, df + 1.0):
        return 1.0 - 2.0 * scale * _beta_fraction(0.5, a, y)
    return scale / a * _beta_fraction(a, 0.5, x)


@cache
def _half_beta_reciprocal(df: int) -> float:
    """``1 / B(df/2, 1/2) = Gamma(df/2 + 1/2) / (Gamma(df/2) sqrt(pi))``.

    Below df = 40 by its recurrence from df = 1 or 2; from there by the
    asymptotic series of ``log(Gamma(a + 1/2) / Gamma(a))``, whose next
    term is below 1e-16.
    """
    a = 0.5 * df
    if a >= 20.0:
        inv = 1.0 / a
        sq = inv * inv
        series = inv * (-1 / 8 + sq * (1 / 192 + sq * (-1 / 640 + sq * (17 / 14336 - sq * 31 / 18432))))
        return math.sqrt(a / math.pi) * math.exp(series)
    ratio, b = (0.5, 1.0) if df % 2 == 0 else (1.0 / math.pi, 0.5)
    while b < a:
        ratio *= (b + 0.5) / b
        b += 1.0
    return ratio


def _fraction_pairs(a: float, b: float, stop: int):
    """The partial numerators ``(d_2m, d_2m+1)`` over ``x``, for ``m`` in
    ``range(1, stop)``, of the continued fraction for ``I_x(a, b)``."""
    for m in range(1, stop):
        f = a + 2.0 * m
        yield m * (b - m) / ((f - 1.0) * f), -(a + m) * (a + b + m) / (f * (f + 1.0))


def _beta_fraction(a: float, b: float, x: float) -> float:
    """``1 / (1 + d_1 x / (1 + d_2 x / (1 + ...)))``, the continued fraction
    of ``I_x(a, b)`` (Numerical Recipes' ``betacf``), by modified Lentz."""
    value = _lentz(-(a + b) / (a + 1.0) * x, _fraction_pairs(a, b, _MAX_PAIRS), x)
    if value is None:
        raise ArithmeticError(f"the beta continued fraction at a={a}, b={b}, x={x} did not converge")
    return value


def _lentz(first: float, pairs, x: float) -> float | None:
    """The fraction ``1 / (1 + first / (1 + d_2 x / ...))`` over ``pairs`` of
    ``(d_2m, d_2m+1)``; ``None`` if it has not converged when they end."""
    d = 1.0 / ((1.0 + first) or _FRACTION_TINY)
    c = 1.0
    h = d
    for even, odd in pairs:
        e = even * x
        d = 1.0 / ((1.0 + e * d) or _FRACTION_TINY)
        c = (1.0 + e / c) or _FRACTION_TINY
        h *= d * c
        e = odd * x
        d = 1.0 / ((1.0 + e * d) or _FRACTION_TINY)
        c = (1.0 + e / c) or _FRACTION_TINY
        step = d * c
        h *= step
        if abs(step - 1.0) <= _FRACTION_TOL:
            return h
    return None


def cholesky_factor(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric positive definite matrix.

    Only the lower triangle of ``a`` is read.  A failed factorization, or
    a pivot (squared diagonal entry of the factor) at or below
    ``CHOLESKY_PIVOT_TOL``, raises :class:`NonSpdError` instead of
    producing a factor contaminated by a near-zero sqrt.
    """
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NonSpdError(f"not positive definite ({exc})") from exc
    pivot = float(lower.diagonal().min()) ** 2
    if pivot <= CHOLESKY_PIVOT_TOL:
        raise NonSpdError(f"pivot {pivot:.3e} at or below {CHOLESKY_PIVOT_TOL:.0e}")
    return lower


def _cholesky_passes(a: np.ndarray) -> bool:
    try:
        cholesky_factor(a)
    except NonSpdError:
        return False
    return True


def solve_spd_stack(stack: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``stack[i] @ x[i] = rhs[i]`` for a stack of symmetric matrices.

    ``stack`` has shape (k, p, p) and ``rhs`` shape (k, p).  Returns the
    solutions, shape (k, p), and a boolean mask of the systems solved.
    ``ok[i]`` is False when ``stack[i]`` fails :func:`cholesky_factor`'s
    test (LAPACK finds a non-positive pivot, or a squared pivot is at or
    below ``CHOLESKY_PIVOT_TOL``); ``x[i]`` is then zero.  The verdicts
    come from one stacked ``np.linalg.cholesky`` of the lower triangles,
    or, when some factorization fails and that call raises, from
    :func:`cholesky_factor` on one matrix at a time.  The systems that
    pass are solved by one stacked ``np.linalg.solve``.
    """
    try:
        factors = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        ok = np.array([_cholesky_passes(a) for a in stack], dtype=bool)
    else:
        ok = factors.diagonal(axis1=1, axis2=2).min(axis=1) ** 2 > CHOLESKY_PIVOT_TOL
    if ok.all():
        return np.linalg.solve(stack, rhs[..., None])[..., 0], ok
    solutions = np.zeros(rhs.shape)
    solutions[ok] = np.linalg.solve(stack[ok], rhs[ok][..., None])[..., 0]
    return solutions, ok


def solve_from_factor(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``A x = rhs`` for a vector or matrix ``rhs``, given ``A``'s lower
    Cholesky factor ``L``: ``x = L^{-T} (L^{-1} rhs)``, with ``L^{-1}`` from
    one ``np.linalg.solve`` against the identity."""
    inverse = np.linalg.solve(lower, np.eye(lower.shape[0]))
    return inverse.T @ (inverse @ rhs)


def sample_covariance(x: np.ndarray) -> np.ndarray:
    """Two-pass sample covariance (denominator ``n - 1``).

    The product is symmetrized, so the result is exactly symmetric
    whatever the float summation order.  A zero-variance column leaves a
    pivot below the floor, which :func:`cholesky_factor` rejects as
    :class:`NonSpdError`.
    """
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    return (cov + cov.T) / 2.0
