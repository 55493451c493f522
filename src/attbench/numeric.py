"""Deterministic random streams, small dense linear algebra, and the
estimate every ATT estimator returns.

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
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.special import ndtr, stdtr

from .errors import NonSpdError

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


def two_sided_p(stat: float, df: int | None = None) -> float:
    """Two-sided p-value of a Student-t statistic with ``df`` degrees of
    freedom, or of a standard normal one when ``df`` is None."""
    tail = ndtr(-abs(stat)) if df is None else stdtr(df, -abs(stat))
    return 2.0 * float(tail)


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
