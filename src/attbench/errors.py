"""Exception types shared across the estimation modules.

Every failure the simulation harness is expected to survive derives from
:class:`EstimationError`, so a replicate can be flagged and the grid can
keep running.  Each is raised in one module, where a drawn replicate or
the oracles can hit it:

- ``numeric``: :class:`NonSpdError` from the Cholesky pivot floor (a
  collinear or zero-variance covariate), and :class:`ZeroSeError` and
  :class:`NonFiniteEstimateError` from ``wald_estimate``, the one rule
  every estimator's p-value comes from;
- ``glm``: :class:`RankDeficientError` from least squares and
  :class:`OneClassError` from the logistic family's 0/1 check;
- ``propensity`` and ``weighting``: :class:`AllTrimmedError`;
- ``matching``: :class:`NoMatchesError` and :class:`TooFewPairsError`;
- ``tmle``: :class:`FlatOutcomeError`;
- ``dgp``: :class:`DegenerateDrawError`, when a replicate's every draw
  attempt is degenerate (``harness`` flags each method's record with it).

So none leaves a run: ``harness`` turns each into a flagged record.  The
intercept calibration raises none, since every design target lies inside
its bracket.

Anything else escaping an estimator is a genuine bug and propagates.  The
two store errors, :class:`CorruptManifestError` (``harness`` and ``cli``)
and :class:`StoreMismatchError` (``harness``), are ``ValueError``
subclasses that stop a run instead.
"""


class EstimationError(Exception):
    """Base class for recoverable estimation failures."""


class NonSpdError(EstimationError):
    """Cholesky factorization hit a non-positive pivot."""


class RankDeficientError(EstimationError):
    """Design matrix is rank deficient (normal equations are not SPD)."""


class OneClassError(EstimationError):
    """Binary response contains a single class."""


class ZeroSeError(EstimationError):
    """A standard error of exactly zero makes the test statistic undefined."""


class NonFiniteEstimateError(EstimationError):
    """An ATT or standard error that is NaN or infinite has no Wald p-value."""


class AllTrimmedError(EstimationError):
    """Propensity trimming removed every unit, or a whole treatment arm."""


class NoMatchesError(EstimationError):
    """Every treated unit was discarded by the matching algorithm."""


class TooFewPairsError(EstimationError):
    """Fewer than two matched sets; the paired t-test is undefined."""


class FlatOutcomeError(EstimationError):
    """Outcome has zero range; min-max scaling is undefined."""


class DegenerateDrawError(EstimationError):
    """A simulated dataset has fewer than two treated or two control units."""


class CorruptManifestError(ValueError):
    """A store's manifest, or the layout it indexes, cannot be read, so nothing in the store can be trusted."""


class StoreMismatchError(ValueError):
    """An existing result store was built under other run parameters; no rerun can mend it."""

    def __init__(self, differing: dict):
        names = ", ".join(key.replace("_", " ") for key in differing)
        values = "; ".join(f"{key} {old!r} in the store, {new!r} now" for key, (old, new) in differing.items())
        super().__init__(f"existing store was built with a different {names} ({values})")
        self.differing = differing
