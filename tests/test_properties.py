"""Invariances of the estimators, checked by hypothesis on simulated cohorts.

Each example draws one replicate of the paper's design (scenario, setting,
effect arm and replicate chosen by hypothesis, n = 100), so the data are
continuous and ties have probability zero.

* Relabelling the units permutes the matched sets, so the PSM, MDM and
  CEM estimates of the ATT do not change.
* The ATT is a difference of means, so mapping the outcome ``y`` to
  ``a + b*y`` with ``b > 0`` maps the IPW, AIPW and TMLE estimates and
  their standard errors to ``b`` times their values; the outcome models
  are refitted on the mapped outcome, as a run would do.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attbench.dgp import CellConfig, generate_replicate
from attbench.errors import EstimationError
from attbench.matching import caliper_block, cem_att, cem_match, matched_att, mdm_match, psm_match
from attbench.numeric import rng_stream
from attbench.propensity import PsVector, estimate_ps, trim_ps, truncate_ps
from attbench.tmle import tmle_att
from attbench.glm import fit_ols
from attbench.weighting import aipw_att, fit_outcome_models, ipw_att, ols_arm_predictions, ols_outcome_design

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

cohorts = st.builds(
    lambda scenario, setting, null_effect, replicate: generate_replicate(
        CellConfig(scenario, setting, "0.50", null_effect, n_reps=1, master_seed=20240817),
        alpha0=-0.5,
        replicate=replicate,
    )[0],
    st.sampled_from([1, 2, 3]),
    st.sampled_from([1, 2, 3]),
    st.booleans(),
    st.integers(0, 2**16 - 1),
)


def _ols_arms(x, y, z):
    """``(q1, q0)`` of the least-squares outcome fit, as the harness forms them for AIPW."""
    return ols_arm_predictions(fit_ols(ols_outcome_design(x, z), y), x)


def _estimate(compute):
    """``(att, se)`` of an estimate, or the type of the estimation error it raised."""
    try:
        est = compute()
    except EstimationError as exc:
        return type(exc)
    return est.att, est.theoretical_se


def _permuted(ps: PsVector, perm: np.ndarray) -> PsVector:
    basis = None if ps.score_basis is None else ps.score_basis[perm]
    return PsVector(ps.values[perm], ps.kept_mask[perm], ps.separated, basis)


def _assert_same(actual, expected, rel):
    if isinstance(expected, type):
        assert actual is expected
    else:
        assert actual == pytest.approx(expected, rel=rel, abs=0.0)


@pytest.mark.parametrize("method", ["PSM", "PSM_1:2", "MDM", "CEM2", "CEM5"])
@PROPERTY_SETTINGS
@given(data=cohorts, seed=st.integers(0, 2**32 - 1))
def test_matching_att_is_invariant_to_unit_order(method, data, seed):
    x, z, y = data.observed_covariates, data.z, data.y
    perm = np.random.default_rng(seed).permutation(data.n)
    ps = estimate_ps(x, z)

    def att(x, z, y, ps):
        if method.startswith("CEM"):
            return _estimate(lambda: cem_att(y, z, cem_match(x, z, int(method[3:]))))
        if method == "MDM":
            return _estimate(lambda: matched_att(y, mdm_match(x, caliper_block(ps.values, z))))
        return _estimate(lambda: matched_att(y, psm_match(caliper_block(ps.values, z), 2 if method == "PSM_1:2" else 1)))

    _assert_same(att(x[perm], z[perm], y[perm], _permuted(ps, perm)), att(x, z, y, ps), rel=1e-12)


@pytest.mark.parametrize("method", ["IPW", "AIPW", "AIPW_SL", "TMLE_SL"])
@PROPERTY_SETTINGS
@given(data=cohorts, shift=st.floats(-50.0, 50.0), scale=st.floats(0.01, 100.0))
def test_weighting_att_scales_with_the_outcome(method, data, shift, scale):
    x, z = data.observed_covariates, data.z
    trimmed = trim_ps(estimate_ps(x, z))

    def att(y):
        if method == "IPW":
            return _estimate(lambda: ipw_att(y, z, trimmed))
        if method == "AIPW":
            return _estimate(lambda: aipw_att(y, z, trimmed, *_ols_arms(x, y, z)))
        ps = truncate_ps(estimate_ps(x, z, "ensemble", rng=rng_stream(1)))
        q1, q0 = fit_outcome_models(x, y, z, rng_stream(2))
        if method == "AIPW_SL":
            return _estimate(lambda: aipw_att(y, z, ps, q1, q0))
        return _estimate(lambda: tmle_att(y, z, q1, q0, ps))

    expected = att(data.y)
    if not isinstance(expected, type):
        expected = (scale * expected[0], scale * expected[1])
    _assert_same(att(shift + scale * data.y), expected, rel=1e-9)
