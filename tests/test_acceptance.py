"""Acceptance gate: thirteen checks, one printed verdict line each.

The first seven run the benchmark at its reference scale (200
replicates per cell, master seed 42) on the design cells they quote
and verify the headline behavior of the ten estimators.  The last six
are scale-free contracts: closed-form equivalences, double robustness,
targeting, matching optimality, store determinism, and solver
arithmetic.
"""

import json

import numpy as np
import pytest
from scipy.special import expit

from attbench.dgp import (
    NOISE_SD,
    SCENARIOS,
    CellConfig,
    outcome_mean,
    treatment_logit_terms,
)
from attbench.errors import NoMatchesError
from attbench.glm import fit_ols
from attbench.harness import METHODS, run_grid
from attbench.matching import cem_att, cem_match, psm_match
from attbench.propensity import PsVector, estimate_ps, truncate_ps
from attbench.tmle import tmle_att
from attbench.weighting import aipw_att, ipw_att, ols_arm_predictions, ols_outcome_design

from naive_oracles import mahalanobis_distance, match_tuples, naive_psm

N_REPS = 200
MASTER_SEED = 42
ALPHA_S1_P020 = -1.464120
PREVALENCES = ("0.05", "0.10", "0.20", "0.33", "0.50")

GRID_CELLS = (
    (1, 1, "0.05", False),
    (1, 1, "0.10", False),
    (1, 1, "0.20", False),
    (1, 1, "0.33", False),
    (1, 1, "0.50", False),
    (1, 1, "0.20", True),
    (1, 2, "0.20", False),
    (2, 1, "0.20", False),
    (2, 1, "0.20", True),
    (3, 1, "0.20", False),
)


def announce(capsys, index, label, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"acceptance {index:02d} {verdict}  {label} ({detail})")
    assert ok, f"acceptance check {index} failed: {label} ({detail})"


def ps_of(values) -> PsVector:
    values = np.asarray(values, dtype=np.float64)
    return PsVector(values, np.ones(values.size, dtype=bool))


def cell_name(scenario, setting, label, null):
    return f"s{scenario}t{setting}p{label.replace('.', '')}_{'null' if null else 'effect'}"


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("acceptance-grid")
    cells = [CellConfig(s, t, p, null, N_REPS, MASTER_SEED) for s, t, p, null in GRID_CELLS]
    results = run_grid(cells, outdir, parallelism=1, oracle_seed=42)
    metrics = {name: {m.method: m for m in triple[2]} for name, triple in results.items()}
    manifest = json.loads((outdir / "manifest.json").read_text())
    return metrics, manifest


def test_01_benign_design_bias_and_level(grid, capsys):
    metrics, _ = grid
    effect = metrics[cell_name(1, 1, "0.20", False)]
    null = metrics[cell_name(1, 1, "0.20", True)]
    worst_bias = max(abs(effect[m].bias) for m in METHODS)
    rates = [null[m].type1_rate for m in METHODS]
    ok = worst_bias <= 0.15 and all(0.015 <= r <= 0.105 for r in rates)
    announce(
        capsys, 1,
        "benign design: every estimator nearly unbiased with level near 0.05",
        ok,
        f"max |bias| {worst_bias:.3f}; type-I range {min(rates):.3f}-{max(rates):.3f}",
    )


def test_02_curved_treatment_model_bias_ordering(grid, capsys):
    metrics, _ = grid
    effect = metrics[cell_name(1, 2, "0.20", False)]
    cem2 = abs(effect["CEM2"].bias)
    stacked = max(abs(effect["AIPW_SL"].bias), abs(effect["TMLE_SL"].bias))
    ok = cem2 > abs(effect["AIPW_SL"].bias) and cem2 > abs(effect["TMLE_SL"].bias)
    announce(
        capsys, 2,
        "curved treatment model: coarse matching out-biased by stacked fits",
        ok,
        f"|bias| CEM2 {cem2:.3f} vs worst stacked {stacked:.3f}",
    )


def test_03_weighting_spread_below_matching_spread(grid, capsys):
    metrics, _ = grid
    smooth = ("IPW", "AIPW", "AIPW_SL", "TMLE_SL", "LR")
    matched = ("PSM", "MDM", "CEM5")
    rows = [metrics[cell_name(1, 1, p, False)] for p in PREVALENCES]
    smooth_sd = float(np.mean([row[m].empirical_sd for row in rows for m in smooth]))
    matched_sd = float(np.mean([row[m].empirical_sd for row in rows for m in matched]))
    ok = smooth_sd < matched_sd
    announce(
        capsys, 3,
        "weighting and regression spread below matching spread",
        ok,
        f"mean SD {smooth_sd:.3f} vs {matched_sd:.3f} across five prevalences",
    )


def test_04_poor_overlap_inflates_size_selectively(grid, capsys):
    metrics, _ = grid
    null = metrics[cell_name(2, 1, "0.20", True)]
    inflated = sum(null[m].type1_rate > 0.10 for m in ("CEM2", "IPW", "TMLE_SL"))
    matchers_held = null["PSM"].type1_rate <= 0.10 and null["PSM_1:2"].type1_rate <= 0.10
    ok = inflated >= 2 and matchers_held
    announce(
        capsys, 4,
        "poor overlap inflates size for susceptible estimators only",
        ok,
        f"{inflated}/3 susceptible above 0.10; PSM {null['PSM'].type1_rate:.3f}, "
        f"PSM_1:2 {null['PSM_1:2'].type1_rate:.3f}",
    )


def test_05_poor_overlap_tmle_se_understates_spread(grid, capsys):
    metrics, _ = grid
    row = metrics[cell_name(2, 1, "0.20", False)]["TMLE_SL"]
    ok = row.avg_theoretical_sd < 0.8 * row.empirical_sd
    announce(
        capsys, 5,
        "poor overlap: TMLE influence-function SE understates the spread",
        ok,
        f"mean theoretical SD {row.avg_theoretical_sd:.3f} vs empirical {row.empirical_sd:.3f}",
    )


def test_06_hidden_confounder_biases_everything_upward(grid, capsys):
    metrics, _ = grid
    effect = metrics[cell_name(3, 1, "0.20", False)]
    biases = [effect[m].bias for m in METHODS]
    ok = all(b > 0 for b in biases)
    announce(
        capsys, 6,
        "hidden confounder: every estimator biased upward",
        ok,
        f"bias range {min(biases):.3f}-{max(biases):.3f}",
    )


def test_07_propensity_tail_mass(grid, capsys):
    _, manifest = grid
    rng = np.random.default_rng(20260821)
    masses = {}
    for scenario in (1, 2):
        spec = SCENARIOS[scenario]
        alpha = manifest["intercepts"][f"s{scenario}_p0.20"]
        draws = rng.standard_normal((200_000, 2))
        scores = expit(alpha + treatment_logit_terms(spec, draws[:, 0], draws[:, 1]))
        masses[scenario] = float(np.mean((scores < 0.05) | (scores > 0.95)))
    ok = masses[2] >= 0.05 and masses[1] < 0.01
    announce(
        capsys, 7,
        "propensity tail mass heavy only under the strong design",
        ok,
        f"mass outside [0.05, 0.95]: {masses[2]:.3f} strong vs {masses[1]:.4f} moderate",
    )


def test_08_closed_form_equivalences(capsys):
    rng = np.random.default_rng(8)
    n = 120
    y = rng.standard_normal(n)
    z = np.zeros(n, dtype=np.int64)
    z[rng.choice(n, size=40, replace=False)] = 1
    gap = float(y[z == 1].mean() - y[z == 0].mean())
    flat = ps_of(np.full(n, 0.37))
    ipw_err = abs(ipw_att(y, z, flat).att - gap)
    aipw_err = abs(aipw_att(y, z, flat, np.zeros(n), np.zeros(n)).att - gap)

    metric_err = 0.0
    for _ in range(50):
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        d = mahalanobis_distance(u, v, np.eye(3))
        metric_err = max(metric_err, abs(d - float(np.linalg.norm(u - v))))

    x = rng.standard_normal((n, 2))
    cem_err = abs(cem_att(y, z, cem_match(x, z, 1)).att - gap)

    ok = ipw_err <= 1e-12 and aipw_err <= 1e-12 and metric_err <= 1e-12 and cem_err <= 1e-12
    announce(
        capsys, 8,
        "flat propensity, identity metric, and single stratum reduce to closed forms",
        ok,
        f"max deviation {max(ipw_err, aipw_err, metric_err, cem_err):.2e}",
    )


def test_09_double_robustness(capsys):
    spec = SCENARIOS[1]
    rng = np.random.default_rng(9)
    n, reps = 10_000, 10
    wrong_ps_errors, wrong_outcome_errors = [], []
    for _ in range(reps):
        x = rng.standard_normal((n, 3))
        ps_true = expit(ALPHA_S1_P020 + treatment_logit_terms(spec, x[:, 0], x[:, 1]))
        z = (rng.uniform(size=n) < ps_true).astype(np.int64)
        y = outcome_mean(spec, 1, x, z, False) + NOISE_SD * rng.standard_normal(n)
        q1 = outcome_mean(spec, 1, x, np.ones(n, dtype=np.int64), False)
        q0 = outcome_mean(spec, 1, x, np.zeros(n, dtype=np.int64), False)
        distorted = np.clip(ps_true**2, 0.05, 0.95)
        wrong_ps_errors.append(aipw_att(y, z, ps_of(distorted), q1, q0).att - 1.0)
        wrong_outcome_errors.append(
            aipw_att(y, z, ps_of(ps_true), np.zeros(n), np.zeros(n)).att - 1.0
        )
    bias_ps = abs(float(np.mean(wrong_ps_errors)))
    bias_outcome = abs(float(np.mean(wrong_outcome_errors)))
    ok = bias_ps < 0.05 and bias_outcome < 0.05
    announce(
        capsys, 9,
        "doubly robust estimate survives one wrong nuisance model",
        ok,
        f"|bias| {bias_ps:.4f} with distorted propensity, {bias_outcome:.4f} with zero outcome model",
    )


def s1_cohort(rng, n):
    spec = SCENARIOS[1]
    x = rng.standard_normal((n, 3))
    ps_true = expit(ALPHA_S1_P020 + treatment_logit_terms(spec, x[:, 0], x[:, 1]))
    z = (rng.uniform(size=n) < ps_true).astype(np.int64)
    if z.min() == z.max():  # pragma: no cover - vanishing probability
        z[:2] = [1, 0]
    y = outcome_mean(spec, 1, x, z, False) + NOISE_SD * rng.standard_normal(n)
    return x, z, y


def test_10_targeting_and_equivariance(capsys):
    rng = np.random.default_rng(10)
    n = 500
    solved = 0
    worst = 0.0
    for _ in range(100):
        x, z, y = s1_cohort(rng, n)
        q1, q0 = ols_arm_predictions(fit_ols(ols_outcome_design(x, z), y), x)
        fit = tmle_att(y, z, x, q1, q0, truncate_ps(estimate_ps(x, z), n))
        residual = abs(float(np.mean(fit.eif_values)))
        worst = max(worst, residual)
        solved += fit.targeting_converged and residual < 1e-6

    x, z, y = s1_cohort(rng, n)
    q1, q0 = ols_arm_predictions(fit_ols(ols_outcome_design(x, z), y), x)
    ps = truncate_ps(estimate_ps(x, z), n)
    base = tmle_att(y, z, x, q1, q0, ps)
    a, b = 3.5, -7.0
    moved = tmle_att(a * y + b, z, x, a * q1 + b, a * q0 + b, ps)
    equivariant = abs(moved.att - a * base.att) <= 1e-8

    ok = solved == 100 and equivariant
    announce(
        capsys, 10,
        "targeting zeroes the mean influence value and commutes with affine maps",
        ok,
        f"{solved}/100 solved, worst residual {worst:.1e}; "
        f"affine gap {abs(moved.att - a * base.att):.1e}",
    )


def test_11_greedy_matcher_agrees_with_exhaustive_oracle(capsys):
    rng = np.random.default_rng(11)
    agree = 0
    trials = 1000
    for trial in range(trials):
        n = int(rng.integers(4, 13))
        z = np.zeros(n, dtype=np.int64)
        z[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1
        values = rng.uniform(0.05, 0.95, size=n)
        ratio = 1 if trial % 2 == 0 else 2
        pairs, discarded = naive_psm(values, z, ratio)
        if not pairs:
            try:
                psm_match(ps_of(values), z, ratio)
            except NoMatchesError:
                agree += 1
            continue
        matches = psm_match(ps_of(values), z, ratio)
        agree += match_tuples(matches) == (tuple(pairs), tuple(discarded))
    ok = agree == trials
    announce(
        capsys, 11,
        "greedy matcher reproduces the exhaustive oracle on small instances",
        ok,
        f"{agree}/{trials} instances identical",
    )


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_12_store_determinism(tmp_path, capsys):
    def smoke(outdir, parallelism):
        cells = [
            CellConfig(1, 1, "0.50", False, 20, 99),
            CellConfig(1, 1, "0.33", False, 20, 99),
        ]
        run_grid(cells, outdir, parallelism=parallelism, calibration_n=200_000, truth_n=1000)
        return tree_bytes(outdir)

    first = smoke(tmp_path / "a", 1)
    rerun = smoke(tmp_path / "b", 1)
    pooled = smoke(tmp_path / "c", 8)
    ok = first == rerun == pooled
    announce(
        capsys, 12,
        "result store byte-stable across reruns and worker counts",
        ok,
        f"{len(first)} files; rerun {'identical' if first == rerun else 'differs'}, "
        f"8 workers {'identical' if first == pooled else 'differs'}",
    )


def test_13_solver_numerics(capsys):
    rng = np.random.default_rng(13)
    n = 300
    design = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
    y = design @ np.array([0.5, -1.0, 2.0, 0.25]) + rng.standard_normal(n)
    fit = fit_ols(design, y)
    direct = np.linalg.solve(design.T @ design, design.T @ y)
    ols_err = float(np.max(np.abs(fit.coefficients - direct)))

    labels = (rng.uniform(size=n) < expit(design @ np.array([0.2, 0.6, -0.4, 0.0]))).astype(float)
    beta = 0.5 * rng.standard_normal(4)
    analytic = design.T @ (labels - expit(design @ beta))

    def loglik(b):
        eta = design @ b
        return float(labels @ eta - np.logaddexp(0.0, eta).sum())

    h = 1e-6
    score_err = 0.0
    for j in range(4):
        step = np.zeros(4)
        step[j] = h
        finite = (loglik(beta + step) - loglik(beta - step)) / (2 * h)
        score_err = max(score_err, abs(float(analytic[j]) - finite))

    ok = ols_err <= 1e-8 and score_err <= 1e-5
    announce(
        capsys, 13,
        "least-squares and logistic score match reference arithmetic",
        ok,
        f"normal-equation gap {ols_err:.1e}; finite-difference gap {score_err:.1e}",
    )
