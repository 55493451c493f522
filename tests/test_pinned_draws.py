"""The bytes of a fixed set of random draws, pinned by one digest.

Every cohort, fold split and oracle sample comes from its own substream of
a master seed.  This test hashes draws from each kind of stream, so a change
to how streams are built or consumed that moves any draw fails here, even
where the statistical tests would still pass.

The digest pins the streams of numpy 2.4.6, the version CI pins.  numpy
keeps ``Generator`` streams stable across releases by policy, not by
guarantee, so under another numpy a mismatch may be numpy's, not ours.
"""

import hashlib

import numpy as np

from attbench import dgp
from attbench.dgp import SCENARIOS, CellConfig, draw_true_propensity, generate_replicate
from attbench.harness import oracle_stream
from attbench.numeric import PURPOSE_PS_FOLDS, PURPOSE_TRUTH, substream
from attbench.superlearner import K_FOLDS, _assign_folds

# Calibrated intercepts at prevalence 0.20 (n = 250), one per scenario.
ALPHAS = {1: -1.464120, 2: -2.896427, 3: -1.485100}
MASTER_SEED = 20240817
PINNED_SHA256 = "e756c1c1c4d3076641ec7e1b969c21613d026989171cc015ddcbec21667dcc1b"


def _add_replicate(digest, cfg: CellConfig, alpha0: float, replicate: int) -> int:
    data, attempt = generate_replicate(cfg, alpha0, replicate)
    for array in (data.x, data.z, data.y, np.int64(attempt)):
        digest.update(np.ascontiguousarray(array).tobytes())
    return attempt


def _draws_digest() -> str:
    digest = hashlib.sha256()
    for scenario in sorted(SCENARIOS):
        cfg = CellConfig(scenario, 3, "0.20", False, n_reps=3, master_seed=MASTER_SEED)
        for replicate in range(cfg.n_reps):
            _add_replicate(digest, cfg, ALPHAS[scenario], replicate)
    # At this intercept the first three attempts are degenerate, so the
    # redraw substreams are pinned too.
    assert _add_replicate(digest, CellConfig(1, 1, "0.50", False, 2, 777), -4.1, 1) == 3
    fold_rng = substream(MASTER_SEED, cell_code=1320, replicate=1, purpose=PURPOSE_PS_FOLDS)
    digest.update(_assign_folds(250, K_FOLDS, fold_rng).astype(np.int64).tobytes())
    oracle_rng = oracle_stream(42, 3, "0.20", PURPOSE_TRUTH)
    x1, p = draw_true_propensity(SCENARIOS[3], ALPHAS[3], dgp._ORACLE_LEAF, oracle_rng)
    digest.update(x1.tobytes())
    digest.update(p.tobytes())
    return digest.hexdigest()


def test_draws_keep_their_bytes():
    assert _draws_digest() == PINNED_SHA256
