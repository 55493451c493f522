"""Monte Carlo benchmark of ATT estimators under assumption violations.

The package simulates cohorts whose treatment assignment ranges from
mild to severe confounding (including an unobserved covariate), runs ten
estimators of the average treatment effect on the treated on each
replicate, and aggregates bias, variance, and test calibration into a
deterministic on-disk result store.

Importing the package caps BLAS at one thread per process, unless the
caller has set ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
``MKL_NUM_THREADS`` itself.  Every matrix here is small, so a second BLAS
thread only burns a core, and ``--parallelism N`` should mean N busy
cores.  The cap takes effect only if numpy has not been imported yet.
"""

import os

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")
del _variable

__version__ = "0.1.0"

from .dgp import CellConfig, Dataset, calibrate_intercept, generate_dataset, true_att
from .harness import (
    METHODS,
    EstimateRecord,
    MethodMetrics,
    aggregate_cell,
    run_grid,
    run_replicate,
)
from .matching import cem_att, cem_match, matched_att, mdm_match, psm_match
from .numeric import rng_stream, substream
from .propensity import estimate_ps, trim_ps, truncate_ps
from .superlearner import fit_superlearner, predict_ensemble
from .tmle import tmle_att
from .weighting import aipw_att, fit_outcome_models, ipw_att

__all__ = [
    "METHODS",
    "CellConfig",
    "Dataset",
    "EstimateRecord",
    "MethodMetrics",
    "aggregate_cell",
    "aipw_att",
    "calibrate_intercept",
    "cem_att",
    "cem_match",
    "estimate_ps",
    "fit_outcome_models",
    "fit_superlearner",
    "generate_dataset",
    "ipw_att",
    "matched_att",
    "mdm_match",
    "predict_ensemble",
    "psm_match",
    "rng_stream",
    "run_grid",
    "run_replicate",
    "substream",
    "tmle_att",
    "trim_ps",
    "true_att",
    "truncate_ps",
    "__version__",
]
