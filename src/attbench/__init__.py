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

The package root holds only that cap and ``__version__``: import each
name from its module, as in ``from attbench.harness import run_grid``.
So ``import attbench`` loads neither numpy nor any submodule.
"""

import os

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")
del _variable

__version__ = "0.1.0"
