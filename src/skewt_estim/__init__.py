"""Robust Bayesian state estimation under skew-t measurement noise.

The package provides:

* truncnorm  — recursive moment approximation of multivariate normals
               truncated to the positive orthant, plus a sampling oracle;
* skewt      — the univariate skew-t noise model (sampling, density,
               moments, moment matching);
* filtering  — the variational-Bayes filter for linear state-space models
               with independent skew-t measurement noise components;
* smoothing  — the matching iterated fixed-interval smoother;
* baselines  — gated Kalman filter/smoother and a bootstrap particle
               filter for comparison;
* bench      — a synthetic GNSS pseudorange benchmark harness and CLI.
"""

from . import baselines, bench, exceptions, filtering, skewt, smoothing, truncnorm
from .filtering import (
    GaussianBelief,
    StateSpaceModel,
    VBConfig,
    VBStepDiagnostics,
    predict,
    stf_run,
    stf_update,
)
from .smoothing import backward_pass, forward_pass, sts_run, update_lambda
from .truncnorm import rec_trunc, tmnd_oracle

__version__ = "0.1.0"

__all__ = [
    "baselines",
    "bench",
    "exceptions",
    "filtering",
    "skewt",
    "smoothing",
    "truncnorm",
    "GaussianBelief",
    "StateSpaceModel",
    "VBConfig",
    "VBStepDiagnostics",
    "predict",
    "stf_update",
    "stf_run",
    "forward_pass",
    "backward_pass",
    "update_lambda",
    "sts_run",
    "rec_trunc",
    "tmnd_oracle",
    "__version__",
]
