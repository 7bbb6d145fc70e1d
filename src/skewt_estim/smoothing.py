"""Variational-Bayes smoother for linear models with skew-t measurement noise.

The outer loop alternates, over the whole trajectory: a forward pass of
truncated augmented measurement updates with the current expected mixing
precisions held fixed, a fixed-interval backward recursion on the
augmented [x; u] state, and the per-step refresh of the mixing
precisions from the smoothed moments.  The augmented dynamics propagate
x with the model transition and reset u each step (its transition block
is zero), so the one-step augmented prediction covariance is
blockdiag(A P A^T + Q, diag(1/lam)).
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import solve_spd, symmetrize
from .exceptions import NumericalFailureError
from .filtering import (
    GaussianBelief,
    StateSpaceModel,
    VBConfig,
    _AndersonMixer,
    _augmented_update,
    _psi_diagonal,
    expected_mixing_precision,
)
from .truncnorm import OPTIMAL

__all__ = [
    "AugmentedBelief",
    "SmootherIterate",
    "forward_pass",
    "backward_pass",
    "update_lambda",
    "sts_run",
]

# An augmented belief is an ordinary Gaussian belief over the stacked
# [x; u] vector (dimension n_x + n_y).
AugmentedBelief = GaussianBelief


@dataclass(frozen=True)
class SmootherIterate:
    """State of one outer VB iteration over a length-K trajectory.

    `filtered` and `smoothed` hold augmented beliefs; `predicted[k]` is the
    augmented one-step prior used when filtering step k (for k = 0 it is
    the initial augmented prior).  `lambdas[k]` are the expected mixing
    precision diagonals used in the forward pass.
    """

    filtered: list
    predicted: list
    smoothed: list
    lambdas: list


def _measurement_matrices(model, n_steps, measurement_matrices):
    if measurement_matrices is None:
        return [model.C] * n_steps
    mats = [np.atleast_2d(np.asarray(c, dtype=float)) for c in measurement_matrices]
    if len(mats) != n_steps:
        raise ValueError(
            f"got {len(mats)} measurement matrices for {n_steps} steps"
        )
    return mats


def forward_pass(
    model: StateSpaceModel,
    ys,
    lambdas,
    measurement_matrices=None,
) -> tuple:
    """Truncated forward filtering with fixed mixing precisions.

    `lambdas` holds one positive precision diagonal per step.  Returns
    (filtered, predicted): the truncated augmented posteriors and the
    augmented one-step priors they were updated from.  An optional
    sequence of per-step measurement matrices overrides model.C (used by
    harnesses that relinearize a nonlinear measurement per step).
    """
    ys = [np.atleast_1d(np.asarray(y, dtype=float)) for y in ys]
    n_steps = len(ys)
    if len(lambdas) != n_steps:
        raise ValueError(f"got {len(lambdas)} lambdas for {n_steps} steps")
    c_seq = _measurement_matrices(model, n_steps, measurement_matrices)

    filtered = []
    predicted = []
    x_pred = model.prior_mean
    p_pred = model.prior_cov
    for k, y in enumerate(ys):
        lam = np.atleast_1d(np.asarray(lambdas[k], dtype=float))
        if np.any(lam <= 0.0):
            raise ValueError(f"lambdas[{k}] must be positive")
        try:
            post, aug_prior = _augmented_update(
                x_pred, p_pred, y, c_seq[k], model.Delta, model.R, lam, OPTIMAL
            )
        except NumericalFailureError as err:
            raise NumericalFailureError(
                f"forward update failed: {err}", step=k
            ) from err
        filtered.append(AugmentedBelief(post.mean, post.cov))
        predicted.append(AugmentedBelief(aug_prior.mean, aug_prior.cov))
        n_x = model.n_x
        x_pred = model.A @ post.mean[:n_x]
        p_pred = symmetrize(model.A @ post.cov[:n_x, :n_x] @ model.A.T + model.Q)
    return filtered, predicted


def backward_pass(filtered, predicted, model: StateSpaceModel) -> list:
    """Fixed-interval backward recursion on the augmented state.

    The gain at step k is G = Z_f A_z^T Z_p^{-1}, with Z_f the filtered
    augmented covariance and Z_p = blockdiag(P, diag(1/lam)) the augmented
    prediction covariance of step k+1.  A_z = blockdiag(A, 0) makes the
    u-columns of G vanish, so G = Z_f[:, :n_x] A^T P^{-1} acts only on x.
    """
    n_steps = len(filtered)
    if len(predicted) != n_steps:
        raise ValueError("filtered and predicted sequences must align")
    if n_steps == 0:
        return []
    n_x = model.n_x

    smoothed = [None] * n_steps
    smoothed[-1] = filtered[-1]
    for k in range(n_steps - 2, -1, -1):
        z_f = filtered[k]
        z_p = predicted[k + 1]
        p_pred = z_p.cov[:n_x, :n_x]
        try:
            gain = solve_spd(
                p_pred, model.A @ z_f.cov[:n_x], what="prediction covariance"
            ).T
        except NumericalFailureError as err:
            raise NumericalFailureError(
                f"backward gain failed: {err}", step=k
            ) from err
        mean = z_f.mean + gain @ (smoothed[k + 1].mean[:n_x] - z_p.mean[:n_x])
        cov = symmetrize(
            z_f.cov + gain @ (smoothed[k + 1].cov[:n_x, :n_x] - p_pred) @ gain.T
        )
        smoothed[k] = AugmentedBelief(mean, cov)
    return smoothed


def update_lambda(
    smoothed: AugmentedBelief,
    y: np.ndarray,
    model: StateSpaceModel,
    measurement_matrix=None,
) -> np.ndarray:
    """Refreshed mixing-precision diagonal from one smoothed augmented belief."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    n_x, n_y = model.n_x, model.n_y
    if smoothed.dim != n_x + n_y:
        raise ValueError(
            f"smoothed belief has dim {smoothed.dim}, expected {n_x + n_y}"
        )
    c_mat = model.C if measurement_matrix is None else np.atleast_2d(measurement_matrix)
    cz = np.hstack([c_mat, np.diag(model.Delta)])
    u_mean = smoothed.mean[n_x:]
    u_cov = smoothed.cov[n_x:, n_x:]
    psi = _psi_diagonal(y, cz, smoothed.mean, smoothed.cov, model.R, u_mean, u_cov)
    return expected_mixing_precision(model.nu, psi)


def sts_run(
    model: StateSpaceModel,
    ys,
    cfg: VBConfig = VBConfig(),
    measurement_matrices=None,
) -> list:
    """Iterated smoothing of a measurement sequence.

    Returns the normal approximations of the smoothed x marginals, one
    GaussianBelief per step.
    """
    result = _run_vb(model, ys, cfg, measurement_matrices)
    n_x = model.n_x
    return [
        GaussianBelief(s.mean[:n_x], symmetrize(s.cov[:n_x, :n_x]))
        for s in result.smoothed
    ]


def _run_vb(model, ys, cfg, measurement_matrices=None, n_iterations=None):
    """Full outer VB loop; returns the last SmootherIterate plus counters.

    Runs until the largest per-step change of the smoothed state means
    drops below cfg.tol or cfg.max_iterations is hit; `n_iterations`
    forces an exact iteration count instead.
    """
    ys = [np.atleast_1d(np.asarray(y, dtype=float)) for y in ys]
    n_steps = len(ys)
    n_x = model.n_x
    c_seq = _measurement_matrices(model, n_steps, measurement_matrices)
    lambdas = [np.ones(model.n_y) for _ in range(n_steps)]
    if n_steps == 0:
        return _VBResult([], [], [], [], 0, True)

    max_iter = cfg.max_iterations if n_iterations is None else n_iterations
    mixer = _AndersonMixer(
        upper=np.tile((model.nu + 2.0) / model.nu, n_steps)
    )
    x_prev = None
    converged = False
    iterations = 0
    for _ in range(max_iter):
        filtered, predicted = forward_pass(model, ys, lambdas, measurement_matrices)
        smoothed = backward_pass(filtered, predicted, model)
        plain = [
            update_lambda(smoothed[k], ys[k], model, c_seq[k])
            for k in range(n_steps)
        ]
        mixed = mixer.push(np.concatenate(lambdas), np.concatenate(plain))
        lambdas = list(mixed.reshape(n_steps, model.n_y))
        iterations += 1
        xs = np.stack([s.mean[:n_x] for s in smoothed])
        if n_iterations is None and x_prev is not None:
            if np.linalg.norm(xs - x_prev, axis=1).max() < cfg.tol:
                converged = True
                break
        x_prev = xs
    return _VBResult(filtered, predicted, smoothed, lambdas, iterations, converged)


@dataclass(frozen=True)
class _VBResult(SmootherIterate):
    iterations: int = 0
    converged: bool = False
