"""Variational-Bayes smoother for linear models with skew-t measurement noise.

The outer loop alternates, over the whole trajectory: a forward pass of
truncated augmented measurement updates with the current expected mixing
precisions held fixed, a fixed-interval backward recursion on the
augmented [x; u] state, and the per-step refresh of the mixing
precisions from the smoothed moments.  The augmented dynamics propagate
x with the model transition and reset u each step (its transition block
is zero), so the one-step augmented prediction covariance is
blockdiag(A P A^T + Q, diag(1/lam)).

The passes and the outer loop are written for B trajectories in lockstep
(a leading batch axis; a row leaves the outer loop when it converges), and
the public functions are their one-trajectory calls.  Every row is
bit-equal to the same trajectory smoothed alone.
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
    _augmented_update,  # noqa: F401  perfbench/tracer.py times it under this name too
    _augmented_update_rows,
    _psi_diagonal,
    _stack_cz,
    expected_mixing_precision,
)

__all__ = [
    "AugmentedBelief",
    "SmootherIterate",
    "SmoothedTrack",
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


class SmoothedTrack(list):
    """The smoothed x marginals of sts_run, one GaussianBelief per step.

    `iterations` counts the outer VB iterations run and `converged` says
    whether the loop stopped at its tolerance before max_iterations.
    """

    def __init__(self, beliefs, iterations: int, converged: bool):
        super().__init__(beliefs)
        self.iterations = iterations
        self.converged = converged


def _measurement_matrices(model, n_steps, measurement_matrices):
    if measurement_matrices is None:
        return [model.C] * n_steps
    mats = [np.atleast_2d(np.asarray(c, dtype=float)) for c in measurement_matrices]
    if len(mats) != n_steps:
        raise ValueError(
            f"got {len(mats)} measurement matrices for {n_steps} steps"
        )
    return mats


def _beliefs(mean, cov) -> list:
    return [AugmentedBelief(m, c) for m, c in zip(mean, cov)]


def _forward_rows(model, ys, lambdas, c_seq) -> tuple:
    """Truncated forward filtering of B trajectories in lockstep.

    ys and lambdas are (B, K, n_y), c_seq is (B, K, n_y, n_x).  Returns the
    (mean, cov) stacks of the filtered and of the predicted augmented
    beliefs, (B, K, n) and (B, K, n, n).  Row b is bit-equal to a
    forward pass of that row alone.
    """
    n_rows, n_steps, n_y = ys.shape
    n_x = model.n_x
    f_mean = np.empty((n_rows, n_steps, n_x + n_y))
    f_cov = np.empty((n_rows, n_steps, n_x + n_y, n_x + n_y))
    p_mean = np.empty_like(f_mean)
    p_cov = np.empty_like(f_cov)
    x_pred = np.broadcast_to(model.prior_mean, (n_rows, n_x))
    p_pred = np.broadcast_to(model.prior_cov, (n_rows, n_x, n_x))
    for k in range(n_steps):
        try:
            step = _augmented_update_rows(
                x_pred, p_pred, ys[:, k], c_seq[:, k],
                model.Delta, model.R, lambdas[:, k],
            )
        except NumericalFailureError as err:
            raise NumericalFailureError(
                f"forward update failed: {err}", step=k
            ) from err
        f_mean[:, k], f_cov[:, k], p_mean[:, k], p_cov[:, k] = step
        x_pred = (model.A @ f_mean[:, k, :n_x, None])[..., 0]
        p_pred = symmetrize(model.A @ f_cov[:, k, :n_x, :n_x] @ model.A.T + model.Q)
    return f_mean, f_cov, p_mean, p_cov


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
    lams = [np.atleast_1d(np.asarray(lam, dtype=float)) for lam in lambdas]
    for k, lam in enumerate(lams):
        if np.any(lam <= 0.0):
            raise ValueError(f"lambdas[{k}] must be positive")
    if n_steps == 0:
        return [], []
    f_mean, f_cov, p_mean, p_cov = _forward_rows(
        model, np.stack(ys)[None], np.stack(lams)[None], np.stack(c_seq)[None]
    )
    return _beliefs(f_mean[0], f_cov[0]), _beliefs(p_mean[0], p_cov[0])


def _backward_rows(f_mean, f_cov, p_mean, p_cov, model) -> tuple:
    """The backward recursion of backward_pass on (B, K, ...) stacks of
    filtered and predicted (mean, cov); returns the smoothed stacks.

    Each row gets its own gain solve, so row b is bit-equal to a backward
    pass of that row alone and fails the same way.
    """
    n_x = model.n_x
    s_mean = f_mean.copy()
    s_cov = f_cov.copy()
    for k in range(f_mean.shape[1] - 2, -1, -1):
        p_pred = p_cov[:, k + 1, :n_x, :n_x]
        try:
            gain = np.stack([
                solve_spd(p_b, model.A @ f_b[:n_x], what="prediction covariance").T
                for p_b, f_b in zip(p_pred, f_cov[:, k])
            ])
        except NumericalFailureError as err:
            raise NumericalFailureError(
                f"backward gain failed: {err}", step=k
            ) from err
        step = s_mean[:, k + 1, :n_x] - p_mean[:, k + 1, :n_x]
        s_mean[:, k] += (gain @ step[..., None])[..., 0]
        s_cov[:, k] = symmetrize(
            f_cov[:, k]
            + gain @ (s_cov[:, k + 1, :n_x, :n_x] - p_pred) @ gain.swapaxes(1, 2)
        )
    return s_mean, s_cov


def backward_pass(filtered, predicted, model: StateSpaceModel) -> list:
    """Fixed-interval backward recursion on the augmented state.

    The gain at step k is G = Z_f A_z^T Z_p^{-1}, with Z_f the filtered
    augmented covariance and Z_p = blockdiag(P, diag(1/lam)) the augmented
    prediction covariance of step k+1.  A_z = blockdiag(A, 0) makes the
    u-columns of G vanish, so G = Z_f[:, :n_x] A^T P^{-1} acts only on x.
    This is the classical RTS recursion, and beliefs with no u-block get
    exactly that: baselines.rtss_gated_run smooths through it as well.
    """
    n_steps = len(filtered)
    if len(predicted) != n_steps:
        raise ValueError("filtered and predicted sequences must align")
    if n_steps == 0:
        return []
    s_mean, s_cov = _backward_rows(
        np.stack([b.mean for b in filtered])[None],
        np.stack([b.cov for b in filtered])[None],
        np.stack([b.mean for b in predicted])[None],
        np.stack([b.cov for b in predicted])[None],
        model,
    )
    return _beliefs(s_mean[0, :-1], s_cov[0, :-1]) + [filtered[-1]]


def _lambda_rows(s_mean, s_cov, ys, cz, model) -> np.ndarray:
    """Refreshed mixing precisions of smoothed (mean, cov) stacks whose
    steps have measurements ys and [C, diag(Delta)] matrices cz, one
    belief at a time: an einsum over the whole stack sums in another order."""
    n_x = model.n_x
    psi = np.empty(ys.shape)
    for i in np.ndindex(ys.shape[:-1]):
        m, c = s_mean[i], s_cov[i]
        psi[i] = _psi_diagonal(ys[i], cz[i], m, c, model.R, m[n_x:], c[n_x:, n_x:])
    return expected_mixing_precision(model.nu, psi)


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
    cz = _stack_cz(c_mat, model.Delta)
    return _lambda_rows(smoothed.mean, smoothed.cov, y, cz, model)


def sts_run(
    model: StateSpaceModel,
    ys,
    cfg: VBConfig = VBConfig(),
    measurement_matrices=None,
) -> SmoothedTrack:
    """Iterated smoothing of a measurement sequence.

    Returns the normal approximations of the smoothed x marginals, one
    GaussianBelief per step, with the outer-loop iteration count and
    convergence flag.
    """
    result = _run_vb(model, ys, cfg, measurement_matrices)
    n_x = model.n_x
    return SmoothedTrack(
        [
            GaussianBelief(s.mean[:n_x], symmetrize(s.cov[:n_x, :n_x]))
            for s in result.smoothed
        ],
        result.iterations,
        result.converged,
    )


def _run_vb(model, ys, cfg, measurement_matrices=None, n_iterations=None):
    """Full outer VB loop of one trajectory; returns the last
    SmootherIterate plus counters (see _run_vb_rows)."""
    ys = [np.atleast_1d(np.asarray(y, dtype=float)) for y in ys]
    n_steps = len(ys)
    if n_steps == 0:
        return _VBResult([], [], [], [], 0, True)
    c_seq = _measurement_matrices(model, n_steps, measurement_matrices)
    rows = _run_vb_rows(
        model, np.stack(ys)[None], np.stack(c_seq)[None], cfg, n_iterations
    )
    return _VBResult(
        _beliefs(rows.filtered[0][0], rows.filtered[1][0]),
        _beliefs(rows.predicted[0][0], rows.predicted[1][0]),
        _beliefs(rows.smoothed[0][0], rows.smoothed[1][0]),
        list(rows.lambdas[0]),
        int(rows.iterations[0]),
        bool(rows.converged[0]),
    )


@dataclass(frozen=True)
class _VBRows:
    """Final iterates of _run_vb_rows: (mean, cov) stacks of the filtered,
    predicted and smoothed augmented beliefs, (B, K, n) and (B, K, n, n),
    the next mixing precisions (B, K, n_y) and per-row counters."""

    filtered: tuple
    predicted: tuple
    smoothed: tuple
    lambdas: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def _run_vb_rows(model, ys, c_seq, cfg, n_iterations=None) -> _VBRows:
    """Outer VB loop of B trajectories in lockstep.

    ys is (B, K, n_y) and c_seq (B, K, n_y, n_x).  A row runs until the
    largest per-step change of its smoothed state means drops below
    cfg.tol, then leaves the batch, or until cfg.max_iterations;
    `n_iterations` forces an exact iteration count instead.  Each row has
    its own Anderson mixer and is bit-equal to the loop run on it alone.
    """
    n_rows, n_steps, n_y = ys.shape
    n_x = model.n_x
    cz = _stack_cz(c_seq, model.Delta)
    lambdas = np.ones((n_rows, n_steps, n_y))
    upper = np.tile((model.nu + 2.0) / model.nu, n_steps)
    mixers = [_AndersonMixer(upper=upper) for _ in range(n_rows)]
    max_iter = cfg.max_iterations if n_iterations is None else n_iterations
    x_prev = [None] * n_rows
    iterations = np.zeros(n_rows, dtype=int)
    converged = np.zeros(n_rows, dtype=bool)
    n = n_x + n_y
    out = [np.empty((n_rows, n_steps) + shape) for shape in ((n,), (n, n)) * 3]
    active = np.arange(n_rows)
    for _ in range(max_iter):
        stacks = _forward_rows(model, ys[active], lambdas[active], c_seq[active])
        stacks += _backward_rows(*stacks, model)
        plain = _lambda_rows(*stacks[4:], ys[active], cz[active], model)
        for whole, part in zip(out, stacks):
            whole[active] = part
        iterations[active] += 1
        keep = []
        for j, b in enumerate(active):
            lambdas[b] = mixers[b].push(lambdas[b].ravel(), plain[j].ravel()).reshape(
                n_steps, n_y
            )
            xs = stacks[4][j, :, :n_x]
            if (
                n_iterations is None
                and x_prev[b] is not None
                and np.linalg.norm(xs - x_prev[b], axis=1).max() < cfg.tol
            ):
                converged[b] = True
            else:
                x_prev[b] = xs
                keep.append(b)
        active = np.array(keep, dtype=int)
        if not keep:
            break
    return _VBRows(
        (out[0], out[1]), (out[2], out[3]), (out[4], out[5]),
        lambdas, iterations, converged,
    )


@dataclass(frozen=True)
class _VBResult(SmootherIterate):
    iterations: int = 0
    converged: bool = False
