"""Variational-Bayes smoother for linear models with skew-t measurement noise.

The outer loop alternates, over the whole trajectory: the filter's
forward recursion (filtering._forward) with the expected mixing
precisions held fixed, one truncated augmented update per step; a
fixed-interval backward recursion on the augmented [x; u] state; and the
per-step refresh of the mixing precisions from the smoothed moments.  The
augmented dynamics propagate x with the model transition and reset u each
step (its transition block is zero), so the one-step augmented prediction
covariance is blockdiag(A P A^T + Q, diag(1/lam)).

The outer loop is the filter's VB loop (filtering._vb_loop), with one
Anderson-mixed precision vector over the whole trajectory, starting from
unit precisions (lambda = 1).  The smoother's family, _sts_run_rows, runs
B trajectories in lockstep (a leading batch axis; a row leaves the loop
when it converges) and takes their measurements from a source, as the
filter's does (filtering._filter_rows).  Its first forward pass, at
lambda = 1, is _filter_rows itself, which takes each row's measurement
matrix at that row's predicted means (the GNSS benchmark relinearizes
there); the later passes rerun on those matrices, so the smoother never
runs the skew-t filter and no forward pass runs twice.  sts_run is the
family's one-row call, and the other public functions are one-trajectory
calls of the lockstep passes.  Every row is bit-equal to the same
trajectory smoothed alone.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import solve_spd, symmetrize
from .exceptions import EstimationError
from .filtering import (
    GaussianBelief,
    StateSpaceModel,
    VBConfig,
    _augmented_update,
    _beliefs,
    _filter_rows,
    _forward,
    _linear_source,
    _psi_diagonal,
    _raise_failed,
    _stack_cz,
    _vb_loop,
    _vector,
    _vectors,
    expected_mixing_precision,
)

__all__ = [
    "SmootherIterate",
    "SmoothedTrack",
    "forward_pass",
    "backward_pass",
    "update_lambda",
    "sts_run",
]

@dataclass(frozen=True)
class SmootherIterate:
    """Final iterate of the outer VB loop over B trajectories of K steps.

    `smoothed` is the (mean, cov) stack of the smoothed augmented beliefs,
    (B, K, n) and (B, K, n, n).  `lambdas` (B, K, n_y) are the next mixing
    precisions; `iterations` and `converged` count the outer iterations
    of each row and say whether it stopped at its tolerance, and
    `failed[b]` is the EstimationError that failed row b, in the first
    forward pass or in the loop, or None (its other fields then hold no
    result).
    """

    smoothed: tuple
    lambdas: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    failed: list


class SmoothedTrack(list):
    """The smoothed x marginals of sts_run, one GaussianBelief per step.

    `iterations` counts the outer VB iterations run and `converged` says
    whether the loop stopped at its tolerance before max_iterations.
    """

    def __init__(self, beliefs, iterations: int, converged: bool):
        super().__init__(beliefs)
        self.iterations = iterations
        self.converged = converged


def _forward_rows(model, ys, lambdas, c_seq) -> list:
    """Truncated forward filtering of B trajectories in lockstep, one
    augmented update per step at the fixed mixing precisions.

    ys and lambdas are (B, K, n_y), c_seq is (B, K, n_y, n_x).  Returns the
    (mean, cov) stacks of the filtered and of the predicted augmented
    beliefs, (B, K, n) and (B, K, n, n).  Row b is bit-equal to a
    forward pass of that row alone.  A failed row raises its error again,
    naming the row, once the other rows are done (filtering._raise_failed).
    """
    n_rows, n_steps, _ = ys.shape
    cz = _stack_cz(c_seq, model.Delta)

    def step(k, rows, x, p):
        return _augmented_update(
            x, p, ys[rows, k], c_seq[rows, k], cz[rows, k], model.Delta, model.R, lambdas[rows, k]
        )

    return _raise_failed(*_forward(model, n_rows, n_steps, step))


def forward_pass(model: StateSpaceModel, ys, lambdas) -> tuple:
    """Truncated forward filtering with fixed mixing precisions.

    `ys` holds one measurement and `lambdas` one positive precision
    diagonal per step, each of length n_y.  Returns
    (filtered, predicted): the truncated augmented posteriors and the
    augmented one-step priors they were updated from, as GaussianBeliefs
    over [x; u].
    """
    ys = _vectors("ys", ys, model.n_y)
    n_steps = len(ys)
    if len(lambdas) != n_steps:
        raise ValueError(f"got {len(lambdas)} lambdas for {n_steps} steps")
    lams = _vectors("lambdas", lambdas, model.n_y)
    for k, lam in enumerate(lams):
        if np.any(lam <= 0.0):
            raise ValueError(f"lambdas[{k}] must be positive")
    if n_steps == 0:
        return [], []
    c_seq = np.broadcast_to(model.C, (1, n_steps) + model.C.shape)
    f_mean, f_cov, p_mean, p_cov = _forward_rows(
        model, np.stack(ys)[None], np.stack(lams)[None], c_seq
    )
    return _beliefs(f_mean[0], f_cov[0]), _beliefs(p_mean[0], p_cov[0])


def _backward_rows(f_mean, f_cov, p_mean, p_cov, model) -> tuple:
    """The backward recursion of backward_pass on (B, K, ...) stacks of
    filtered and predicted (mean, cov); returns the smoothed stacks and
    the outcome of each row: None, or the EstimationError that failed it.

    Each row gets its own gain solve, so row b is bit-equal to a backward
    pass of that row alone and fails the same way.  The per-row solve was
    chosen on timings at 1-6 rows (see _augmented_update).  At 32 and 100
    rows a stacked solve measured faster: for these 4x4 systems with 12
    right-hand sides, np.linalg.solve on the stack took 32 and 89 us
    against 65 and 214 us for solve_spd per row (one thread, 2-vCPU host).
    The error of a failed solve gets its step and is the row's outcome;
    the other rows' solves of that step stand.  The failed row makes no
    more solves and runs on with a zero gain, so its smoothed moments keep
    the filtered ones and hold no result.  It is not thinned out of the
    stacks: the fancy indexing that needs cost 12% of the pass at 100 rows
    and 33% at 6 rows without any failure (K=100, q=5, one thread).
    """
    n_x = model.n_x
    s_mean = f_mean.copy()
    s_cov = f_cov.copy()
    gain = np.empty(f_cov.shape[:1] + f_cov.shape[-1:] + (n_x,))
    failed = [None] * len(f_mean)
    for k in range(f_mean.shape[1] - 2, -1, -1):
        p_pred = p_cov[:, k + 1, :n_x, :n_x]
        for b, (p_b, f_b) in enumerate(zip(p_pred, f_cov[:, k])):
            if failed[b] is None:
                try:
                    gain[b] = solve_spd(p_b, model.A @ f_b[:n_x], what="prediction covariance").T
                except EstimationError as err:
                    err.step, failed[b], gain[b] = k, err, 0.0
        step = s_mean[:, k + 1, :n_x] - p_mean[:, k + 1, :n_x]
        s_mean[:, k] += (gain @ step[..., None])[..., 0]
        s_cov[:, k] = symmetrize(
            f_cov[:, k]
            + gain @ (s_cov[:, k + 1, :n_x, :n_x] - p_pred) @ gain.swapaxes(1, 2)
        )
    return s_mean, s_cov, failed


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
    s_mean, s_cov = _raise_failed(*_backward_rows(
        np.stack([b.mean for b in filtered])[None],
        np.stack([b.cov for b in filtered])[None],
        np.stack([b.mean for b in predicted])[None],
        np.stack([b.cov for b in predicted])[None],
        model,
    ))
    return _beliefs(s_mean[0, :-1], s_cov[0, :-1]) + [filtered[-1]]


def _lambda_rows(s_mean, s_cov, ys, cz, model) -> np.ndarray:
    """Refreshed mixing precisions of smoothed (mean, cov) stacks whose
    steps have measurements ys and [C, diag(Delta)] matrices cz."""
    psi = _psi_diagonal(ys, cz, s_mean, s_cov, model.R, model.n_x)
    return expected_mixing_precision(model.nu, psi)


def update_lambda(
    smoothed: GaussianBelief,
    y: np.ndarray,
    model: StateSpaceModel,
) -> np.ndarray:
    """Refreshed mixing-precision diagonal from one smoothed augmented belief."""
    n_x, n_y = model.n_x, model.n_y
    y = _vector("y", y, n_y)
    if smoothed.dim != n_x + n_y:
        raise ValueError(
            f"smoothed belief has dim {smoothed.dim}, expected {n_x + n_y}"
        )
    cz = _stack_cz(model.C, model.Delta)
    return _lambda_rows(smoothed.mean, smoothed.cov, y, cz, model)


def sts_run(model: StateSpaceModel, ys, cfg: VBConfig = VBConfig()) -> SmoothedTrack:
    """Iterated smoothing of a measurement sequence.

    Returns the normal approximations of the smoothed x marginals, one
    GaussianBelief per step, with the outer-loop iteration count and
    convergence flag.
    """
    ys = _vectors("ys", ys, model.n_y)
    if not ys:
        return SmoothedTrack([], 0, True)
    source = _linear_source(model, np.stack(ys)[None])
    result = _sts_run_rows(model, 1, len(ys), source, cfg)
    (s_mean, s_cov), iterations, converged = _raise_failed(
        result.smoothed, result.iterations, result.converged, result.failed
    )
    n_x = model.n_x
    return SmoothedTrack(
        [
            GaussianBelief(m[:n_x], symmetrize(c[:n_x, :n_x]))
            for m, c in zip(s_mean[0], s_cov[0])
        ],
        int(iterations[0]),
        bool(converged[0]),
    )


def _sts_run_rows(model, n_rows, n_steps, measure, cfg) -> SmootherIterate:
    """The skew-t smoother of n_rows trajectories in lockstep, fed by the
    measurement source `measure` (filtering._filter_rows); sts_run is its
    one-row call.  It never runs the skew-t filter.

    The outer loop is filtering._vb_loop.  The mixing precisions of each
    row are one Anderson-mixed vector over the whole trajectory, starting
    from 1, and a row stops on the largest per-step change of its smoothed
    state means; each row is bit-equal to the loop run on it alone.  The
    forward pass of the first iteration is _filter_rows with the augmented
    update at those unit precisions, which takes each row's C_k and y_k
    at its own predicted means; the later passes (_forward_rows) rerun on
    them, so no forward pass runs twice, and the first pass is freed once
    the first iteration is done.  A row that failed in the first pass
    fails at the first iteration with its error, and a row whose forward
    or backward pass fails leaves the loop; only that iteration runs again
    for the rows left (filtering._vb_loop).
    """
    n_y = model.n_y

    def first_update(x, p, y, c_mat):
        cz = _stack_cz(c_mat, model.Delta)
        return _augmented_update(x, p, y, c_mat, cz, model.Delta, model.R, np.ones(y.shape))

    # first: the augmented posteriors and the priors they came from.
    *first, c_seq, ys, first_failed = _filter_rows(model, n_rows, n_steps, measure, first_update)

    def update(rows, ys, c_seq, cz, lam):
        if first:
            _raise_failed([first_failed[b] for b in rows])
            stacks = tuple(s[rows] for s in first)
        else:
            stacks = _forward_rows(model, ys, lam.reshape(-1, n_steps, n_y), c_seq)
        smoothed = _raise_failed(*_backward_rows(*stacks, model))
        first.clear()  # the later iterations run their own forward passes
        plain = _lambda_rows(*smoothed, ys, cz, model)
        return smoothed, plain.reshape(lam.shape), smoothed[0][..., : model.n_x]

    out, lambdas, iterations, converged, failed = _vb_loop(
        update,
        (np.arange(n_rows), ys, c_seq, _stack_cz(c_seq, model.Delta)),
        np.ones((n_rows, n_steps * n_y)),
        np.tile((model.nu + 2.0) / model.nu, n_steps),
        cfg,
    )
    return SmootherIterate(
        tuple(out), lambdas.reshape(n_rows, n_steps, n_y), iterations, converged, failed
    )
