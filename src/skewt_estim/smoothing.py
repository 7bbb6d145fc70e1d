"""Variational-Bayes smoother for linear models with skew-t measurement noise.

The outer loop alternates, over the whole trajectory: a forward pass of
the filter's recursion (filtering._filter_rows) with the expected mixing
precisions held fixed, one truncated augmented update per step; a
fixed-interval backward recursion on the augmented [x; u] state; and the
per-step refresh of the mixing precisions from the smoothed moments, the
filter's own (filtering._mixing_update).  The augmented dynamics
propagate x with the model transition and reset u each step (its
transition block is zero), so the one-step augmented prediction
covariance is blockdiag(A P A^T + Q, diag(1/lam)).  Only its x block
enters the backward gain, and the backward pass computes it from the
filtered moments it smooths, as the forward pass did: no pass hands out
predicted moments.

The outer loop is the filter's VB loop (filtering._vb_loop), with one
Anderson-mixed precision vector over the whole trajectory, starting from
unit precisions (lambda = 1).  The smoother's family, _sts_run_rows, runs
B trajectories in lockstep (a leading batch axis; a row leaves the loop
when it converges) and takes their measurements from a source, as the
filter's does.  Every forward pass is _filter_rows with one update,
_pass_update, whose source hands out C_k, y_k, cz_k = [C_k, diag(Delta)]
and the mixing precisions of the step.  Only the first pass, at
lambda = 1, asks the family's source, which takes each row's measurement
matrix at that row's predicted means (the GNSS benchmark relinearizes
there); it keeps what it is handed, and the later passes replay that
(_forward_rows), so the smoother never runs the skew-t filter and no
forward pass runs twice.  sts_run is the family's one-row call, and the
other public functions are one-trajectory calls of the lockstep passes.
Every row is bit-equal to the same trajectory smoothed alone.

A row's failure is data here as in the filter: each pass returns the
outcomes of its rows beside its stacks, a dict of the failed rows and
their errors.  The backward pass takes those of the forward pass it
smooths, makes no solve for those rows and adds its own failures, and
the VB loop records them all and goes on with the rows left in the same
iteration.  The one-row calls raise the error of their row.
"""

import numpy as np

from ._linalg import solve_spd, symmetrize
from .exceptions import EstimationError
from .filtering import (
    GaussianBelief,
    StateSpaceModel,
    VBConfig,
    _augmented_update,
    _beliefs,
    _dim,
    _filter_rows,
    _finite,
    _linear_source,
    _mixing_update,
    _one_row,
    _stack_cz,
    _time_update,
    _vb_loop,
    _vector,
    _vectors,
)

__all__ = [
    "SmoothedTrack",
    "forward_pass",
    "backward_pass",
    "update_lambda",
    "sts_run",
]

class SmoothedTrack(list):
    """The smoothed x marginals of sts_run, one GaussianBelief per step.

    `iterations` counts the outer VB iterations run and `converged` says
    whether the loop stopped at its tolerance before max_iterations.
    """

    def __init__(self, beliefs, iterations: int, converged: bool):
        super().__init__(beliefs)
        self.iterations = iterations
        self.converged = converged


def _pass_update(model: StateSpaceModel):
    """The update of every forward pass of the smoother: one truncated
    augmented update (_augmented_update) of the live rows at the mixing
    precisions lam that its source hands out with C_k, y_k and cz_k.  It
    returns the filtered augmented (mean, cov), then the rows it failed."""
    return lambda x, p, c_mat, y, cz, lam: _augmented_update(
        x, p, y, c_mat, cz, model.Delta, model.R, lam
    )


def _at_precisions(model: StateSpaceModel, measure, lambdas):
    """The source of a forward pass over measure (filtering._filter_rows)
    at the mixing precisions lambdas (B, K, n_y): C_k and y_k of measure,
    then cz_k = [C_k, diag(Delta)] and the live rows' lambdas of step k,
    then the rows measure failed."""

    def source(k, rows, x):
        c_k, y_k, failed = measure(k, rows, x)
        return c_k, y_k, _stack_cz(c_k, model.Delta), lambdas[rows, k], failed

    return source


def _forward_rows(model, ys, lambdas, c_seq, cz) -> list:
    """A later forward pass of the smoother over B trajectories in
    lockstep: filtering._filter_rows replaying the measurements ys
    (B, K, n_y), matrices c_seq (B, K, n_y, n_x) and cz = [C_k, diag(Delta)]
    (B, K, n_y, n_x + n_y) of the first pass, at the mixing precisions
    lambdas (B, K, n_y).  Returns the (mean, cov) stacks of the filtered
    augmented beliefs, (B, K, n) and (B, K, n, n), then the outcomes, a
    dict of each failed row and its error.  Row b is bit-equal to a
    forward pass of that row alone.
    """

    def replay(k, rows, x):
        return c_seq[rows, k], ys[rows, k], cz[rows, k], lambdas[rows, k], {}

    return _filter_rows(model, *ys.shape[:2], replay, _pass_update(model))


def forward_pass(model: StateSpaceModel, ys, lambdas) -> list:
    """Truncated forward filtering with fixed mixing precisions.

    `ys` holds one measurement and `lambdas` one finite positive precision
    diagonal per step, each of length n_y.  Returns the truncated
    augmented posteriors, one GaussianBelief over [x; u] per step, which
    backward_pass smooths.  A non-finite measurement raises
    NumericalFailureError at its step (filtering._linear_source).
    """
    n_rows, n_steps, measure = _linear_source(model, ys)
    if len(lambdas) != n_steps:
        raise ValueError(f"got {len(lambdas)} lambdas for {n_steps} steps")
    lams = _vectors("lambdas", lambdas, model.n_y)
    for k, lam in enumerate(lams):
        if not np.all(np.isfinite(lam) & (lam > 0.0)):
            raise ValueError(f"lambdas[{k}] must be positive and finite")
    if n_steps == 0:
        return []
    source = _at_precisions(model, measure, np.stack(lams)[None])
    f_mean, f_cov = _one_row(*_filter_rows(model, n_rows, n_steps, source, _pass_update(model)))
    return _beliefs(f_mean[0], f_cov[0])


def _backward_rows(f_mean, f_cov, failed, model) -> tuple:
    """The backward recursion of backward_pass on (B, K, ...) stacks of
    the filtered (mean, cov) of a forward pass whose outcomes are
    `failed`, a dict of its failed rows and their errors; returns the
    smoothed stacks and the outcomes, those of the forward pass and of
    the rows failed here.

    The gain needs the x-block predictions of steps 1..K-1, which are the
    time update of the filtered x blocks of steps 0..K-2: one stacked
    filtering._time_update, (B, K-1, n_x) and (B, K-1, n_x, n_x), before
    the loop.  It is the forward pass's own prediction, the same call on
    the same filtered block, so it is bit-equal to the prior that pass
    updated from.  A failed row's zeroed stacks predict to finite values,
    and it makes no solve.

    Each row gets its own gain solve, so row b is bit-equal to a backward
    pass of that row alone and fails the same way.  The per-row solve was
    chosen on timings at 1-6 rows (see _augmented_update).  At 32 and 100
    rows a stacked solve measured faster: for these 4x4 systems with 12
    right-hand sides, np.linalg.solve on the stack took 32 and 89 us
    against 65 and 214 us for solve_spd per row (one thread, 2-vCPU host).
    The error of a failed solve gets its step and is the row's outcome;
    the other rows' solves of that step stand.  A failed row, of the
    forward pass or here, makes no more solves and runs on with a zero
    gain, so its smoothed moments keep the filtered ones and hold no
    result.  It is not thinned out of the stacks: the fancy indexing that
    needs cost 12% of the pass at 100 rows and 33% at 6 rows without any
    failure (K=100, q=5, one thread).
    """
    n_x = model.n_x
    p_mean, p_cov = _time_update(model, f_mean[:, :-1, :n_x], f_cov[:, :-1, :n_x, :n_x])
    s_mean = f_mean.copy()
    s_cov = f_cov.copy()
    gain = np.zeros(f_cov.shape[:1] + f_cov.shape[-1:] + (n_x,))
    failed = dict(failed)
    for k in range(f_mean.shape[1] - 2, -1, -1):
        p_pred = p_cov[:, k]  # of step k + 1
        for b, (p_b, f_b) in enumerate(zip(p_pred, f_cov[:, k])):
            if b not in failed:
                try:
                    gain[b] = solve_spd(p_b, model.A @ f_b[:n_x], what="prediction covariance").T
                except EstimationError as err:
                    err.step, failed[b], gain[b] = k, err, 0.0
        step = s_mean[:, k + 1, :n_x] - p_mean[:, k]
        s_mean[:, k] += (gain @ step[..., None])[..., 0]
        s_cov[:, k] = symmetrize(
            f_cov[:, k]
            + gain @ (s_cov[:, k + 1, :n_x, :n_x] - p_pred) @ gain.swapaxes(1, 2)
        )
    return s_mean, s_cov, failed


def backward_pass(filtered, model: StateSpaceModel) -> list:
    """Fixed-interval backward recursion on the augmented state, over the
    filtered beliefs of a forward pass; the one-row call of
    _backward_rows.

    The gain at step k is G = Z_f A_z^T Z_p^{-1}, with Z_f the filtered
    augmented covariance and Z_p = blockdiag(P, diag(1/lam)) the augmented
    prediction covariance of step k+1.  A_z = blockdiag(A, 0) makes the
    u-columns of G vanish, so G = Z_f[:, :n_x] A^T P^{-1} acts only on x,
    and P = A Z_f[:n_x, :n_x] A^T + Q is computed here from the filtered
    beliefs.  This is the classical RTS recursion, and beliefs with no
    u-block get exactly that: baselines.rtss_gated_run smooths through it
    as well.  The beliefs are of one dimension, n_x or n_x + n_y.
    """
    if not filtered:
        return []
    dim = _dim("filtered[0]", filtered[0], model.n_x, model.n_x + model.n_y)
    for k, b in enumerate(filtered):
        _dim(f"filtered[{k}]", b, dim)
    s_mean, s_cov = _one_row(*_backward_rows(
        np.stack([b.mean for b in filtered])[None],
        np.stack([b.cov for b in filtered])[None],
        {},
        model,
    ))
    return _beliefs(s_mean[0, :-1], s_cov[0, :-1]) + [filtered[-1]]


def update_lambda(
    smoothed: GaussianBelief,
    y: np.ndarray,
    model: StateSpaceModel,
) -> np.ndarray:
    """Refreshed mixing-precision diagonal (nu + 2) / (nu + psi) from one
    smoothed augmented belief: the one-step call of
    filtering._mixing_update, the refresh of the smoother's outer loop.
    A non-finite y raises NumericalFailureError."""
    y = _finite(_vector("y", y, model.n_y))
    _dim("smoothed belief", smoothed, model.n_x + model.n_y)
    cz = _stack_cz(model.C, model.Delta)
    return _mixing_update(model, y, cz, smoothed.mean, smoothed.cov)[1]


def sts_run(model: StateSpaceModel, ys, cfg: VBConfig = VBConfig()) -> SmoothedTrack:
    """Iterated smoothing of a measurement sequence.

    Returns the normal approximations of the smoothed x marginals, one
    GaussianBelief per step, with the outer-loop iteration count and
    convergence flag.
    """
    source = _linear_source(model, ys)
    if not source[1]:
        return SmoothedTrack([], 0, True)
    s_mean, s_cov, _, iterations, converged = _one_row(*_sts_run_rows(model, *source, cfg))
    n_x = model.n_x
    return SmoothedTrack(
        [GaussianBelief(m[:n_x], c[:n_x, :n_x]) for m, c in zip(s_mean[0], s_cov[0])],
        int(iterations[0]),
        bool(converged[0]),
    )


def _sts_run_rows(model, n_rows, n_steps, measure, cfg) -> tuple:
    """The skew-t smoother of n_rows trajectories in lockstep, fed by the
    measurement source `measure` (filtering._filter_rows); sts_run is its
    one-row call.  It never runs the skew-t filter.

    The outer loop is filtering._vb_loop.  The mixing precisions of each
    row are one Anderson-mixed vector over the whole trajectory, starting
    from 1, and a row stops on the largest per-step change of its smoothed
    state means; each row is bit-equal to the loop run on it alone.  Every
    forward pass is _filter_rows with _pass_update.  The first, at those
    unit precisions, takes each row's C_k and y_k from `measure` at its
    own predicted means and writes them into (B, K) stacks, which the loop
    carries with their cz = [C_k, diag(Delta)]; the later passes
    (_forward_rows) replay those stacks, so only the first pass asks
    `measure`, no forward pass runs twice, and the first pass is freed
    once the first iteration is done.  A row that failed in the first pass
    fails at the first iteration with its error, and a row whose forward
    or backward pass fails leaves the loop at that iteration, which goes
    on for the rows left (filtering._vb_loop).  The (B, K) stacks start
    zeroed, so a row that failed in the first pass holds finite terms at
    its steps after the failure.

    Returns the smoothed augmented (mean, cov) stacks, (B, K, n) and
    (B, K, n, n), the next mixing precisions (B, K, n_y), the outer
    iteration counts and convergence flags of the rows, then the
    outcomes: a dict of each failed row and its EstimationError, of the
    first pass or of the loop (its other outputs then hold no result).
    """
    n_x, n_y = model.n_x, model.n_y
    ys = np.zeros((n_rows, n_steps, n_y))
    c_seq = np.zeros((n_rows, n_steps, n_y, n_x))

    def kept(k, rows, x):
        c_seq[rows, k], ys[rows, k], _ = out = measure(k, rows, x)
        return out

    # The first pass, which the first iteration takes, on every row.
    source = _at_precisions(model, kept, np.ones((n_rows, n_steps, n_y)))
    first = [_filter_rows(model, n_rows, n_steps, source, _pass_update(model))]

    def update(ys, c_seq, cz, lam):
        if first:
            passed = first.pop()  # the later iterations run their own forward passes
        else:
            passed = _forward_rows(model, ys, lam.reshape(-1, n_steps, n_y), c_seq, cz)
        *smoothed, failed = _backward_rows(*passed, model)
        _, plain = _mixing_update(model, ys, cz, *smoothed)
        return smoothed, plain.reshape(lam.shape), smoothed[0][..., :n_x], failed

    out, lambdas, iterations, converged, failed = _vb_loop(
        update,
        (ys, c_seq, _stack_cz(c_seq, model.Delta)),
        np.ones((n_rows, n_steps * n_y)),
        np.tile((model.nu + 2.0) / model.nu, n_steps),
        cfg,
    )
    return (*out, lambdas.reshape(n_rows, n_steps, n_y), iterations, converged, failed)
