"""Variational-Bayes filter for linear models with skew-t measurement noise.

The measurement update treats the state x and the per-component skewness
offsets u as one jointly normal block and the diagonal mixing precisions
as an independent Gamma block, alternating two closed-form updates:

  * given the expected mixing precisions, a Kalman update of the augmented
    [x; u] belief followed by recursive truncation of the u block to the
    positive orthant, always in the paper's greedy order (other orders
    are a study of the truncation layer, not a choice of the filter);
  * given the truncated moments, a refresh of the expected mixing
    precisions (nu_i + 2) / (nu_i + psi_i) from the per-component residual
    statistic psi.

The precisions are Anderson-mixed over the last three iterates, and the
loop stops when the state mean moves less than the configured tolerance
between successive updates.  _vb_loop is that loop, and the smoother
runs it as well, over whole trajectories.  A normal approximation of the
x marginal is carried to the next time step.

Only the mixing precisions change between the filter's iterations, so an
iteration pays only for what depends on them: the augmented update is
split into _prior_terms, computed once per measurement update, and
_lambda_update, run once per iteration, which truncates one row through
truncnorm's private kernel without rec_trunc's input checks; _vb_loop
writes a row's outputs once, when the row leaves the loop.

Each estimator has one sequence driver, a lockstep family over B
trajectories, and every family runs on one forward recursion,
_filter_rows: at each step it takes the measurement terms of the live
rows from a source measure(k, rows, x), updates, stacks what the update
returns and predicts.  A source owns its measurements: it hands out the
measurement matrices and measurements of the rows at their predicted
means x, and fails a row whose measurement is not finite.  A linear
model's source is model.C and the rows' own measurements
(_linear_source); the GNSS benchmark's relinearizes at each row's
predicted mean (bench.experiments._pseudorange_source).  The skew-t
filter's family is _stf_run_rows, the smoother's and the gated Kalman
filter's are smoothing._sts_run_rows and baselines._kf_gated_run_rows,
and the public sequence functions stf_run, sts_run and kf_gated_run are
their one-row calls, so the code the benchmark runs is the code the
library exports.

A row's failure is data, with one code path for a batch that fails and
one that does not.  Every stacked kernel and source returns, beside its
outputs, a dict of the rows it failed and their EstimationErrors, empty
when none failed, and keeps a failed row's outputs finite: the gain
solve gives it a zero gain, the truncation zeroes it, a source zeroes
its measurement.  _filter_rows and _vb_loop record each as its row's
outcome and drop the row from what the step or iteration computed, and
the rows left go on; every stacked operation is row-independent, so
each keeps the bits of its own run.  The outcomes pass up the nested
loops in the same form, and a one-row call raises its row's error
(_one_row).
"""

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import solve_spd, symmetrize
from .exceptions import EstimationError, NumericalFailureError
from .skewt import SkewTComponent
from .truncnorm import _rec_trunc_row, _rec_trunc_rows

__all__ = [
    "StateSpaceModel",
    "GaussianBelief",
    "VBConfig",
    "VBStepDiagnostics",
    "predict",
    "stf_update",
    "stf_run",
    "expected_mixing_precision",
]


@dataclass(frozen=True)
class GaussianBelief:
    """Mean and symmetric PSD covariance of a normal belief."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"inconsistent shapes: mean {mean.shape}, cov {cov.shape}"
            )
        scale = max(float(np.abs(cov).max()), 1.0)
        if np.abs(cov - cov.T).max() > 1e-12 * scale:
            raise ValueError("covariance is not symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class StateSpaceModel:
    """Linear dynamics with independent skew-t measurement noise components.

    Attributes
    ----------
    A : (n_x, n_x) state transition matrix.
    Q : (n_x, n_x) PSD process noise covariance.
    C : (n_y, n_x) measurement matrix.
    R : (n_y,) positive diagonal of the squared-spread parameters.
    Delta : (n_y,) diagonal skewness (shape) parameters.
    nu : (n_y,) positive degrees of freedom.
    prior_mean, prior_cov : initial state belief.

    Every entry must be finite.
    """

    A: np.ndarray
    Q: np.ndarray
    C: np.ndarray
    R: np.ndarray
    Delta: np.ndarray
    nu: np.ndarray
    prior_mean: np.ndarray
    prior_cov: np.ndarray

    def __post_init__(self):
        conv = {
            "A": np.atleast_2d(np.asarray(self.A, dtype=float)),
            "Q": np.atleast_2d(np.asarray(self.Q, dtype=float)),
            "C": np.atleast_2d(np.asarray(self.C, dtype=float)),
            "R": np.atleast_1d(np.asarray(self.R, dtype=float)),
            "Delta": np.atleast_1d(np.asarray(self.Delta, dtype=float)),
            "nu": np.atleast_1d(np.asarray(self.nu, dtype=float)),
            "prior_mean": np.atleast_1d(np.asarray(self.prior_mean, dtype=float)),
            "prior_cov": np.atleast_2d(np.asarray(self.prior_cov, dtype=float)),
        }
        for name, value in conv.items():
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        n_x = self.A.shape[0]
        n_y = self.C.shape[0]
        if self.A.shape != (n_x, n_x) or self.Q.shape != (n_x, n_x):
            raise ValueError("A and Q must be square and equally sized")
        if self.C.shape != (n_y, n_x):
            raise ValueError(f"C shape {self.C.shape} inconsistent with A")
        if n_y < 1:
            raise ValueError("the model needs at least one measurement component")
        for name in ("R", "Delta", "nu"):
            if conv[name].shape != (n_y,):
                raise ValueError(f"{name} must have length {n_y}")
        if self.prior_mean.shape != (n_x,) or self.prior_cov.shape != (n_x, n_x):
            raise ValueError("prior dimensions inconsistent with A")
        if np.any(self.R <= 0.0):
            raise ValueError("R diagonal entries must be positive")
        if np.any(self.nu <= 0.0):
            raise ValueError("nu entries must be positive")

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_y(self) -> int:
        return self.C.shape[0]

    def prior_belief(self) -> GaussianBelief:
        return GaussianBelief(self.prior_mean, self.prior_cov)

    def noise_model(self) -> tuple:
        """The measurement noise as a tuple of independent skew-t components."""
        return tuple(
            SkewTComponent(spread_sq=r, shape=d, dof=v)
            for r, d, v in zip(self.R, self.Delta, self.nu)
        )


@dataclass(frozen=True)
class VBConfig:
    """Iteration control of the VB loop of the filter and the smoother.

    A row stops, converged, when the largest Euclidean change of its x
    means between successive iterations falls below `tol`: over its one
    step in the filter, over every step of the trajectory in the
    smoother.  Otherwise it stops after `max_iterations`.
    """

    max_iterations: int = 30
    tol: float = 1e-4

    def __post_init__(self):
        n = self.max_iterations
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"max_iterations must be an integer, got {n!r}")
        if n < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class VBStepDiagnostics:
    """Per-step internals of the VB loop (final iterate).

    `lambda_diag` is the mixing-precision diagonal that iterate ran with.
    """

    iterations: int
    lambda_diag: np.ndarray
    psi_diag: np.ndarray
    u_mean: np.ndarray
    u_cov: np.ndarray
    converged: bool


def expected_mixing_precision(nu: np.ndarray, psi_diag: np.ndarray) -> np.ndarray:
    """Posterior-mean mixing precisions (nu_i + 2) / (nu_i + psi_i)."""
    return (np.asarray(nu, dtype=float) + 2.0) / (np.asarray(nu, dtype=float) + psi_diag)


def _step_norm(d: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, summed in one order for a vector
    or each row of a stack (np.linalg.norm of a vector uses BLAS dot)."""
    return np.sqrt((d * d).sum(-1))


_EPS = float(np.finfo(float).eps)


def _lstsq2(d: np.ndarray, f: np.ndarray) -> tuple:
    """np.linalg.lstsq(d.T, f)[0] for the two (..., 2, m) columns d and
    the (..., m) target f of each row of a stack, in closed form; returns
    the two weights.

    The columns are pivoted by norm and orthogonalized by Gram-Schmidt
    with one reorthogonalization, D = Q R.  As in lstsq, singular values
    up to eps * max(m, 2) times the largest count as zero, and the
    solution is then the minimum-norm one.  Every operation is elementwise
    or a sum over the last axis, so each row of a stack is bit-equal to
    its own call, and to _lstsq2_row.
    """
    sq = (d * d).sum(-1)
    swap = sq[..., 0] < sq[..., 1]
    e1 = np.where(swap[..., None], d[..., 1, :], d[..., 0, :])
    e2 = np.where(swap[..., None], d[..., 0, :], d[..., 1, :])
    a = sq.max(-1)
    a = a + (a == 0.0)  # zero columns: gamma = 0, lstsq's answer
    p = (e1 * e2).sum(-1) / a
    w = e2 - p[..., None] * e1
    p_re = (e1 * w).sum(-1) / a
    w = w - p_re[..., None] * e1
    p = p + p_re
    ww = (w * w).sum(-1)
    t = (e1 * f).sum(-1) / a
    # R = sqrt(a) [[1, p], [0, sqrt(ww / a)]]: its determinant and largest
    # squared singular value give the rank test without cancellation.
    frob = a * (1.0 + p * p) + ww
    s_max2 = 0.5 * (frob + np.sqrt(np.maximum(frob * frob - 4.0 * a * ww, 0.0)))
    full = np.sqrt(a * ww) > _EPS * max(f.shape[-1], 2) * s_max2
    g2 = np.where(full, (w * f).sum(-1) / (ww + (ww == 0.0)), p * t / (1.0 + p * p))
    g1 = np.where(full, t - p * g2, t / (1.0 + p * p))
    return np.where(swap, g2, g1), np.where(swap, g1, g2)


def _lstsq2_row(d: np.ndarray, f: np.ndarray) -> tuple:
    """_lstsq2 of one (2, m) pair of columns and (m,) target, bit-equal.

    The last-axis sums run in numpy, in _lstsq2's summation order; the
    scalar algebra between them runs on Python floats in the same IEEE
    operations, and the vector updates of w are _lstsq2's.
    """
    sq0, sq1 = (d * d).sum(-1).tolist()
    swap = sq0 < sq1
    e1, e2 = (d[1], d[0]) if swap else (d[0], d[1])
    a = sq1 if swap or sq1 != sq1 else sq0  # np.max: a NaN propagates
    if a == 0.0:
        a = 1.0  # zero columns: gamma = 0, lstsq's answer
    p = float((e1 * e2).sum()) / a
    w = e2 - p * e1
    p_re = float((e1 * w).sum()) / a
    w = w - p_re * e1
    p = p + p_re
    ww = float((w * w).sum())
    t = float((e1 * f).sum()) / a
    frob = a * (1.0 + p * p) + ww
    disc = frob * frob - 4.0 * a * ww
    if disc < 0.0:  # np.maximum(disc, 0.0): a NaN stays
        disc = 0.0
    s_max2 = 0.5 * (frob + math.sqrt(disc))
    if math.sqrt(a * ww) > _EPS * max(f.shape[-1], 2) * s_max2:  # full rank, so ww > 0
        g2 = float((w * f).sum()) / ww
        g1 = t - p * g2
    else:
        g2 = p * t / (1.0 + p * p)
        g1 = t / (1.0 + p * p)
    return (g2, g1) if swap else (g1, g2)


def _anderson_step(xs: np.ndarray, gs: np.ndarray, upper) -> np.ndarray:
    """Anderson extrapolation from (..., 3, m) histories of iterates xs
    and their images gs, oldest first: the last image less the image
    differences weighted by the least-squares fit of the residual
    differences to the last residual, clipped to [1e-12, upper].  A row
    whose residual differences all vanish keeps its last image, and so
    does every row on the first push.  Each row of a stack is bit-equal
    to its own call.  The result is a fresh array, never a view of gs,
    which _vb_loop shifts in place.

    One row is fitted by _lstsq2_row on Python floats, a stack by
    _lstsq2: with m = 12 a moving one-row step took 31-35 us against
    58-72 us with _lstsq2 and np.clip (best of 7 over 1393 online
    histories, one thread, 2-vCPU host).
    """
    f = gs - xs
    d = f[..., 1:, :] - f[..., :-1, :]
    moving = np.any(d, axis=(-2, -1))
    if not moving.any():
        return gs[..., -1, :].copy()
    if d.ndim == 2:
        g0, g1 = _lstsq2_row(d, f[-1])
    else:
        g0, g1 = (g[..., None] for g in _lstsq2(d, f[..., -1, :]))
    mixed = (
        gs[..., -1, :]
        - g0 * (gs[..., 1, :] - gs[..., 0, :])
        - g1 * (gs[..., 2, :] - gs[..., 1, :])
    )
    clipped = np.minimum(np.maximum(mixed, 1e-12), upper)  # np.clip's bits, at half its cost
    return clipped if d.ndim == 2 else np.where(moving[..., None], clipped, gs[..., -1, :])


def _vector(name: str, v, n: int) -> np.ndarray:
    """v as a float vector, checked to have shape (n,); the ValueError
    names it as `name`."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {v.shape}")
    return v


def _vectors(name: str, seq, n: int) -> list:
    """_vector of each item of seq, the k-th named name[k]."""
    return [_vector(f"{name}[{k}]", v, n) for k, v in enumerate(seq)]


def _finite(y: np.ndarray, what: str = "measurement"):
    """y, one measurement or a (B, n_y) stack of them, checked to be
    finite; a non-finite entry fails its measurement with
    NumericalFailureError(f"{what} is not finite").  One measurement
    raises it.  A stack returns (y, failed): failed maps each row with a
    non-finite entry to its error, and y is a copy with those rows zeroed.
    """
    bad = ~np.isfinite(y).all(-1)
    if not bad.any():
        return y if y.ndim == 1 else (y, {})
    if y.ndim == 1:
        raise NumericalFailureError(f"{what} is not finite")
    failed = {int(b): NumericalFailureError(f"{what} is not finite") for b in np.flatnonzero(bad)}
    return np.where(bad[:, None], 0.0, y), failed


def _time_update(model, x, p) -> tuple:
    """A x and A p A^T + Q (re-symmetrized), of one row or a stack of rows."""
    return (model.A @ x[..., None])[..., 0], symmetrize(model.A @ p @ model.A.T + model.Q)


def predict(model: StateSpaceModel, b: GaussianBelief) -> GaussianBelief:
    """Time update: mean' = A mean, cov' = A cov A^T + Q (re-symmetrized)."""
    return GaussianBelief(*_time_update(model, b.mean, b.cov))


def _filter_rows(model: StateSpaceModel, n_rows: int, n_steps: int, measure, update) -> list:
    """The forward recursion of every filter, over a lockstep stack of
    n_rows trajectories from the model prior, fed by a measurement source.

    At step k, `measure(k, rows, x)` hands out the measurement terms of
    the live rows at their predicted means x (B, n_x): the measurement
    matrices C_k (B, n_y, n_x) and measurements y_k (B, n_y), then
    anything else the update takes, then the rows it failed.  A source
    may relinearize at x, and it checks its measurements;
    _linear_source is that of a linear model.  `update(x, p, *terms)`,
    with the predicted covariances p (B, n_x, n_x) and the terms the
    source handed out, returns the posterior means and covariances, then
    anything else the caller keeps, then the rows it failed; the next
    prior is the time update of the leading n_x block of the posterior
    (for the smoother's [x; u], the x block: u has a zero transition).
    The rows a source or an update failed are a dict of their positions
    among the live rows and their EstimationErrors, empty when none
    failed, and the failed rows' terms and outputs are finite.

    Each step calls measure and update once.  A row that either of them
    failed (the source's error first) takes step k as its error's step
    and leaves the recursion, its outputs of that step dropped; every
    stacked operation is row-independent, so each row left is bit-equal
    to its own run.  `rows` indexes the live rows: a slice of all of them
    until one fails, then an index array.  Returns each output of update
    stacked over a step axis after the row axis, (n_rows, n_steps, ...),
    in stacks allocated from the first step's outputs, then the outcomes:
    a dict of each failed input row and its error.  A failed row's
    entries are zeroed when it fails, so that they hold no result and
    stay finite.  Once no row is left the recursion stops.  The skew-t
    filter, every forward pass of the smoother and the gated Kalman
    filter run through it.
    """
    n_x = model.n_x
    x = np.broadcast_to(model.prior_mean, (n_rows, n_x))
    p = np.broadcast_to(model.prior_cov, (n_rows, n_x, n_x))
    rows = slice(None)  # the live rows: all, until one fails
    failed = {}
    for k in range(n_steps):
        *terms, lost = measure(k, rows, x)
        *out, lost_here = update(x, p, *terms)
        if not k:
            stacks = [
                np.empty((n_rows, n_steps) + np.shape(o)[1:], np.result_type(o)) for o in out
            ]
        lost = {**lost_here, **lost}
        if lost:
            live = np.arange(n_rows)[rows]
            for err in lost.values():
                err.step = k
            for whole in stacks:
                whole[live[list(lost)]] = 0  # a failed row holds no result
            rows, out = _drop_rows(failed, lost, live, out)
            if not rows.size:
                break
        for whole, o in zip(stacks, out):
            whole[rows, k] = o
        x, p = _time_update(model, out[0][..., :n_x], out[1][..., :n_x, :n_x])
    return [*stacks, failed]


def _drop_rows(failed: dict, lost: dict, rows: np.ndarray, *groups) -> tuple:
    """Record each error of lost, a dict of positions among the live input
    rows `rows` and errors, as the outcome failed[b] of its input row b;
    returns the rows left, then each group of arrays without the lost
    rows, as a list."""
    left = np.ones(len(rows), bool)
    left[list(lost)] = False
    failed.update((int(rows[b]), err) for b, err in lost.items())
    return rows[left], *([a[left] for a in arrays] for arrays in groups)


def _linear_source(model: StateSpaceModel, ys: np.ndarray):
    """The measurement source of the linear model: model.C for each live
    row, and the rows' own measurements of ys (B, K, n_y), which fail a
    row with a non-finite one at its step (_finite)."""
    shape = model.C.shape
    return lambda k, rows, x: (np.broadcast_to(model.C, (len(x),) + shape), *_finite(ys[rows, k]))


def _beliefs(mean, cov) -> list:
    return [GaussianBelief(m, c) for m, c in zip(mean, cov)]


def _one_row(*out) -> tuple:
    """out without its last item, the outcomes of a lockstep call on one
    row; if the row failed, its error is raised instead, naming row 0."""
    if out[-1]:
        err = out[-1][0]
        err.row = 0
        raise err
    return out[:-1]


def _diagonal(a: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of the trailing square block of each
    matrix of a C-contiguous (..., m, n) stack, m >= n: of the whole
    matrix when it is square, else of its last n rows (of any other
    layout, reshape makes a copy, and writes to it would be lost)."""
    m, n = a.shape[-2:]
    return a.reshape(a.shape[:-2] + (m * n,))[..., (m - n) * n :: n + 1]


def _stack_cz(c_mat, delta):
    """[C, diag(delta)] for a measurement matrix or each one of a stack,
    C-contiguous for any layout of C, so a broadcast C gives the same bits."""
    d = np.broadcast_to(np.diag(delta), c_mat.shape[:-1] + (delta.size,))
    return np.ascontiguousarray(np.concatenate([c_mat, d], axis=-1))


def _prior_terms(x_pred, p_pred, y, c_mat, cz) -> tuple:
    """The half of _augmented_update that the mixing precisions do not
    change: C P C^T, [P C^T; 0], cz, the augmented prior mean [x; 0], the
    augmented prior covariance blockdiag(P, 0) and the innovation
    y - C x, of one row or of a stack.  The filter's VB loop computes them
    once per update and thins them with the rows (_stf_update_rows)."""
    batch, n_x, n_y = y.shape[:-1], x_pred.shape[-1], y.shape[-1]
    pct = p_pred @ c_mat.swapaxes(-1, -2)
    zct = np.concatenate([pct, np.zeros(batch + (n_y, n_y))], axis=-2)
    z_prior_cov = np.zeros(batch + (n_x + n_y, n_x + n_y))
    z_prior_cov[..., :n_x, :n_x] = p_pred
    return (
        c_mat @ pct,
        zct,
        cz,
        np.concatenate([x_pred, np.zeros_like(y)], axis=-1),
        z_prior_cov,
        y - (c_mat @ x_pred[..., None])[..., 0],
    )


def _lambda_update(cpc, zct, cz, z_prior_mean, z_prior_cov, innovation, delta, r, lam) -> tuple:
    """The half of _augmented_update that depends on the mixing
    precisions lam: the diagonal fills of the innovation covariance, of
    [P C^T; diag(delta / lam)] and of the augmented prior covariance, the
    gain solve, the posterior and its truncation.  The first six
    arguments are _prior_terms, which it does not modify; returns the
    truncated posterior mean and covariance, then the rows it failed, as
    _augmented_update does.  A row whose gain solve fails takes a zero
    gain, and a row whose truncation fails is zeroed (_rec_trunc_rows;
    one row, or the row of a stack of one, here), so every output stays
    finite; the rows failed, by their first error, come last."""
    batch = lam.shape[:-1]
    n_y = lam.shape[-1]
    n_x = z_prior_mean.shape[-1] - n_y
    lam_inv = 1.0 / lam
    s = cpc.copy()
    _diagonal(s)[...] += delta**2 * lam_inv + r * lam_inv
    zct = zct.copy()
    _diagonal(zct)[...] = delta * lam_inv
    z_prior_cov = z_prior_cov.copy()
    _diagonal(z_prior_cov)[..., n_x:] = lam_inv

    gain = np.empty_like(zct)
    failed = {}
    flat = (-1,) + zct.shape[-2:]
    rows = zip(s.reshape((-1, n_y, n_y)), zct.reshape(flat), gain.reshape(flat))
    for b, (s_b, zct_b, gain_b) in enumerate(rows):
        try:
            gain_b[...] = solve_spd(s_b, zct_b.T, what="innovation covariance").T
        except EstimationError as err:
            failed[b], gain_b[...] = err, 0.0

    z_mean = z_prior_mean + (gain @ innovation[..., None])[..., 0]
    z_cov = z_prior_cov - gain @ (cz @ z_prior_cov)  # truncation symmetrizes it
    truncated = range(n_x, n_x + n_y)
    if batch and batch[0] != 1:
        *post, lost = _rec_trunc_rows(z_mean, z_cov, truncated)
    else:  # one row, or the row of a stack of one, in place
        post, lost = (z_mean, symmetrize(z_cov)), {}
        try:
            _rec_trunc_row(post[0].reshape(-1), post[1].reshape(z_cov.shape[-2:]), truncated)
        except EstimationError as err:
            lost[0] = err
            post = np.zeros_like(z_mean), np.zeros_like(z_cov)
    return (*post, {**lost, **failed})


def _augmented_update(x_pred, p_pred, y, c_mat, cz, delta, r, lam):
    """One truncated Kalman update of the joint [x; u] belief, of one row
    or of a lockstep stack of rows: _lambda_update of _prior_terms.

    x_pred (..., n_x), p_pred (..., n_x, n_x), y (..., n_y), c_mat
    (..., n_y, n_x) and lam (..., n_y) hold the rows, with a leading shape
    () for one row or (B,) for a stack, and cz (..., n_y, n_x + n_y) holds
    [C, diag(delta)] of each row; delta and r are shared.  The augmented
    prior stacks the state prediction with the zero-mean u prior of
    covariance diag(1/lam); the gain is computed against the full
    augmented prior covariance.  Returns the posterior mean and
    covariance, then the rows that failed (_lambda_update): a dict of
    their positions and errors, with 0 for one row, empty when none
    failed.

    The update is split where the mixing precisions enter.  _prior_terms
    (P C^T, C P C^T, the zero-padded templates, [x; 0] and the innovation)
    does not depend on lam, so the filter's VB loop computes it once per
    update; _lambda_update fills the lam diagonals into copies of the
    templates, solves for the gain and truncates.  On online updates of
    the benchmark (12 satellites, one BLAS thread, timeit, 2-vCPU host)
    one VB iteration inside stf_update took about 135 us before the
    split, of which 64 us were truncation through rec_trunc and 14 us
    lam-invariant work; after it, 116 us (median of 12 updates), with
    _lambda_update at 72 us per iteration and _prior_terms at 6 us per
    update.

    The posterior is truncated in the paper's greedy order: one row, or a
    stack of one, by _rec_trunc_row in place on the fresh posterior
    moments (rec_trunc's greedy steps without its input checks), and a
    wider stack by _rec_trunc_rows, so row b of a stack is bit-equal to
    its own call.  A stack of one row runs as that row, where the one-row
    kernel costs under a third as much (12 dims, 8 constraints: 79-91
    against 284-304 us for rec_trunc against _rec_trunc_rows).  Other
    orders belong to the ordering studies (bench.experiments), which
    compare them against the exact truncated-normal reference.
    The gain solve runs solve_spd once per row.  That choice was measured
    at 1-6 rows only: for 8x8 systems with 12 right-hand sides, a stacked
    np.linalg.cholesky check plus np.linalg.solve took 20/30/42 us at
    1/3/6 rows and scipy's batched positive-definite solve 42/56/63 us,
    against 12/25/43 us for the per-row LAPACK calls (one thread, 2-vCPU
    host).  It does not hold for wider stacks: at 32 and 100 rows
    np.linalg.solve on the stack took 52 and 170 us against 86 and 278 us
    for solve_spd per row.
    """
    terms = _prior_terms(x_pred, p_pred, y, c_mat, cz)
    return _lambda_update(*terms, delta, r, lam)


def _psi_diagonal(y, cz, z_mean, z_cov, r, n_x):
    """Diagonal of the residual statistic feeding the mixing update, for
    one augmented belief or a stack of them; each belief of a stack is
    bit-equal to its own call."""
    resid = y - (cz @ z_mean[..., None])[..., 0]
    quad = ((cz @ z_cov) * cz).sum(-1)
    u_var = np.diagonal(z_cov, axis1=-2, axis2=-1)[..., n_x:]
    return (resid**2 + quad) / r + z_mean[..., n_x:] ** 2 + u_var


def _vb_loop(update, args, lam, upper, cfg) -> tuple:
    """The VB fixed-point loop of the filter and of the smoother, for one
    row (lam of leading shape ()) or a lockstep stack of rows ((B,)).

    `update(*args, lam)` runs one iteration of the rows of args at the
    mixing precisions lam (..., m).  It returns the outputs to keep, the
    plain image of lam, the x means, (..., n_x) for one step or
    (..., K, n_x) for the K steps of a trajectory, each a fresh array,
    and the rows it failed: a dict of their positions among the rows and
    their EstimationErrors, empty when none failed, the failed rows'
    outputs finite.  The next lam is the _anderson_step of the window
    xs, gs (..., 3, m) of the last three lam and their images, which the
    first pair fills and later pairs shift in place; lam is stored before
    update runs, which may then overwrite it.

    Each iteration calls update once.  A row leaves the stack, with its
    window, its last x means and args, in one of three ways, so row b is
    bit-equal to the loop run on it alone.  It fails: update fails it,
    one row raises the error, and a stack records it as the row's outcome
    and drops the row from what the iteration computed (_drop_rows), so
    the row's count holds the iterations it completed.  It converges:
    from the second iteration on, the largest Euclidean change of its x
    means over its steps is below cfg.tol.  Or it reaches
    cfg.max_iterations.  A row's outputs and next lam are written once,
    when it converges or reaches the cap; a failed row's hold no result.
    Once no row is left the loop stops.  Returns the kept outputs, the
    next lam, the iteration counts and the convergence flags of every
    row, then the outcomes: a dict of each failed input row and its error.
    """
    batch = lam.shape[:-1]
    rows = np.arange(batch[0]) if batch else ...  # the input rows still in the loop
    failed = {}
    iterations = np.zeros(batch, dtype=int)
    converged = np.zeros(batch, dtype=bool)
    next_lam = np.empty(lam.shape)
    xs, gs = np.empty((2,) + batch + (3,) + lam.shape[-1:])
    last = np.empty(batch)  # the x means of the iteration before, none yet
    for it in range(cfg.max_iterations):
        xs[..., :-1, :] = xs[..., 1:, :] if it else lam[..., None, :]
        xs[..., -1, :] = lam
        kept, image, x, lost = update(*args, lam)
        if not it:
            out = [np.empty(batch + np.shape(o)[len(batch):]) for o in kept]
        if lost:
            if not batch:
                raise lost[0]
            rows, (image, x, xs, gs, last, *args), kept = _drop_rows(
                failed, lost, rows, (image, x, xs, gs, last, *args), kept
            )
            if not rows.size:
                break
        gs[..., :-1, :] = gs[..., 1:, :] if it else image[..., None, :]
        gs[..., -1, :] = image
        if it:
            change = _step_norm(x - last)
            if change.ndim == image.ndim:  # the smoother's step axis: its largest change
                change = change.max(-1)
            done = change < cfg.tol
        else:
            done = np.zeros(image.shape[:-1], dtype=bool)
        iterations[rows] += 1
        lam = _anderson_step(xs, gs, upper)
        leaving = done | (it + 1 == cfg.max_iterations)
        if leaving.any():
            # one row leaves once, at the end; a stack writes the rows leaving
            at, part = (rows[leaving], leaving) if batch else (..., ...)
            for whole, o in zip((*out, next_lam, converged), (*kept, lam, done)):
                whole[at] = o[part]
            if leaving.all():
                break
            rows, lam, x, xs, gs, *args = (a[~leaving] for a in (rows, lam, x, xs, gs, *args))
        last = x
    return out, next_lam, iterations, converged, failed


def _stf_update_rows(model, x_prior, p_prior, y, c_mat, cfg=VBConfig()) -> tuple:
    """The VB loop of stf_update (_vb_loop), for one row or a lockstep
    stack of rows, each with its own measurement matrix.

    x_prior (..., n_x), p_prior (..., n_x, n_x), y (..., n_y) and c_mat
    (..., n_y, n_x) hold the rows, with a leading shape () for one row or
    (B,) for a stack; model supplies Delta, R and nu.  Only the mixing
    precisions change between iterations, so the half of the augmented
    update that does not depend on them (_prior_terms) runs once, and the
    loop carries its arrays as args, which it thins with the rows; each
    iteration runs _lambda_update.  Returns the posterior augmented means
    (..., n) and covariances (..., n, n), the mixing precisions (..., n_y)
    the last update ran with, the psi statistic (..., n_y) of the last
    posterior, the VB iteration counts and the convergence flags, then
    the outcomes of the rows of a stack (_vb_loop): a dict of each failed
    row and its error, which the recursion this update runs in owns.  One
    row raises its error.
    """
    n_x = x_prior.shape[-1]

    def update(y, cpc, zct, cz, z_prior_mean, z_prior_cov, innovation, lam):
        mean, cov, failed = _lambda_update(
            cpc, zct, cz, z_prior_mean, z_prior_cov, innovation, model.Delta, model.R, lam
        )
        psi = _psi_diagonal(y, cz, mean, cov, model.R, n_x)
        image = expected_mixing_precision(model.nu, psi)
        return (mean, cov, lam, psi), image, mean[..., :n_x], failed

    args = (y, *_prior_terms(x_prior, p_prior, y, c_mat, _stack_cz(c_mat, model.Delta)))
    out, _, iterations, converged, failed = _vb_loop(
        update, args, np.ones(y.shape), (model.nu + 2.0) / model.nu, cfg
    )
    return (*out, iterations, converged, failed)


def _stf_pair(model, mean, cov, lam, psi, iterations, converged) -> tuple:
    """The (GaussianBelief, VBStepDiagnostics) of one row's outputs of
    _stf_update_rows: the x marginal of the augmented posterior and the
    loop diagnostics."""
    n_x = model.n_x
    belief = GaussianBelief(mean[:n_x], symmetrize(cov[:n_x, :n_x]))
    diag = VBStepDiagnostics(
        iterations=int(iterations),
        lambda_diag=lam,
        psi_diag=psi,
        u_mean=mean[n_x:],
        u_cov=cov[n_x:, n_x:],
        converged=bool(converged),
    )
    return belief, diag


def stf_update(
    model: StateSpaceModel,
    prior: GaussianBelief,
    y: np.ndarray,
    cfg: VBConfig = VBConfig(),
) -> tuple:
    """VB measurement update of a state belief against one measurement.

    Alternates the joint update of [x; u] (with the current expected
    mixing precisions), truncated in the paper's greedy order
    (_augmented_update), and the mixing-precision refresh, starting
    from unit precisions, until the state mean stabilizes.  The precision
    sequence is Anderson-extrapolated, which speeds up the approach to the
    same stationary point without changing it.  Returns the normal
    approximation of the x marginal and the loop diagnostics.  A
    non-finite y raises NumericalFailureError.
    """
    y = _finite(_vector("y", y, model.n_y))
    if prior.dim != model.n_x:
        raise ValueError(f"prior dimension {prior.dim} != n_x {model.n_x}")
    return _stf_pair(model, *_stf_update_rows(model, prior.mean, prior.cov, y, model.C, cfg)[:-1])


def _stf_run_rows(model: StateSpaceModel, n_rows: int, n_steps: int, measure, cfg) -> list:
    """The skew-t filter of n_rows trajectories in lockstep: _filter_rows
    with the update _stf_update_rows; stf_run is its one-row call.

    Returns the stacks (n_rows, n_steps, ...) of _stf_update_rows'
    outputs (the augmented posterior means and covariances, the mixing
    precisions, psi, the VB iteration counts and the convergence flags),
    then the outcomes (_filter_rows).  Each row is bit-equal to the same
    trajectory filtered alone.  The augmented
    covariances come out of the truncation exactly symmetric, so the time
    update reads their x block as the symmetrized one stf_update returns.
    """

    def update(x, p, c_mat, y):
        return _stf_update_rows(model, x, p, y, c_mat, cfg)

    return _filter_rows(model, n_rows, n_steps, measure, update)


def stf_run(model: StateSpaceModel, ys, cfg: VBConfig = VBConfig()) -> list:
    """Filter a measurement sequence, alternating stf_update and predict.

    Returns one (GaussianBelief, VBStepDiagnostics) pair per measurement.
    """
    ys = _vectors("ys", ys, model.n_y)
    if not ys:
        return []
    source = _linear_source(model, np.stack(ys)[None])
    rows = _one_row(*_stf_run_rows(model, 1, len(ys), source, cfg))
    return [_stf_pair(model, *step) for step in zip(*(a[0] for a in rows))]
