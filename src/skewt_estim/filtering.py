"""Variational-Bayes filter for linear models with skew-t measurement noise.

The measurement update treats the state x and the per-component skewness
offsets u as one jointly normal block and the diagonal mixing precisions
as an independent Gamma block, alternating two closed-form updates:

  * given the expected mixing precisions, a Kalman update of the augmented
    [x; u] belief followed by recursive truncation of the u block to the
    positive orthant;
  * given the truncated moments, a refresh of the expected mixing
    precisions (nu_i + 2) / (nu_i + psi_i) from the per-component residual
    statistic psi.

The loop stops when the state mean moves less than the configured
tolerance between successive updates.  A normal approximation of the x
marginal is carried to the next time step.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import solve_spd, symmetrize
from .exceptions import NumericalFailureError
from .skewt import NoiseModel, SkewTComponent
from .truncnorm import (
    OPTIMAL,
    MomentPair,
    TruncationOrderPolicy,
    _rec_trunc_rows,
    rec_trunc,
)

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
            object.__setattr__(self, name, value)
        n_x = self.A.shape[0]
        n_y = self.C.shape[0]
        if self.A.shape != (n_x, n_x) or self.Q.shape != (n_x, n_x):
            raise ValueError("A and Q must be square and equally sized")
        if self.C.shape != (n_y, n_x):
            raise ValueError(f"C shape {self.C.shape} inconsistent with A")
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

    def noise_model(self) -> NoiseModel:
        """The measurement noise as independent skew-t components."""
        return NoiseModel(
            tuple(
                SkewTComponent(spread_sq=r, shape=d, dof=v)
                for r, d, v in zip(self.R, self.Delta, self.nu)
            )
        )


@dataclass(frozen=True)
class VBConfig:
    """Iteration control for the VB measurement update.

    Convergence is declared when the Euclidean norm of the change in the
    state mean between successive updates falls below `tol`.
    """

    max_iterations: int = 30
    tol: float = 1e-4

    def __post_init__(self):
        if self.max_iterations < 1:
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


class _AndersonMixer:
    """Small-window Anderson extrapolation of a fixed-point sequence.

    Accelerates the mixing-precision iteration toward its (unchanged)
    stationary point using the secant information of the last few
    (iterate, map image) pairs.  Falls back to the plain image when the
    residual differences are degenerate, so converged sequences are left
    untouched.
    """

    def __init__(self, upper: np.ndarray, depth: int = 3):
        self.upper = upper
        self.depth = depth
        self._xs = []
        self._gs = []

    def push(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        # Copies, so that a caller updating x or g in place keeps the history.
        self._xs.append(np.array(x, dtype=float))
        self._gs.append(np.array(g, dtype=float))
        self._xs = self._xs[-self.depth :]
        self._gs = self._gs[-self.depth :]
        if len(self._xs) < 2:
            return g
        residuals = np.stack(self._gs) - np.stack(self._xs)
        d_res = residuals[1:] - residuals[:-1]
        if not np.any(d_res):
            return g
        gamma = np.linalg.lstsq(d_res.T, residuals[-1], rcond=None)[0]
        images = np.stack(self._gs)
        mixed = images[-1] - gamma @ (images[1:] - images[:-1])
        return np.clip(mixed, 1e-12, self.upper)


def predict(model: StateSpaceModel, b: GaussianBelief) -> GaussianBelief:
    """Time update: mean' = A mean, cov' = A cov A^T + Q (re-symmetrized)."""
    mean = model.A @ b.mean
    cov = symmetrize(model.A @ b.cov @ model.A.T + model.Q)
    return GaussianBelief(mean, cov)


def _augmented_update(x_pred, p_pred, y, c_mat, delta, r, lam, policy):
    """One truncated Kalman update of the joint [x; u] belief.

    Returns (posterior MomentPair, augmented prior MomentPair).  The
    augmented prior stacks the state prediction with the zero-mean u prior
    of covariance diag(1/lam); the gain is computed against the full
    augmented prior covariance.
    """
    n_x = x_pred.size
    n_y = y.size
    lam_inv = 1.0 / lam

    pct = p_pred @ c_mat.T
    s = c_mat @ pct + np.diag(delta**2 * lam_inv + r * lam_inv)
    zct = np.vstack([pct, np.diag(delta * lam_inv)])
    gain = solve_spd(s, zct.T, what="innovation covariance").T

    z_prior_mean = np.concatenate([x_pred, np.zeros(n_y)])
    z_prior_cov = np.zeros((n_x + n_y, n_x + n_y))
    z_prior_cov[:n_x, :n_x] = p_pred
    z_prior_cov[n_x:, n_x:] = np.diag(lam_inv)

    cz = np.hstack([c_mat, np.diag(delta)])
    z_mean = z_prior_mean + gain @ (y - c_mat @ x_pred)
    z_cov = z_prior_cov - gain @ (cz @ z_prior_cov)  # rec_trunc symmetrizes it

    post = rec_trunc(
        MomentPair(z_mean, z_cov), range(n_x, n_x + n_y), policy
    )
    return post, MomentPair(z_prior_mean, z_prior_cov)


# From this many rows on, _augmented_update_rows truncates in lockstep.  A
# lone row runs the scalar _augmented_update, at about half the cost of the
# lockstep kernel (12 dims, 8 constraints); with lone rows in lockstep too,
# the track_sweep benchmark ran 5% slower, and a threshold of 3 measured
# the same as 2.
_LOCKSTEP_MIN_ROWS = 2


def _diag_rows(v: np.ndarray) -> np.ndarray:
    """np.diag of the last axis: (..., n) -> (..., n, n)."""
    n = v.shape[-1]
    out = np.zeros(v.shape + (n,))
    out[..., range(n), range(n)] = v
    return out


def _stack_cz(c_mat, delta):
    """[C, diag(delta)] for each measurement matrix of a stack."""
    d = np.broadcast_to(np.diag(delta), c_mat.shape[:-1] + (delta.size,))
    return np.concatenate([c_mat, d], axis=-1)


def _augmented_update_rows(x_pred, p_pred, y, c_mat, delta, r, lam):
    """_augmented_update (greedy order) of B rows.

    x_pred (B, n_x), p_pred (B, n_x, n_x), y (B, n_y), c_mat (B, n_y, n_x)
    and lam (B, n_y) stack the rows; delta and r are shared.  Returns the
    posterior and augmented prior (mean, cov) stacks.  Fewer than
    _LOCKSTEP_MIN_ROWS rows run _augmented_update; from there on the rows
    run in lockstep, with the scalar operand layouts and one solve_spd per
    row, so every row is bit-equal to _augmented_update and fails the
    same way.
    """
    if len(y) < _LOCKSTEP_MIN_ROWS:
        pairs = [
            _augmented_update(x_pred[b], p_pred[b], y[b], c_mat[b], delta, r, lam[b], OPTIMAL)
            for b in range(len(y))
        ]
        columns = zip(*((post.mean, post.cov, prior.mean, prior.cov) for post, prior in pairs))
        return tuple(np.array(a) for a in columns)
    n_x = x_pred.shape[1]
    n_y = y.shape[1]
    lam_inv = 1.0 / lam

    pct = p_pred @ c_mat.swapaxes(1, 2)
    s = c_mat @ pct + _diag_rows(delta**2 * lam_inv + r * lam_inv)
    zct = np.concatenate([pct, _diag_rows(delta * lam_inv)], axis=1)
    gain = np.stack([
        solve_spd(s_b, zct_b.T, what="innovation covariance").T
        for s_b, zct_b in zip(s, zct)
    ])

    z_prior_mean = np.concatenate([x_pred, np.zeros_like(y)], axis=1)
    z_prior_cov = np.zeros((len(y), n_x + n_y, n_x + n_y))
    z_prior_cov[:, :n_x, :n_x] = p_pred
    z_prior_cov[:, n_x:, n_x:] = _diag_rows(lam_inv)

    cz = _stack_cz(c_mat, delta)
    innovation = y - (c_mat @ x_pred[..., None])[..., 0]
    z_mean = z_prior_mean + (gain @ innovation[..., None])[..., 0]
    z_cov = z_prior_cov - gain @ (cz @ z_prior_cov)
    post_mean, post_cov = _rec_trunc_rows(z_mean, z_cov, range(n_x, n_x + n_y))
    return post_mean, post_cov, z_prior_mean, z_prior_cov


def _psi_diagonal(y, cz, z_mean, z_cov, r, u_mean, u_cov):
    """Diagonal of the residual statistic feeding the mixing update."""
    resid = y - cz @ z_mean
    quad = np.einsum("ij,jk,ik->i", cz, z_cov, cz)
    return (resid**2 + quad) / r + u_mean**2 + np.diag(u_cov)


def stf_update(
    model: StateSpaceModel,
    prior: GaussianBelief,
    y: np.ndarray,
    cfg: VBConfig = VBConfig(),
    order_policy: TruncationOrderPolicy = OPTIMAL,
) -> tuple:
    """VB measurement update of a state belief against one measurement.

    Alternates the truncated joint update of [x; u] (with the current
    expected mixing precisions) and the mixing-precision refresh, starting
    from unit precisions, until the state mean stabilizes.  The precision
    sequence is Anderson-extrapolated, which speeds up the approach to the
    same stationary point without changing it.  Returns the normal
    approximation of the x marginal and the loop diagnostics.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    n_x, n_y = model.n_x, model.n_y
    if y.shape != (n_y,):
        raise ValueError(f"y must have length {n_y}, got shape {y.shape}")
    if prior.dim != n_x:
        raise ValueError(f"prior dimension {prior.dim} != n_x {n_x}")

    cz = np.hstack([model.C, np.diag(model.Delta)])
    lam = np.ones(n_y)
    mixer = _AndersonMixer(upper=(model.nu + 2.0) / model.nu)
    x_prev = None
    converged = False
    iterations = 0
    for _ in range(cfg.max_iterations):
        lam_used = lam
        post, _ = _augmented_update(
            prior.mean, prior.cov, y, model.C, model.Delta, model.R, lam, order_policy
        )
        iterations += 1
        x_new = post.mean[:n_x]
        u_mean = post.mean[n_x:]
        u_cov = post.cov[n_x:, n_x:]
        psi = _psi_diagonal(y, cz, post.mean, post.cov, model.R, u_mean, u_cov)
        lam = mixer.push(lam, expected_mixing_precision(model.nu, psi))
        if x_prev is not None and np.linalg.norm(x_new - x_prev) < cfg.tol:
            converged = True
            break
        x_prev = x_new

    belief = GaussianBelief(x_new, symmetrize(post.cov[:n_x, :n_x]))
    diag = VBStepDiagnostics(
        iterations=iterations,
        lambda_diag=lam_used,
        psi_diag=psi,
        u_mean=u_mean,
        u_cov=u_cov,
        converged=converged,
    )
    return belief, diag


def _stf_update_rows(model, x_prior, p_prior, y, c_mat, cfg=VBConfig()) -> tuple:
    """stf_update of B rows in lockstep, each with its own measurement matrix.

    x_prior (B, n_x), p_prior (B, n_x, n_x), y (B, n_y) and c_mat
    (B, n_y, n_x) stack the rows; model supplies Delta, R and nu.  A row
    leaves the loop when it converges, and each row has its own Anderson
    mixer, so row b is bit-equal to stf_update(replace(model,
    C=c_mat[b]), GaussianBelief(x_prior[b], p_prior[b]), y[b], cfg).
    Returns the posterior x means (B, n_x) and covariances (B, n_x, n_x),
    the VB iteration counts and the convergence flags.

    stf_update keeps its own loop for online use: run as this loop's
    one-row call it was 9% slower on the online_heavy benchmark workload.
    """
    n_rows, n_x = x_prior.shape
    n = n_x + y.shape[1]
    cz = _stack_cz(c_mat, model.Delta)
    lam = np.ones(y.shape)
    mean = np.empty((n_rows, n))
    cov = np.empty((n_rows, n, n))
    mixers = [_AndersonMixer(upper=(model.nu + 2.0) / model.nu) for _ in range(n_rows)]
    x_prev = [None] * n_rows
    iterations = np.zeros(n_rows, dtype=int)
    converged = np.zeros(n_rows, dtype=bool)
    active = np.arange(n_rows)
    for _ in range(cfg.max_iterations):
        post_mean, post_cov, _, _ = _augmented_update_rows(
            x_prior[active], p_prior[active], y[active], c_mat[active],
            model.Delta, model.R, lam[active],
        )
        iterations[active] += 1
        mean[active] = post_mean
        cov[active] = post_cov
        keep = []
        for j, b in enumerate(active):
            psi = _psi_diagonal(
                y[b], cz[b], post_mean[j], post_cov[j], model.R,
                post_mean[j, n_x:], post_cov[j, n_x:, n_x:],
            )
            lam[b] = mixers[b].push(lam[b], expected_mixing_precision(model.nu, psi))
            x_new = post_mean[j, :n_x]
            if x_prev[b] is not None and np.linalg.norm(x_new - x_prev[b]) < cfg.tol:
                converged[b] = True
            else:
                x_prev[b] = x_new
                keep.append(b)
        active = np.array(keep, dtype=int)
        if not keep:
            break
    return mean[:, :n_x], symmetrize(cov[:, :n_x, :n_x]), iterations, converged


def stf_run(model: StateSpaceModel, ys, cfg: VBConfig = VBConfig()) -> list:
    """Filter a measurement sequence, alternating stf_update and predict.

    Returns one (GaussianBelief, VBStepDiagnostics) pair per measurement.
    """
    belief = model.prior_belief()
    out = []
    for k, y in enumerate(ys):
        try:
            post, diag = stf_update(model, belief, y, cfg)
        except NumericalFailureError as err:
            raise NumericalFailureError(
                f"measurement update failed: {err}", step=k
            ) from err
        out.append((post, diag))
        belief = predict(model, post)
    return out
