"""Moments of multivariate normals truncated to the positive orthant.

The truncation is applied one coordinate constraint {z_k >= 0} at a time:
the once-truncated distribution has closed-form mean and covariance (a
rank-one update of the input moments), and is re-approximated by a normal
with those moments before the next constraint is applied.  The result
depends on the order in which constraints are processed; the greedy order
that removes the most probability mass at each step (equivalently, picks
the smallest standardized mean mu_i / sqrt(Sigma_ii)) is the per-step
optimum in Kullback-Leibler divergence.

A seeded sampling oracle (rejection with a Gibbs fallback) provides
independent reference moments for testing and benchmarking.
"""

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from ._linalg import symmetrize
from .exceptions import DegenerateDirectionError, OracleInfeasibleError

__all__ = [
    "MomentPair",
    "HazardResult",
    "TruncationOrderPolicy",
    "Optimal",
    "RandomOrder",
    "FixedOrder",
    "OPTIMAL",
    "hazard",
    "truncate_once",
    "select_next",
    "rec_trunc",
    "tmnd_oracle",
]

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)

# Below this value the normal CDF is treated as underflowed and the
# asymptotic limits of the update coefficients are used instead.
UNDERFLOW_XI = -37.0


@dataclass(frozen=True)
class MomentPair:
    """Mean vector and covariance matrix of a (possibly truncated) normal."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"inconsistent shapes: mean {mean.shape}, cov {cov.shape}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class HazardResult:
    """Coefficients of a single positive-orthant truncation update.

    ``epsilon`` is phi(xi)/Phi(xi) (or its asymptotic surrogate -xi when
    Phi(xi) underflows), ``mean_coeff`` scales the mean shift along the
    truncated column and ``cov_coeff`` scales the rank-one covariance
    downdate.  ``cov_coeff`` always lies in [0, 1].
    """

    epsilon: float
    mean_coeff: float
    cov_coeff: float
    underflowed: bool


class TruncationOrderPolicy:
    """Base class for constraint-ordering policies of rec_trunc."""


@dataclass(frozen=True)
class Optimal(TruncationOrderPolicy):
    """Greedy mass-removing order: at each step truncate the coordinate
    with the smallest standardized mean."""


@dataclass(frozen=True)
class RandomOrder(TruncationOrderPolicy):
    """Deliberately non-optimal order used as a comparison baseline: at
    each step one of the remaining constraints *other than* the greedy
    choice is picked uniformly at random (the greedy one is taken only
    when it is the sole constraint left)."""

    seed: int


@dataclass(frozen=True)
class FixedOrder(TruncationOrderPolicy):
    """Apply the constraints in a caller-supplied order.

    The order must be a permutation of the truncated index set.
    """

    order: tuple

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(int(i) for i in self.order))


OPTIMAL = Optimal()


def _coefficients(xi: float) -> tuple:
    """(mean_coeff, cov_coeff, underflowed) at boundary distance xi; see hazard."""
    if not np.isfinite(xi):
        raise ValueError(f"xi must be finite, got {xi!r}")
    if xi < UNDERFLOW_XI:
        return -xi, 1.0, True
    eps = float(np.exp(-0.5 * xi * xi - _LOG_SQRT_2PI - log_ndtr(xi)))
    return eps, min(max(xi * eps + eps * eps, 0.0), 1.0), False


def _truncate_step(mean: np.ndarray, cov: np.ndarray, k: int) -> None:
    """Apply the constraint z_k >= 0 to (mean, cov) in place."""
    var_k = cov[k, k]
    tol = 1e-14 * float(cov.trace())
    if var_k <= tol:
        raise DegenerateDirectionError(
            f"direction {k} has variance {var_k:.3e} <= tolerance {tol:.3e}"
        )
    sd = np.sqrt(var_k)
    mean_coeff, cov_coeff, _ = _coefficients(float(mean[k] / sd))
    col = cov[:, k]  # a view, read in full before cov is updated
    mean += (mean_coeff / sd) * col
    cov -= (cov_coeff / var_k) * (col[:, None] * col)


def _greedy_index(mean: np.ndarray, cov: np.ndarray, active: np.ndarray) -> int:
    """Active index with the smallest mu_i / sqrt(Sigma_ii), lowest on ties."""
    var = cov.diagonal()[active]
    if np.count_nonzero(var <= 0.0):
        raise DegenerateDirectionError("nonpositive variance in remaining directions")
    ratios = mean[active] / np.sqrt(var)
    return int(active.nonzero()[0][ratios.argmin()])


def _truncate_rows(mean, cov, active, rows) -> None:
    """One greedy step of every row of a (B, n) / (B, n, n) stack, in place.

    Per row this is _greedy_index then _truncate_step, with the same
    operations and checks, so each row stays bit-equal to the scalar
    kernel; the exception of the first failing row is raised.  The
    covariances must be exactly symmetric (rec_trunc keeps them so), which
    lets row k stand for column k.
    """
    n = mean.shape[1]
    var = np.where(active, cov.diagonal(axis1=1, axis2=2), 1.0)
    if np.count_nonzero(var <= 0.0):
        raise DegenerateDirectionError("nonpositive variance in remaining directions")
    k = np.where(active, mean / np.sqrt(var), np.inf).argmin(axis=1)
    flat = rows * n + k
    if np.count_nonzero(active.take(flat)) < len(rows):
        # Every active ratio of such a row is +inf; the scalar argmin over
        # the active set takes the lowest active index.
        k = np.where(active.take(flat), k, active.argmax(axis=1))
        flat = rows * n + k
    active.put(flat, False)

    var_k = var.take(flat)
    tol = 1e-14 * cov.trace(axis1=1, axis2=2)
    if np.count_nonzero(var_k <= tol):
        b = (var_k <= tol).argmax()
        raise DegenerateDirectionError(
            f"direction {k[b]} has variance {var_k[b]:.3e} <= tolerance {tol[b]:.3e}"
        )
    sd = np.sqrt(var_k)
    xi = mean.take(flat) / sd
    if np.count_nonzero(np.isfinite(xi)) < len(rows):
        raise ValueError(f"xi must be finite, got {xi[~np.isfinite(xi)][0]!r}")
    # Rows below UNDERFLOW_XI take the limits; clipping keeps their unused
    # closed-form values finite.
    xc = np.maximum(xi, UNDERFLOW_XI)
    eps = np.exp(-0.5 * xc * xc - _LOG_SQRT_2PI - log_ndtr(xc))
    cov_coeff = np.minimum(np.maximum(xc * eps + eps * eps, 0.0), 1.0)
    under = xi < UNDERFLOW_XI
    if np.count_nonzero(under):
        eps = np.where(under, -xi, eps)
        cov_coeff = np.where(under, 1.0, cov_coeff)
    col = cov.reshape(-1, n).take(flat, axis=0)
    mean += (eps / sd)[:, None] * col
    downdate = col[:, :, None] * col[:, None, :]
    downdate *= (cov_coeff / var_k)[:, None, None]
    cov -= downdate


def _rec_trunc_rows(mean: np.ndarray, cov: np.ndarray, truncated) -> tuple:
    """rec_trunc(..., OPTIMAL) of B rows in lockstep: (B, n) means and
    (B, n, n) covariances, one truncated index set for all rows.

    Row b of the returned (mean, cov) is bit-equal to
    rec_trunc(MomentPair(mean[b], cov[b]), truncated).  For a single row
    rec_trunc itself is faster.
    """
    todo = sorted({int(i) for i in truncated})
    mean, cov = mean.copy(), symmetrize(cov)
    active = np.zeros(mean.shape, dtype=bool)
    active[:, todo] = True
    rows = np.arange(mean.shape[0])
    for _ in todo:
        _truncate_rows(mean, cov, active, rows)
    return mean, cov


def hazard(xi: float) -> HazardResult:
    """Truncation-update coefficients for standardized boundary distance xi.

    For representable Phi(xi) this returns epsilon = phi(xi)/Phi(xi),
    mean_coeff = epsilon and cov_coeff = xi*epsilon + epsilon**2.  For
    xi < -37 (where Phi underflows in double precision) the limits
    epsilon + xi -> 0 and xi*epsilon + epsilon**2 -> 1 are substituted.
    """
    eps, cov_coeff, underflowed = _coefficients(float(xi))
    return HazardResult(eps, eps, cov_coeff, underflowed)


def truncate_once(m: MomentPair, k: int) -> MomentPair:
    """Moments of N(mean, cov) truncated by the single constraint z_k >= 0.

    The covariance is symmetrized first.  Raises DegenerateDirectionError
    when cov[k, k] is not usably positive (<= 1e-14 * trace).
    """
    mean, cov = m.mean.copy(), symmetrize(m.cov)
    _truncate_step(mean, cov, k)
    return MomentPair(mean, cov)


def select_next(m: MomentPair, remaining: Iterable[int]) -> int:
    """Index in `remaining` with the smallest mu_i / sqrt(Sigma_ii).

    This is the constraint that truncates the most probability mass, the
    per-step optimal choice.  Ties break to the lowest index.
    """
    active = np.zeros(m.dim, dtype=bool)
    active[[int(i) for i in remaining]] = True
    if not active.any():
        raise ValueError("remaining index set is empty")
    return _greedy_index(m.mean, m.cov, active)


def rec_trunc(
    m: MomentPair,
    truncated: Iterable[int],
    policy: TruncationOrderPolicy = OPTIMAL,
) -> MomentPair:
    """Recursive truncation of N(mean, cov) to {z_i >= 0 for i in truncated}.

    Symmetrizes the covariance once (each rank-one downdate by
    outer(col, col) keeps it exactly symmetric), then applies one
    truncation step per index in `truncated`, in the order `policy` picks.
    With the default Optimal policy the result is bit-reproducible.
    """
    todo = sorted({int(i) for i in truncated})
    if todo and (todo[0] < 0 or todo[-1] >= m.dim):
        raise ValueError(f"truncated indices {todo} out of range for dim {m.dim}")
    if not todo:
        return m
    fixed = isinstance(policy, FixedOrder)
    if fixed and sorted(policy.order) != todo:
        raise ValueError(f"fixed order {policy.order} is not a permutation of {todo}")
    random = isinstance(policy, RandomOrder)
    rng = np.random.default_rng(policy.seed) if random else None

    mean, cov = m.mean.copy(), symmetrize(m.cov)
    active = np.zeros(m.dim, dtype=bool)
    active[todo] = True
    for step in range(len(todo)):
        if fixed:
            k = policy.order[step]
        else:
            k = _greedy_index(mean, cov, active)
            if random and step < len(todo) - 1:
                others = [i for i in active.nonzero()[0] if i != k]
                k = int(others[rng.integers(len(others))])
        _truncate_step(mean, cov, k)
        active[k] = False
    return MomentPair(mean, cov)


def _sample_truncnorm_positive(rng, mean, sd):
    """Vectorized draws from N(mean, sd^2) conditioned on being >= 0.

    Uses the tail-mass inverse-CDF transform, which stays accurate for
    boundaries dozens of standard deviations into the tail; a shifted
    exponential rejection step covers the regime where even the tail mass
    underflows.
    """
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    alpha = -mean / sd  # standardized lower bound
    tail = ndtr(-alpha)
    t = tail * (1.0 - rng.random(np.broadcast(mean, sd).shape))
    with np.errstate(divide="ignore"):
        z = -ndtri(t)
    bad = ~np.isfinite(z)
    if np.any(bad):
        z = np.asarray(z, dtype=float)
        a = np.broadcast_to(alpha, z.shape)[bad]
        draws = np.empty(a.shape)
        todo = np.ones(a.shape, dtype=bool)
        for _ in range(1000):
            prop = a[todo] + rng.exponential(1.0 / a[todo])
            acc = rng.random(prop.shape) <= np.exp(-0.5 * (prop - a[todo]) ** 2)
            idx = np.flatnonzero(todo)
            draws[idx[acc]] = prop[acc]
            todo[idx[acc]] = False
            if not todo.any():
                break
        else:
            raise OracleInfeasibleError("tail sampler failed to terminate")
        z[bad] = draws
    return np.maximum(mean + sd * z, 0.0)


def _gibbs_oracle(m, todo, n_samples, rng, n_chains=100, burn_in=200, thin=10):
    """Coordinate-wise Gibbs sampling of the truncated normal.

    Runs `n_chains` independent chains in parallel (vectorized across
    chains), discarding `burn_in` sweeps and keeping every `thin`-th sweep
    afterwards until n_samples draws are collected in total.
    """
    dim = m.dim
    mean = m.mean
    cov = m.cov
    truncated = np.zeros(dim, dtype=bool)
    truncated[todo] = True

    # Conditional N(z_i | z_-i) parameters from the joint covariance.
    weights = np.empty((dim, dim - 1))
    cond_sd = np.empty(dim)
    for i in range(dim):
        rest = [j for j in range(dim) if j != i]
        try:
            w = np.linalg.solve(cov[np.ix_(rest, rest)], cov[rest, i])
        except np.linalg.LinAlgError as err:
            raise OracleInfeasibleError(
                f"degenerate covariance in Gibbs conditional {i}"
            ) from err
        cond_var = cov[i, i] - float(w @ cov[rest, i])
        if not np.isfinite(cond_var) or cond_var <= 0.0:
            raise OracleInfeasibleError(
                f"nonpositive conditional variance for coordinate {i}"
            )
        weights[i] = w
        cond_sd[i] = np.sqrt(cond_var)

    z = np.tile(mean, (n_chains, 1))
    z[:, truncated] = np.abs(z[:, truncated]) + 0.1 * np.sqrt(
        np.diag(cov)[truncated]
    )

    per_chain = -(-n_samples // n_chains)  # ceil
    kept = np.empty((per_chain * n_chains, dim))
    n_kept = 0
    sweeps = burn_in + thin * per_chain
    rest_idx = [[j for j in range(dim) if j != i] for i in range(dim)]
    for sweep in range(sweeps):
        for i in range(dim):
            cm = mean[i] + (z[:, rest_idx[i]] - mean[rest_idx[i]]) @ weights[i]
            if truncated[i]:
                z[:, i] = _sample_truncnorm_positive(rng, cm, cond_sd[i])
            else:
                z[:, i] = cm + cond_sd[i] * rng.standard_normal(n_chains)
        if sweep >= burn_in and (sweep - burn_in) % thin == thin - 1:
            kept[n_kept : n_kept + n_chains] = z
            n_kept += n_chains
    samples = kept[:n_kept][:n_samples]
    if samples.shape[0] < n_samples:
        raise OracleInfeasibleError("Gibbs sampler produced too few samples")
    return samples


def tmnd_oracle(
    m: MomentPair,
    truncated: Iterable[int],
    n_samples: int,
    seed: int,
) -> MomentPair:
    """Sampling-based reference moments of the truncated normal.

    Draws from N(mean, cov) by rejection, keeping proposals whose truncated
    coordinates are all nonnegative, until `n_samples` draws are accepted.
    If the empirical acceptance rate falls below 1e-3 after 1e5 proposals
    the method switches to coordinate-wise Gibbs sampling.  Deterministic
    for a given seed.
    """
    n_samples = int(n_samples)
    if n_samples < 1000:
        raise ValueError(f"n_samples must be >= 1000, got {n_samples}")
    todo = sorted({int(i) for i in truncated})
    if todo and (todo[0] < 0 or todo[-1] >= m.dim):
        raise ValueError(f"truncated indices {todo} out of range for dim {m.dim}")
    rng = np.random.default_rng(seed)

    w, v = np.linalg.eigh(symmetrize(m.cov))
    factor = v * np.sqrt(np.clip(w, 0.0, None))

    def draw(n):
        return m.mean + rng.standard_normal((n, m.dim)) @ factor.T

    if not todo:
        samples = draw(n_samples)
        return _empirical_moments(samples)

    accepted = []
    n_acc = 0
    n_prop = 0
    batch = 100_000
    while n_acc < n_samples:
        proposals = draw(batch)
        keep = proposals[np.all(proposals[:, todo] >= 0.0, axis=1)]
        n_prop += batch
        n_acc += keep.shape[0]
        if keep.shape[0]:
            accepted.append(keep)
        rate = n_acc / n_prop
        if n_prop >= 100_000 and rate < 1e-3:
            samples = _gibbs_oracle(m, todo, n_samples, rng)
            return _empirical_moments(samples)
        if n_acc < n_samples:
            remaining = n_samples - n_acc
            batch = int(min(4_000_000, max(100_000, 1.1 * remaining / rate)))
    samples = np.concatenate(accepted, axis=0)[:n_samples]
    return _empirical_moments(samples)


def _empirical_moments(samples: np.ndarray) -> MomentPair:
    mean = samples.mean(axis=0)
    cov = np.atleast_2d(np.cov(samples, rowvar=False))
    return MomentPair(mean, symmetrize(cov))
