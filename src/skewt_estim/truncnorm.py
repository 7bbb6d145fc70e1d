"""Moments of multivariate normals truncated to the positive orthant.

The truncation is applied one coordinate constraint {z_k >= 0} at a time:
the once-truncated distribution has closed-form mean and covariance (a
rank-one update of the input moments), and is re-approximated by a normal
with those moments before the next constraint is applied.  The result
depends on the order in which constraints are processed; the greedy order
that removes the most probability mass at each step (equivalently, picks
the smallest standardized mean mu_i / sqrt(Sigma_ii)) is the per-step
optimum in Kullback-Leibler divergence.

The moments go in as a mean vector and a covariance matrix, and the
functions that return moments return a (mean, cov) tuple of arrays, one
row as rec_trunc or a stack of rows as _rec_trunc_rows; rec_trunc checks
its input, then runs the private one-row kernel _rec_trunc_row, which the
filter's update calls directly on moments it owns.  A seeded
sampling oracle (rejection with a Gibbs fallback) provides independent
reference moments for testing and benchmarking.
"""

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from ._linalg import symmetrize
from .exceptions import DegenerateDirectionError, NumericalFailureError, OracleInfeasibleError

__all__ = [
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

_LOG_SQRT_2PI = float(0.5 * np.log(2.0 * np.pi))

# Below this value the normal CDF is treated as underflowed and the
# asymptotic limits of the update coefficients are used instead.
UNDERFLOW_XI = -37.0


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


def hazard(xi: float) -> tuple:
    """Truncation-update coefficients (mean_coeff, cov_coeff, underflowed)
    for standardized boundary distance xi.

    For representable Phi(xi), mean_coeff is the inverse Mills ratio
    epsilon = phi(xi)/Phi(xi), which scales the mean shift along the
    truncated column, and cov_coeff = xi*epsilon + epsilon**2, in [0, 1],
    scales the rank-one covariance downdate.  For xi < -37 (where Phi
    underflows in double precision) the limits epsilon + xi -> 0 and
    xi*epsilon + epsilon**2 -> 1 are substituted, and underflowed is True.
    A non-finite xi raises NumericalFailureError.
    """
    if not math.isfinite(xi):
        raise NumericalFailureError(f"truncation distance is not finite, got {xi!r}")
    if xi < UNDERFLOW_XI:
        return -xi, 1.0, True
    # np.exp, not math.exp: only numpy's bits are those of the stacked kernel.
    eps = float(np.exp(-0.5 * xi * xi - _LOG_SQRT_2PI - log_ndtr(xi)))
    return eps, min(max(xi * eps + eps * eps, 0.0), 1.0), False


def _greedy_index(mu: list, var: list, left: list) -> int:
    """Index in the ascending list `left` with the smallest
    mu[i] / sqrt(var[i]), on Python floats: lowest on ties, and the first
    NaN wins (np.argmin's rule)."""
    best, k = 0.0, -1
    for i in left:
        v = var[i]
        if v <= 0.0:
            raise DegenerateDirectionError("nonpositive variance in remaining directions")
        r = mu[i] / math.sqrt(v)
        if k < 0 or r < best or (r != r and best == best):
            best, k = r, i
    return k


def _truncate_rows(mean, cov, diag, active, base, tol0) -> None:
    """One greedy step of every row of a (B, n) / (B, n, n) stack, in place.

    `diag` is the diagonal view of cov, `base` the flat offsets b * n of
    the rows and `tol0` 1e-14 times the traces of cov when the
    _rec_trunc_rows call began.  Per row this is a step of _rec_trunc_row,
    with the same operations and checks, so each row stays bit-equal to
    the scalar kernel; the exception of the first
    failing row is raised, with the same message, and names that row.
    The covariances must be exactly symmetric (rec_trunc keeps them so),
    which lets row k stand for column k.
    """
    n = mean.shape[1]
    var = np.where(active, diag, 1.0)
    if np.count_nonzero(var <= 0.0):
        raise DegenerateDirectionError(
            "nonpositive variance in remaining directions", row=int((var <= 0.0).any(1).argmax())
        )
    k = np.where(active, mean / np.sqrt(var), np.inf).argmin(axis=1)
    flat = base + k
    if np.count_nonzero(active.take(flat)) < len(base):
        # Every active ratio of such a row is +inf; the scalar argmin over
        # the active set takes the lowest active index.
        k = np.where(active.take(flat), k, active.argmax(axis=1))
        flat = base + k
    active.put(flat, False)

    var_k = var.take(flat)
    if np.count_nonzero(var_k <= tol0):
        # The traces only fall (see _rec_trunc_row), so only these rows
        # can fail against their current trace.
        tol = 1e-14 * cov.trace(axis1=1, axis2=2)
        if np.count_nonzero(var_k <= tol):
            b = int((var_k <= tol).argmax())
            raise DegenerateDirectionError(
                f"direction {k[b]} has variance {var_k[b]:.3e} <= tolerance {tol[b]:.3e}", row=b
            )
    sd = np.sqrt(var_k)
    xi = mean.take(flat) / sd
    if np.count_nonzero(np.isfinite(xi)) < len(base):
        b = int(np.isfinite(xi).argmin())
        bad = float(xi[b])
        raise NumericalFailureError(f"truncation distance is not finite, got {bad!r}", row=b)
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


def _indices(indices: Iterable[int], dim: int) -> list:
    """The distinct indices in ascending order, checked to lie in [0, dim)."""
    todo = sorted({int(i) for i in indices})
    if todo and (todo[0] < 0 or todo[-1] >= dim):
        raise ValueError(f"truncated indices {todo} out of range for dim {dim}")
    return todo


def _moments(mean, cov) -> tuple:
    """mean and cov as float arrays, checked to be an (n,) vector and an
    (n, n) matrix."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
        raise ValueError(f"inconsistent shapes: mean {mean.shape}, cov {cov.shape}")
    return mean, cov


def _rec_trunc_rows(mean: np.ndarray, cov: np.ndarray, truncated) -> tuple:
    """rec_trunc(..., OPTIMAL) of B rows in lockstep: (B, n) means and
    (B, n, n) covariances, one truncated index set for all rows.

    Row b of the returned (mean, cov) is bit-equal to
    rec_trunc(mean[b], cov[b], truncated).  For a single row rec_trunc
    itself is faster.
    """
    todo = _indices(truncated, mean.shape[1])
    mean, cov = mean.copy(), symmetrize(cov)
    active = np.zeros(mean.shape, dtype=bool)
    active[:, todo] = True
    diag = cov.diagonal(axis1=1, axis2=2)
    base = np.arange(mean.shape[0]) * mean.shape[1]
    tol0 = 1e-14 * cov.trace(axis1=1, axis2=2)
    for _ in todo:
        _truncate_rows(mean, cov, diag, active, base, tol0)
    return mean, cov


def truncate_once(mean, cov, k: int) -> tuple:
    """(mean, cov) of N(mean, cov) truncated by the single constraint z_k >= 0.

    The covariance is symmetrized first.  Raises DegenerateDirectionError
    when cov[k, k] is not usably positive (<= 1e-14 * trace).
    """
    mean, cov = _moments(mean, cov)
    todo = _indices([k], mean.size)
    return _rec_trunc_row(mean.copy(), symmetrize(cov), todo, FixedOrder(todo))


def select_next(mean, cov, remaining: Iterable[int]) -> int:
    """Index in `remaining` with the smallest mu_i / sqrt(Sigma_ii).

    This is the constraint that truncates the most probability mass, the
    per-step optimal choice.  Ties break to the lowest index.
    """
    mean, cov = _moments(mean, cov)
    left = _indices(remaining, mean.size)
    if not left:
        raise ValueError("remaining index set is empty")
    return _greedy_index(mean.tolist(), cov.diagonal().tolist(), left)


def rec_trunc(
    mean,
    cov,
    truncated: Iterable[int],
    policy: TruncationOrderPolicy = OPTIMAL,
) -> tuple:
    """Recursive truncation of N(mean, cov) to {z_i >= 0 for i in truncated}.

    Symmetrizes the covariance once (each rank-one downdate by
    outer(col, col) keeps it exactly symmetric), then applies one
    truncation step per index in `truncated`, in the order `policy` picks,
    and returns the truncated (mean, cov); with no index it returns the
    float arrays of its input.  With the default Optimal policy the result
    is bit-reproducible.  The order and the step coefficients are worked
    out on Python floats; only the downdates run in numpy.

    This checks the input and copies it; the steps are _rec_trunc_row's,
    which the filter's one-row update calls on its own fresh moments.
    """
    mean, cov = _moments(mean, cov)
    todo = _indices(truncated, mean.size)
    if not todo:
        return mean, cov
    if isinstance(policy, FixedOrder) and sorted(policy.order) != todo:
        raise ValueError(f"fixed order {policy.order} is not a permutation of {todo}")
    return _rec_trunc_row(mean.copy(), symmetrize(cov), todo, policy)


def _rec_trunc_row(mean: np.ndarray, cov: np.ndarray, todo, policy=OPTIMAL) -> tuple:
    """The steps of rec_trunc, in place on a float (n,) mean and an exactly
    symmetric (n, n) cov, which it returns.

    todo holds the truncated indices, distinct, ascending and in range,
    and a FixedOrder policy is a permutation of them: rec_trunc checks
    both, and the filter's update passes range(n_x, n).  Each step picks
    k by _greedy_index (unless the policy picks otherwise) on Python
    floats, then applies z_k >= 0: the mean moves along row k, which is
    column k, and cov takes the rank-one downdate (c / var) (col col^T)
    through one (n, n) buffer, which keeps it exactly symmetric.  An
    error is rec_trunc's, with its message.
    """
    fixed = isinstance(policy, FixedOrder)
    rng = np.random.default_rng(policy.seed) if isinstance(policy, RandomOrder) else None
    diag = cov.diagonal()
    tol0 = 1e-14 * float(cov.trace())
    buf = np.empty(cov.shape)
    left = list(todo)
    for step in range(len(left)):
        mu, var = mean.tolist(), diag.tolist()
        if fixed:
            k = policy.order[step]
        else:
            k = _greedy_index(mu, var, left)
            if rng is not None and len(left) > 1:
                others = [i for i in left if i != k]
                k = others[rng.integers(len(others))]
        left.remove(k)
        var_k = var[k]
        if var_k <= tol0:
            # Above tol0 the check against the current trace cannot fail:
            # each downdate subtracts fl(c * col_i**2) >= 0 (c in [0, 1])
            # from a diagonal entry, rounded subtraction of a non-negative
            # number never increases a value, and a rounded sum is monotone
            # in each term, so no later trace exceeds the first (a NaN one
            # never raises).
            tol = 1e-14 * float(cov.trace())
            if var_k <= tol:
                raise DegenerateDirectionError(
                    f"direction {k} has variance {var_k:.3e} <= tolerance {tol:.3e}"
                )
        # A nonpositive variance above the tolerance (a negative trace)
        # takes numpy's sqrt, whose NaN or zero hazard reports.
        sd = math.sqrt(var_k) if var_k > 0.0 else np.sqrt(np.float64(var_k))
        mean_coeff, cov_coeff, _ = hazard(float(mu[k] / sd))
        col = cov[k]  # a view, read in full before cov is updated
        mean += (mean_coeff / sd) * col
        np.multiply(col[:, None], col, out=buf)
        buf *= cov_coeff / var_k
        cov -= buf
    return mean, cov


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


# The Gibbs fallback of tmnd_oracle: parallel chains, discarded sweeps,
# and the spacing of the kept sweeps.
GIBBS_CHAINS = 100
GIBBS_BURN_IN = 200
GIBBS_THIN = 10


def _gibbs_oracle(mean, cov, todo, n_samples, rng):
    """Coordinate-wise Gibbs sampling of the truncated normal.

    Runs GIBBS_CHAINS independent chains in parallel (vectorized across
    chains), discarding GIBBS_BURN_IN sweeps and keeping every
    GIBBS_THIN-th sweep afterwards until n_samples draws are collected in
    total.
    """
    dim = mean.size
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

    z = np.tile(mean, (GIBBS_CHAINS, 1))
    z[:, truncated] = np.abs(z[:, truncated]) + 0.1 * np.sqrt(
        np.diag(cov)[truncated]
    )

    per_chain = -(-n_samples // GIBBS_CHAINS)  # ceil
    kept = np.empty((per_chain * GIBBS_CHAINS, dim))
    n_kept = 0
    sweeps = GIBBS_BURN_IN + GIBBS_THIN * per_chain
    rest_idx = [[j for j in range(dim) if j != i] for i in range(dim)]
    for sweep in range(sweeps):
        for i in range(dim):
            cm = mean[i] + (z[:, rest_idx[i]] - mean[rest_idx[i]]) @ weights[i]
            if truncated[i]:
                z[:, i] = _sample_truncnorm_positive(rng, cm, cond_sd[i])
            else:
                z[:, i] = cm + cond_sd[i] * rng.standard_normal(GIBBS_CHAINS)
        if sweep >= GIBBS_BURN_IN and (sweep - GIBBS_BURN_IN) % GIBBS_THIN == GIBBS_THIN - 1:
            kept[n_kept : n_kept + GIBBS_CHAINS] = z
            n_kept += GIBBS_CHAINS
    samples = kept[:n_kept][:n_samples]
    if samples.shape[0] < n_samples:
        raise OracleInfeasibleError("Gibbs sampler produced too few samples")
    return samples


def tmnd_oracle(
    mean,
    cov,
    truncated: Iterable[int],
    n_samples: int,
    seed: int,
) -> tuple:
    """Sampling-based reference (mean, cov) of the truncated normal.

    Draws from N(mean, cov) by rejection, keeping proposals whose truncated
    coordinates are all nonnegative, until `n_samples` draws are accepted.
    If the empirical acceptance rate falls below 1e-3 after 1e5 proposals
    the method switches to coordinate-wise Gibbs sampling.  Deterministic
    for a given seed.
    """
    mean, cov = _moments(mean, cov)
    n_samples = int(n_samples)
    if n_samples < 1000:
        raise ValueError(f"n_samples must be >= 1000, got {n_samples}")
    todo = _indices(truncated, mean.size)
    rng = np.random.default_rng(seed)

    w, v = np.linalg.eigh(symmetrize(cov))
    factor = v * np.sqrt(np.clip(w, 0.0, None))

    def draw(n):
        return mean + rng.standard_normal((n, mean.size)) @ factor.T

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
            samples = _gibbs_oracle(mean, cov, todo, n_samples, rng)
            return _empirical_moments(samples)
        if n_acc < n_samples:
            remaining = n_samples - n_acc
            batch = int(min(4_000_000, max(100_000, 1.1 * remaining / rate)))
    samples = np.concatenate(accepted, axis=0)[:n_samples]
    return _empirical_moments(samples)


def _empirical_moments(samples: np.ndarray) -> tuple:
    cov = np.atleast_2d(np.cov(samples, rowvar=False))
    return samples.mean(axis=0), symmetrize(cov)
