"""Moments of multivariate normals truncated to the positive orthant.

The truncation is applied one coordinate constraint {z_k >= 0} at a time:
the once-truncated distribution has closed-form mean and covariance (a
rank-one update of the input moments), and is re-approximated by a normal
with those moments before the next constraint is applied.  The result
depends on the order in which constraints are processed; this layer takes
the greedy order, which removes the most probability mass at each step
(equivalently, picks the smallest standardized mean mu_i / sqrt(Sigma_ii))
and is the per-step optimum in Kullback-Leibler divergence.  Another
order is composed of one-index rec_trunc calls; bench.experiments builds
the random-order baseline of its ordering studies that way.

The moments go in as a mean vector and a covariance matrix, and the
functions that return moments return a (mean, cov) tuple of arrays, one
row as rec_trunc or a stack of rows as _rec_trunc_rows; rec_trunc checks
its input, then runs the private one-row kernel _rec_trunc_row, which the
filter's update calls directly on moments it owns.

A step fails a remaining direction as degenerate, with a
DegenerateDirectionError naming the direction, its variance and its
tolerance, when its variance is at most 1e-14 times its own variance at
the kernel's input, which a variance of zero or less always is.  The
rule is scale-free per direction, so a large variance elsewhere (a
down-weighted component's 1/lambda) fails no healthy direction, and a
remaining direction that a downdate collapses fails at the next step.

The seeded sampling oracle tmnd_oracle gives independent reference
moments for testing and benchmarking: the empirical moments of exact iid
draws by Botev's minimax tilting (Botev 2017, JRSS-B 79(1)), one
accept-reject sampler for every case.  The draws are exact when every
log-weight is at most psi* at a solved tilt, which the oracle makes sure
of or raises OracleInfeasibleError.  On criterion 3's cases it accepts
6.4% of the proposals at the least and 96% in the median.
"""

import math
import operator
from typing import Iterable

import numpy as np
from scipy.special import log_ndtr, ndtri_exp

from ._linalg import symmetrize
from .exceptions import DegenerateDirectionError, EstimationError, NumericalFailureError
from .exceptions import OracleInfeasibleError

__all__ = ["hazard", "select_next", "rec_trunc", "tmnd_oracle"]

_LOG_SQRT_2PI = float(0.5 * np.log(2.0 * np.pi))

# Below this value the normal CDF is treated as underflowed and the
# asymptotic limits of the update coefficients are used instead.
UNDERFLOW_XI = -37.0


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


def _greedy_index(mu: list, var: list, tol: list, left: list) -> int:
    """Index in the ascending list `left` with the smallest
    mu[i] / sqrt(var[i]), on Python floats: lowest on ties, and the first
    NaN wins (np.argmin's rule).  The first i in left whose variance is at
    most its tolerance tol[i] (1e-14 times its variance at the kernel's
    input, which a variance of zero or less always is) raises
    DegenerateDirectionError; a NaN variance passes, and hazard reports
    its NaN distance."""
    best, k = 0.0, -1
    for i in left:
        v = var[i]
        if v <= tol[i]:
            raise DegenerateDirectionError(
                f"direction {i} has variance {v:.3e} <= tolerance {tol[i]:.3e}"
            )
        r = mu[i] / math.sqrt(v)
        if k < 0 or r < best or (r != r and best == best):
            best, k = r, i
    return k


def _indices(indices: Iterable[int], dim: int) -> list:
    """The distinct indices in ascending order, checked to be integers
    (operator.index: Python or numpy ints, not floats) in [0, dim)."""
    try:
        todo = sorted({operator.index(i) for i in indices})
    except TypeError as err:
        raise ValueError(f"truncated indices must be integers: {err}") from None
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


def select_next(mean, cov, remaining: Iterable[int]) -> int:
    """Index in `remaining` with the smallest mu_i / sqrt(Sigma_ii).

    This is the constraint that truncates the most probability mass, the
    per-step optimal choice.  Ties break to the lowest index.
    """
    mean, cov = _moments(mean, cov)
    left = _indices(remaining, mean.size)
    if not left:
        raise ValueError("remaining index set is empty")
    diag = cov.diagonal()
    return _greedy_index(mean.tolist(), diag.tolist(), (1e-14 * diag).tolist(), left)


def rec_trunc(mean, cov, truncated: Iterable[int]) -> tuple:
    """Recursive truncation of N(mean, cov) to {z_i >= 0 for i in truncated}.

    Symmetrizes the covariance once (each rank-one downdate by
    outer(col, col) keeps it exactly symmetric), then applies one
    truncation step per index in `truncated`, in greedy order, and returns
    the truncated (mean, cov), bit-reproducibly; with no index it returns
    the float arrays of its input.  The order and the step coefficients
    are worked out on Python floats; only the downdates run in numpy.  A
    single index, rec_trunc(mean, cov, [k]), is the one step z_k >= 0.

    This checks the input and copies it; the steps are _rec_trunc_row's,
    which the filter's one-row update calls on its own fresh moments.
    """
    mean, cov = _moments(mean, cov)
    todo = _indices(truncated, mean.size)
    if not todo:
        return mean, cov
    return _rec_trunc_row(mean.copy(), symmetrize(cov), todo)


def _rec_trunc_row(mean: np.ndarray, cov: np.ndarray, todo) -> tuple:
    """The steps of rec_trunc, in place on a float (n,) mean and an exactly
    symmetric (n, n) cov, which it returns.

    todo holds the truncated indices, distinct, ascending and in range:
    rec_trunc checks them, and the filter's update passes range(n_x, n).
    Each step picks k by _greedy_index on Python floats, against the
    tolerances 1e-14 times the input diagonal, then applies z_k >= 0: the
    mean moves along row k, which is column k, and cov takes the rank-one
    downdate (c / var) (col col^T) through one (n, n) buffer, which keeps
    it exactly symmetric.  An error is rec_trunc's, with its message.
    """
    diag = cov.diagonal()
    tol = (1e-14 * diag).tolist()
    buf = np.empty(cov.shape)
    left = list(todo)
    for _ in todo:
        mu, var = mean.tolist(), diag.tolist()
        k = _greedy_index(mu, var, tol, left)
        left.remove(k)
        var_k = var[k]
        sd = math.sqrt(var_k)  # a NaN variance: hazard reports the NaN distance
        mean_coeff, cov_coeff, _ = hazard(float(mu[k] / sd))
        col = cov[k]  # a view, read in full before cov is updated
        mean += (mean_coeff / sd) * col
        np.multiply(col[:, None], col, out=buf)
        buf *= cov_coeff / var_k
        cov -= buf
    return mean, cov


def _rec_trunc_rows(mean: np.ndarray, cov: np.ndarray, truncated) -> tuple:
    """rec_trunc of B rows in lockstep: (B, n) means and (B, n, n)
    covariances, one truncated index set for all rows.

    Each step is a greedy step of _rec_trunc_row on every row at once,
    with the same operations and checks, so row b of the returned
    (mean, cov) is bit-equal to rec_trunc(mean[b], cov[b], truncated).
    A row that fails a check is zeroed and takes no more steps, so the
    steps stay finite for every row; its outcome is the error that
    rec_trunc raises on it, which _rec_trunc_row, run on its input, gives.
    Returns (mean, cov, failed), failed mapping each failed row to that
    error, empty when no row fails.  The covariances are exactly
    symmetric, which lets row k stand for column k.  One (B, n) array
    holds the tolerances of _rec_trunc_row for the remaining directions
    and -inf for the others, a truncated direction or a failed row's, so
    one comparison per step finds the rows that _greedy_index fails.  For
    a single row rec_trunc itself is faster.
    """
    n = mean.shape[1]
    todo = _indices(truncated, n)
    given, failed = (mean, cov), {}
    mean, cov = mean.copy(), symmetrize(cov)
    active = np.zeros(mean.shape, dtype=bool)
    active[:, todo] = True
    diag = cov.diagonal(axis1=1, axis2=2)
    base = np.arange(mean.shape[0]) * n
    tol = np.where(active, 1e-14 * diag, -np.inf)

    def fail(bad):
        for b in np.flatnonzero(bad):
            try:
                _rec_trunc_row(given[0][b].copy(), symmetrize(given[1][b]), todo)
            except EstimationError as err:
                failed[int(b)] = err
        mean[bad], cov[bad], active[bad], tol[bad] = 0.0, 0.0, False, -np.inf

    for _ in todo:
        var = np.where(active, diag, 1.0)
        if np.count_nonzero(var <= tol):
            fail((var <= tol).any(1))
            var = np.where(active, diag, 1.0)
        k = np.where(active, mean / np.sqrt(var), np.inf).argmin(axis=1)
        flat = base + k
        if np.count_nonzero(active.take(flat)) < len(base):
            # Every active ratio of such a row is +inf, or it has no active
            # one left; the scalar argmin over the active set takes the
            # lowest active index.
            k = np.where(active.take(flat), k, active.argmax(axis=1))
            flat = base + k
        active.put(flat, False)
        tol.put(flat, -np.inf)

        var_k = var.take(flat)
        sd = np.sqrt(var_k)
        xi = mean.take(flat) / sd
        if np.count_nonzero(np.isfinite(xi)) < len(base):
            bad = ~np.isfinite(xi)
            fail(bad)
            var_k[bad] = sd[bad] = 1.0
            xi[bad] = 0.0
        # Rows below UNDERFLOW_XI take the limits; clipping keeps their
        # unused closed-form values finite.
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
    return mean, cov, failed


def _mills(a):
    """phi(a) / Phi(-a), elementwise: the mean of a standard normal
    conditioned on >= a (0 at a = -inf)."""
    return np.exp(-0.5 * a * a - _LOG_SQRT_2PI - log_ndtr(-a))


def _tail_draws(rng, a):
    """One draw of a standard normal conditioned on >= a per entry of a.

    Inverts the upper tail in log space, so no bound underflows; at
    a = -inf it is a plain normal draw.
    """
    return -ndtri_exp(log_ndtr(-a) + np.log1p(-rng.random(a.shape)))


def _ordered_cholesky(cov, lower):
    """Genz-Bretz ordered Cholesky factor of cov under the lower bounds.

    Returns (fac, perm, z): fac is lower triangular with
    fac @ fac.T == cov[perm][:, perm], and z holds the conditional means
    of the standardized coordinates.  Step j takes next the remaining
    coordinate whose bound, given the means so far, keeps the least
    conditional mass.  A conditional variance at most 1e-12 times its
    marginal one raises OracleInfeasibleError.
    """
    d = lower.size
    cov, lower, perm = cov.copy(), lower.copy(), np.arange(d)
    fac, z = np.zeros((d, d)), np.zeros(d)
    for j in range(d):
        diag = cov.diagonal()[j:]
        var = diag - (fac[j:, :j] ** 2).sum(axis=1)
        if not np.all(var > 1e-12 * diag):
            raise OracleInfeasibleError("covariance is not positive definite")
        sd = np.sqrt(var)
        k = j + int(np.argmin(log_ndtr((fac[j:, :j] @ z[:j] - lower[j:]) / sd)))
        for a in (cov, cov.T, fac, lower, perm):  # coordinate k goes to j
            a[[j, k]] = a[[k, j]]
        fac[j, j] = sd[k - j]
        fac[j + 1 :, j] = (cov[j + 1 :, j] - fac[j + 1 :, :j] @ fac[j, :j]) / fac[j, j]
        z[j] = _mills((lower[j] - fac[j, :j] @ z[:j]) / fac[j, j])
    return fac, perm, z


def _psi(y, ls, lo, mu):
    """Botev's psi(y; mu) for each row of y: the log-weight of a draw y of
    the tilted proposal, and psi* at the saddle point.

    ls is the strictly lower part of the unit-diagonal factor, lo the
    scaled lower bounds and mu the tilt, its last entry 0.
    """
    return (log_ndtr(y @ ls.T + mu - lo) + 0.5 * mu * mu - y * mu).sum(axis=-1)


def _tilt_equations(v, ls, lo):
    """The gradient of psi in (x, mu) at v = [x[:-1], mu[:-1]] and its
    Jacobian; the last entries of x and mu do not enter psi and are 0."""
    d = lo.size
    x, mu = np.append(v[: d - 1], 0.0), np.append(v[d - 1 :], 0.0)
    lt = lo - mu - ls @ x
    p = _mills(lt)
    dp = p * (np.where(np.isinf(lt), 0.0, lt) - p)
    grad = np.concatenate([(p @ ls - mu)[:-1], (mu - x + p)[:-1]])
    dl = dp[:, None] * ls
    mx = (dl - np.eye(d))[:-1, :-1]
    jac = np.block([[(ls.T @ dl)[:-1, :-1], mx.T], [mx, np.diag(1.0 + dp[:-1])]])
    return grad, jac


def _minimax_tilt(cov, lower):
    """Botev's minimax tilt for N(0, cov) conditioned on >= lower.

    Returns (fac, perm, ls, lo, mu, psi_star): the ordered factor and its
    permutation, the strictly lower part of fac scaled to unit diagonal,
    the scaled bounds, the tilt and psi at the saddle point.  The tilt
    equations are solved by scipy.optimize.root from the conditional
    means; OracleInfeasibleError when it does not converge.
    """
    from scipy.optimize import root

    fac, perm, z = _ordered_cholesky(cov, lower)
    d = z.size
    ls = fac / fac.diagonal()[:, None] - np.eye(d)
    lo = lower[perm] / fac.diagonal()
    v = np.concatenate([z[:-1], np.zeros(d - 1)])
    if d > 1:
        sol = root(_tilt_equations, v, args=(ls, lo), jac=True)
        if not sol.success:
            raise OracleInfeasibleError(f"minimax tilt not solved: {sol.message}")
        v = sol.x
    mu = np.append(v[d - 1 :], 0.0)
    psi_star = float(_psi(np.append(v[: d - 1], 0.0), ls, lo, mu))
    return fac, perm, ls, lo, mu, psi_star


def _tilted_draws(rng, ls, lo, mu, n):
    """n draws (rows) of the tilted sequential proposal and their
    log-weights psi(y; mu)."""
    y = np.zeros((n, lo.size))
    for k in range(lo.size):
        y[:, k] = mu[k] + _tail_draws(rng, lo[k] - mu[k] - y[:, :k] @ ls[k, :k])
    return y, _psi(y, ls, lo, mu)


def tmnd_oracle(
    mean,
    cov,
    truncated: Iterable[int],
    n_samples: int,
    seed: int,
) -> tuple:
    """Sampling-based reference (mean, cov) of the truncated normal:
    the empirical moments of `n_samples` exact iid draws of N(mean, cov)
    conditioned on z_i >= 0 for i in truncated.  Deterministic per seed.

    The draws come from Botev's minimax tilting (Botev 2017, "The normal
    law under linear restrictions: simulation and estimation via minimax
    tilting", JRSS-B 79(1)): a Genz-Bretz ordered Cholesky factor, a
    sequential proposal of one-sided normal tail draws exponentially
    tilted by mu*, and accept-reject with weight exp(psi - psi*).  The
    draws are exact because psi(y; mu*) <= psi* holds for every y at the
    saddle point (x*, mu*) of psi; the oracle therefore never samples
    from an unsolved tilt.  On criterion 3's 200 cases (dims 3-8, 20,000
    proposals each) the acceptance rate is 0.064 at the least and 0.96 in
    the median; the largest log w - psi* measured -3.9e-11.

    Raises OracleInfeasibleError when cov is not positive definite or
    the tilt equations are not solved.
    """
    mean, cov = _moments(mean, cov)
    n_samples = int(n_samples)
    if n_samples < 1000:
        raise ValueError(f"n_samples must be >= 1000, got {n_samples}")
    if not np.isfinite(mean).all():
        raise ValueError(f"mean must be finite, got {mean}")
    todo = _indices(truncated, mean.size)
    rng = np.random.default_rng(seed)
    lower = np.full(mean.size, -np.inf)
    lower[todo] = -mean[todo]
    fac, perm, ls, lo, mu, psi_star = _minimax_tilt(symmetrize(cov), lower)
    kept, n_kept = [], 0
    while n_kept < n_samples:
        y, logw = _tilted_draws(rng, ls, lo, mu, n_samples)
        kept.append(y[rng.standard_exponential(logw.size) > psi_star - logw])
        n_kept += kept[-1].shape[0]
    samples = np.empty((n_samples, mean.size))
    samples[:, perm] = np.concatenate(kept)[:n_samples] @ fac.T
    return _empirical_moments(mean + samples)


def _empirical_moments(samples: np.ndarray) -> tuple:
    cov = np.atleast_2d(np.cov(samples, rowvar=False))
    return samples.mean(axis=0), symmetrize(cov)
