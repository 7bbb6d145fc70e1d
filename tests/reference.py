"""Independent textbook reference implementations used as test oracles.

Everything here is deliberately written in the plainest possible form
(batch matrix updates, explicit inverses) and shares no code with the
package under test.  The one exception is sts_run_scalar, the smoother of
one trajectory at a time that the lockstep smoother replaced: it is built
on the package's scalar update kernel, so the lockstep rows can be held
to it bit for bit.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaln, log_ndtr
from scipy.stats import gamma as gamma_dist
from scipy.stats import truncnorm as scipy_truncnorm

from skewt_estim._linalg import solve_spd, symmetrize
from skewt_estim.filtering import _AndersonMixer, _augmented_update
from skewt_estim.truncnorm import OPTIMAL


def kalman_filter(a, q, c, r_diag, m0, p0, ys):
    """Plain Kalman filter; returns (means, covs, pred_means, pred_covs).

    pred_means[k], pred_covs[k] are the one-step predictions *from* step k.
    """
    m, p = np.array(m0, dtype=float), np.array(p0, dtype=float)
    r_mat = np.diag(np.asarray(r_diag, dtype=float))
    means, covs, pred_means, pred_covs = [], [], [], []
    for y in ys:
        s = c @ p @ c.T + r_mat
        k_gain = p @ c.T @ np.linalg.inv(s)
        m = m + k_gain @ (np.asarray(y, dtype=float) - c @ m)
        p = p - k_gain @ c @ p
        means.append(m.copy())
        covs.append(p.copy())
        mp, pp = a @ m, a @ p @ a.T + q
        pred_means.append(mp)
        pred_covs.append(pp)
        m, p = mp, pp
    return (
        np.array(means),
        np.array(covs),
        np.array(pred_means),
        np.array(pred_covs),
    )


def rts_smooth(a, means, covs, pred_means, pred_covs):
    """Plain fixed-interval smoother on Kalman filter output."""
    n = len(means)
    sm = [means[-1]]
    sp = [covs[-1]]
    for k in range(n - 2, -1, -1):
        g = covs[k] @ a.T @ np.linalg.inv(pred_covs[k])
        sm.insert(0, means[k] + g @ (sm[0] - pred_means[k]))
        sp.insert(0, covs[k] + g @ (sp[0] - pred_covs[k]) @ g.T)
    return np.array(sm), np.array(sp)


def truncated_univariate_moments(mu, sigma_sq):
    """Mean and variance of N(mu, sigma_sq) conditioned on being >= 0."""
    sd = np.sqrt(sigma_sq)
    dist = scipy_truncnorm(a=-mu / sd, b=np.inf, loc=mu, scale=sd)
    return float(dist.mean()), float(dist.var())


def wls_pool(c_rows, variances, prior_mean, prior_cov, ys):
    """Weighted-least-squares posterior of a static state given all
    scalar measurements y_i = c_i x + noise(var_i)."""
    info = np.linalg.inv(prior_cov)
    vec = info @ prior_mean
    for c_i, var, y in zip(c_rows, variances, ys):
        info = info + np.outer(c_i, c_i) / var
        vec = vec + c_i * y / var
    cov = np.linalg.inv(info)
    return cov @ vec, cov


_GL_NODES, _GL_WEIGHTS = leggauss(10)


def skewt_log_pdf_quadrature(spread_sq, shape, dof, e, tol=1e-9,
                             start_panels=12, max_doublings=3):
    """Skew-t log density by integrating out the hierarchy numerically.

    Given the mixing precision lam, e is skew-normal, so the density is the
    integral of that skew-normal density against the Gamma(dof/2,
    rate=dof/2) density of lam.  The integral runs in log-lam with
    Gauss-Legendre panels, doubled until successive values agree to tol;
    entries that have not converged after max_doublings are NaN.
    """
    e = np.atleast_1d(np.asarray(e, dtype=float))
    a = 0.5 * dof  # Gamma shape (= rate)
    s2 = shape**2 + spread_sq
    ccoef = shape / np.sqrt(spread_sq * s2)

    # lam-rate of the Gamma(a', .) envelope of the integrand; the skewing
    # CDF factor decays like exp(-(ccoef*e)^2 lam / 2) on its negative side,
    # which bounds the effective rate from above.
    apost = a + 0.5
    beta = a + 0.5 * e**2 / s2
    beta_hi = beta + 0.5 * np.minimum(ccoef * e, 0.0) ** 2

    # Window in lam covering the envelope mass to ~1e-18 from both sides.
    q_lo = gamma_dist.ppf(1e-18, apost)
    q_hi = gamma_dist.isf(1e-18, apost)
    t_lo = np.log(q_lo) - np.log(beta_hi)
    t_hi = np.log(q_hi) - np.log(beta)

    # The exponent is evaluated relative to the window center t0, which
    # keeps the varying part accurate when apost and beta are huge (large
    # dof); the large constant apost*t0 - beta*e^t0 rejoins as an offset.
    t0 = 0.5 * (t_lo + t_hi)
    beta_e0 = beta * np.exp(t0)
    offset = apost * t0 - beta_e0

    def h_shifted(dt):
        val = apost * dt - beta_e0[:, None] * np.expm1(dt)
        if ccoef != 0.0:
            z = ccoef * e[:, None] * np.exp(0.5 * (t0[:, None] + dt))
            val = val + log_ndtr(z)
        else:
            val = val - np.log(2.0)
        return val

    def integrate(panels):
        lo = (t_lo - t0)[:, None]
        hi = (t_hi - t0)[:, None]
        edges = lo + (hi - lo) * np.linspace(0.0, 1.0, panels + 1)
        centers = 0.5 * (edges[:, 1:] + edges[:, :-1])
        half = 0.5 * (edges[:, 1:] - edges[:, :-1])
        nodes = centers[:, :, None] + half[:, :, None] * _GL_NODES
        vals = h_shifted(nodes.reshape(e.size, -1)).reshape(nodes.shape)
        m = vals.max(axis=(1, 2), keepdims=True)
        inner = np.exp(vals - m) @ _GL_WEIGHTS
        total = (inner * half).sum(axis=1)
        return m[:, 0, 0] + np.log(total)

    panels = start_panels
    prev = integrate(panels)
    for _ in range(max_doublings):
        panels *= 2
        cur = integrate(panels)
        resid = np.abs(cur - prev)
        prev = cur
        if resid.max() < tol:
            break
    prev = np.where(resid < tol, prev, np.nan)

    const = (
        np.log(2.0)
        + a * np.log(a)
        - gammaln(a)
        - 0.5 * np.log(2.0 * np.pi)
        - 0.5 * np.log(s2)
    )
    return const + offset + prev


def rec_trunc_stepwise(mean, cov, truncated, order="greedy", seed=None):
    """Recursive positive-orthant truncation, one fresh copy per step.

    Re-symmetrizes the covariance after every rank-one update and keeps
    the remaining constraints in a sorted list.  `order` is "greedy"
    (smallest standardized mean first), "random" (a uniformly drawn
    non-greedy constraint from a default_rng(seed) stream, the greedy one
    only when it is the last left) or an explicit index sequence.
    Returns (mean, cov).
    """
    mean = np.array(mean, dtype=float)
    cov = np.array(cov, dtype=float)
    remaining = sorted({int(i) for i in truncated})
    rng = np.random.default_rng(seed) if order == "random" else None
    explicit = None if isinstance(order, str) else [int(i) for i in order]
    log_sqrt_2pi = 0.5 * np.log(2.0 * np.pi)
    while remaining:
        if explicit is not None:
            k = explicit[len(explicit) - len(remaining)]
        else:
            var = cov[remaining, remaining]
            best = remaining[int(np.argmin(mean[remaining] / np.sqrt(var)))]
            k = best
            if rng is not None and len(remaining) > 1:
                others = [i for i in remaining if i != best]
                k = others[int(rng.integers(len(others)))]
        sd = np.sqrt(cov[k, k])
        xi = float(mean[k] / sd)
        if xi < -37.0:
            eps, cc = -xi, 1.0
        else:
            eps = float(np.exp(-0.5 * xi * xi - log_sqrt_2pi - log_ndtr(xi)))
            cc = min(max(xi * eps + eps * eps, 0.0), 1.0)
        col = cov[:, k]
        mean = mean + (eps / sd) * col
        cov = cov - (cc / cov[k, k]) * np.outer(col, col)
        cov = 0.5 * (cov + cov.T)
        remaining.remove(k)
    return mean, cov


def backward_pass_augmented(filtered, predicted, a):
    """Fixed-interval smoother on augmented [x; u] beliefs with the full
    augmented gain Z_f A_z^T Z_p^{-1}, A_z = blockdiag(a, 0).

    `filtered` and `predicted` are sequences of (mean, cov) pairs; returns
    the smoothed (mean, cov) pairs.
    """
    n_z = filtered[0][0].size
    n_x = a.shape[0]
    a_z = np.zeros((n_z, n_z))
    a_z[:n_x, :n_x] = a
    sm = [filtered[-1]]
    for k in range(len(filtered) - 2, -1, -1):
        m_f, p_f = filtered[k]
        m_p, p_p = predicted[k + 1]
        g = p_f @ a_z.T @ np.linalg.inv(p_p)
        m_s, p_s = sm[0]
        sm.insert(0, (m_f + g @ (m_s - m_p), p_f + g @ (p_s - p_p) @ g.T))
    return sm


def sts_run_scalar(model, ys, cfg, measurement_matrices, n_iterations=None):
    """The outer VB smoother loop on one trajectory, step by step.

    Returns (smoothed means (K, n), smoothed covariances (K, n, n),
    iterations, converged).
    """
    ys = [np.asarray(y, dtype=float) for y in ys]
    c_seq = list(measurement_matrices)
    n_steps, n_x, n_y = len(ys), model.n_x, model.n_y
    cz_seq = [np.hstack([c, np.diag(model.Delta)]) for c in c_seq]
    lambdas = [np.ones(n_y) for _ in range(n_steps)]
    mixer = _AndersonMixer(upper=np.tile((model.nu + 2.0) / model.nu, n_steps))
    x_prev = None
    converged = False
    iterations = 0
    max_iter = cfg.max_iterations if n_iterations is None else n_iterations
    for _ in range(max_iter):
        # Forward pass with the mixing precisions held fixed.
        filtered, predicted = [], []
        x_pred, p_pred = model.prior_mean, model.prior_cov
        for k in range(n_steps):
            post, prior = _augmented_update(
                x_pred, p_pred, ys[k], c_seq[k], model.Delta, model.R, lambdas[k], OPTIMAL
            )
            filtered.append((post.mean, post.cov))
            predicted.append((prior.mean, prior.cov))
            x_pred = model.A @ post.mean[:n_x]
            p_pred = symmetrize(model.A @ post.cov[:n_x, :n_x] @ model.A.T + model.Q)
        # Backward pass with the x-only RTS gain.
        smoothed = [None] * n_steps
        smoothed[-1] = filtered[-1]
        for k in range(n_steps - 2, -1, -1):
            f_mean, f_cov = filtered[k]
            p_mean, p_cov = predicted[k + 1]
            s_mean, s_cov = smoothed[k + 1]
            p_x = p_cov[:n_x, :n_x]
            gain = solve_spd(p_x, model.A @ f_cov[:n_x]).T
            smoothed[k] = (
                f_mean + gain @ (s_mean[:n_x] - p_mean[:n_x]),
                symmetrize(f_cov + gain @ (s_cov[:n_x, :n_x] - p_x) @ gain.T),
            )
        # Mixing-precision refresh, Anderson-mixed over the whole trajectory.
        plain = []
        for (s_mean, s_cov), y, cz in zip(smoothed, ys, cz_seq):
            resid = y - cz @ s_mean
            quad = np.einsum("ij,jk,ik->i", cz, s_cov, cz)
            psi = (resid**2 + quad) / model.R + s_mean[n_x:] ** 2
            psi = psi + np.diag(s_cov[n_x:, n_x:])
            plain.append((model.nu + 2.0) / (model.nu + psi))
        mixed = mixer.push(np.concatenate(lambdas), np.concatenate(plain))
        lambdas = list(mixed.reshape(n_steps, n_y))
        iterations += 1
        xs = np.stack([m[:n_x] for m, _ in smoothed])
        if n_iterations is None and x_prev is not None:
            if np.linalg.norm(xs - x_prev, axis=1).max() < cfg.tol:
                converged = True
                break
        x_prev = xs
    means = np.stack([m for m, _ in smoothed])
    covs = np.stack([c for _, c in smoothed])
    return means, covs, iterations, converged

