"""Independent textbook reference implementations used as test oracles.

Everything here is deliberately written in the plainest possible form
(batch matrix updates, explicit inverses) and shares no code with the
package under test.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaln, log_ndtr
from scipy.stats import gamma as gamma_dist
from scipy.stats import truncnorm as scipy_truncnorm


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
