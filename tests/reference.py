"""Independent textbook reference implementations used as test oracles.

Everything here is deliberately written in the plainest possible form
(batch matrix updates, explicit inverses) and shares no code with the
package under test.  The exceptions are sts_run_scalar, the smoother of
one trajectory at a time that the lockstep smoother replaced,
component_log_likelihoods_two_read, the PF's one-pass lookup written one
component at a time, and simulate_loop, the per-step random walk that
one draw and one cumsum replaced.  They are built on the package's
scalar update kernel, Anderson step, density tables, geometry and noise
sampler, so the code that replaced them can be held to them bit for
bit.  component_log_likelihoods_interp, the np.interp lookup that the
one-pass lookup replaced, holds it to a rounding bound.
static_ordering_study compares the package's truncation orders on the
static experiment's draws; only its posterior and its exact mean are
written here.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaln, log_ndtr
from scipy.stats import gamma as gamma_dist
from scipy.stats import truncnorm as scipy_truncnorm

from skewt_estim._linalg import solve_spd, symmetrize
from skewt_estim.baselines import _density_table
from skewt_estim.bench.experiments import _random_order_trunc, _static_replications, _tagged_seed
from skewt_estim.bench.gnss import (
    VERTICAL_WALK_STD_M,
    make_constellation,
    pseudoranges,
    trajectory_prior,
)
from skewt_estim.filtering import _anderson_step, _augmented_update, stf_update
from skewt_estim.skewt import SkewTComponent, log_pdf, sample_rng
from skewt_estim.truncnorm import rec_trunc, tmnd_oracle


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


def augmented_predictions(filtered, a, q, u_var):
    """The one-step predictions of an augmented [x; u] model from the
    filtered (mean, cov) pairs of steps 0..K-2, in plain numpy: of step
    k + 1, [a m_x; 0] and blockdiag(a P_xx a^T + q, diag(u_var[k])), with
    u reset each step to N(0, diag(u_var[k])).  u_var[k] has length 0 for
    beliefs with no u block."""
    n_x = a.shape[0]
    predicted = []
    for (m, p), d in zip(filtered[:-1], u_var):
        cov = np.zeros(p.shape)
        cov[:n_x, :n_x] = a @ p[:n_x, :n_x] @ a.T + q
        cov[n_x:, n_x:] = np.diag(d)
        predicted.append((np.concatenate([a @ m[:n_x], np.zeros(len(d))]), cov))
    return predicted


def backward_pass_augmented(filtered, predicted, a):
    """Fixed-interval smoother on augmented [x; u] beliefs with the full
    augmented gain Z_f A_z^T Z_p^{-1}, A_z = blockdiag(a, 0).

    `filtered` is a sequence of K (mean, cov) pairs and `predicted` one
    of the K - 1 predictions of steps 1..K-1 (augmented_predictions);
    returns the smoothed (mean, cov) pairs.
    """
    n_z = filtered[0][0].size
    n_x = a.shape[0]
    a_z = np.zeros((n_z, n_z))
    a_z[:n_x, :n_x] = a
    sm = [filtered[-1]]
    for k in range(len(filtered) - 2, -1, -1):
        m_f, p_f = filtered[k]
        m_p, p_p = predicted[k]
        g = p_f @ a_z.T @ np.linalg.inv(p_p)
        m_s, p_s = sm[0]
        sm.insert(0, (m_f + g @ (m_s - m_p), p_f + g @ (p_s - p_p) @ g.T))
    return sm


def sts_run_scalar(model, ys, cfg, measurement_matrices):
    """The outer VB smoother loop on one trajectory, step by step.

    Returns (smoothed means (K, n), smoothed covariances (K, n, n),
    iterations, converged).
    """
    ys = [np.asarray(y, dtype=float) for y in ys]
    c_seq = list(measurement_matrices)
    n_steps, n_x, n_y = len(ys), model.n_x, model.n_y
    cz_seq = [np.hstack([c, np.diag(model.Delta)]) for c in c_seq]
    lambdas = [np.ones(n_y) for _ in range(n_steps)]
    upper = np.tile((model.nu + 2.0) / model.nu, n_steps)
    window = []  # the last three (precisions, image) pairs, oldest first
    x_prev = None
    converged = False
    iterations = 0
    for _ in range(cfg.max_iterations):
        # Forward pass with the mixing precisions held fixed.
        filtered, predicted = [], []
        x_pred, p_pred = model.prior_mean, model.prior_cov
        for k in range(n_steps):
            post_mean, post_cov, _ = _augmented_update(
                x_pred, p_pred, ys[k], c_seq[k], cz_seq[k], model.Delta, model.R, lambdas[k]
            )
            filtered.append((post_mean, post_cov))
            predicted.append((x_pred, p_pred))
            x_pred = model.A @ post_mean[:n_x]
            p_pred = symmetrize(model.A @ post_cov[:n_x, :n_x] @ model.A.T + model.Q)
        # Backward pass with the x-only RTS gain.
        smoothed = [None] * n_steps
        smoothed[-1] = filtered[-1]
        for k in range(n_steps - 2, -1, -1):
            f_mean, f_cov = filtered[k]
            p_mean, p_x = predicted[k + 1]
            s_mean, s_cov = smoothed[k + 1]
            gain = solve_spd(p_x, model.A @ f_cov[:n_x]).T
            smoothed[k] = (
                f_mean + gain @ (s_mean[:n_x] - p_mean),
                symmetrize(f_cov + gain @ (s_cov[:n_x, :n_x] - p_x) @ gain.T),
            )
        # Mixing-precision refresh, Anderson-mixed over the whole trajectory.
        plain = []
        for (s_mean, s_cov), y, cz in zip(smoothed, ys, cz_seq):
            resid = y - cz @ s_mean
            quad = ((cz @ s_cov) * cz).sum(-1)
            psi = (resid**2 + quad) / model.R + s_mean[n_x:] ** 2
            psi = psi + np.diag(s_cov[n_x:, n_x:])
            plain.append((model.nu + 2.0) / (model.nu + psi))
        pair = (np.concatenate(lambdas), np.concatenate(plain))
        window = (window or [pair] * 3)[1:] + [pair]  # the first pair fills it
        mixed = _anderson_step(*(np.stack(h) for h in zip(*window)), upper)
        lambdas = list(mixed.reshape(n_steps, n_y))
        iterations += 1
        xs = np.stack([m[:n_x] for m, _ in smoothed])
        if x_prev is not None:
            if np.linalg.norm(xs - x_prev, axis=1).max() < cfg.tol:
                converged = True
                break
        x_prev = xs
    means = np.stack([m for m, _ in smoothed])
    covs = np.stack([c for _, c in smoothed])
    return means, covs, iterations, converged


def component_log_likelihoods_interp(comps, residuals):
    """Skew-t log densities of a residual matrix (n_y, n_p), row i under
    comps[i]: np.interp in each component's density table, one component
    at a time, and the exact log_pdf outside the table's grid."""
    out = np.zeros_like(residuals)
    for i, comp in enumerate(comps):
        r = residuals[i]
        grid, table = _density_table(comp.spread_sq, comp.shape, comp.dof)
        vals = np.interp(r, grid, table)
        outside = (r < grid[0]) | (r > grid[-1])
        if np.any(outside):
            vals[outside] = log_pdf(comp, r[outside])
        out[i] = vals
    return out


def component_log_likelihoods_two_read(comps, residuals):
    """Skew-t log densities of a residual matrix (n_y, n_p), row i under
    comps[i], one component at a time: a residual r at q = (r - lo) / step
    grid steps of the component's own table takes
    table[j] + (q - j) (table[j + 1] - table[j]), j the integer part of q
    clipped to [0, G - 2]; outside the grid it takes the exact log_pdf,
    and a NaN or infinite residual gives NaN."""
    out = np.zeros_like(residuals)
    for i, comp in enumerate(comps):
        r = residuals[i]
        grid, table = _density_table(comp.spread_sq, comp.shape, comp.dof)
        lo, hi = grid[0], grid[-1]
        finite = np.isfinite(r)
        q = (np.where(finite, r, lo) - lo) / ((hi - lo) / (grid.size - 1))
        j = np.clip(np.floor(q), 0, grid.size - 2).astype(int)
        vals = table[j] + (q - j) * np.diff(table)[j]
        outside = finite & ((r < lo) | (r > hi))
        if np.any(outside):
            vals[outside] = log_pdf(comp, r[outside])
        vals[~finite] = np.nan
        out[i] = vals
    return out


def simulate_loop(cfg, replication):
    """The truth states (K, 4) and pseudoranges (K, n_sats) of
    gnss.simulate, with the random walk drawn and added one step at a
    time."""
    rng = np.random.default_rng(cfg.seed ^ int(replication))
    sats = make_constellation(cfg.n_sats, cfg.seed)
    mean, cov = trajectory_prior(cfg)
    states = np.zeros((cfg.K, 4))
    states[0] = mean + np.sqrt(np.diag(cov)) * rng.standard_normal(4)
    walk_std = np.array([cfg.q, cfg.q, VERTICAL_WALK_STD_M, 0.0])
    for k in range(1, cfg.K):
        states[k] = states[k - 1] + walk_std * rng.standard_normal(4)
    meas = pseudoranges(sats, states)
    comp = SkewTComponent(spread_sq=1.0, shape=cfg.delta, dof=cfg.nu)
    for i in range(cfg.n_sats):
        meas[:, i] += sample_rng(comp, cfg.K, rng)
    return states, meas


def augmented_posterior(model, y):
    """The untruncated posterior (z, Z) of [x; u] given one measurement y
    of the linear model at unit mixing precisions: the Kalman update of
    the prior [x; u] ~ N([m; 0], blockdiag(P, I)) against
    y = C x + diag(Delta) u + e, e ~ N(0, diag(R))."""
    n_x, n_y = model.n_x, model.n_y
    cz = np.hstack([model.C, np.diag(model.Delta)])
    z_prior = np.zeros((n_x + n_y, n_x + n_y))
    z_prior[:n_x, :n_x] = model.prior_cov
    z_prior[n_x:, n_x:] = np.eye(n_y)
    gain = z_prior @ cz.T @ np.linalg.inv(cz @ z_prior @ cz.T + np.diag(model.R))
    z = np.concatenate([model.prior_mean, np.zeros(n_y)])
    return z + gain @ (y - cz @ z), symmetrize(z_prior - gain @ cz @ z_prior)


def static_ordering_study(delta, n_replications, seed, oracle_samples):
    """Greedy against random truncation order on the single-epoch
    posterior of the static experiment's draws (_static_replications at
    nu = 1e8 and rho = 1), against its exact mean.

    At that dof the skew-t noise is skew-normal, so the posterior of
    [x; u] under the linearized model is the augmented_posterior (z, Z)
    truncated to u >= 0.  Each replication truncates (z, Z) with
    rec_trunc (greedy order) and with _random_order_trunc at seed
    _tagged_seed(seed, rep, 0x52).  The exact x mean is

        E[x | u >= 0] = z_x + Z_xu Z_uu^-1 (E[u | u >= 0] - z_u),

    as x given u is normal with a mean linear in u; E[u | u >= 0] comes
    from tmnd_oracle (oracle_samples exact draws, seed
    _tagged_seed(seed, rep, 0x6F)) on the u block alone.  Where Z_xu is
    zero (delta = 0) x and u are independent, and the exact mean is z_x.

    Returns the (n_replications, 3) position means: greedy, random, exact,
    and that of stf_update on the same measurement.
    """
    greedy, random, exact, filtered = np.zeros((4, n_replications, 3))
    draws = _static_replications(delta, 1e8, 1.0, n_replications, seed)
    for rep, (_, model, _, _, y_lin) in enumerate(draws):
        z, cov = augmented_posterior(model, y_lin)
        n_x = model.n_x
        u = range(n_x, z.size)
        greedy[rep] = rec_trunc(z, cov, u)[0][:3]
        random[rep] = _random_order_trunc(z, cov, u, _tagged_seed(seed, rep, 0x52))[0][:3]
        z_xu, z_uu = cov[:n_x, n_x:], cov[n_x:, n_x:]
        x_mean = z[:n_x]
        if np.any(z_xu):
            oracle_seed = _tagged_seed(seed, rep, 0x6F)
            u_mean, _ = tmnd_oracle(z[n_x:], z_uu, range(model.n_y), oracle_samples, oracle_seed)
            x_mean = x_mean + z_xu @ np.linalg.solve(z_uu, u_mean - z[n_x:])
        exact[rep] = x_mean[:3]
        filtered[rep] = stf_update(model, model.prior_belief(), y_lin)[0].mean[:3]
    return greedy, random, exact, filtered
