"""Comparison estimators: gated Kalman filter/smoother and a bootstrap PF.

The Kalman baselines run against moment-matched normal noise (see
skewt.moment_match) with per-component validation gating: a measurement
component whose normalized innovation squared exceeds GATE_THRESHOLD,
the chi-square(1) quantile of probability 0.99, is discarded.  The
bootstrap particle filter weights particles with the skew-t component
densities.  At 100,000 particles, in the static experiment
(bench.experiments.run_static_experiment), it is the reference posterior
of the benchmark; the sweep's 1000-particle PF is a baseline and no
reference (see bench.ScenarioConfig.pf_particles).  The densities are
interpolated in a cached table of each component's log density on a
uniform grid, looked up by direct indexing in two reads; the grid step of
at most 0.05 spreads bounds the interpolation error (see
_component_log_likelihoods), and residuals outside the grid take the
exact density.  The particles are (n_p, n_x), and each step's predicted
measurements, residuals and log-likelihoods are (n_y, n_p), one row per
component.  A PF run resolves the tables of its components once
(_stacked_tables) and writes each step's weighted mean and covariance
into preallocated arrays (_pf_moments); pf_run returns their rows as
GaussianBeliefs, and the benchmark reads the arrays.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import gammaincinv

from ._linalg import psd_sqrt, symmetrize
from .exceptions import DegeneracyError
from .filtering import (
    GaussianBelief,
    StateSpaceModel,
    _beliefs,
    _dim,
    _filter_rows,
    _finite,
    _linear_source,
    _one_row,
    _vector,
    _vectors,
)
from .skewt import SkewTComponent, log_pdf, moments
from .smoothing import backward_pass

__all__ = [
    "GATE_THRESHOLD",
    "kf_gated_update",
    "kf_gated_run",
    "rtss_gated_run",
    "pf_run",
]


# The validation gate: the chi-square(1) quantile of probability 0.99,
# 2 * gammaincinv(1/2, 0.99).  chi2(1) is Gamma(1/2, scale=2), and this is
# the expression scipy.stats.chi2.ppf(0.99, df=1) evaluates, bit for bit;
# it is written out so that importing the package does not load scipy.stats.
GATE_THRESHOLD = 2.0 * float(gammaincinv(0.5, 0.99))


def kf_gated_update(
    c_mat: np.ndarray,
    r_matched: np.ndarray,
    prior: GaussianBelief,
    y: np.ndarray,
) -> GaussianBelief:
    """Sequential per-component Kalman update with validation gating.

    Components are processed in index order against the current belief;
    a component is discarded when its normalized innovation squared
    exceeds GATE_THRESHOLD.  `r_matched` holds the matched normal
    variances (diagonal); the caller removes any noise mean offset from y
    beforehand.  c_mat is one matrix (n_y, n_x), and the prior has
    dimension n_x.  This is the one-row call of _kf_gated_update_rows.
    A non-finite y raises NumericalFailureError.
    """
    c_mat = np.atleast_2d(np.asarray(c_mat, dtype=float))
    if c_mat.ndim != 2:
        raise ValueError(f"c_mat must be a matrix (n_y, n_x), got shape {c_mat.shape}")
    _dim("prior", prior, c_mat.shape[1])
    r_matched = _vector("r_matched", r_matched, c_mat.shape[0])
    y = _finite(_vector("y", y, c_mat.shape[0]))
    x, p, _ = _kf_gated_update_rows(
        c_mat[None], r_matched, prior.mean[None], prior.cov[None], y[None]
    )
    return GaussianBelief(x[0], p[0])


def _kf_gated_update_rows(c_mat, r_matched, x, p, y):
    """kf_gated_update of B rows: c_mat (B, n_y, n_x), prior means x
    (B, n_x) and covariances p (B, n_x, n_x), measurements y (B, n_y).

    The gate is a per-row mask, and each row is bit-equal to the same
    row updated alone.  Returns the posterior means and covariances and
    the gating decisions (B, n_y), True where a component was used.
    """
    used = np.empty(y.shape, dtype=bool)
    for i in range(y.shape[1]):
        ci = c_mat[:, i, None, :]
        pc = (p @ ci.swapaxes(1, 2))[..., 0]
        s = (ci @ pc[..., None])[:, 0, 0] + r_matched[i]
        innov = y[:, i] - (ci @ x[..., None])[:, 0, 0]
        used[:, i] = ~(innov * innov / s > GATE_THRESHOLD)
        gain = pc / s[:, None]
        x = np.where(used[:, i, None], x + gain * innov[:, None], x)
        p = np.where(
            used[:, i, None, None],
            p - s[:, None, None] * (gain[:, :, None] * gain[:, None, :]),
            p,
        )
    return x, symmetrize(p), used


def _kf_gated_run_rows(model: StateSpaceModel, n_rows: int, n_steps: int, measure) -> list:
    """The gated Kalman filter of n_rows trajectories in lockstep:
    filtering._filter_rows with the update _kf_gated_update_rows, against
    the normal variances model.R.  kf_gated_run is its one-row call.

    Returns the stacks (n_rows, n_steps, ...) of the posterior means and
    covariances and the gating decisions (True where a component was
    used), then the outcomes: the update fails no row, its source may
    (_filter_rows).  Each row is bit-equal to the same trajectory
    filtered alone, with the same decisions.
    """

    def update(x, p, c_mat, y):
        return *_kf_gated_update_rows(c_mat, model.R, x, p, y), {}

    return _filter_rows(model, n_rows, n_steps, measure, update)


def kf_gated_run(model: StateSpaceModel, ys) -> list:
    """Gated Kalman forward pass over a measurement sequence.

    The model is interpreted as Gaussian: R holds the matched normal
    variances and Delta is ignored.  Returns the filtered beliefs, one
    per step.  It is the one-row call of _kf_gated_run_rows on the linear
    model's source (filtering._linear_source), which fails a non-finite
    measurement with a NumericalFailureError at its step.
    """
    source = _linear_source(model, ys)
    if not source[1]:
        return []
    mean, cov, _ = _one_row(*_kf_gated_run_rows(model, *source))
    return _beliefs(mean[0], cov[0])


def rtss_gated_run(model: StateSpaceModel, ys) -> list:
    """Gated Kalman forward pass plus classical fixed-interval smoothing.

    The backward recursion is smoothing.backward_pass of the filtered
    beliefs of kf_gated_run, the one the skew-t smoother runs on its
    [x; u] beliefs: with no u-block the beliefs are the plain state
    beliefs and that recursion is the classical RTS one.
    """
    return backward_pass(kf_gated_run(model, ys), model)


# Density tables: points per grid, and the largest grid step in units of
# the component spread, which bounds the interpolation error (see
# _component_log_likelihoods).
_GRID_POINTS = 16385
_MAX_GRID_STEP = 0.05


@lru_cache(maxsize=64)
def _density_table(spread_sq, shape, dof):
    """Cached log density of one skew-t component on a uniform grid.

    The grid spec depends only on the component parameters (never on the
    data), so cached lookups are reproducible regardless of call history.
    It spans 60 standard deviations about the mean (dof > 2) or a wide
    window about the shape (dof <= 2), narrowed where needed so that the
    step is at most _MAX_GRID_STEP spreads.
    """
    comp = SkewTComponent(spread_sq=spread_sq, shape=shape, dof=dof)
    if dof > 2.0:
        mean, var = moments(comp)
        half = 60.0 * np.sqrt(var)
    else:
        mean = shape
        half = 1000.0 * (abs(shape) + np.sqrt(spread_sq))
    half = min(half, 0.5 * (_GRID_POINTS - 1) * _MAX_GRID_STEP * np.sqrt(spread_sq))
    grid = np.linspace(mean - half, mean + half, _GRID_POINTS)
    return grid, log_pdf(comp, grid)


class _Tables(NamedTuple):
    """The density tables of the skew-t components `comps` laid end to end
    for one lookup over all of them (_stacked_tables).

    Per component, as (n_y, 1) columns that broadcast over a residual
    matrix's rows: the grid ends lo and hi, the step, and the offset of
    its table in the flat arrays; lo_max and hi_min bound the interval
    that lies inside every grid.  Then the flat tables and their forward
    differences, slope[j] = table[j + 1] - table[j]; the last point's is
    0, a placeholder, since no lookup brackets from it.
    """

    comps: tuple
    lo: np.ndarray
    hi: np.ndarray
    step: np.ndarray
    offset: np.ndarray
    lo_max: float
    hi_min: float
    table: np.ndarray
    slope: np.ndarray


@lru_cache(maxsize=64)
def _stacked_tables(comps):
    """The _Tables of the skew-t components `comps` (a tuple of
    SkewTComponent), built from their cached _density_table."""
    grids, tables = map(
        np.stack, zip(*(_density_table(c.spread_sq, c.shape, c.dof) for c in comps))
    )
    slopes = np.zeros_like(tables)
    slopes[:, :-1] = np.diff(tables, axis=1)
    lo, hi = grids[:, :1], grids[:, -1:]
    offset = np.arange(len(comps))[:, None] * _GRID_POINTS
    step = (hi - lo) / (_GRID_POINTS - 1)
    return _Tables(
        comps, lo, hi, step, offset, lo.max(), hi.min(), tables.ravel(), slopes.ravel()
    )


def _component_log_likelihoods(tables, residuals):
    """Skew-t log densities of a residual matrix (n_y, n_p), row i under
    component tables.comps[i], from the _Tables of those components.

    Interpolates linearly in each component's cached density table, in
    one pass over the whole matrix.  The grid is uniform, so a residual r
    sits at q = (r - lo) / step grid steps; its bracket j is q's integer
    part clipped to [0, G - 2] (G grid points) and its value
    table[j] + (q - j) * slope[j], two reads.  The bracket is clipped,
    not q, so that the last interval keeps its fraction.  This is the
    piecewise-linear interpolant of np.interp in other rounding: q's
    relative rounding error of a few eps scales with q <= G - 1, so the
    two differ by at most about 4 eps ((G - 1) |slope[j]| + |table[j]|).
    The interpolation error at a grid midpoint is about step**2 / 8 times
    the curvature of the log density; with the step capped at 0.05
    spreads it measured at most 3.3e-4 on components with dof from 1.2 to
    1e8 and shapes up to 200 spreads, and 9.3e-4 at dof 0.5.  Residuals
    outside the grid are evaluated exactly with log_pdf; NaN and infinite
    residuals give NaN.  `residuals` is left as it is.
    """
    comps, lo, hi, step, offset, lo_max, hi_min, table, slope = tables
    # Most calls have every residual inside every grid, which the extremes
    # of the whole matrix show for less than a mask over it (a NaN fails
    # the test, and the mask then decides).
    far = not (residuals.min() >= lo_max and residuals.max() <= hi_min)
    if far:
        outside = (residuals < lo) | (residuals > hi)
        far = outside.any()
    if far:
        # Infinite residuals become NaN before the lookup, which would warn
        # on 0 * inf, and stay out of log_pdf, which takes finite ones only.
        infinite = np.isinf(residuals)
        residuals = np.where(infinite, np.nan, residuals)
        outside &= ~infinite
    q = residuals - lo
    q /= step
    # Clamped as floats before the cast: fmax maps NaN to 0, so NaN and
    # far-off residuals get a valid index (their values are NaN or exact).
    j = np.fmin(np.fmax(q, 0.0), _GRID_POINTS - 2.0).astype(np.intp)
    q -= j
    j += offset
    out = slope[j]
    out *= q
    out += table[j]
    if far:
        for i in np.flatnonzero(outside.any(axis=1)):
            cols = outside[i]
            out[i, cols] = log_pdf(comps[i], residuals[i, cols])
    return out


def _systematic_resample(weights, rng):
    """Systematic resampling indices of normalized `weights`.

    The cumulative sum can round to just below 1, so an index is clamped
    to n - 1 rather than run past the last particle.
    """
    n = weights.size
    positions = (np.arange(n) + rng.random()) / n
    return np.minimum(np.searchsorted(np.cumsum(weights), positions), n - 1)


def pf_run(
    model: StateSpaceModel,
    ys,
    n_particles: int,
    seed: int,
    measurement_fn=None,
) -> list:
    """Bootstrap particle filter with systematic resampling.

    Particles start from the model prior and propagate through the linear
    dynamics; weights accumulate the product of the skew-t component
    densities of the measurement residuals.  Resampling triggers when the
    effective sample size drops below n_particles / 2.  An optional
    `measurement_fn(states) -> (n_p, n_y)` replaces the linear map C x,
    letting the same filter run on nonlinear measurement models; a result
    of any other shape raises ValueError.
    Deterministic for a given seed; returns one GaussianBelief per step,
    the weighted particle mean and covariance, row k of the arrays that
    _pf_moments returns.  Each measurement must have shape (n_y,), as in
    every other run; a NaN or infinite one leaves no weight finite and
    raises DegeneracyError at its step.
    """
    ys = _vectors("ys", ys, model.n_y)
    return [
        GaussianBelief(m, c)
        for m, c in zip(*_pf_moments(model, ys, n_particles, seed, measurement_fn))
    ]


def _pf_moments(model, ys, n_particles, seed, measurement_fn=None) -> tuple:
    """The filter of pf_run, returning its weighted means (K, n_x) and
    covariances (K, n_x, n_x) as arrays; the "pf" family of
    bench.experiments._lockstep_rows calls it, one row at a time.  ys
    holds checked float measurements of shape (n_y,): pf_run's, checked
    by _vectors, or the rows of a (K, n_y) float array (_pf_rows).

    The density tables are looked up once per run, and each step writes
    its moments into the preallocated arrays.
    """
    n_particles = int(n_particles)
    if n_particles < 100:
        raise ValueError(f"n_particles must be >= 100, got {n_particles}")
    tables = _stacked_tables(model.noise_model())
    rng = np.random.default_rng(seed)

    prior_factor = psd_sqrt(model.prior_cov)
    q_factor = psd_sqrt(model.Q)
    states = model.prior_mean + rng.standard_normal(
        (n_particles, model.n_x)
    ) @ prior_factor.T
    log_w = np.zeros(n_particles)

    means = np.empty((len(ys), model.n_x))
    covs = np.empty((len(ys), model.n_x, model.n_x))
    for k, y in enumerate(ys):
        if k > 0:
            states = states @ model.A.T + rng.standard_normal(
                (n_particles, model.n_x)
            ) @ q_factor.T
        if measurement_fn is None:
            predicted = model.C @ states.T
        else:
            predicted = np.asarray(measurement_fn(states))
            if predicted.shape != (n_particles, model.n_y):
                raise ValueError(
                    f"measurement_fn must return (n_p, n_y) = {(n_particles, model.n_y)},"
                    f" got {predicted.shape}"
                )
            predicted = predicted.T
        log_w += _component_log_likelihoods(tables, y[:, None] - predicted).sum(axis=0)
        shift = log_w.max()
        if not np.isfinite(shift):
            raise DegeneracyError("all particle weights vanished", step=k)
        w = log_w - shift
        np.exp(w, out=w)
        w /= w.sum()  # in [1, n]: shift is finite, so no weight is NaN and the largest is 1
        means[k] = w @ states
        centered = states - means[k]
        covs[k] = symmetrize((w[:, None] * centered).T @ centered)
        if 1.0 / np.sum(w**2) < 0.5 * n_particles:
            idx = _systematic_resample(w, rng)
            states = states[idx]
            log_w = np.zeros(n_particles)
        else:
            log_w = np.log(w, out=w)
    return means, covs
