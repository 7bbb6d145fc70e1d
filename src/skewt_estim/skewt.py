"""Univariate skew-t measurement noise model.

A skew-t variable with spread parameter sqrt(r), shape parameter d and
dof nu is generated hierarchically:

    lam ~ Gamma(nu/2, rate=nu/2)
    u   ~ |N(0, 1/lam)|                  (half-normal)
    e   = d * u + sqrt(r / lam) * g,     g ~ N(0, 1)

Positive d skews the distribution to the right; nu controls tail weight.
This is the Sahu-Dey-Branco (2003) skew-t, whose density has a closed
form: a Student-t density times a Student-t CDF (see log_pdf).  The CDF
factor is evaluated in log space, with a continued fraction for the far
left tail where the plain CDF underflows.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, poch, stdtr

__all__ = [
    "SkewTComponent",
    "NoiseModel",
    "sample",
    "sample_rng",
    "log_pdf",
    "moments",
    "moment_match",
]

_LOG_SQRT_PI = 0.5 * np.log(np.pi)
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class SkewTComponent:
    """One independent skew-t noise component.

    ``spread_sq`` is the *squared* spread parameter (the spread itself is
    its square root), ``shape`` the skewness parameter and ``dof`` the
    degrees of freedom.  ``dof`` is a fixed model constant, never estimated.
    """

    spread_sq: float
    shape: float
    dof: float

    def __post_init__(self):
        if not self.spread_sq > 0.0:
            raise ValueError(f"spread_sq must be positive, got {self.spread_sq}")
        if not self.dof > 0.0:
            raise ValueError(f"dof must be positive, got {self.dof}")


@dataclass(frozen=True)
class NoiseModel:
    """Ordered collection of independent skew-t components."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("NoiseModel needs at least one component")
        object.__setattr__(self, "components", comps)

    def __len__(self) -> int:
        return len(self.components)


def sample_rng(c: SkewTComponent, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n variates using an existing generator (see sample)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    lam = rng.gamma(shape=0.5 * c.dof, scale=2.0 / c.dof, size=n)
    u = np.abs(rng.standard_normal(n)) / np.sqrt(lam)
    g = rng.standard_normal(n)
    return c.shape * u + np.sqrt(c.spread_sq / lam) * g


def sample(c: SkewTComponent, n: int, seed: int) -> np.ndarray:
    """Draw n skew-t variates via the Gamma/half-normal hierarchy.

    Deterministic for a given seed.
    """
    return sample_rng(c, n, np.random.default_rng(seed))


def _halfnormal_mean_coeff(dof: float) -> float:
    """E[u] of the hierarchy for unit shape: sqrt(dof/pi)*G((dof-1)/2)/G(dof/2)."""
    return float(
        np.sqrt(dof / np.pi)
        * np.exp(gammaln(0.5 * (dof - 1.0)) - gammaln(0.5 * dof))
    )


def moments(c: SkewTComponent) -> tuple:
    """Closed-form (mean, variance) of the component; requires dof > 2."""
    if not c.dof > 2.0:
        raise ValueError(f"moments need dof > 2, got {c.dof}")
    mean = c.shape * _halfnormal_mean_coeff(c.dof)
    second = (c.shape**2 + c.spread_sq) * c.dof / (c.dof - 2.0)
    return mean, second - mean**2


def moment_match(c: SkewTComponent) -> tuple:
    """Parameters of a normal and a Student-t matching the first two moments.

    Returns (normal_variance, t_scale_sq, t_dof): the matching normal is
    N(mean, normal_variance) and the matching t has the same dof as the
    component with squared scale t_scale_sq, both centered on the skew-t
    mean (the mean itself comes from moments()).
    """
    _, var = moments(c)
    return var, var * (c.dof - 2.0) / c.dof, c.dof


def log_pdf(c: SkewTComponent, e) -> "float | np.ndarray":
    """Log density of the skew-t component at e (scalar or array).

    Uses the exact density of the hierarchy (Sahu, Dey & Branco 2003):
    with s2 = r + d^2,

        f(e) = 2 t_nu(e; 0, s2) T_{nu+1}(d e / sqrt(r s2)
                                         * sqrt((nu + 1) / (nu + e^2 / s2)))

    where t_nu(.; 0, s2) is the Student-t density of squared scale s2 and
    T_{nu+1} the standard Student-t CDF.  Finite for every finite e,
    including the far left tail where T underflows.
    """
    arr = np.asarray(e, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("e must be finite")
    nu = c.dof
    s2 = c.spread_sq + c.shape**2
    x = np.atleast_1d(arr).ravel()
    root = np.sqrt(nu * s2)
    # t = x / root is held at +-1e300 (reachable only when root < 1) so it
    # cannot overflow; `excess` is the rest of log|t|, t / hypot(1, t) is +-1.
    excess = np.log(np.maximum(np.abs(x) * 1e-300 / root, 1.0))
    t = x / np.maximum(root, np.abs(x) * 1e-300)
    # log1p(t^2) = log1p(m^2) + 2 log(big), which never squares a huge t.
    big = np.maximum(np.abs(t), 1.0)
    log1p_t2 = np.log1p(np.minimum(np.abs(t), 1.0 / big) ** 2) + 2.0 * np.log(big)
    log1p_t2 += 2.0 * excess
    skew_arg = c.shape * np.sqrt((nu + 1.0) / c.spread_sq) * (t / np.hypot(1.0, t))
    out = (
        np.log(2.0)
        - _log_beta_half(0.5 * nu)
        - 0.5 * np.log(nu * s2)
        - 0.5 * (nu + 1.0) * log1p_t2
        + _log_t_cdf(nu + 1.0, skew_arg)
    )
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def _log_beta_half(a):
    """log B(a, 1/2) = log Gamma(1/2) - log(Gamma(a + 1/2) / Gamma(a)).

    The Pochhammer ratio stays accurate to ~1e-11 for large a, where
    betaln loses up to ~2e-9 (measured against mpmath).
    """
    return _LOG_SQRT_PI - np.log(poch(a, 0.5))


def _log_t_cdf(df, x):
    """log T_df(x) of the standard Student-t CDF, elementwise on a 1-d x.

    Evaluates the smaller tail with stdtr; where that underflows on the
    left, switches to the continued fraction of _log_t_left_tail.
    """
    p = stdtr(df, -np.abs(x))
    out = np.where(x > 0.0, np.log1p(-p), np.log(np.maximum(p, _TINY)))
    tail = (x < 0.0) & (p < _TINY)
    if np.any(tail):
        out[tail] = _log_t_left_tail(df, x[tail])
    return out


def _log_t_left_tail(df, x):
    """log T_df(x) for x well inside the left tail, in log space throughout.

    T_df(x) = I_w(df/2, 1/2) / 2 with w = df / (df + x^2).  The regularized
    incomplete beta function is w^a (1-w)^b / (a B(a, b)) times a continued
    fraction, evaluated with the modified Lentz method; where stdtr
    underflows, w lies well below the fraction's convergence boundary
    (a+1)/(a+b+2) and it settles within a few terms.
    """
    a, b = 0.5 * df, 0.5
    x2 = x * x
    w = df / (df + x2)
    c = np.ones_like(x)
    d = 1.0 / (1.0 - (a + b) * w / (a + 1.0))
    frac = d
    for m in range(1, 100):
        for coef in (
            m * (b - m) * w / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * w / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 / (1.0 + coef * d)
            c = 1.0 + coef / c
            step = d * c
            frac = frac * step
        if np.all(np.abs(step - 1.0) < 1e-15):
            break
    log_front = (
        -a * np.log1p(x2 / df)
        - b * np.log1p(df / x2)
        - np.log(a)
        - _log_beta_half(a)
    )
    return log_front + np.log(frac) - np.log(2.0)
