"""Synthetic GNSS pseudorange scenario: geometry, simulation, linearization.

The state is [x, y, z, clock bias] in meters.  Pseudoranges to a fixed
synthetic satellite constellation are the geometric range plus the clock
bias plus independent skew-t noise.  Horizontal position follows a random
walk with configurable step size, the vertical channel walks with a fixed
0.2 m step, and the clock bias stays constant within a trajectory.
"""

import re
from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigError, GeometryError
from ..skewt import SkewTComponent, sample_rng

__all__ = [
    "ScenarioConfig",
    "Trajectory",
    "EARTH_RADIUS_M",
    "ORBIT_RADIUS_M",
    "RECEIVER_NOMINAL_M",
    "make_constellation",
    "simulate",
    "pseudoranges",
    "linearize",
    "trajectory_prior",
]

EARTH_RADIUS_M = 6_371e3
ORBIT_RADIUS_M = 26_560e3
RECEIVER_NOMINAL_M = np.array([EARTH_RADIUS_M, 0.0, 0.0])
ELEVATION_MASK_DEG = 10.0

# Per-step standard deviations of the non-horizontal state channels and
# the clock-bias prior used for trajectories.
VERTICAL_WALK_STD_M = 0.2
VERTICAL_PRIOR_STD_M = 0.22
BIAS_PRIOR_STD_M = 0.75

KNOWN_ESTIMATORS = ("stf", "sts", "kf", "rtss", "pf")


@dataclass(frozen=True)
class ScenarioConfig:
    """Benchmark scenario parameters.

    q : horizontal random-walk step std (m).
    delta : skewness parameter of the pseudorange noise (m).
    rho : horizontal position prior variance (m^2).
    nu : degrees of freedom of the pseudorange noise.
    K : number of time steps.
    n_sats : number of satellites (>= 4).
    n_mc : number of Monte Carlo replications.
    seed : base seed; replication r uses seed XOR r.
    estimators : estimator names to run (subset of KNOWN_ESTIMATORS), each
        named once.
    name : scenario identifier used in result records and as the CSV file
        name of `skewt-estim run`: letters, digits, ".", "_" and "-", not
        starting with "." (so it holds no CSV separator or path part).
    pf_particles : particle count of the bootstrap PF ("pf").  The default
        1000 makes the PF a baseline, not a reference posterior, at the
        0.1 m level: changing only the PF's density interpolation (log
        densities by up to 7e-2) moved the per-trajectory RMSE with a
        paired SD of 0.07-0.21 m (nu=1.2, q=5, K=100).  The reference is
        the 100,000-particle PF of run_static_experiment.
    """

    q: float
    delta: float
    rho: float
    nu: float
    K: int
    n_mc: int
    seed: int
    n_sats: int = 8
    estimators: tuple = ()
    name: str = "scenario"
    pf_particles: int = 1000

    def __post_init__(self):
        object.__setattr__(
            self, "estimators", tuple(str(e) for e in self.estimators)
        )
        for name in ("K", "n_mc", "n_sats", "seed", "pf_particles"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("q", "delta", "rho", "nu"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.q < 0.0 or self.delta < 0.0:
            raise ValueError("q and delta must be nonnegative")
        if not self.rho > 0.0 or not self.nu > 0.0:
            raise ValueError("rho and nu must be positive")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.n_sats < 4:
            raise ValueError("n_sats must be >= 4")
        if self.n_mc < 0:
            raise ValueError("n_mc must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be an unsigned integer")
        if not re.fullmatch(r"[A-Za-z0-9_-][A-Za-z0-9._-]*", str(self.name)):
            raise ValueError(
                f"name must be letters, digits, '.', '_' or '-', not starting with '.',"
                f" got {self.name!r}"
            )
        unknown = [e for e in self.estimators if e not in KNOWN_ESTIMATORS]
        if unknown:
            raise ValueError(
                f"unknown estimators {unknown}; known: {KNOWN_ESTIMATORS}"
            )
        repeated = sorted({e for e in self.estimators if self.estimators.count(e) > 1})
        if repeated:
            raise ValueError(f"repeated estimators {repeated}")
        if {"kf", "rtss"} & set(self.estimators) and self.nu <= 2.0:
            raise ConfigError(f"kf and rtss need nu > 2, got {self.nu}")
        if "pf" in self.estimators and self.pf_particles < 100:
            raise ConfigError(f"pf needs pf_particles >= 100, got {self.pf_particles}")


@dataclass(frozen=True)
class Trajectory:
    """Simulated truth states (K, 4) and pseudoranges (K, n_sats)."""

    states: np.ndarray
    measurements: np.ndarray

    def __post_init__(self):
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        meas = np.atleast_2d(np.asarray(self.measurements, dtype=float))
        if states.shape[1] != 4 or meas.shape[0] != states.shape[0]:
            raise ValueError("states must be (K, 4) with aligned measurements")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "measurements", meas)


def make_constellation(n_sats: int, seed: int) -> np.ndarray:
    """Satellite positions on the orbital sphere above the elevation mask.

    Directions are drawn uniformly on the sphere and kept when the
    elevation seen from the nominal receiver position exceeds 10 degrees;
    the geometry is fixed by the seed.  Returns an (n_sats, 3) array.
    """
    if n_sats < 4:
        raise ValueError(f"n_sats must be >= 4, got {n_sats}")
    rng = np.random.default_rng(seed)
    up = RECEIVER_NOMINAL_M / np.linalg.norm(RECEIVER_NOMINAL_M)
    min_sin = np.sin(np.deg2rad(ELEVATION_MASK_DEG))
    sats = []
    for _ in range(1000 * n_sats):
        v = rng.standard_normal(3)
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            continue
        s = ORBIT_RADIUS_M * v / norm
        los = s - RECEIVER_NOMINAL_M
        if up @ los / np.linalg.norm(los) > min_sin:
            sats.append(s)
            if len(sats) == n_sats:
                return np.array(sats)
    raise GeometryError(
        f"could not place {n_sats} satellites above the elevation mask"
    )


def trajectory_prior(cfg: ScenarioConfig) -> tuple:
    """Initial state mean and covariance shared by simulation and estimators."""
    mean = np.zeros(4)
    cov = np.diag(
        [cfg.rho, cfg.rho, VERTICAL_PRIOR_STD_M**2, BIAS_PRIOR_STD_M**2]
    )
    return mean, cov


def simulate(cfg: ScenarioConfig, replication: int) -> Trajectory:
    """Simulate one truth trajectory and its pseudorange measurements.

    Deterministic for a given (cfg.seed, replication); the constellation
    depends only on cfg.seed so all replications share the geometry.  The
    K - 1 random-walk increments come from one draw, the same stream as
    one draw of 4 per step, and one cumsum over [x0; increments] adds
    them in the order of the per-step recursion, so the bits are its own.
    """
    rng = np.random.default_rng(cfg.seed ^ int(replication))
    sats = make_constellation(cfg.n_sats, cfg.seed)

    mean, cov = trajectory_prior(cfg)
    start = mean + np.sqrt(np.diag(cov)) * rng.standard_normal(4)
    walk_std = np.array([cfg.q, cfg.q, VERTICAL_WALK_STD_M, 0.0])
    steps = walk_std * rng.standard_normal((cfg.K - 1, 4))
    states = np.cumsum(np.concatenate([start[None], steps]), axis=0)

    meas = pseudoranges(sats, states)
    comp = SkewTComponent(spread_sq=1.0, shape=cfg.delta, dof=cfg.nu)
    for i in range(cfg.n_sats):
        meas[:, i] += sample_rng(comp, cfg.K, rng)
    return Trajectory(states, meas)


def pseudoranges(sats: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Noise-free pseudoranges: range to each satellite plus clock bias.

    `states` has shape (..., 4); the result has shape (..., n_sats).  It
    is computed satellite-major, as an (n_sats, ...) array returned as a
    view with the satellite axis moved last, so on a particle stack
    (n_p, 4) its transpose is C-contiguous (n_sats, n_p), the layout the
    PF's likelihood lookup takes.  The values are those of the
    per-satellite formula, bit for bit, on any stack.  sats must be
    (n_sats, 3) (_geometry).
    """
    sats, states = _geometry(sats, states)
    # One contiguous (n_sats, ...) array per coordinate: on a particle
    # stack this is twice as fast as strided views of a (..., n_sats, 3) one.
    column = (-1,) + (1,) * (states.ndim - 1)
    dx, dy, dz = (s.reshape(column) - states[..., i] for i, s in enumerate(sats.T))
    out = _range(dx, dy, dz)
    out += states[..., 3]
    return np.moveaxis(out, 0, -1)


def _geometry(sats, states) -> tuple:
    """sats and states as float arrays, checked to be (n_sats, 3)
    satellite positions and a state or stack of states (..., 4); the
    ValueError names both shapes.  pseudoranges and _linearize_rows check
    their input with it."""
    sats, states = np.asarray(sats, dtype=float), np.asarray(states, dtype=float)
    if sats.ndim != 2 or sats.shape[1] != 3 or states.shape[-1:] != (4,):
        raise ValueError(f"need sats (n, 3) and states (..., 4), got {sats.shape}, {states.shape}")
    return sats, states


def _range(dx, dy, dz):
    """Length of the vectors with components dx, dy, dz.

    The explicit sum sqrt(dx*dx + dy*dy + dz*dz) adds in the order of
    np.linalg.norm over a last axis of length 3, so it has the same bits.
    It runs in place in a new array and never writes into its arguments,
    which may be views (linearize passes them).
    """
    out = dx * dx
    out += dy * dy
    out += dz * dz
    return np.sqrt(out, out=out)


def linearize(sats: np.ndarray, nominal: np.ndarray) -> tuple:
    """First-order pseudorange model around a nominal state.

    Returns (C, y0): row i of C is [-unit vector to satellite i, 1] and
    y0 holds the predicted pseudoranges at the nominal state, so that
    y ~= y0 + C (x - nominal).  `nominal` has shape (..., 4); C has shape
    (..., n_sats, 4) and y0 (..., n_sats), and each nominal state of a
    stack gets exactly its own linearization.  It is _linearize_rows with
    its failures raised: a nominal position within 1 m of a satellite
    raises that state's GeometryError unchanged, of the lowest such
    state of a stack.
    """
    c_mat, y0, failed = _linearize_rows(sats, nominal)
    if failed:
        raise failed[min(failed)]
    return c_mat, y0


def _linearize_rows(sats, nominal) -> tuple:
    """linearize with its failures as data: returns C, y0 and failed, a
    dict of the flat indices of the nominal states within 1 m of a
    satellite and their GeometryErrors, empty when there is none.  The
    ranges of such a state are raised to 1 m, so its C and y0 are
    finite.  The shapes are checked as in pseudoranges (_geometry)."""
    sats, nominal = _geometry(sats, nominal)
    diff = sats - nominal[..., None, :3]
    ranges = _range(diff[..., 0], diff[..., 1], diff[..., 2])
    close = ranges < 1.0
    failed = {}
    if np.any(close):
        for b in np.flatnonzero(close.any(-1)):
            failed[int(b)] = GeometryError("nominal position coincides with a satellite")
        ranges = np.maximum(ranges, 1.0)
    c_mat = np.concatenate([-diff / ranges[..., None], np.ones(ranges.shape + (1,))], axis=-1)
    y0 = ranges + nominal[..., 3:4]
    return c_mat, y0, failed
