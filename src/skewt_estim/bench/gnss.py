"""Synthetic GNSS pseudorange scenario: geometry, simulation, linearization.

The state is [x, y, z, clock bias] in meters.  Pseudoranges to a fixed
synthetic satellite constellation are the geometric range plus the clock
bias plus independent skew-t noise.  Horizontal position follows a random
walk with configurable step size, the vertical channel walks with a fixed
0.2 m step, and the clock bias stays constant within a trajectory.
"""

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
    estimators : estimator names to run (subset of KNOWN_ESTIMATORS).
    name : scenario identifier used in result records.
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
        unknown = [e for e in self.estimators if e not in KNOWN_ESTIMATORS]
        if unknown:
            raise ValueError(
                f"unknown estimators {unknown}; known: {KNOWN_ESTIMATORS}"
            )
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
    depends only on cfg.seed so all replications share the geometry.
    """
    rng = np.random.default_rng(cfg.seed ^ int(replication))
    sats = make_constellation(cfg.n_sats, cfg.seed)

    mean, cov = trajectory_prior(cfg)
    states = np.zeros((cfg.K, 4))
    states[0] = mean + np.sqrt(np.diag(cov)) * rng.standard_normal(4)
    walk_std = np.array([cfg.q, cfg.q, VERTICAL_WALK_STD_M, 0.0])
    for k in range(1, cfg.K):
        states[k] = states[k - 1] + walk_std * rng.standard_normal(4)

    ranges = np.linalg.norm(
        sats[None, :, :] - states[:, None, :3], axis=2
    )
    meas = ranges + states[:, 3:4]
    comp = SkewTComponent(spread_sq=1.0, shape=cfg.delta, dof=cfg.nu)
    for i in range(cfg.n_sats):
        meas[:, i] += sample_rng(comp, cfg.K, rng)
    return Trajectory(states, meas)


def linearize(sats: np.ndarray, nominal: np.ndarray) -> tuple:
    """First-order pseudorange model around a nominal state.

    Returns (C, y0): row i of C is [-unit vector to satellite i, 1] and
    y0 holds the predicted pseudoranges at the nominal state, so that
    y ~= y0 + C (x - nominal).
    """
    sats = np.atleast_2d(np.asarray(sats, dtype=float))
    nominal = np.atleast_1d(np.asarray(nominal, dtype=float))
    diff = sats - nominal[:3]
    ranges = np.linalg.norm(diff, axis=1)
    if np.any(ranges < 1.0):
        raise GeometryError("nominal position coincides with a satellite")
    c_mat = np.hstack([-diff / ranges[:, None], np.ones((sats.shape[0], 1))])
    y0 = ranges + nominal[3]
    return c_mat, y0
