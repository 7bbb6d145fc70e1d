"""Planar likelihood-contour grids for the three noise models.

Three range beacons measure a 2-D position; two of the ranges carry large
positive errors.  The grid records, at every position, the log likelihood
under normal, Student-t and skew-t noise whose first two moments coincide,
illustrating how the asymmetric model spreads its mass toward the outlier
side.
"""

import numpy as np

from ..skewt import SkewTComponent, log_pdf, moment_match, moments

__all__ = ["likelihood_contour_grid", "write_contour_csv", "CONTOUR_HEADER"]

CONTOUR_HEADER = "x,y,loglik_normal,loglik_student_t,loglik_skew_t"

# Beacon layout and true position of the illustration scene (meters).
_BEACONS = np.array([[-4.0, 0.0], [4.0, 0.0], [0.0, 5.0]])
_TRUE_POS = np.array([0.0, 0.0])
# Positive range errors applied to the first two beacons.
_OUTLIERS = np.array([5.0, 5.0, 0.0])


def likelihood_contour_grid(
    delta: float,
    nu: float,
    extent: float = 10.0,
    n_grid: int = 81,
) -> dict:
    """Log-likelihood surfaces of the three moment-matched noise models.

    Returns a dict with the grid axes ('x', 'y') and one (n_grid, n_grid)
    array per model ('normal', 'student_t', 'skew_t').
    """
    # Imported here: scipy.stats costs more to import than the rest of the
    # package, and nothing else in it needs scipy.stats.
    from scipy.stats import norm, t as t_dist

    comp = SkewTComponent(spread_sq=1.0, shape=delta, dof=nu)
    mean_off, _ = moments(comp)
    normal_var, t_scale_sq, t_dof = moment_match(comp)

    ranges = np.linalg.norm(_BEACONS - _TRUE_POS, axis=1) + _OUTLIERS
    axis = np.linspace(-extent, extent, n_grid)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    pos = np.stack([gx.ravel(), gy.ravel()], axis=1)

    out = {
        "x": axis,
        "y": axis,
        "normal": np.zeros(pos.shape[0]),
        "student_t": np.zeros(pos.shape[0]),
        "skew_t": np.zeros(pos.shape[0]),
    }
    for i, beacon in enumerate(_BEACONS):
        resid = ranges[i] - np.linalg.norm(pos - beacon, axis=1)
        out["normal"] += norm.logpdf(resid, loc=mean_off, scale=np.sqrt(normal_var))
        out["student_t"] += t_dist.logpdf(
            resid, t_dof, loc=mean_off, scale=np.sqrt(t_scale_sq)
        )
        out["skew_t"] += log_pdf(comp, resid)
    for key in ("normal", "student_t", "skew_t"):
        out[key] = out[key].reshape(n_grid, n_grid)
    return out


def write_contour_csv(grid: dict, path) -> None:
    """Write a contour grid as CSV rows x,y,loglik_normal,loglik_t,loglik_skew_t."""
    lines = [CONTOUR_HEADER]
    nx = grid["x"].size
    ny = grid["y"].size
    for i in range(nx):
        for j in range(ny):
            lines.append(
                f"{grid['x'][i]:.9g},{grid['y'][j]:.9g},"
                f"{grid['normal'][i, j]:.9g},"
                f"{grid['student_t'][i, j]:.9g},"
                f"{grid['skew_t'][i, j]:.9g}"
            )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
