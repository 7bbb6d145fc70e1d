"""Position accuracy and consistency metrics."""

import numpy as np

__all__ = ["rmse", "nees"]


def _positions(estimates, truth) -> tuple:
    """The first three columns of estimates and truth as float arrays,
    checked to have one shape (K, 3)."""
    est = np.atleast_2d(np.asarray(estimates, dtype=float))[:, :3]
    tru = np.atleast_2d(np.asarray(truth, dtype=float))[:, :3]
    if est.shape != tru.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {tru.shape}")
    return est, tru


def rmse(estimates: np.ndarray, truth: np.ndarray) -> float:
    """Root-mean-square position error over a trajectory.

    Both arguments are (K, 3) position arrays (extra columns are ignored);
    the RMSE is the root of the mean squared error norm over time.
    """
    est, tru = _positions(estimates, truth)
    return float(np.sqrt(np.mean(np.sum((est - tru) ** 2, axis=1))))


def nees(estimates: np.ndarray, covs: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-step normalized estimation error squared of the position block.

    e_k^T P_k^{-1} e_k with e_k the position error and P_k the 3x3
    position covariance; a consistent estimator averages 3.  One stacked
    np.linalg.solve serves all K steps, and each product e_k^T x_k is a
    (1, 3) @ (3, 1) matmul: both give the bits of the per-step
    e_k @ np.linalg.solve(P_k, e_k).  The truth is checked against the
    estimates as in rmse.
    """
    est, tru = _positions(estimates, truth)
    covs = np.asarray(covs, dtype=float)
    if covs.ndim != 3 or covs.shape[0] != est.shape[0]:
        raise ValueError("covs must be (K, n, n) aligned with estimates")
    err = est - tru
    return (err[:, None, :] @ np.linalg.solve(covs[:, :3, :3], err[..., None]))[:, 0, 0]
