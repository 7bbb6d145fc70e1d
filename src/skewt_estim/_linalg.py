"""Small shared linear-algebra helpers."""

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .exceptions import NumericalFailureError

# Relative jitter levels tried before giving up on a positive-definite solve.
_JITTER_LEVELS = (0.0, 1e-12, 1e-9)


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the symmetric part (a + a.T) / 2 of a matrix or of each
    matrix of a stack."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def solve_spd(s: np.ndarray, b: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Solve s @ x = b for symmetric positive-definite s.

    Calls LAPACK potrf/potrs (upper factor) directly.  Escalating diagonal
    jitter (1e-12 then 1e-9 times the mean diagonal) is added if the
    Cholesky factorization fails; after that a NumericalFailureError is
    raised, naming a non-finite s as such and otherwise carrying the
    smallest eigenvalue of s.  Finiteness is checked only then, so a
    non-finite s that LAPACK factors, such as [[nan, 0], [0, 1]], gives
    a non-finite solution with no error.
    """
    mat = s
    for level in _JITTER_LEVELS:
        if level:
            scale = float(np.trace(s)) / max(s.shape[0], 1)
            scale = scale if np.isfinite(scale) and scale > 0.0 else 1.0
            mat = s + (level * scale) * np.eye(s.shape[0])
        c, info = dpotrf(mat, clean=0)
        if info == 0:
            return dpotrs(c, b)[0]
    if not np.isfinite(s).all():
        raise NumericalFailureError(f"{what} is not finite")
    raise NumericalFailureError(
        f"{what} is not positive definite",
        smallest_eigenvalue=float(np.linalg.eigvalsh(symmetrize(s)).min()),
    )


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """A square-root factor L with L @ L.T = m for symmetric PSD m.

    Tries Cholesky first; falls back to an eigendecomposition with negative
    eigenvalues clipped to zero, so exactly singular matrices (e.g. process
    noise with frozen components) are accepted.
    """
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(symmetrize(m))
        w = np.clip(w, 0.0, None)
        return v * np.sqrt(w)
