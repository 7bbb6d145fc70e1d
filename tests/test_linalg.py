"""Tests for the shared linear-algebra helpers."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from skewt_estim._linalg import solve_spd
from skewt_estim.exceptions import NumericalFailureError


def cho_reference(s, b):
    factor = scipy.linalg.cho_factor(s, check_finite=False)
    return scipy.linalg.cho_solve(factor, b, check_finite=False)


class TestSolveSpd:
    @settings(deadline=None, max_examples=200)
    @given(
        dim=st.integers(1, 12),
        n_rhs=st.integers(0, 14),
        seed=st.integers(0, 2**32 - 1),
        ridge=st.floats(1e-6, 10.0),
    )
    def test_bit_equal_to_cho_solve(self, dim, n_rhs, seed, ridge):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, dim))
        s = a @ a.T + ridge * np.eye(dim)
        # Column-count 0 stands for a vector right-hand side; the
        # transposed one is not contiguous, as in the filter's gain.
        b = rng.standard_normal(dim) if n_rhs == 0 else rng.standard_normal((n_rhs, dim)).T
        np.testing.assert_array_equal(solve_spd(s, b), cho_reference(s, b))

    def test_singular_psd_escalates_jitter(self):
        s = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 2.0])
        with pytest.raises(scipy.linalg.LinAlgError):
            scipy.linalg.cho_factor(s)
        # Mean diagonal 1, so the first jitter level adds 1e-12.
        expected = cho_reference(s + 1e-12 * np.eye(2), b)
        np.testing.assert_array_equal(solve_spd(s, b), expected)

    def test_indefinite_raises_with_smallest_eigenvalue(self):
        s = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NumericalFailureError, match="innovation") as info:
            solve_spd(s, np.ones(2), what="innovation covariance")
        assert info.value.smallest_eigenvalue == pytest.approx(-1.0)

    @pytest.mark.parametrize(
        "s",
        [
            [[1.0, np.inf], [np.inf, 1.0]],
            [[-np.inf, 0.0], [0.0, 1.0]],
            # numpy's eigvalsh raises an untyped "did not converge" on it.
            [[1.0, 2.0, np.nan], [2.0, 1.0, 0.0], [np.nan, 0.0, 1.0]],
        ],
        ids=["inf", "minus_inf", "nan"],
    )
    def test_non_finite_failure_is_typed_without_eigenvalue(self, s):
        s = np.array(s)
        with pytest.raises(NumericalFailureError) as info:
            solve_spd(s, np.ones(len(s)), what="innovation covariance")
        assert str(info.value) == "innovation covariance is not finite"
        assert info.value.smallest_eigenvalue is None
