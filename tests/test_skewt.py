"""Tests for the skew-t noise model."""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import gammaln, stdtr
from scipy.stats import kstest, norm, t as t_dist

from skewt_estim.skewt import (
    NoiseModel,
    SkewTComponent,
    _log_t_cdf,
    log_pdf,
    moment_match,
    moments,
    sample,
)

from reference import skewt_log_pdf_quadrature


def closed_form_offset_mean(dof):
    # sqrt(dof/pi) * Gamma((dof-1)/2) / Gamma(dof/2), the unit-shape mean.
    return np.sqrt(dof / np.pi) * np.exp(gammaln((dof - 1) / 2) - gammaln(dof / 2))


class TestSampling:
    def test_normal_limit_moments(self):
        c = SkewTComponent(spread_sq=1.0, shape=0.0, dof=1e8)
        draws = sample(c, 1_000_000, seed=1)
        assert abs(draws.mean()) < 0.005
        assert abs(draws.var() - 1.0) < 0.01

    def test_mean_matches_closed_form(self):
        c = SkewTComponent(spread_sq=1.0, shape=5.0, dof=4.0)
        draws = sample(c, 10_000_000, seed=2)
        expected = 5.0 * closed_form_offset_mean(4.0)
        assert draws.mean() == pytest.approx(expected, abs=0.01)

    def test_symmetric_case_has_no_skew(self):
        c = SkewTComponent(spread_sq=1.0, shape=0.0, dof=4.0)
        draws = sample(c, 1_000_000, seed=3)
        # Third-moment statistic of a clipped sample (heavy tails make the
        # raw skewness estimator unstable); symmetric noise keeps it near 0.
        clipped = np.clip(draws, -20.0, 20.0)
        stat = clipped.mean()
        se = clipped.std() / np.sqrt(clipped.size)
        assert abs(stat) < 3 * se + 1e-3

    def test_deterministic_per_seed(self):
        c = SkewTComponent(spread_sq=2.0, shape=1.0, dof=5.0)
        assert np.array_equal(sample(c, 100, seed=7), sample(c, 100, seed=7))

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            sample(SkewTComponent(1.0, 0.0, 4.0), 0, seed=0)


class TestLogPdf:
    def test_normal_limit_at_zero(self):
        c = SkewTComponent(spread_sq=1.0, shape=0.0, dof=1e8)
        assert log_pdf(c, 0.0) == pytest.approx(-0.9189385, abs=1e-6)

    def test_recovers_normal_density_in_limit(self):
        c = SkewTComponent(spread_sq=1.0, shape=0.0, dof=1e9)
        xs = np.linspace(-5.0, 5.0, 41)
        np.testing.assert_allclose(log_pdf(c, xs), norm.logpdf(xs), atol=1e-6)

    def test_matches_student_t_when_symmetric(self):
        c = SkewTComponent(spread_sq=1.0, shape=0.0, dof=4.0)
        xs = np.linspace(-25.0, 25.0, 31)
        np.testing.assert_allclose(
            log_pdf(c, xs), t_dist.logpdf(xs, 4), atol=1e-10
        )

    @pytest.mark.parametrize(
        "comp",
        [
            SkewTComponent(1.0, 5.0, 4.0),
            SkewTComponent(4.0, -2.0, 3.0),
            SkewTComponent(1.0, 1.0, 30.0),
            SkewTComponent(1.0, 50.0, 1e6),
        ],
    )
    def test_normalization(self, comp):
        total, err = quad(
            lambda x: np.exp(log_pdf(comp, x)), -np.inf, np.inf, limit=300
        )
        assert err < 1e-7
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_right_skew_puts_mass_on_positive_side(self):
        c = SkewTComponent(spread_sq=1.0, shape=5.0, dof=4.0)
        assert log_pdf(c, -2.0) < log_pdf(c, 2.0)

    def test_density_matches_sample_histogram(self):
        c = SkewTComponent(spread_sq=1.0, shape=5.0, dof=4.0)
        draws = sample(c, 10_000_000, seed=11)
        edges = np.linspace(-4.0, 25.0, 30)
        counts, _ = np.histogram(draws, edges)
        probs = np.array(
            [
                quad(lambda x: np.exp(log_pdf(c, x)), lo, hi)[0]
                for lo, hi in zip(edges[:-1], edges[1:])
            ]
        )
        expected = probs * draws.size
        sd = np.sqrt(draws.size * probs * (1 - probs))
        assert np.all(np.abs(counts - expected) < 3 * sd + 1.0)

    def test_sampling_against_integrated_cdf(self):
        c = SkewTComponent(spread_sq=1.0, shape=3.0, dof=5.0)
        draws = sample(c, 100_000, seed=13)
        grid = np.linspace(draws.min() - 5.0, draws.max() + 5.0, 200_001)
        pdf = np.exp(log_pdf(c, grid))
        cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))])
        cdf /= cdf[-1]
        stat = kstest(draws, lambda x: np.interp(x, grid, cdf)).statistic
        assert stat < 1.63 / np.sqrt(draws.size)  # 1% critical value

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            log_pdf(SkewTComponent(1.0, 0.0, 4.0), np.inf)

    @pytest.mark.parametrize("dof", [1.2, 4.0, 30.0, 1e4, 1e6])
    def test_matches_quadrature_oracle(self, dof):
        compared = 0
        for shape in (-5.0, 0.0, 5.0, 50.0):
            for spread_sq in (0.01, 1.0, 100.0):
                es = np.linspace(-50.0, 50.0, 201) * np.sqrt(spread_sq + shape**2)
                ref = skewt_log_pdf_quadrature(spread_sq, shape, dof, es)
                ok = np.isfinite(ref)  # NaN where the quadrature did not converge
                got = log_pdf(SkewTComponent(spread_sq, shape, dof), es)
                np.testing.assert_allclose(got[ok], ref[ok], rtol=0.0, atol=1e-8)
                compared += ok.sum()
        assert compared > 0.5 * 12 * 201

    @settings(deadline=None)
    @given(
        e=st.floats(allow_nan=False, allow_infinity=False),
        spread_sq=st.floats(1e-4, 1e6),
        shape=st.floats(-50.0, 50.0),
        dof=st.floats(0.5, 1e8),
    )
    # e / sqrt(nu (r + d^2)) overflows here.
    @example(e=1.2711610061536464e308, spread_sq=0.5, shape=0.0, dof=1.0)
    @example(e=-1.7e308, spread_sq=1e-4, shape=0.0, dof=0.5)
    def test_finite_for_every_finite_residual(self, e, spread_sq, shape, dof):
        assert np.isfinite(log_pdf(SkewTComponent(spread_sq, shape, dof), e))

    @pytest.mark.parametrize("dof", [2.2, 5.0, 31.0, 1e3, 1e4])
    def test_log_t_cdf_tail_matches_mpmath(self, dof):
        # Both sides of the point where stdtr underflows, which is where
        # the continued fraction takes over.
        xs = -np.array([3.0, 10.0, 40.0, 200.0, 1760.0, 1e5])
        with mpmath.workdps(40):
            ref = [
                float(mpmath.log(mpmath.betainc(
                    dof / 2, 0.5, 0, dof / (dof + mpmath.mpf(x) ** 2),
                    regularized=True,
                ) / 2))
                for x in xs
            ]
        np.testing.assert_allclose(_log_t_cdf(dof, xs), ref, rtol=0.0, atol=1e-10)
        if dof >= 1e3:
            assert np.any(stdtr(dof, xs) == 0.0)


class TestMoments:
    def test_student_t_variance_identity(self):
        mean, var = moments(SkewTComponent(spread_sq=1.0, shape=0.0, dof=4.0))
        assert mean == 0.0
        assert var == pytest.approx(2.0, abs=1e-12)

    def test_normal_limit_variance(self):
        _, var = moments(SkewTComponent(spread_sq=1.0, shape=0.0, dof=1e8))
        assert var == pytest.approx(1.0, abs=1e-6)

    def test_monte_carlo_agreement(self):
        c = SkewTComponent(spread_sq=1.0, shape=5.0, dof=4.0)
        mean, var = moments(c)
        draws = sample(c, 10_000_000, seed=17)
        se_mean = draws.std() / np.sqrt(draws.size)
        assert draws.mean() == pytest.approx(mean, abs=3 * se_mean)
        # The 4th moment diverges at dof=4, so estimate the spread of the
        # variance estimator from batch variances of the same run.
        batches = draws.reshape(100, -1).var(axis=1)
        se_var = batches.std() / np.sqrt(batches.size)
        assert draws.var() == pytest.approx(var, abs=3 * se_var)

    def test_heavy_tail_dof_rejected(self):
        with pytest.raises(ValueError):
            moments(SkewTComponent(spread_sq=1.0, shape=0.0, dof=2.0))


class TestMomentMatch:
    def test_student_t_case(self):
        normal_var, t_scale_sq, t_dof = moment_match(
            SkewTComponent(spread_sq=1.0, shape=0.0, dof=4.0)
        )
        assert normal_var == pytest.approx(2.0, abs=1e-12)
        assert t_scale_sq == pytest.approx(1.0, abs=1e-12)
        assert t_dof == 4.0

    def test_normal_limit(self):
        normal_var, _, _ = moment_match(SkewTComponent(1.0, 0.0, 1e8))
        assert normal_var == pytest.approx(1.0, abs=1e-6)

    def test_matched_variance_is_definitional(self):
        c = SkewTComponent(spread_sq=1.0, shape=5.0, dof=4.0)
        assert moment_match(c)[0] == moments(c)[1]


class TestValidation:
    def test_component_field_validation(self):
        with pytest.raises(ValueError):
            SkewTComponent(spread_sq=0.0, shape=1.0, dof=4.0)
        with pytest.raises(ValueError):
            SkewTComponent(spread_sq=1.0, shape=1.0, dof=0.0)

    def test_noise_model_nonempty(self):
        with pytest.raises(ValueError):
            NoiseModel(())
