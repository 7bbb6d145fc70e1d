"""Tests for the gated Kalman baselines and the bootstrap particle filter."""

import re
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

import skewt_estim.baselines as baselines
from skewt_estim.baselines import (
    GATE_THRESHOLD,
    _component_log_likelihoods,
    _density_table,
    _pf_moments,
    _stacked_tables,
    _systematic_resample,
    kf_gated_run,
    kf_gated_update,
    pf_run,
    rtss_gated_run,
)
from skewt_estim.bench import ScenarioConfig, make_constellation, scenario_model, simulate
from skewt_estim.bench.gnss import pseudoranges
from skewt_estim.exceptions import DegeneracyError, NumericalFailureError
from skewt_estim.filtering import GaussianBelief, StateSpaceModel
from skewt_estim.skewt import SkewTComponent, log_pdf

from reference import (
    component_log_likelihoods_interp,
    component_log_likelihoods_two_read,
    kalman_filter,
    rts_smooth,
    wls_pool,
)
from test_filtering import random_model, simulate_linear


class TestGateThreshold:
    def test_is_chi2_quantile_bit_for_bit(self):
        assert GATE_THRESHOLD == chi2.ppf(0.99, df=1)

    def test_value(self):
        assert GATE_THRESHOLD == pytest.approx(6.635, abs=1e-3)


class TestGatedUpdate:
    def test_all_inlying_equals_kalman(self):
        prior = GaussianBelief(np.zeros(2), np.eye(2))
        c = np.eye(2)
        y = np.array([0.5, -0.3])
        out = kf_gated_update(c, np.ones(2), prior, y)
        means, covs, _, _ = kalman_filter(
            np.eye(2), np.zeros((2, 2)), c, np.ones(2),
            prior.mean, prior.cov, [y],
        )
        np.testing.assert_allclose(out.mean, means[0], atol=1e-12)
        np.testing.assert_allclose(out.cov, covs[0], atol=1e-12)

    def test_outlier_component_discarded(self):
        prior = GaussianBelief(np.zeros(2), np.eye(2))
        c = np.eye(2)
        y = np.array([0.5, 20.0])  # second component at >10 sigma
        gated = kf_gated_update(c, np.ones(2), prior, y)
        only_first = kf_gated_update(
            c[:1], np.ones(1), prior, y[:1]
        )
        np.testing.assert_allclose(gated.mean, only_first.mean, atol=1e-12)
        np.testing.assert_allclose(gated.cov, only_first.cov, atol=1e-12)

    def test_posterior_never_exceeds_prior(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            n_x, n_y = 3, 4
            a = rng.standard_normal((n_x, n_x))
            prior = GaussianBelief(
                rng.standard_normal(n_x), a @ a.T + 0.5 * np.eye(n_x)
            )
            c = rng.standard_normal((n_y, n_x))
            out = kf_gated_update(
                c, rng.uniform(0.5, 2.0, n_y), prior, rng.normal(0, 3, n_y)
            )
            diff = prior.cov - out.cov
            np.linalg.cholesky(diff + 1e-9 * np.eye(n_x))

    @pytest.mark.parametrize("y, shape", [(np.zeros(3), "(3,)"), (np.zeros(1), "(1,)"), (0.0, "(1,)")])
    def test_measurement_length_validated(self, y, shape):
        # A short y would be gated on its first components only.
        model = random_model(np.random.default_rng(1), 3, 2)
        with pytest.raises(ValueError, match=re.escape(f"y must have shape (2,), got {shape}")):
            kf_gated_update(model.C, model.R, model.prior_belief(), y)

    @pytest.mark.parametrize("r, shape", [(np.ones(3), "(3,)"), (np.ones(1), "(1,)"), (1.0, "(1,)")])
    def test_matched_variance_length_validated(self, r, shape):
        # A long r_matched would be used without its last entries.
        with pytest.raises(
            ValueError, match=re.escape(f"r_matched must have shape (2,), got {shape}")
        ):
            kf_gated_update(np.eye(2), r, GaussianBelief(np.zeros(2), np.eye(2)), np.zeros(2))


class TestGatedSmoother:
    def test_matches_classical_smoother_without_gating(self):
        rng = np.random.default_rng(52)
        model = random_model(rng, 3, 2, delta=0.0, nu=1e8)
        ys = simulate_linear(model, rng, 20)
        smoothed = rtss_gated_run(model, ys)
        means, covs, pred_means, pred_covs = kalman_filter(
            model.A, model.Q, model.C, model.R,
            model.prior_mean, model.prior_cov, ys,
        )
        sm, sp = rts_smooth(model.A, means, covs, pred_means, pred_covs)
        for k in range(20):
            np.testing.assert_allclose(smoothed[k].mean, sm[k], atol=1e-8)
            np.testing.assert_allclose(smoothed[k].cov, sp[k], atol=1e-8)

    def test_single_step_equals_update(self):
        rng = np.random.default_rng(53)
        model = random_model(rng, 2, 2, delta=0.0, nu=1e8)
        y = np.array([0.4, 0.2])
        smoothed = rtss_gated_run(model, [y])
        upd = kf_gated_update(model.C, model.R, model.prior_belief(), y)
        np.testing.assert_allclose(smoothed[0].mean, upd.mean, atol=1e-12)

    def test_static_state_fully_pooled(self):
        rng = np.random.default_rng(54)
        n_steps = 12
        model = StateSpaceModel(
            A=np.eye(2), Q=np.zeros((2, 2)),
            C=np.array([[1.0, 0.2], [0.3, 1.0]]), R=[0.8, 1.2],
            Delta=[0.0, 0.0], nu=[1e8, 1e8],
            prior_mean=np.zeros(2), prior_cov=np.eye(2),
        )
        truth = np.array([0.4, -0.6])
        ys = truth @ model.C.T + 0.3 * rng.standard_normal((n_steps, 2))
        smoothed = rtss_gated_run(model, ys)
        for b in smoothed[1:]:
            np.testing.assert_allclose(b.mean, smoothed[0].mean, atol=1e-8)
        c_rows = list(model.C) * n_steps
        variances = list(model.R) * n_steps
        mean_ref, _ = wls_pool(
            c_rows, variances, model.prior_mean, model.prior_cov, ys.ravel()
        )
        np.testing.assert_allclose(smoothed[0].mean, mean_ref, atol=1e-8)

    @pytest.mark.parametrize("run", [kf_gated_run, rtss_gated_run])
    def test_measurement_length_validated(self, run):
        model = random_model(np.random.default_rng(55), 3, 2)
        with pytest.raises(ValueError, match=r"ys\[1\] must have shape \(2,\), got \(3,\)"):
            run(model, [np.zeros(2), np.zeros(3)])

    @pytest.mark.parametrize("run", [kf_gated_run, rtss_gated_run])
    def test_nonfinite_measurement_fails_with_step(self, run):
        model = random_model(np.random.default_rng(56), 3, 2)
        ys = np.zeros((4, 2))
        ys[2, 1] = np.nan
        with pytest.raises(NumericalFailureError, match="measurement is not finite") as info:
            run(model, ys)
        assert info.value.step == 2
        with pytest.raises(NumericalFailureError, match="measurement is not finite"):
            kf_gated_update(model.C, model.R, model.prior_belief(), ys[2])

    def test_zero_dynamics_keeps_filtered_beliefs(self):
        # A = 0, Q = 0 makes every prediction covariance exactly zero, so
        # the backward gain is zero and smoothing changes nothing.
        model = StateSpaceModel(
            A=np.zeros((2, 2)), Q=np.zeros((2, 2)), C=np.eye(2), R=[1.0, 1.0],
            Delta=[0.0, 0.0], nu=[1e8, 1e8],
            prior_mean=np.zeros(2), prior_cov=np.eye(2),
        )
        ys = [np.array([0.3, -0.2]), np.array([0.1, 0.4]), np.array([-0.5, 0.0])]
        smoothed = rtss_gated_run(model, ys)
        filtered = kf_gated_run(model, ys)
        for s, f in zip(smoothed, filtered):
            np.testing.assert_array_equal(s.mean, f.mean)
            np.testing.assert_array_equal(s.cov, f.cov)


class TestParticleFilter:
    def test_matches_kalman_in_gaussian_limit(self):
        model = StateSpaceModel(
            A=[[0.95]], Q=[[0.3]], C=[[1.0]], R=[1.0], Delta=[0.0], nu=[1e8],
            prior_mean=[0.0], prior_cov=[[2.0]],
        )
        rng = np.random.default_rng(55)
        ys = simulate_linear(model, rng, 10)
        out = pf_run(model, ys, 100_000, seed=56)
        means, _, _, _ = kalman_filter(
            model.A, model.Q, model.C, model.R,
            model.prior_mean, model.prior_cov, ys,
        )
        for k in range(10):
            assert out[k].mean[0] == pytest.approx(means[k][0], abs=0.05)

    def test_empty_sequence(self):
        rng = np.random.default_rng(57)
        model = random_model(rng, 2, 2)
        assert pf_run(model, [], 1000, seed=0) == []

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(58)
        model = random_model(rng, 2, 2, delta=2.0, nu=4.0)
        ys = simulate_linear(model, rng, 5)
        a = pf_run(model, ys, 2000, seed=59)
        b = pf_run(model, ys, 2000, seed=59)
        for ba, bb in zip(a, b):
            assert np.array_equal(ba.mean, bb.mean)
            assert np.array_equal(ba.cov, bb.cov)

    @pytest.mark.parametrize("y, shape", [(np.zeros(1), "(1,)"), (np.zeros(2), "(2,)"), (0.0, "(1,)"), (np.zeros(4), "(4,)")])
    def test_measurement_length_validated(self, y, shape):
        # A length-1 y would broadcast over all three components.
        model = random_model(np.random.default_rng(63), 2, 3)
        with pytest.raises(ValueError, match=re.escape(f"ys[1] must have shape (3,), got {shape}")):
            pf_run(model, [np.zeros(3), y], 200, seed=1)

    def test_particle_floor(self):
        rng = np.random.default_rng(60)
        model = random_model(rng, 2, 2)
        with pytest.raises(ValueError):
            pf_run(model, [np.zeros(2)], 99, seed=0)

    def test_nonlinear_measurement_function(self):
        # A PF on ranges to three beacons localizes a static 2-D point.
        model = StateSpaceModel(
            A=np.eye(2), Q=np.zeros((2, 2)), C=np.zeros((3, 2)),
            R=[0.01, 0.01, 0.01], Delta=[0.0, 0.0, 0.0], nu=[1e8, 1e8, 1e8],
            prior_mean=np.zeros(2), prior_cov=4.0 * np.eye(2),
        )
        beacons = np.array([[5.0, 0.0], [0.0, 5.0], [-4.0, -3.0]])
        truth = np.array([1.0, 0.5])

        def h(states):
            return np.linalg.norm(
                beacons[None, :, :] - states[:, None, :], axis=2
            )

        y = h(truth[None, :])[0]
        out = pf_run(model, [y], 200_000, seed=61, measurement_fn=h)
        np.testing.assert_allclose(out[0].mean, truth, atol=0.05)

    def test_degeneracy_reported_with_step(self, monkeypatch):
        rng = np.random.default_rng(62)
        model = random_model(rng, 2, 2)
        monkeypatch.setattr(
            baselines,
            "_component_log_likelihoods",
            lambda m, r: np.full_like(r, -np.inf),
        )
        with pytest.raises(DegeneracyError, match="time step 0"):
            pf_run(model, [np.zeros(2)], 1000, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 1])
    def test_degeneracy_from_nonfinite_measurement(self, bad, column):
        # A NaN or infinite residual gives a NaN likelihood, which must
        # reach the degeneracy check without a warning, an index error in
        # the lookup or log_pdf's ValueError on nonfinite input.
        model = noise_model_of([(1.0, 5.0, 4.0), (1.0, 5.0, 1.2)])
        y = np.zeros(2)
        y[column] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegeneracyError, match="time step 1"):
                pf_run(model, [np.zeros(2), y], 1000, seed=0)

    @staticmethod
    def sweep_run():
        """The arguments of a PF run on six steps of a sweep scenario."""
        cfg = ScenarioConfig(q=5.0, delta=5.0, nu=4.0, rho=100.0, K=6, n_mc=1, seed=1)
        sats = make_constellation(cfg.n_sats, cfg.seed)
        ys = simulate(cfg, 0).measurements
        return (scenario_model(cfg, sats), ys, 1000, 7), partial(pseudoranges, sats)

    def test_beliefs_are_the_rows_of_the_moment_arrays(self):
        args, h = self.sweep_run()
        means, covs = _pf_moments(*args, measurement_fn=h)
        beliefs = pf_run(*args, measurement_fn=h)
        assert (means.shape, covs.shape) == ((6, 4), (6, 4, 4))
        for b, m, c in zip(beliefs, means, covs, strict=True):
            assert np.array_equal(b.mean, m)
            assert np.array_equal(b.cov, c)

    def test_density_tables_resolved_once_per_run(self, monkeypatch):
        args, h = self.sweep_run()
        real = baselines._stacked_tables
        calls = []

        def spy(comps):
            calls.append(comps)
            return real(comps)

        monkeypatch.setattr(baselines, "_stacked_tables", spy)
        pf_run(*args, measurement_fn=h)
        assert calls == [args[0].noise_model()]
        _pf_moments(*args, measurement_fn=h)
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "h, shape",
        [
            (lambda s: s[:, :1], (1000, 1)),
            (lambda s: s.T, (2, 1000)),
            (lambda s: s[:, 0], (1000,)),
        ],
        ids=["one-column", "transposed", "flat"],
    )
    def test_measurement_fn_shape_validated(self, h, shape):
        # (n_p, 1) would broadcast against the (n_y,) measurement without
        # the check, and (n_y, n_p) is the layout the filter uses inside.
        model = random_model(np.random.default_rng(67), 2, 2)
        message = re.escape(f"measurement_fn must return (n_p, n_y) = (1000, 2), got {shape}")
        with pytest.raises(ValueError, match=message):
            pf_run(model, [np.zeros(2)], 1000, seed=0, measurement_fn=h)

    def test_linear_measurement_fn_bit_equal_to_linear_map(self):
        rng = np.random.default_rng(64)
        model = random_model(rng, 2, 3, delta=2.0, nu=4.0)
        ys = simulate_linear(model, rng, 8)
        plain = pf_run(model, ys, 1000, seed=65)
        mapped = pf_run(model, ys, 1000, seed=65, measurement_fn=lambda s: s @ model.C.T)
        for a, b in zip(plain, mapped, strict=True):
            assert np.array_equal(a.mean, b.mean)
            assert np.array_equal(a.cov, b.cov)


class _AlmostOneRng:
    """Stub generator whose uniform draw is the largest double below 1."""

    def random(self):
        return np.nextafter(1.0, 0.0)


class TestSystematicResample:
    def test_index_clamped_when_cumsum_rounds_below_one(self):
        # With the offset just below 1 the last position, (n - 1 + u) / n,
        # can exceed a cumulative sum that rounds to just below 1;
        # searchsorted then returns n, one past the last particle.
        rng = np.random.default_rng(63)
        rounded_low = 0
        for _ in range(2000):
            n = int(rng.integers(100, 1100))
            w = rng.random(n)
            w /= w.sum()
            idx = _systematic_resample(w, _AlmostOneRng())
            positions = (np.arange(n) + np.nextafter(1.0, 0.0)) / n
            raw = np.searchsorted(np.cumsum(w), positions)
            rounded_low += raw[-1] == n
            assert idx.max() <= n - 1
            np.testing.assert_array_equal(idx, np.minimum(raw, n - 1))
        assert rounded_low > 0


def noise_model_of(components):
    """A one-state model whose measurement noise has the given
    (spread_sq, shape, dof) components."""
    spread_sq, shape, dof = (np.array(v, dtype=float) for v in zip(*components))
    n_y = len(components)
    return StateSpaceModel(
        A=np.eye(1), Q=np.eye(1), C=np.ones((n_y, 1)), R=spread_sq,
        Delta=shape, nu=dof, prior_mean=np.zeros(1), prior_cov=np.eye(1),
    )


def components_of(components):
    """The SkewTComponent tuple of (spread_sq, shape, dof) triples."""
    return tuple(SkewTComponent(*c) for c in components)


# Five tables the grid-step cap leaves unchanged, among them every table
# of the benchmark and the static experiments, and two it refines: heavy
# tails (dof 1.2) and a large shape.
TABLE_COMPONENTS = [
    (1.0, 5.0, 4.0), (1.0, 0.0, 1e8), (1.0, 5.0, 1e8), (1.0, 0.0, 4.0),
    (0.25, 2.0, 3.0), (1.0, 5.0, 1.2), (1.0, 50.0, 4.0),
]


@st.composite
def lookup_cases(draw):
    """Components, some with dof <= 2, and residuals that sit on grid
    points, their float neighbours, the grid ends, inside and outside the
    grid, or are NaN."""
    comps = draw(st.lists(
        st.tuples(
            st.sampled_from([0.25, 1.0]) | st.floats(0.05, 10.0),
            st.sampled_from([0.0, 5.0, 50.0]) | st.floats(0.0, 60.0),
            st.sampled_from([1.2, 2.0, 4.0, 30.0, 1e8]) | st.floats(0.6, 60.0),
        ),
        min_size=1, max_size=4,
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_p = 300
    residuals = np.empty((len(comps), n_p))
    for i, comp in enumerate(comps):
        grid, _ = _density_table(*comp)
        node = grid[rng.integers(0, grid.size, n_p)]
        candidates = np.stack([
            node,
            np.nextafter(node, np.inf),
            np.nextafter(node, -np.inf),
            np.where(rng.random(n_p) < 0.5, grid[0], grid[-1]),
            rng.uniform(grid[0], grid[-1], n_p),
            rng.uniform(grid[0] - 100.0, grid[-1] + 100.0, n_p),
            np.full(n_p, np.nan),
        ])
        kind = rng.choice(len(candidates), n_p, p=[0.2, 0.15, 0.15, 0.1, 0.2, 0.15, 0.05])
        residuals[i] = candidates[kind, np.arange(n_p)]
    return components_of(comps), residuals


class TestLikelihoodLookup:
    """The one-pass lookup of a residual matrix (n_y, n_p) is bit-equal to
    the same two-read arithmetic run one component at a time
    (reference.component_log_likelihoods_two_read), which checks the
    stacking, the offsets and the handling of residuals outside a grid,
    and lies within a rounding bound of np.interp in the same tables."""

    @settings(deadline=None, max_examples=60)
    @given(lookup_cases())
    def test_bit_equal_to_interp_per_component(self, case):
        comps, residuals = case
        np.testing.assert_array_equal(
            _component_log_likelihoods(_stacked_tables(comps), residuals),
            component_log_likelihoods_two_read(comps, residuals),
        )

    @pytest.mark.parametrize("comp", TABLE_COMPONENTS)
    def test_bit_equal_on_every_grid_point_and_its_neighbours(self, comp):
        grid, _ = _density_table(*comp)
        residuals = np.concatenate(
            [grid, np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf)]
        )[None]
        comps = components_of([comp])
        np.testing.assert_array_equal(
            _component_log_likelihoods(_stacked_tables(comps), residuals),
            component_log_likelihoods_two_read(comps, residuals),
        )

    @pytest.mark.parametrize("comp", TABLE_COMPONENTS + [(1.0, 5.0, 0.5)])
    def test_within_rounding_of_interp(self, comp):
        """Both lookups take the piecewise-linear interpolant through the
        table's points; they differ in rounding only.  The lookup's
        position q = (r - lo) / step, in grid steps, carries a relative
        error of a few eps, so up to about 2 eps (G - 1) steps at q <= G - 1,
        as does np.interp's grid point grid[j] = lo + j step on these grids,
        which hold 0 (|lo|, |hi| <= (G - 1) step).  A position error of
        one step moves the value by |slope[j]|, and the products and sums
        round by eps |table[j]| and less, so the two differ by at most
        4 eps ((G - 1) |slope[j]| + |table[j]|), j the lookup's bracket.
        Measured on grid points, their float neighbours, the midpoints and
        1e5 uniform draws: at most 0.23 of that bound, and 2.0e-14
        relative to max(1, |value|)."""
        grid, table = _density_table(*comp)
        rng = np.random.default_rng(66)
        residuals = np.concatenate([
            grid, np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf),
            0.5 * (grid[:-1] + grid[1:]), rng.uniform(grid[0], grid[-1], 100_000),
        ])
        comps = components_of([comp])
        got = _component_log_likelihoods(_stacked_tables(comps), residuals[None])[0]
        interp = component_log_likelihoods_interp(comps, residuals[None])[0]
        n_grid = grid.size
        q = (residuals - grid[0]) / ((grid[-1] - grid[0]) / (n_grid - 1))
        j = np.clip(np.floor(q), 0, n_grid - 2).astype(int)
        eps = np.finfo(float).eps
        bound = 4.0 * eps * ((n_grid - 1) * np.abs(np.diff(table))[j] + np.abs(table[j]))
        assert np.all(np.abs(got - interp) <= bound)

    @pytest.mark.parametrize("comp", TABLE_COMPONENTS)
    def test_midpoint_error_bounded(self, comp):
        grid, _ = _density_table(*comp)
        assert grid[1] - grid[0] <= 0.05 * np.sqrt(comp[0]) * (1 + 1e-12)
        mid = 0.5 * (grid[:-1] + grid[1:])
        tables = _stacked_tables(components_of([comp]))
        got = _component_log_likelihoods(tables, mid[None])[0]
        assert np.abs(got - log_pdf(SkewTComponent(*comp), mid)).max() <= 1e-3

    @pytest.mark.parametrize("n_particles", [1000, 100_000])
    @pytest.mark.parametrize("q", [0.5, 5.0])
    def test_pf_bit_equal_to_interp_reference(self, monkeypatch, q, n_particles):
        # A few steps of a sweep scenario (the benchmark's PF workload)
        # with the one-pass lookup and with its per-component reference.
        cfg = ScenarioConfig(q=q, delta=5.0, nu=4.0, rho=100.0, K=4, n_mc=1, seed=1)
        sats = make_constellation(cfg.n_sats, cfg.seed)
        model = scenario_model(cfg, sats)
        ys = simulate(cfg, 0).measurements
        run = partial(pf_run, model, ys, n_particles, 7,
                      measurement_fn=partial(pseudoranges, sats))
        fast = run()
        monkeypatch.setattr(
            baselines, "_component_log_likelihoods",
            lambda tables, residuals: component_log_likelihoods_two_read(tables.comps, residuals),
        )
        for a, b in zip(fast, run(), strict=True):
            assert np.array_equal(a.mean, b.mean)
            assert np.array_equal(a.cov, b.cov)

