"""Lockstep kernels against the scalar kernels they batch, bit for bit.

run_experiment filters and smooths the replications of a scenario in one
lockstep batch.  Every row of a batch must equal the same replication
run alone: the truncation, the augmented update, the psi statistic, the
Anderson step, the VB filter update, the smoother and the gated Kalman
filter and smoother are checked row by row with np.array_equal, and a
failing row must leave its batch with the record of its one-row run.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from skewt_estim import filtering, smoothing
from skewt_estim._linalg import symmetrize
from skewt_estim.baselines import (
    _kf_gated_update_rows,
    kf_gated_run,
    kf_gated_update,
    rtss_gated_run,
)
from skewt_estim.bench import (
    ScenarioConfig,
    make_constellation,
    run_experiment,
    scenario_model,
    simulate,
)
from skewt_estim.bench import experiments
from skewt_estim.bench.experiments import (
    _kf_rows,
    _rtss_rows,
    _stf_rows,
    _sts_rows,
    run_estimator,
)
from skewt_estim.bench.gnss import linearize
from skewt_estim.exceptions import EstimationError, NumericalFailureError
from skewt_estim.filtering import (
    GaussianBelief,
    StateSpaceModel,
    VBConfig,
    _anderson_step,
    _augmented_update,
    _linear_source,
    _lstsq2,
    _lstsq2_row,
    _psi_diagonal,
    _stack_cz,
    _stf_update_rows,
    _vb_loop,
    expected_mixing_precision,
    predict,
    stf_run,
    stf_update,
)
from skewt_estim.skewt import SkewTComponent, moments
from skewt_estim.smoothing import (
    _forward_rows,
    _sts_run_rows,
    backward_pass,
    forward_pass,
    sts_run,
    update_lambda,
)
from skewt_estim.truncnorm import UNDERFLOW_XI, _rec_trunc_rows, rec_trunc

from reference import augmented_predictions, backward_pass_augmented, sts_run_scalar
from test_filtering import random_model, simulate_linear


# The three checks of a truncation step that fail a row.
CHECKS = ("nonpositive variance", "variance under tolerance", "non-finite distance")


@st.composite
def truncation_stacks(draw):
    """1-8 rows of SPD moments of one dim 1-16 sharing a truncated set.

    Standardized means reach down into the xi < -37 branch; optionally
    row 0 starts there for certain.  Some rows are made to fail one check
    each, at a truncated direction k: "nonpositive variance" zeroes row
    and column k; "variance under tolerance" leaves k uncorrelated with
    variance 1e-20 and mean -1, so that it is truncated first, below
    1e-14 times the trace; "non-finite distance" sets the mean of k to
    NaN or -inf (truncated first) or +inf (truncated last), or its
    variance to NaN (truncated first).  Returns the moments, the
    truncated set and the failing rows' checks by row.
    """
    n_rows = draw(st.integers(1, 8))
    dim = draw(st.integers(1, 16))
    truncated = sorted(draw(st.sets(st.integers(0, dim - 1), min_size=1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.uniform(-3.0, 3.0, (n_rows, dim, dim))
    cov = a @ a.swapaxes(1, 2) + rng.uniform(0.1, 2.0, (n_rows, 1, 1)) * np.eye(dim)
    cov = 0.5 * (cov + cov.swapaxes(1, 2))
    ratios = rng.uniform(-40.0, 10.0, (n_rows, dim))
    if draw(st.booleans()):
        ratios[0, truncated[0]] = -39.0
    mean = ratios * np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
    # One direction's variance is under 1e-14 times the trace only beside another.
    checks = CHECKS if dim > 1 else CHECKS[::2]
    failing = draw(st.dictionaries(st.integers(0, n_rows - 1), st.sampled_from(checks)))
    for b, check in failing.items():
        k = draw(st.sampled_from(truncated))
        if check == "non-finite distance":
            value = draw(st.sampled_from([np.nan, -np.inf, np.inf, None]))
            if value is None:
                cov[b, k, k] = np.nan
            else:
                mean[b, k] = value
        else:
            cov[b, k, :] = cov[b, :, k] = 0.0
            if check == "variance under tolerance":
                cov[b, k, k], mean[b, k] = 1e-20, -1.0
    return mean, cov, truncated, failing


class TestTruncationRows:
    @settings(deadline=None, max_examples=300)
    @given(truncation_stacks())
    def test_rows_bit_equal_to_rec_trunc(self, case):
        """Each good row equals rec_trunc bit for bit, and each row made to
        fail has rec_trunc's error, of the same type and text, as its
        outcome, and finite outputs.  No step divides by zero, overflows
        or makes a NaN (underflow, which numpy ignores by default, is part
        of the clean path: eps**2 underflows from xi of about 19 on)."""
        mean, cov, truncated, failing = case
        with np.errstate(all="raise", under="ignore"):
            out_mean, out_cov, failed = _rec_trunc_rows(mean, cov, truncated)
            for b in range(len(mean)):
                if b in failing:
                    with pytest.raises(EstimationError) as one:
                        rec_trunc(mean[b], cov[b], truncated)
                    assert type(failed[b]) is type(one.value)
                    assert str(failed[b]) == str(one.value)
                    assert np.isfinite(out_mean[b]).all() and np.isfinite(out_cov[b]).all()
                else:
                    ref_mean, ref_cov = rec_trunc(mean[b], cov[b], truncated)
                    assert_array_equal(out_mean[b], ref_mean)
                    assert_array_equal(out_cov[b], ref_cov)
        assert sorted(failed) == sorted(failing)

    def test_underflow_branch_row_next_to_regular_rows(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 5, 5))
        cov = a @ a.swapaxes(1, 2) + np.eye(5)
        sd = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
        mean = rng.uniform(-2.0, 2.0, (4, 5)) * sd
        mean[1, 2] = 1.5 * UNDERFLOW_XI * sd[1, 2]
        out_mean, out_cov, failed = _rec_trunc_rows(mean, cov, range(5))
        assert failed == {}
        for b in range(4):
            ref_mean, ref_cov = rec_trunc(mean[b], cov[b], range(5))
            assert_array_equal(out_mean[b], ref_mean)
            assert_array_equal(out_cov[b], ref_cov)
        # The deep row's first step takes the limits: its variance goes to 0.
        assert out_cov[1, 2, 2] < 1e-12 * cov[1, 2, 2]

    def test_input_left_untouched(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((3, 4, 4))
        cov = a @ a.swapaxes(1, 2) + np.eye(4)
        mean = rng.standard_normal((3, 4))
        saved = mean.copy(), cov.copy()
        _rec_trunc_rows(mean, cov, [1, 3])
        assert_array_equal(mean, saved[0])
        assert_array_equal(cov, saved[1])


def sequence_source(c_seq, ys):
    """The measurement source of rows with their own measurement matrices
    c_seq (B, K, n_y, n_x) and measurements ys (B, K, n_y), which fails
    no row."""
    return lambda k, rows, x: (c_seq[rows, k], ys[rows, k], {})


def random_rows(rng, n_rows, n_x, n_y):
    a = rng.standard_normal((n_rows, n_x, n_x))
    p = a @ a.swapaxes(1, 2) + 0.1 * np.eye(n_x)
    x = rng.standard_normal((n_rows, n_x))
    y = 5.0 * rng.standard_normal((n_rows, n_y))
    c = rng.standard_normal((n_rows, n_y, n_x))
    return x, p, y, c


class TestUpdateRows:
    @pytest.mark.parametrize("n_rows", [1, 2, 3, 5, 8])
    def test_augmented_update_rows_bit_equal(self, n_rows):
        rng = np.random.default_rng(n_rows)
        for n_x, n_y in ((1, 1), (2, 3), (4, 8)):
            x, p, y, c = random_rows(rng, n_rows, n_x, n_y)
            delta = 3.0 * rng.standard_normal(n_y)
            r = rng.uniform(0.5, 2.0, n_y)
            lam = rng.uniform(0.2, 1.5, (n_rows, n_y))
            cz = _stack_cz(c, delta)
            *stacks, failed = _augmented_update(x, p, y, c, cz, delta, r, lam)
            assert failed == {}
            for b in range(n_rows):
                *wanted, _ = _augmented_update(x[b], p[b], y[b], c[b], cz[b], delta, r, lam[b])
                for got, want in zip(stacks, wanted):
                    assert_array_equal(got[b], want)

    # The default loop, and caps of 1-3 iterations at a loose tolerance:
    # there some rows converge and leave the stack while others are cut
    # off at the cap with the mixing precisions of their last update.
    @pytest.mark.parametrize(
        "cfg", [VBConfig(), VBConfig(1, 0.3), VBConfig(2, 0.3), VBConfig(3, 0.3)]
    )
    @pytest.mark.parametrize("nu", [1.2, 4.0])
    def test_stf_update_rows_bit_equal(self, nu, cfg):
        rng = np.random.default_rng(int(10 * nu))
        n_x, n_y, n_rows = 4, 8, 6
        x, p, y, c = random_rows(rng, n_rows, n_x, n_y)
        model = StateSpaceModel(
            A=np.eye(n_x), Q=np.eye(n_x), C=c[0], R=np.ones(n_y),
            Delta=np.full(n_y, 5.0), nu=np.full(n_y, nu),
            prior_mean=np.zeros(n_x), prior_cov=np.eye(n_x),
        )
        *stacks, failed = _stf_update_rows(model, x, p, y, c, cfg)
        mean, cov, lam, psi, iterations, converged = stacks
        assert failed == {}
        if cfg.max_iterations == 30:
            assert len(set(iterations)) > 1
        elif cfg.max_iterations > 1:
            assert converged.any() and not converged.all()
        for b in range(n_rows):
            *alone, _ = _stf_update_rows(model, x[b], p[b], y[b], c[b], cfg)
            for got, want in zip(stacks, alone):
                assert_array_equal(got[b], want)
            prior = GaussianBelief(x[b], p[b])
            post, diag = stf_update(replace(model, C=c[b]), prior, y[b], cfg)
            assert_array_equal(mean[b, :n_x], post.mean)
            assert_array_equal(cov[b, :n_x, :n_x], post.cov)
            assert_array_equal(lam[b], diag.lambda_diag)
            assert_array_equal(psi[b], diag.psi_diag)
            assert iterations[b] == diag.iterations
            assert converged[b] == diag.converged


    @pytest.mark.parametrize("n_rows", [None, 1, 6])
    def test_prior_terms_once_per_update(self, monkeypatch, n_rows):
        """_stf_update_rows computes the half of the augmented update that
        the mixing precisions do not change once per call, for one row and
        for a stack, and the other half once per VB iteration."""
        rng = np.random.default_rng(5)
        n_x, n_y = 4, 8
        x, p, y, c = random_rows(rng, n_rows or 1, n_x, n_y)
        if n_rows is None:
            x, p, y, c = x[0], p[0], y[0], c[0]
        model = StateSpaceModel(
            A=np.eye(n_x), Q=np.eye(n_x), C=np.reshape(c, (-1, n_y, n_x))[0], R=np.ones(n_y),
            Delta=np.full(n_y, 5.0), nu=np.full(n_y, 1.2),
            prior_mean=np.zeros(n_x), prior_cov=np.eye(n_x),
        )
        calls = {"_prior_terms": 0, "_lambda_update": 0}

        def counting(name):
            real = getattr(filtering, name)

            def run(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return run

        for name in calls:
            monkeypatch.setattr(filtering, name, counting(name))
        *_, iterations, _, _ = _stf_update_rows(model, x, p, y, c)
        assert iterations.max() > 3
        assert calls == {"_prior_terms": 1, "_lambda_update": iterations.max()}

    # The default loop, where rows converge at different iterations, and
    # caps under which some rows converge and leave the stack while others
    # are cut off with the mixing precisions of their last iteration.
    @pytest.mark.parametrize("cfg", [VBConfig(), VBConfig(10, 1e-2), VBConfig(17, 1e-4)])
    @pytest.mark.parametrize("nu", [1.2, 4.0])
    def test_sts_run_rows_bit_equal(self, nu, cfg):
        rng = np.random.default_rng(int(10 * nu))
        n_x, n_y, n_steps, n_rows = 3, 4, 10, 6
        model = StateSpaceModel(
            A=np.eye(n_x), Q=0.1 * np.eye(n_x), C=np.ones((n_y, n_x)), R=np.ones(n_y),
            Delta=np.full(n_y, 5.0), nu=np.full(n_y, nu),
            prior_mean=np.zeros(n_x), prior_cov=np.eye(n_x),
        )
        c_seq = rng.standard_normal((n_rows, n_steps, n_y, n_x))
        ys = 5.0 * rng.standard_normal((n_rows, n_steps, n_y))
        *got, failed = _sts_run_rows(model, n_rows, n_steps, sequence_source(c_seq, ys), cfg)
        _, _, _, iterations, converged = got
        assert len(set(iterations)) > 1
        if cfg.max_iterations < 30:
            assert converged.any() and not converged.all()
        for b in range(n_rows):
            *want, alone_failed = _sts_run_rows(
                model, 1, n_steps, sequence_source(c_seq[b : b + 1], ys[b : b + 1]), cfg
            )
            for g, w in zip(got, want):
                assert_array_equal(g[b], w[0])
            assert failed == alone_failed == {}


    def test_sts_run_rows_broadcast_c_bit_equal_to_stacked(self):
        """A measurement matrix broadcast over the steps gives the bits of
        the same matrix stacked, in every output of _sts_run_rows; sts_run
        broadcasts it (filtering._linear_source) and returns those bits."""
        rng = np.random.default_rng(3)
        model = random_model(rng, 4, 8, delta=2.0, nu=4.0)
        ys = simulate_linear(model, rng, 20)
        c_seq = np.broadcast_to(model.C, (1, 20) + model.C.shape)
        broadcast = _sts_run_rows(model, 1, 20, _linear_source(model, ys[None]), VBConfig())
        stacked = _sts_run_rows(model, 1, 20, sequence_source(c_seq.copy(), ys[None]), VBConfig())
        assert len(broadcast) == len(stacked) == 6
        for g, w in zip(broadcast, stacked):
            assert_array_equal(g, w)
        s_mean, s_cov, _, iterations, converged, _ = stacked
        alone = sts_run(model, ys, VBConfig())
        n_x = model.n_x
        assert_array_equal([s.mean for s in alone], s_mean[0, :, :n_x])
        assert_array_equal([s.cov for s in alone], symmetrize(s_cov[0, :, :n_x, :n_x]))
        assert (alone.iterations, alone.converged) == (iterations[0], converged[0])


class TestVBLoop:
    @pytest.mark.parametrize("n_rows", [None, 6])
    def test_update_may_overwrite_lam_after_use(self, n_rows):
        """The window holds its own copies of lam and of the images: an
        update that overwrites its lam argument after use gives the
        outputs of one that does not, for one row and for a stack whose
        rows leave the loop at different iterations."""
        rng = np.random.default_rng(12)
        n_x, n_y = 4, 8
        x, p, y, c = random_rows(rng, n_rows or 1, n_x, n_y)
        if n_rows is None:
            x, p, y, c = x[0], p[0], y[0], c[0]
        delta, r, nu = np.full(n_y, 5.0), np.ones(n_y), np.full(n_y, 1.2)

        def update(x, p, y, c, cz, lam):
            mean, cov, failed = _augmented_update(x, p, y, c, cz, delta, r, lam)
            psi = _psi_diagonal(y, cz, mean, cov, r, n_x)
            return (mean, cov, psi), expected_mixing_precision(nu, psi), mean[..., :n_x], failed

        def overwriting(*args):
            out = update(*args)
            args[-1][...] = np.nan
            return out

        args = (x, p, y, c, _stack_cz(c, delta))
        want = filtering._vb_loop(update, args, np.ones(y.shape), (nu + 2.0) / nu, VBConfig())
        got = filtering._vb_loop(overwriting, args, np.ones(y.shape), (nu + 2.0) / nu, VBConfig())
        iterations = np.atleast_1d(want[2])
        assert iterations.min() > 3  # the window moves past its first fill
        if n_rows:
            assert len(set(iterations)) > 1
        assert got[-1] == want[-1] == {}
        for g, w in zip((*got[0], *got[1:-1]), (*want[0], *want[1:-1])):
            assert_array_equal(g, w)


def lstsq_reference(d, f):
    return np.linalg.lstsq(d.T, f, rcond=None)[0]


def mixer_reference(xs, gs, upper):
    """One Anderson step of a (3, m) history as a single lstsq call."""
    f = gs - xs
    d = np.diff(f, axis=0)
    if not np.any(d):
        return gs[-1]
    return np.clip(gs[-1] - lstsq_reference(d, f[-1]) @ np.diff(gs, axis=0), 1e-12, upper)


TWO_COLUMN_KINDS = ["random", "nearly collinear", "exactly collinear", "one zero column", "zero"]


def two_columns(rng, m, kind):
    d = rng.standard_normal((2, m))
    if kind == "nearly collinear":
        d[1] = -0.7 * d[0] + 1e-7 * d[1]
    elif kind == "exactly collinear":
        d[1] = 0.5 * d[0]  # exact in binary floating point
    elif kind == "one zero column":
        d[0] = 0.0
    elif kind == "zero":
        d[:] = 0.0
    return d


class TestAndersonStep:
    @pytest.mark.parametrize("kind", TWO_COLUMN_KINDS)
    @pytest.mark.parametrize("m", [1, 2, 8, 800])
    def test_lstsq2_matches_lstsq(self, kind, m):
        rng = np.random.default_rng(m)
        # Both solvers err by about the condition number times eps.
        rtol = 1e-6 if kind == "nearly collinear" else 1e-11
        for _ in range(20):
            d = two_columns(rng, m, kind)
            f = rng.standard_normal(m)
            want = lstsq_reference(d, f)
            np.testing.assert_allclose(
                np.stack(_lstsq2(d, f)), want, rtol=rtol, atol=rtol * np.abs(want).max()
            )

    def test_rank_cutoff_is_lstsq_cutoff(self):
        """Singular-value ratios far below and above eps * max(m, 2)."""
        rng = np.random.default_rng(3)
        m = 8
        cutoff = np.finfo(float).eps * m
        u, _ = np.linalg.qr(rng.standard_normal((m, 2)))
        v, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        f = rng.standard_normal(m)
        for ratio, rtol in ((1e-3 * cutoff, 1e-10), (1e5 * cutoff, 1e-3)):
            d = ((u * [1.0, ratio]) @ v.T).T
            want = lstsq_reference(d, f)
            got = np.stack(_lstsq2(d, f))
            np.testing.assert_allclose(got, want, rtol=rtol)
            # Full rank puts a weight of about 1 / ratio on the small direction.
            assert (np.abs(got).max() > 1e6) == (ratio > cutoff)

    @pytest.mark.parametrize("m", [1, 8, 800])
    def test_step_matches_lstsq_mixer(self, m):
        rng = np.random.default_rng(m + 1)
        upper = np.full(m, 1.5)
        for _ in range(20):
            xs = rng.uniform(0.1, 2.0, (3, m))
            gs = rng.uniform(0.1, 2.0, (3, m))
            np.testing.assert_allclose(
                _anderson_step(xs, gs, upper), mixer_reference(xs, gs, upper), rtol=1e-10
            )

    def test_zero_difference_history_returns_plain_image(self):
        x = np.array([0.3, 0.9, 1.1])
        g = np.array([0.5, 0.8, 2e-13])  # below the clip, so unclipped shows
        out = _anderson_step(np.tile(x, (3, 1)), np.tile(g, (3, 1)), np.ones(3))
        assert_array_equal(out, g)
        # The same when the iterates move but the residuals do not (all
        # values exact in binary floating point).
        xs = np.array([0.25, 0.5, 1.0]) + np.array([[0.0], [0.125], [0.25]])
        gs = xs + np.array([0.25, 0.25, -0.5])
        assert_array_equal(_anderson_step(xs, gs, np.full(3, 0.1)), gs[-1])


def stacked_step_reference(xs, gs, upper):
    """The Anderson step of one (3, m) history, as _lstsq2 of a stack of
    one row followed by np.clip."""
    f = gs - xs
    d = f[1:] - f[:-1]
    if not np.any(d):
        return gs[-1]
    g0, g1 = _lstsq2(d[None], f[-1][None])
    return np.clip(gs[-1] - g0 * (gs[1] - gs[0]) - g1 * (gs[2] - gs[1]), 1e-12, upper)


def assert_row_step_bit_equal(xs, gs, upper):
    f = gs - xs
    d = f[1:] - f[:-1]
    assert_array_equal(
        np.array(_lstsq2_row(d, f[-1])), np.concatenate(_lstsq2(d[None], f[-1][None]))
    )
    want = stacked_step_reference(xs, gs, upper)
    assert_array_equal(_anderson_step(xs, gs, upper), want)
    assert_array_equal(_anderson_step(xs[None], gs[None], upper)[0], want)


class TestAndersonRow:
    """The one-row Anderson step, whose least-squares fit runs on Python
    floats, against the same history as a stack of one row, bit for bit."""

    @pytest.mark.parametrize("special", [None, "nan", "inf", "-inf", "huge"])
    @pytest.mark.parametrize("kind", TWO_COLUMN_KINDS)
    @pytest.mark.parametrize("m", [1, 2, 8, 800])
    def test_row_bit_equal_to_stack_of_one(self, m, kind, special):
        rng = np.random.default_rng(m)
        # Bounds below the 1e-12 floor pin np.clip's order: the bound wins.
        upper = np.where(rng.random(m) < 0.2, 1e-13, 1.5)
        for _ in range(20):
            xs = rng.uniform(0.1, 2.0, (3, m))
            d = two_columns(rng, m, kind)
            gs = xs + np.cumsum(np.vstack([rng.standard_normal(m), d]), axis=0)
            if special == "huge":
                # Squares overflow, so the rank test meets inf - inf.
                gs *= 10.0 ** rng.uniform(76.0, 80.0)
            elif special is not None:
                (xs, gs)[rng.integers(2)][rng.integers(3), rng.integers(m)] = float(special)
            with np.errstate(all="ignore"):
                assert_row_step_bit_equal(xs, gs, upper)

    @pytest.mark.parametrize("scale", [1e-3, 0.5, 1.0, 2.0, 1e5])
    def test_row_bit_equal_across_rank_cutoff(self, scale):
        """Singular-value ratios on both sides of eps * max(m, 2)."""
        rng = np.random.default_rng(5)
        m = 8
        cutoff = np.finfo(float).eps * m
        upper = np.full(m, 1.5)
        for _ in range(20):
            u, _ = np.linalg.qr(rng.standard_normal((m, 2)))
            v, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            d = ((u * [1.0, scale * cutoff]) @ v.T).T
            xs = rng.uniform(0.1, 2.0, (3, m))
            gs = xs + np.cumsum(np.vstack([rng.standard_normal(m), d]), axis=0)
            assert_row_step_bit_equal(xs, gs, upper)

    def test_first_push_returns_a_copy_of_the_image(self):
        x = np.array([0.3, 0.9, 1.1])
        g = np.array([0.5, 0.8, 2e-13])
        for xs, gs in ((np.tile(x, (3, 1)), np.tile(g, (3, 1))),
                       (np.tile(x, (2, 3, 1)), np.tile(g, (2, 3, 1)))):
            out = _anderson_step(xs, gs, np.ones(3))
            assert_array_equal(out, gs[..., -1, :])
            assert not np.shares_memory(out, gs)


@st.composite
def kernel_rows(draw):
    """1-8 rows of one random size, and a random generator."""
    n_rows = draw(st.integers(1, 8))
    n_x = draw(st.integers(1, 5))
    n_y = draw(st.integers(1, 9))
    return n_rows, n_x, n_y, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def spd_stack(rng, n_rows, n):
    a = rng.standard_normal((n_rows, n, n))
    return a @ a.swapaxes(1, 2) + 0.1 * np.eye(n)


class TestStackedKernels:
    """Each stacked kernel against its one-row call, for 1-8 rows."""

    @settings(deadline=None, max_examples=150)
    @given(kernel_rows())
    def test_psi_rows_bit_equal(self, case):
        n_rows, n_x, n_y, rng = case
        n = n_x + n_y
        cz = _stack_cz(rng.standard_normal((n_rows, n_y, n_x)), rng.standard_normal(n_y))
        mean = rng.standard_normal((n_rows, n))
        cov = spd_stack(rng, n_rows, n)
        y = rng.standard_normal((n_rows, n_y))
        r = rng.uniform(0.5, 2.0, n_y)
        psi = _psi_diagonal(y, cz, mean, cov, r, n_x)
        for b in range(n_rows):
            assert_array_equal(psi[b], _psi_diagonal(y[b], cz[b], mean[b], cov[b], r, n_x))

    @settings(deadline=None, max_examples=150)
    @given(kernel_rows(), st.sampled_from(["random", "nearly collinear", "exactly collinear", "zero"]))
    def test_anderson_rows_bit_equal(self, case, kind):
        n_rows, _, m, rng = case
        xs = rng.uniform(0.1, 2.0, (n_rows, 3, m))
        gs = rng.uniform(0.1, 2.0, (n_rows, 3, m))
        b = rng.integers(n_rows)
        d = two_columns(rng, m, kind)  # residual differences of row b
        gs[b] = xs[b] + np.cumsum(np.vstack([rng.standard_normal(m), d]), axis=0)
        upper = np.full(m, 1.5)
        out = _anderson_step(xs, gs, upper)
        for b in range(n_rows):
            assert_array_equal(out[b], _anderson_step(xs[b], gs[b], upper))

    @settings(deadline=None, max_examples=150)
    @given(kernel_rows())
    def test_kf_update_rows_bit_equal(self, case):
        n_rows, n_x, n_y, rng = case
        c = rng.standard_normal((n_rows, n_y, n_x))
        p = spd_stack(rng, n_rows, n_x)
        x = rng.standard_normal((n_rows, n_x))
        # Outliers on about a third of the components trip the gate.
        y = (c @ x[..., None])[..., 0] + rng.standard_normal((n_rows, n_y))
        y += 30.0 * (rng.random((n_rows, n_y)) < 0.3)
        r = rng.uniform(0.5, 2.0, n_y)
        x_post, p_post, used = _kf_gated_update_rows(c, r, x, p, y)
        for b in range(n_rows):
            post = kf_gated_update(c[b], r, GaussianBelief(x[b], p[b]), y[b])
            assert_array_equal(x_post[b], post.mean)
            assert_array_equal(p_post[b], post.cov)
            one = _kf_gated_update_rows(c[b:b + 1], r, x[b:b + 1], p[b:b + 1], y[b:b + 1])
            assert_array_equal(used[b], one[2][0])

    def test_non_spd_row_raises_with_solve_spd_message_and_step(self):
        """A negative mixing precision in one row makes that row's
        innovation covariance indefinite at step 3 of a 4-row batch: the
        pass returns the solve's error as the outcome of row 2, with its
        step; the stack of that row alone, a one-row call, raises it,
        naming row 0."""
        rng = np.random.default_rng(11)
        n_rows, n_steps, n_x, n_y = 4, 5, 3, 4
        model = StateSpaceModel(
            A=np.eye(n_x), Q=0.1 * np.eye(n_x), C=rng.standard_normal((n_y, n_x)),
            R=np.ones(n_y), Delta=np.full(n_y, 2.0), nu=np.full(n_y, 4.0),
            prior_mean=np.zeros(n_x), prior_cov=np.eye(n_x),
        )
        ys = rng.standard_normal((n_rows, n_steps, n_y))
        c_seq = np.broadcast_to(model.C, (n_rows, n_steps, n_y, n_x)).copy()
        lambdas = np.ones((n_rows, n_steps, n_y))
        lambdas[2, 3, 1] = -1e-3
        cz = _stack_cz(c_seq, model.Delta)
        *_, failed = _forward_rows(model, ys, lambdas, c_seq, cz)
        assert list(failed) == [2]
        err = failed[2]
        assert isinstance(err, NumericalFailureError)
        assert str(err).startswith("innovation covariance is not positive definite")
        assert err.step == 3
        assert err.smallest_eigenvalue < 0
        # The row alone is a stack of one row, which runs as one row.
        *_, lone = _forward_rows(model, ys[2:3], lambdas[2:3], c_seq[2:3], cz[2:3])
        assert list(lone) == [0] and str(lone[0]) == str(err)
        with pytest.raises(NumericalFailureError) as info:
            filtering._one_row(*_forward_rows(model, ys[2:3], lambdas[2:3], c_seq[2:3], cz[2:3]))
        assert (info.value.row, str(info.value)) == (0, str(err))

    def test_vb_loop_names_the_input_row_of_a_failure(self):
        """Rows 0 and 2 converge at the second iteration; at the third the
        update fails row 1 of the two rows left, which is input row 3.  The
        error is the outcome of input row 3, which completed two
        iterations, and the loop goes on with input row 1 alone: each
        iteration calls the update once.  One row raises the error."""
        calls = []

        def update(ids, lam):
            calls.append(ids.tolist())
            x = np.where(ids % 2 == 1, float(len(calls)), 0.0)[..., None]
            lost = {}
            if len(calls) == 3:
                lost = {0 if ids.ndim == 0 else 1: NumericalFailureError("injected")}
            return (lam,), lam, x, lost

        _, _, iterations, _, failed = _vb_loop(
            update, (np.arange(4.0),), np.ones((4, 2)), 10.0, VBConfig()
        )
        assert calls[2:4] == [[1.0, 3.0], [1.0]]
        assert len(calls) == VBConfig().max_iterations
        assert list(failed) == [3]
        assert isinstance(failed[3], NumericalFailureError) and str(failed[3]) == "injected"
        assert iterations.tolist() == [2, VBConfig().max_iterations, 2, 2]
        calls.clear()
        with pytest.raises(NumericalFailureError) as info:
            _vb_loop(update, (np.array(1.0),), np.ones(2), 10.0, VBConfig())
        assert info.value.row is None
        assert len(calls) == 3

    def test_vb_loop_fails_the_rows_of_a_nested_loop_at_once(self):
        """At the second iteration the update returns the failures of its
        rows 0 and 2 of three, as a nested loop does: both leave at once,
        each with its own error, and the iteration goes on for row 1 with
        no rerun.  Once row 1 fails at the third iteration the loop stops,
        with no update on zero rows."""
        calls = []

        def update(ids, lam):
            calls.append(ids.tolist())
            lost = {}
            if len(calls) == 2:
                lost = {0: NumericalFailureError("a"), 2: NumericalFailureError("b")}
            if len(calls) == 3:
                lost = {0: NumericalFailureError("c")}
            return (lam,), lam, np.full((len(ids), 1), float(len(calls))), lost

        _, _, iterations, _, failed = _vb_loop(
            update, (np.arange(3.0),), np.ones((3, 2)), 10.0, VBConfig()
        )
        assert calls == [[0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [1.0]]
        assert [str(failed[b]) for b in range(3)] == ["a", "c", "b"]
        assert iterations.tolist() == [1, 2, 1]

    @pytest.mark.parametrize("last", [3, 0])
    def test_forward_stops_once_no_row_is_left(self, last):
        """The source fails row 1 of three at step 1 (last = 3), and the
        update fails every row left at step `last`: each step calls the
        source and the update once, on the rows live at its start, the
        recursion (filtering._filter_rows) stops once no row is left, and
        each row's outcome is its error, with its step.  A failed row's
        entries are zero: it holds no result.  When no row is left after
        step 0 the stacks of that step are returned all the same.  The
        update takes what the source hands out, at the predicted means."""
        model = StateSpaceModel(
            A=np.eye(2), Q=np.eye(2), C=np.eye(2), R=np.ones(2), Delta=np.ones(2),
            nu=np.full(2, 4.0), prior_mean=np.zeros(2), prior_cov=np.eye(2),
        )
        calls, updates = [], []

        def measure(k, rows, x):
            calls.append((k, len(x)))
            lost = {1: NumericalFailureError("one")} if (k, len(x)) == (1, 3) else {}
            return k, 1.0, lost

        def update(x, p, k, shift):
            updates.append((k, len(x), float(x[0, 0])))
            lost = {b: NumericalFailureError("all") for b in range(len(x))} if k == last else {}
            return x + shift, p, lost

        means, covs, failed = filtering._filter_rows(model, 3, 6, measure, update)
        assert (means.shape, covs.shape) == ((3, 6, 2), (3, 6, 2, 2))
        assert not means.any() and not covs.any()  # every row failed
        if not last:
            assert calls == [(0, 3)] and updates == [(0, 3, 0.0)]
            assert [str(failed[b]) for b in range(3)] == ["all (time step 0)"] * 3
            return
        assert calls == [(0, 3), (1, 3), (2, 2), (3, 2)]
        assert updates == [(0, 3, 0.0), (1, 3, 1.0), (2, 2, 2.0), (3, 2, 3.0)]
        assert [str(failed[b]) for b in range(3)] == [
            "all (time step 3)", "one (time step 1)", "all (time step 3)"
        ]


@pytest.mark.parametrize(
    "run",
    [
        stf_run,
        sts_run,
        kf_gated_run,
        rtss_gated_run,
        lambda model, ys: forward_pass(model, ys, np.ones(ys.shape)),
    ],
    ids=["stf_run", "sts_run", "kf_gated_run", "rtss_gated_run", "forward_pass"],
)
def test_sequence_function_error_names_row_0(run):
    """The linear sequence functions are one-row calls of the forward
    recursion on the linear model's source, which owns the check of its
    measurements: a non-finite measurement at step 2 raises one message
    that names step 2 and row 0, and str() shows only the step."""
    rng = np.random.default_rng(0)
    model = random_model(rng, 3, 2, delta=2.0, nu=4.0)
    ys = simulate_linear(model, rng, 5)
    ys[2, 0] = np.nan
    with pytest.raises(NumericalFailureError) as info:
        run(model, ys)
    assert (info.value.step, info.value.row) == (2, 0)
    assert str(info.value) == "measurement is not finite (time step 2)"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("update", ["stf_update", "kf_gated_update", "update_lambda"])
def test_one_step_update_rejects_non_finite_measurement(update, value):
    """The one-step updates check their measurement as the sources do:
    a non-finite entry raises NumericalFailureError("measurement is not
    finite"), naming no step and no row."""
    model = random_model(np.random.default_rng(0), 3, 2, delta=2.0, nu=4.0)
    y = np.array([0.5, value])
    n_z = model.n_x + model.n_y
    calls = {
        "stf_update": lambda: stf_update(model, model.prior_belief(), y),
        "kf_gated_update": lambda: kf_gated_update(model.C, model.R, model.prior_belief(), y),
        "update_lambda": lambda: update_lambda(GaussianBelief(np.zeros(n_z), np.eye(n_z)), y, model),
    }
    with pytest.raises(NumericalFailureError) as info:
        calls[update]()
    assert str(info.value) == "measurement is not finite"
    assert (info.value.step, info.value.row) == (None, None)


@pytest.mark.parametrize("seed", range(20))
def test_forward_recursion_bit_equal_under_non_identity_dynamics(seed):
    """With a random stable A and a full Q, stf_run, kf_gated_run and the
    smoother equal their step-by-step references bit for bit."""
    rng = np.random.default_rng(seed)
    n_x, n_y, n_steps = int(rng.integers(2, 6)), int(rng.integers(2, 6)), 8
    a = rng.standard_normal((n_x, n_x))
    g = rng.standard_normal((n_x, n_x))
    model = StateSpaceModel(
        A=a * 0.9 / np.abs(np.linalg.eigvals(a)).max(),
        Q=g @ g.T / n_x + 0.1 * np.eye(n_x),
        C=rng.standard_normal((n_y, n_x)),
        R=rng.uniform(0.5, 2.0, n_y),
        Delta=rng.uniform(-3.0, 3.0, n_y),
        nu=rng.uniform(2.0, 8.0, n_y),
        prior_mean=rng.standard_normal(n_x),
        prior_cov=2.0 * np.eye(n_x),
    )
    ys = list(2.0 * rng.standard_normal((n_steps, n_y)))

    belief = model.prior_belief()
    for (post, diag), y in zip(stf_run(model, ys), ys):
        ref, ref_diag = stf_update(model, belief, y)
        assert_array_equal(post.mean, ref.mean)
        assert_array_equal(post.cov, ref.cov)
        assert_array_equal(diag.lambda_diag, ref_diag.lambda_diag)
        assert diag.iterations == ref_diag.iterations
        belief = predict(model, ref)

    belief = model.prior_belief()
    for f, y in zip(kf_gated_run(model, ys), ys):
        belief = kf_gated_update(model.C, model.R, belief, y)
        assert_array_equal(f.mean, belief.mean)
        assert_array_equal(f.cov, belief.cov)
        belief = predict(model, belief)

    source = _linear_source(model, np.stack(ys)[None])
    s_mean, s_cov, _, iterations, flags, _ = _sts_run_rows(model, 1, n_steps, source, VBConfig())
    means, covs, n_outer, converged = sts_run_scalar(
        model, ys, VBConfig(), [model.C] * n_steps
    )
    assert_array_equal(s_mean[0], means)
    assert_array_equal(s_cov[0], covs)
    assert (iterations[0], flags[0]) == (n_outer, converged)


SWEEP = dict(delta=5.0, nu=4.0, rho=100.0, K=100, n_sats=8, n_mc=6)


def stf_reference(model, sats, traj, vb_cfg):
    """The skew-t filter of one trajectory, step by step on stf_update:
    the posteriors and VB iterations."""
    belief = model.prior_belief()
    filtered, iterations = [], []
    for y in traj.measurements:
        c_mat, y0 = linearize(sats, belief.mean)
        y_k = y - y0 + c_mat @ belief.mean
        post, diag = stf_update(replace(model, C=c_mat), belief, y_k, vb_cfg)
        filtered.append(post)
        iterations.append(diag.iterations)
        belief = predict(model, post)
    return filtered, np.array(iterations, dtype=float)


def sts_linearization(model, sats, traj):
    """The [C_k] and [y_k] of the smoother's first forward pass on one
    trajectory, step by step: linearize at the predicted mean, the
    augmented update at lambda = 1, predict."""
    n_x = model.n_x
    x_pred, p_pred = model.prior_mean, model.prior_cov
    c_seq, y_seq = [], []
    for y in traj.measurements:
        c_mat, y0 = linearize(sats, x_pred)
        y_k = y - y0 + c_mat @ x_pred
        cz = np.hstack([c_mat, np.diag(model.Delta)])
        mean, cov, _ = _augmented_update(
            x_pred, p_pred, y_k, c_mat, cz, model.Delta, model.R, np.ones(model.n_y)
        )
        c_seq.append(c_mat)
        y_seq.append(y_k)
        x_pred = model.A @ mean[:n_x]
        p_pred = symmetrize(model.A @ cov[:n_x, :n_x] @ model.A.T + model.Q)
    return c_seq, y_seq


@pytest.mark.parametrize("seed", [1, 7340033])
@pytest.mark.parametrize("q", [0.5, 5.0])
def test_sweep_rows_equal_scalar_reference(q, seed):
    """Every lockstep row of both sweep scenarios equals the step-by-step
    reference filter, and the reference smoother on the linearization of
    its own first forward pass at lambda = 1."""
    cfg = ScenarioConfig(q=q, seed=seed, **SWEEP)
    sats = make_constellation(cfg.n_sats, cfg.seed)
    model = scenario_model(cfg, sats)
    vb_cfg = VBConfig()
    trajs = [simulate(cfg, rep) for rep in range(cfg.n_mc)]
    stf = _stf_rows(model, sats, trajs, vb_cfg)
    sts = _sts_rows(model, sats, trajs, vb_cfg)
    for b, traj in enumerate(trajs):
        filtered, iters = stf_reference(model, sats, traj, vb_cfg)
        assert_array_equal(stf[b].positions, np.stack([f.mean[:3] for f in filtered]))
        assert_array_equal(
            stf[b].position_covs, np.stack([f.cov[:3, :3] for f in filtered])
        )
        assert_array_equal(stf[b].vb_iterations, iters)
        c_sts, y_sts = sts_linearization(model, sats, traj)
        means, covs, n_outer, converged = sts_run_scalar(model, y_sts, vb_cfg, c_sts)
        assert_array_equal(sts[b].positions, means[:, :3])
        assert_array_equal(sts[b].position_covs, covs[:, :3, :3])
        assert sts[b].outer_iterations == n_outer
        assert sts[b].converged == converged
    # Batch invariance: a row run alone equals its row of the batch.
    alone = _stf_rows(model, sats, trajs[2:3], vb_cfg)
    assert_array_equal(alone[0].positions, stf[2].positions)
    alone_sts = _sts_rows(model, sats, trajs[2:3], vb_cfg)
    assert_array_equal(alone_sts[0].positions, sts[2].positions)


def kf_reference(gauss, sats, traj, noise_mean):
    """The gated Kalman filter of one trajectory, step by step on
    kf_gated_update: the posteriors, and the predictions of steps
    1..K-1 from them built in plain numpy (augmented_predictions)."""
    belief = gauss.prior_belief()
    filtered = []
    for y in traj.measurements:
        c_mat, y0 = linearize(sats, belief.mean)
        y_k = y - y0 + c_mat @ belief.mean - noise_mean
        belief = kf_gated_update(c_mat, gauss.R, belief, y_k)
        filtered.append(belief)
        belief = predict(gauss, belief)
    pairs = [(b.mean, b.cov) for b in filtered]
    return filtered, augmented_predictions(pairs, gauss.A, gauss.Q, np.zeros((len(pairs), 0)))


@pytest.mark.parametrize("q", [0.5, 5.0])
def test_kf_and_rtss_rows_equal_one_trajectory_runs(q):
    """Row b of a lockstep KF/RTSS batch equals trajectory b run alone and
    the step-by-step reference, with the same gating decisions: bit for
    bit its backward_pass, and the full-gain smoother on predictions the
    library did not compute to 1e-12."""
    cfg = ScenarioConfig(q=q, seed=1, **SWEEP)
    sats = make_constellation(cfg.n_sats, cfg.seed)
    model = scenario_model(cfg, sats)
    trajs = [simulate(cfg, rep) for rep in range(cfg.n_mc)]
    kf, kf_pass, used = _kf_rows(model, cfg, sats, trajs)
    rtss = _rtss_rows(kf_pass)
    gauss = kf_pass[-1]
    noise_mean, _ = moments(SkewTComponent(spread_sq=1.0, shape=cfg.delta, dof=cfg.nu))
    assert used.shape == (cfg.n_mc, cfg.K, cfg.n_sats) and 0 < used.mean() < 1
    for b, traj in enumerate(trajs):
        alone, alone_pass, alone_used = _kf_rows(model, cfg, sats, [traj])
        assert_array_equal(alone[0].positions, kf[b].positions)
        assert_array_equal(alone[0].position_covs, kf[b].position_covs)
        assert_array_equal(alone_used[0], used[b])
        assert_array_equal(_rtss_rows(alone_pass)[0].positions, rtss[b].positions)
        filtered, predicted = kf_reference(gauss, sats, traj, noise_mean)
        assert_array_equal(kf[b].positions, np.stack([f.mean[:3] for f in filtered]))
        smoothed = backward_pass(filtered, gauss)
        assert_array_equal(rtss[b].positions, np.stack([s.mean[:3] for s in smoothed]))
        assert_array_equal(
            rtss[b].position_covs, np.stack([s.cov[:3, :3] for s in smoothed])
        )
        ref = backward_pass_augmented([(f.mean, f.cov) for f in filtered], predicted, gauss.A)
        for s, (mean, cov) in zip(smoothed, ref):
            assert_allclose(s.mean, mean, rtol=0.0, atol=1e-12)
            assert_allclose(s.cov, cov, rtol=0.0, atol=1e-12)


def sweep_config(**overrides):
    base = dict(q=5.0, delta=5.0, rho=100.0, nu=4.0, K=8, n_mc=4, seed=1,
                estimators=("stf", "sts"), name="lockstep")
    base.update(overrides)
    return ScenarioConfig(**base)


def timeless(records):
    return [replace(r, wall_time=0.0) for r in records]


def ran_alone(*args, **kwargs):
    raise AssertionError("a replication ran alone")


class TestRunExperimentLockstep:
    def test_stf_and_sts_run_as_independent_batches(self, monkeypatch):
        """"stf" and "sts" each run once as one batch of all replications,
        an "sts"-only run does not run the STF, and the records of both
        together equal those of each run alone."""
        batches = []

        def counting(name):
            real = getattr(experiments, name)

            def run(model, sats, trajs, vb_cfg):
                batches.append((name, len(trajs)))
                return real(model, sats, trajs, vb_cfg)
            return run

        for name in ("_stf_rows", "_sts_rows"):
            monkeypatch.setattr(experiments, name, counting(name))
        cfg = sweep_config(K=5, n_mc=34)
        both = run_experiment(cfg)
        assert batches == [("_stf_rows", cfg.n_mc), ("_sts_rows", cfg.n_mc)]
        batches.clear()
        run_experiment(replace(cfg, estimators=("sts",)))
        assert batches == [("_sts_rows", cfg.n_mc)]
        separate = sorted(
            run_experiment(replace(cfg, estimators=("stf",)))
            + run_experiment(replace(cfg, estimators=("sts",))),
            key=lambda r: (r.estimator, r.replication),
        )
        assert timeless(both) == timeless(separate)

    def test_sts_runs_no_filter_and_no_forward_pass_twice(self, monkeypatch):
        """An "sts"-only sweep makes no STF update and asks its source
        (experiments._linearize_rows at the rows' predicted means) once per
        step, in the smoother's first forward pass; the later passes replay
        what it handed out.  Its augmented updates and those of the later
        passes add up to one forward pass per outer iteration of each row."""
        cfg = sweep_config(n_mc=6, estimators=("sts",))
        calls, row_steps = [], []
        for module, name in [(filtering, "_stf_update_rows"), (experiments, "_linearize_rows")]:
            real = getattr(module, name)

            def counting(*args, name=name, real=real, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
        real_update = smoothing._augmented_update

        def spy(x, p, y, *args):
            row_steps.append(len(y))
            return real_update(x, p, y, *args)
        monkeypatch.setattr(smoothing, "_augmented_update", spy)
        records = run_experiment(cfg)
        assert calls == ["_linearize_rows"] * cfg.K
        assert all(r.status == "ok" for r in records)
        assert sum(row_steps) == sum(r.outer_iterations for r in records) * cfg.K

    def test_failing_sweep_makes_no_update_on_zero_rows(self, monkeypatch):
        """In the nu=0.02 sweep every replication fails.  Once its last
        row has failed, neither the filter, nor the smoother's first
        forward pass, nor a forward pass of its outer loop (where every
        row fails at step 0) runs another step, and each failed record is
        the one its replication's one-row run raises."""
        cfg = sweep_config(q=0.5, nu=0.02, K=100, n_mc=4)
        sats = make_constellation(cfg.n_sats, cfg.seed)
        sizes, loop_sizes = [], []
        real_stf, real_update = filtering._stf_update_rows, smoothing._augmented_update
        real_forward = smoothing._forward_rows
        in_loop = []  # set while a forward pass of the outer loop runs

        def stf_spy(model, x, *args, **kwargs):
            sizes.append(len(x))
            return real_stf(model, x, *args, **kwargs)

        def update_spy(x, *args):
            (loop_sizes if in_loop else sizes).append(len(x))
            return real_update(x, *args)

        def forward_spy(*args):
            in_loop.append(True)
            try:
                return real_forward(*args)
            finally:
                in_loop.pop()

        monkeypatch.setattr(filtering, "_stf_update_rows", stf_spy)
        monkeypatch.setattr(smoothing, "_augmented_update", update_spy)
        monkeypatch.setattr(smoothing, "_forward_rows", forward_spy)
        with np.errstate(all="ignore"):
            records = run_experiment(cfg)
            assert sizes and 0 not in sizes
            assert loop_sizes and 0 not in loop_sizes
            assert [r.status for r in records] == ["failed"] * 8
            for r in records:
                with pytest.raises(EstimationError) as info:
                    run_estimator(r.estimator, cfg, sats, simulate(cfg, r.replication))
                assert r.reason == str(info.value)

    def test_rows_failing_at_step_0_keep_their_own_errors(self, monkeypatch):
        """The update of the filter and of the smoother's first pass fails
        every row at step 0, each with its own error: each family makes
        that one update and no other, and each record keeps its row's
        error and its family's measured time per row."""
        cfg = sweep_config(n_mc=3)
        real_stf, real_update = filtering._stf_update_rows, smoothing._augmented_update
        calls = []

        def failing(real):
            def run(*args, **kwargs):
                x = args[1] if real is real_stf else args[0]
                calls.append(real.__name__)
                *out, failed = real(*args, **kwargs)
                if (x == x[0]).all():  # step 0: every row at the prior
                    failed = {b: NumericalFailureError(f"row {b}") for b in range(len(x))}
                return (*out, failed)
            return run

        monkeypatch.setattr(filtering, "_stf_update_rows", failing(real_stf))
        monkeypatch.setattr(smoothing, "_augmented_update", failing(real_update))
        records = run_experiment(cfg)
        assert calls == ["_stf_update_rows", "_augmented_update"]
        assert len(records) == 6
        for r in records:
            assert (r.status, r.reason) == ("failed", f"row {r.replication} (time step 0)")
            assert r.wall_time > 0.0

    def test_rows_failing_at_the_smoother_loop_start_keep_their_own_errors(self, monkeypatch):
        """Replication 0 fails in the smoother's first pass, and the other
        two in the backward pass of the outer loop's first iteration, which
        names them by their positions among the rows left: no row gets
        through it, and each record keeps its own error."""
        cfg = sweep_config(n_mc=3, estimators=("sts",))
        real_update, real_backward = smoothing._augmented_update, smoothing._backward_rows
        steps = []

        def first_pass(x, *args):
            steps.append(len(x))
            *out, failed = real_update(x, *args)
            if len(steps) == 4:
                failed = {0: NumericalFailureError("first pass")}
            return (*out, failed)

        def backward(*args):
            s_mean, s_cov, failed = real_backward(*args)
            left = [b for b in range(len(s_mean)) if b not in failed]
            gains = {b: NumericalFailureError(f"gain {i}") for i, b in enumerate(left)}
            return s_mean, s_cov, {**failed, **gains}

        monkeypatch.setattr(smoothing, "_augmented_update", first_pass)
        monkeypatch.setattr(smoothing, "_backward_rows", backward)
        records = run_experiment(cfg)
        assert [(r.replication, r.reason) for r in records] == [
            (0, "first pass (time step 3)"), (1, "gain 0"), (2, "gain 1")
        ]

    def test_records_equal_scalar_runs(self):
        cfg = sweep_config(n_mc=5)
        sats = make_constellation(cfg.n_sats, cfg.seed)
        records = {(r.estimator, r.replication): r for r in run_experiment(cfg)}
        for rep in range(cfg.n_mc):
            traj = simulate(cfg, rep)
            for est in cfg.estimators:
                run = run_estimator(est, cfg, sats, traj, replication=rep)
                want = experiments._record(cfg, est, rep, traj, run, 0.0)
                assert replace(records[est, rep], wall_time=0.0) == want

    def test_sweep_runs_the_pf_as_a_family(self, monkeypatch):
        """All five estimators come from one batch: run_estimator never
        runs, and the PF family runs _pf_moments once per replication."""
        cfg = sweep_config(n_mc=3, estimators=("stf", "sts", "kf", "rtss", "pf"))
        real_pf = experiments._pf_moments
        calls = []

        def pf_spy(*args, **kwargs):
            calls.append(len(args[1]))  # one trajectory's K measurements
            return real_pf(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_estimator", ran_alone)
        monkeypatch.setattr(experiments, "_pf_moments", pf_spy)
        records = run_experiment(cfg)
        assert calls == [cfg.K] * cfg.n_mc
        assert [r.status for r in records] == ["ok"] * 5 * cfg.n_mc

    def test_pf_records_equal_scalar_runs(self):
        cfg = sweep_config(n_mc=3, estimators=("pf",))
        sats = make_constellation(cfg.n_sats, cfg.seed)
        records = run_experiment(cfg)
        assert [r.replication for r in records] == list(range(cfg.n_mc))
        for record in records:
            traj = simulate(cfg, record.replication)
            run = run_estimator("pf", cfg, sats, traj, replication=record.replication)
            want = experiments._record(cfg, "pf", record.replication, traj, run, 0.0)
            assert replace(record, wall_time=0.0) == want

    def test_no_replications_give_no_records(self):
        cfg = sweep_config(n_mc=0, estimators=("stf", "sts", "kf", "rtss", "pf"))
        assert run_experiment(cfg) == []

    def test_sts_reports_outer_iterations_and_convergence(self):
        cfg = sweep_config(K=30, n_mc=3)
        sats = make_constellation(cfg.n_sats, cfg.seed)
        model = scenario_model(cfg, sats)
        trajs = [simulate(cfg, rep) for rep in range(cfg.n_mc)]
        capped = VBConfig(max_iterations=2)
        run = run_estimator("sts", cfg, sats, trajs[0], vb_cfg=capped)
        assert (run.outer_iterations, run.converged) == (2, False)
        rows = _sts_rows(model, sats, trajs, capped)
        assert [(r.outer_iterations, r.converged) for r in rows] == [(2, False)] * 3
        for record in run_experiment(replace(cfg, estimators=("sts",))):
            assert record.converged and 2 <= record.outer_iterations < 30

    def test_kalman_records_equal_scalar_runs(self):
        cfg = sweep_config(n_mc=5, estimators=("kf", "rtss"))
        sats = make_constellation(cfg.n_sats, cfg.seed)
        records = {(r.estimator, r.replication): r for r in run_experiment(cfg)}
        assert len(records) == 10
        for rep in range(cfg.n_mc):
            traj = simulate(cfg, rep)
            for est in cfg.estimators:
                run = run_estimator(est, cfg, sats, traj, replication=rep)
                want = experiments._record(cfg, est, rep, traj, run, 0.0)
                assert replace(records[est, rep], wall_time=0.0) == want

    def test_stf_reports_nonconvergence(self, monkeypatch):
        cfg = sweep_config(n_mc=3, estimators=("stf",))
        sats = make_constellation(cfg.n_sats, cfg.seed)
        model = scenario_model(cfg, sats)
        trajs = [simulate(cfg, rep) for rep in range(cfg.n_mc)]
        capped = VBConfig(max_iterations=1)
        assert not run_estimator("stf", cfg, sats, trajs[0], vb_cfg=capped).converged
        assert run_estimator("stf", cfg, sats, trajs[0]).converged
        runs = _stf_rows(model, sats, trajs, capped)
        assert [r.converged for r in runs] == [False] * 3
        assert all(r.converged for r in run_experiment(cfg))
        # run_experiment runs its batches with VBConfig(); cap that.
        monkeypatch.setattr(experiments, "VBConfig", lambda: capped)
        for record in run_experiment(cfg):
            assert not record.converged and record.mean_vb_iterations == 1.0

    @pytest.mark.parametrize("n_mc", [4, 34])
    def test_failed_replication_leaves_its_batch(self, monkeypatch, n_mc):
        """Replication 2 fails in the STF at time step 3 inside the batch:
        its error names its row, and the row leaves the batch at that step,
        so only replication 2's STF record fails, with its one-row run's
        reason and step; its STS, which never runs the STF, stays ok."""
        cfg = sweep_config(n_mc=n_mc)
        sats = make_constellation(cfg.n_sats, cfg.seed)
        clean = timeless(run_experiment(cfg))

        # The innovation covariance of the first VB iteration at step 3.
        real_solve = filtering.solve_spd
        seen = []

        def record(s, b, what="matrix"):
            seen.append(s.copy())
            return real_solve(s, b, what)

        monkeypatch.setattr(filtering, "solve_spd", record)
        run = run_estimator("stf", cfg, sats, simulate(cfg, 2))
        marker = seen[int(run.vb_iterations[:3].sum())]

        def fail_at_marker(s, b, what="matrix"):
            if np.array_equal(s, marker):
                raise NumericalFailureError("injected failure")
            return real_solve(s, b, what)

        monkeypatch.setattr(filtering, "solve_spd", fail_at_marker)
        with pytest.raises(NumericalFailureError) as info:
            run_estimator("stf", cfg, sats, simulate(cfg, 2))
        assert info.value.step == 3
        records = timeless(run_experiment(cfg))
        failed = [r for r in records if r.status == "failed"]
        assert [(r.estimator, r.replication) for r in failed] == [("stf", 2)]
        assert all(r.reason == str(info.value) for r in failed)
        assert [r for r in records if r.status == "ok"] == [
            r for r in clean if (r.estimator, r.replication) != ("stf", 2)
        ]

    def test_rows_failing_in_filter_and_smoother_leave_their_batches(self, monkeypatch):
        """Replication 1 fails in the STF at time step 3 and replication 4
        in the STS backward gain at time step 5.  Each fails only in that
        estimator: replication 1 keeps its STS record (the STS never runs
        the STF) and replication 4 its STF record.  Each reason is that of
        the row's one-row run, and every other record is the clean run's;
        no replication runs alone."""
        cfg = sweep_config(n_mc=6, estimators=("stf", "sts", "kf", "rtss"))
        sats = make_constellation(cfg.n_sats, cfg.seed)
        clean = timeless(run_experiment(cfg))
        real_filter, real_smoother = filtering.solve_spd, smoothing.solve_spd

        def markers(module, real, est, rep):
            seen = []

            def spy(s, b, what="matrix"):
                seen.append(s.copy())
                return real(s, b, what)

            monkeypatch.setattr(module, "solve_spd", spy)
            run = run_estimator(est, cfg, sats, simulate(cfg, rep))
            monkeypatch.setattr(module, "solve_spd", real)
            return seen, run

        # The innovation covariance of the first VB iteration at step 3 of
        # replication 1, and the prediction covariance of the first backward
        # gain at step 5 of replication 4 (the pass runs from step K - 2 down).
        seen, run = markers(filtering, real_filter, "stf", 1)
        stf_marker = seen[int(run.vb_iterations[:3].sum())]
        seen, _ = markers(smoothing, real_smoother, "sts", 4)
        sts_marker = seen[cfg.K - 2 - 5]

        def failing(real, marker, message):
            def solve(s, b, what="matrix"):
                if np.array_equal(s, marker):
                    raise NumericalFailureError(message)
                return real(s, b, what)
            return solve

        monkeypatch.setattr(filtering, "solve_spd", failing(real_filter, stf_marker, "stf"))
        monkeypatch.setattr(smoothing, "solve_spd", failing(real_smoother, sts_marker, "sts"))
        reasons = {}
        for est, rep in (("stf", 1), ("sts", 4)):
            with pytest.raises(NumericalFailureError) as info:
                run_estimator(est, cfg, sats, simulate(cfg, rep))
            reasons[est, rep] = str(info.value)
        assert reasons == {
            ("stf", 1): "stf (time step 3)",
            ("sts", 4): "sts (time step 5)",
        }
        assert run_estimator("sts", cfg, sats, simulate(cfg, 1)).converged

        monkeypatch.setattr(experiments, "run_estimator", ran_alone)
        records = timeless(run_experiment(cfg))
        failed = {(r.estimator, r.replication): r.reason for r in records if r.status == "failed"}
        assert failed == reasons
        assert [r for r in records if r.status == "ok"] == [
            r for r in clean if (r.estimator, r.replication) not in reasons
        ]

    def test_sweep_never_runs_a_replication_alone(self, monkeypatch):
        """A non-finite pseudorange at time step 2 of replication 1 fails
        it in all four estimators while run_estimator raises: it leaves
        each family's batch at that step, and every other record is the
        clean run's."""
        cfg = sweep_config(n_mc=3, estimators=("stf", "sts", "kf", "rtss"))
        clean = timeless(run_experiment(cfg))
        real_simulate = experiments.simulate

        def corrupted(cfg, rep):
            traj = real_simulate(cfg, rep)
            if rep != 1:
                return traj
            meas = traj.measurements.copy()
            meas[2, 0] = np.nan
            return replace(traj, measurements=meas)

        monkeypatch.setattr(experiments, "simulate", corrupted)
        monkeypatch.setattr(experiments, "run_estimator", ran_alone)
        records = timeless(run_experiment(cfg))
        assert [(r.estimator, r.status, r.reason) for r in records if r.replication == 1] == [
            (est, "failed", "pseudorange is not finite (time step 2)")
            for est in sorted(cfg.estimators)
        ]
        assert [r for r in records if r.replication != 1] == [
            r for r in clean if r.replication != 1
        ]

    def test_late_smoother_failure_runs_each_batch_once(self, monkeypatch):
        """Replication 2 fails in the STS backward gain at time step 5 of
        its last outer iteration.  The STF and the STS batch each run once,
        the smoother's forward work is the clean run's (no iteration runs
        again), only replication 2's STS record fails, with its one-row
        run's reason, and every other record is the clean run's."""
        cfg = sweep_config(n_mc=6)
        sats = make_constellation(cfg.n_sats, cfg.seed)
        real_solve, real_update = smoothing.solve_spd, smoothing._augmented_update
        seen = []

        def spy(s, b, what="matrix"):
            seen.append(s.copy())
            return real_solve(s, b, what)

        monkeypatch.setattr(smoothing, "solve_spd", spy)
        run = run_estimator("sts", cfg, sats, simulate(cfg, 2))
        # The last backward pass runs from step K - 2 down to step 0.
        marker = seen[len(seen) - (cfg.K - 1) + (cfg.K - 2 - 5)]
        assert run.outer_iterations > 2
        assert sum(np.array_equal(s, marker) for s in seen) == 1

        def failing(s, b, what="matrix"):
            if np.array_equal(s, marker):
                raise NumericalFailureError("injected")
            return real_solve(s, b, what)

        monkeypatch.setattr(smoothing, "solve_spd", failing)
        with pytest.raises(NumericalFailureError) as info:
            run_estimator("sts", cfg, sats, simulate(cfg, 2))
        assert str(info.value) == "injected (time step 5)"

        row_steps, batches = [], []

        def counting_update(x, p, y, *args):
            row_steps.append(len(y))
            return real_update(x, p, y, *args)

        def counting(name):
            real = getattr(experiments, name)

            def run(*args):
                batches.append(name)
                return real(*args)
            return run

        monkeypatch.setattr(smoothing, "_augmented_update", counting_update)
        monkeypatch.setattr(experiments, "_stf_rows", counting("_stf_rows"))
        monkeypatch.setattr(experiments, "_sts_rows", counting("_sts_rows"))
        monkeypatch.setattr(smoothing, "solve_spd", real_solve)
        clean = timeless(run_experiment(cfg))
        clean_steps = sum(row_steps)
        monkeypatch.setattr(smoothing, "solve_spd", failing)
        row_steps.clear()
        batches.clear()
        records = timeless(run_experiment(cfg))
        assert batches == ["_stf_rows", "_sts_rows"]
        assert sum(row_steps) == clean_steps
        failed = [(r.estimator, r.replication, r.reason) for r in records if r.status == "failed"]
        assert failed == [("sts", 2, str(info.value))]
        assert [r for r in records if r.status == "ok"] == [
            r for r in clean if (r.estimator, r.replication) != ("sts", 2)
        ]

    def test_rows_failing_in_one_smoother_pass_cost_no_rerun(self, monkeypatch):
        """Replications 1, 3 and 4 fail in the innovation covariance solve
        at time step 3 of the second outer iteration's forward pass, the
        first that smoothing._forward_rows runs.  The pass returns all three
        failures at once, and the loop goes on with the three rows left:
        no iteration runs again, so each runs one forward pass.  Each failed
        record keeps its one-row run's reason, and every other record is
        the clean run's."""
        cfg = sweep_config(n_mc=6, estimators=("sts",))
        sats = make_constellation(cfg.n_sats, cfg.seed)
        failing_reps, step = (1, 3, 4), 3
        real_solve, real_forward = filtering.solve_spd, smoothing._forward_rows
        seen = []

        def spy(s, b, what="matrix"):
            seen.append(s.copy())
            return real_solve(s, b, what)

        monkeypatch.setattr(filtering, "solve_spd", spy)
        markers = []
        for rep in failing_reps:
            seen.clear()
            run_estimator("sts", cfg, sats, simulate(cfg, rep))
            # One solve per step: the first pass (through _filter_rows),
            # then the second iteration's forward pass.
            markers.append(seen[cfg.K + step])
            assert sum(np.array_equal(s, markers[-1]) for s in seen) == 1

        def failing(s, b, what="matrix"):
            if any(np.array_equal(s, m) for m in markers):
                raise NumericalFailureError("injected")
            return real_solve(s, b, what)

        monkeypatch.setattr(filtering, "solve_spd", failing)
        reasons = {}
        for rep in failing_reps:
            with pytest.raises(NumericalFailureError) as info:
                run_estimator("sts", cfg, sats, simulate(cfg, rep))
            reasons["sts", rep] = str(info.value)
        assert set(reasons.values()) == {f"injected (time step {step})"}

        sizes = []

        def counting(model, ys, *args):
            sizes.append(len(ys))
            return real_forward(model, ys, *args)

        monkeypatch.setattr(filtering, "solve_spd", real_solve)
        clean = timeless(run_experiment(cfg))
        monkeypatch.setattr(filtering, "solve_spd", failing)
        monkeypatch.setattr(smoothing, "_forward_rows", counting)
        records = timeless(run_experiment(cfg))
        assert sizes[:2] == [cfg.n_mc, cfg.n_mc - len(failing_reps)]
        assert len(sizes) == max(r.outer_iterations for r in records) - 1
        failed = {(r.estimator, r.replication): r.reason for r in records if r.status == "failed"}
        assert failed == reasons
        assert [r for r in records if r.status == "ok"] == [
            r for r in clean if (r.estimator, r.replication) not in reasons
        ]

    def test_non_finite_pseudoranges_fail_each_row_at_its_step(self, monkeypatch):
        """Replications 0 and 2 have a non-finite pseudorange at time steps
        2 and 5.  In one pass per family ("stf", "sts" and "kf" with
        "rtss"), which asks the source (experiments._linearize_rows at the
        rows' predicted means) once per step, each fails at its own step in
        all four estimators, and every other record is the clean run's.  A
        row leaves after its failing step, which linearizes it."""
        cfg = sweep_config(n_mc=4, estimators=("stf", "sts", "kf", "rtss"))
        clean = timeless(run_experiment(cfg))
        bad_step = {0: 2, 2: 5}
        real_simulate = experiments.simulate
        passes = []

        def corrupted(cfg, rep):
            traj = real_simulate(cfg, rep)
            if rep not in bad_step:
                return traj
            meas = traj.measurements.copy()
            meas[bad_step[rep], 3] = np.inf
            return replace(traj, measurements=meas)

        real_linearize = experiments._linearize_rows

        def counting(sats, x):
            passes.append(len(x))
            return real_linearize(sats, x)

        monkeypatch.setattr(experiments, "simulate", corrupted)
        monkeypatch.setattr(experiments, "_linearize_rows", counting)
        records = timeless(run_experiment(cfg))
        live = [4] * 3 + [3] * 3 + [2] * (cfg.K - 6)  # the rows live at each step
        assert passes == live * 3
        assert {(r.estimator, r.replication): r.reason for r in records if r.status == "failed"} == {
            (est, rep): f"pseudorange is not finite (time step {k})"
            for est in cfg.estimators for rep, k in bad_step.items()
        }
        assert [r for r in records if r.replication not in bad_step] == [
            r for r in clean if r.replication not in bad_step
        ]

    def test_update_failing_every_row_fails_every_stf_record(self, monkeypatch):
        """The STF update fails every row at time step 3: every STF record
        fails with its reason, after no further update; the STS, which
        never runs the STF, and the Kalman family stay ok."""
        cfg = sweep_config(n_mc=3, estimators=("stf", "sts", "kf", "rtss"))
        clean = timeless(run_experiment(cfg))
        real = filtering._stf_update_rows
        calls = []

        def fail_at_step_3(model, x, *args, **kwargs):
            calls.append(None)
            *out, failed = real(model, x, *args, **kwargs)
            if len(calls) == 4:
                failed = {b: NumericalFailureError("injected") for b in range(len(x))}
            return (*out, failed)

        monkeypatch.setattr(filtering, "_stf_update_rows", fail_at_step_3)
        records = timeless(run_experiment(cfg))
        assert len(calls) == 4
        stf = [(r.status, r.reason) for r in records if r.estimator == "stf"]
        assert stf == [("failed", "injected (time step 3)")] * 3
        others = [r for r in records if r.estimator != "stf"]
        assert others == [r for r in clean if r.estimator != "stf"]
        assert all(r.status == "ok" for r in others)
