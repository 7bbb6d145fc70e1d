"""Acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with `pytest -s` to see the lines as
the suite progresses).  The trajectory-scenario suite and the static
single-epoch experiment are computed once and shared.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.stats import norm
from scipy.stats import truncnorm as scipy_truncnorm

from skewt_estim.bench import (
    ScenarioConfig,
    make_constellation,
    nees,
    rmse,
    run_experiment,
    run_static_experiment,
    simulate,
    truncnorm_comparison,
)
from skewt_estim.bench.experiments import _lockstep_rows
from skewt_estim.exceptions import EstimationError
from skewt_estim.filtering import expected_mixing_precision, stf_run
from skewt_estim.smoothing import sts_run
from skewt_estim.truncnorm import rec_trunc, select_next

from reference import kalman_filter, rts_smooth
from test_filtering import random_model, simulate_linear


def report(criterion: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{status} criterion {criterion}: {description}{suffix}", flush=True)
    assert passed, f"criterion {criterion}: {description}{suffix}"


@dataclass
class ScenarioStats:
    iterations: np.ndarray
    stf_nees: np.ndarray
    stf_rmse: np.ndarray
    sts_rmse: np.ndarray
    kf_rmse: np.ndarray
    rtss_rmse: np.ndarray
    cpu_s: float  # process CPU seconds of the scenario's lockstep batch


N_MC = 100


@pytest.fixture(scope="module")
def scenario_suite():
    """STF/STS/gated-KF/gated-RTSS on (q=0.5, d=5) and (q=5, d=5).

    Each scenario runs its replications as the one lockstep batch of
    run_experiment, in which every replication must succeed.
    """
    out = {}
    for q in (0.5, 5.0):
        cfg = ScenarioConfig(
            q=q, delta=5.0, rho=100.0, nu=4.0, K=100, n_mc=N_MC, seed=1,
            estimators=("stf", "sts", "kf", "rtss"), name=f"q{q}",
        )
        sats = make_constellation(cfg.n_sats, cfg.seed)
        trajs = [simulate(cfg, rep) for rep in range(cfg.n_mc)]
        start = time.process_time()
        batch = _lockstep_rows(set(cfg.estimators), cfg, sats, trajs, range(N_MC))
        cpu_s = time.process_time() - start
        runs = [batch[est][0] for est in cfg.estimators]
        failed = [str(r) for rows in runs for r in rows if isinstance(r, EstimationError)]
        assert not failed, failed
        iters, stf_nees, stf_rmse, sts_rmse, kf_rmse, rtss_rmse = (
            [], [], [], [], [], []
        )
        for traj, stf, sts, kf, rtss in zip(trajs, *runs):
            iters.extend(stf.vb_iterations.tolist())
            stf_nees.append(nees(stf.positions, stf.position_covs, traj.states).mean())
            stf_rmse.append(rmse(stf.positions, traj.states))
            sts_rmse.append(rmse(sts.positions, traj.states))
            kf_rmse.append(rmse(kf.positions, traj.states))
            rtss_rmse.append(rmse(rtss.positions, traj.states))
        out[q] = ScenarioStats(
            iterations=np.array(iters),
            stf_nees=np.array(stf_nees),
            stf_rmse=np.array(stf_rmse),
            sts_rmse=np.array(sts_rmse),
            kf_rmse=np.array(kf_rmse),
            rtss_rmse=np.array(rtss_rmse),
            cpu_s=cpu_s,
        )
    return out


@pytest.fixture(scope="module")
def static_suite():
    """Static single-epoch experiment at delta=5, nu=4, rho=1."""
    return run_static_experiment(
        delta=5.0, nu=4.0, rho=1.0, n_replications=200, seed=11,
    )


def test_criterion_1_truncation_exactness():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 9))
        mean = rng.uniform(-3.0, 3.0, dim)
        var = rng.uniform(0.1, 5.0, dim)
        out_mean, out_cov = rec_trunc(mean, np.diag(var), range(dim))
        sd = np.sqrt(var)
        ref_mean, ref_var = scipy_truncnorm(
            a=-mean / sd, b=np.inf, loc=mean, scale=sd
        ).stats(moments="mv")
        worst = max(
            worst,
            np.abs(out_mean - ref_mean).max(),
            np.abs(np.diag(out_cov) - ref_var).max(),
            np.abs(out_cov - np.diag(np.diag(out_cov))).max(),
        )
    elapsed = time.perf_counter() - start
    report(
        1,
        "diagonal-covariance truncation matches closed form within 1e-10",
        worst < 1e-10 and elapsed < 1.0,
        f"max abs err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_greedy_selection_property():
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(1000):
        dim = int(rng.integers(2, 9))
        mean = rng.normal(0.0, 2.0, dim)
        a = rng.standard_normal((dim, dim))
        cov = a @ a.T + 0.05 * np.eye(dim)
        k = select_next(mean, cov, range(dim))
        cdfs = norm.cdf(mean / np.sqrt(np.diag(cov)))
        ok = ok and (cdfs[k] == cdfs.min())
    report(2, "greedy pick minimizes the kept probability mass (exact)", ok)


def test_criterion_3_truncation_order_accuracy():
    start = time.perf_counter()
    cases = truncnorm_comparison(
        dims=(3, 8), n_cases=200, seed=5, oracle_samples=10_000
    )
    elapsed = time.perf_counter() - start
    med_opt = float(np.median([c.dist_optimal for c in cases]))
    med_rand = float(np.median([c.dist_random for c in cases]))
    report(
        3,
        "greedy ordering at least as accurate as random ordering (median)",
        med_opt <= med_rand and elapsed < 120.0,
        f"median greedy {med_opt:.4f} vs random {med_rand:.4f}, {elapsed:.0f}s",
    )


def test_criterion_4_reduction_to_kalman():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    model = random_model(rng, 4, 3, delta=0.0, nu=1e8)
    ys = simulate_linear(model, rng, 50)

    means, covs, pred_means, pred_covs = kalman_filter(
        model.A, model.Q, model.C, model.R,
        model.prior_mean, model.prior_cov, ys,
    )
    sm, sp = rts_smooth(model.A, means, covs, pred_means, pred_covs)

    filt = stf_run(model, ys)
    smth = sts_run(model, ys)
    ok = True
    for k in range(50):
        ok = ok and np.allclose(filt[k][0].mean, means[k], rtol=1e-6, atol=1e-8)
        ok = ok and np.allclose(filt[k][0].cov, covs[k], rtol=1e-6, atol=1e-8)
        ok = ok and np.allclose(smth[k].mean, sm[k], rtol=1e-6, atol=1e-8)
        ok = ok and np.allclose(smth[k].cov, sp[k], rtol=1e-6, atol=1e-8)
    elapsed = time.perf_counter() - start
    report(
        4,
        "zero-shape infinite-dof filter/smoother equal Kalman/RTS within 1e-6",
        ok and elapsed < 5.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_5_mixing_update_identity():
    lam = expected_mixing_precision(np.array([4.0]), np.array([0.0]))
    report(5, "mixing precision at zero residual statistic equals 1.5", lam[0] == 1.5)


def test_criterion_6_vb_convergence(scenario_suite):
    ok = True
    details = []
    for q, stats in scenario_suite.items():
        within = float(np.mean(stats.iterations <= 10))
        med = float(np.median(stats.iterations))
        details.append(f"q={q}: {within * 100:.1f}% <= 10 iters, median {med}")
        ok = ok and within >= 0.95 and med <= 6.0
    report(6, "VB updates converge fast at tol 1e-4", ok, "; ".join(details))


def test_criterion_7_rmse_ordering(scenario_suite):
    ok = True
    details = []
    for q, stats in scenario_suite.items():
        med_gap = float(np.median(stats.kf_rmse - stats.stf_rmse))
        frac = float(np.mean(stats.sts_rmse <= stats.stf_rmse))
        details.append(
            f"q={q}: med(KF-STF) {med_gap:.3f} m, STS<=STF {frac * 100:.0f}%, "
            f"{stats.cpu_s:.1f} CPU s"
        )
        ok = ok and med_gap > 0.0 and frac >= 0.90
    report(7, "filter beats gated KF; smoother at least as good", ok, "; ".join(details))


def test_criterion_8_nees_calibration(scenario_suite):
    pooled = np.concatenate([s.stf_nees for s in scenario_suite.values()])
    grand = float(pooled.mean())
    report(
        8,
        "filter mean NEES within [2.4, 4.0]",
        2.4 <= grand <= 4.0,
        f"mean NEES {grand:.2f}",
    )


def test_criterion_9_pf_oracle_agreement(static_suite):
    frac = float(np.mean(static_suite.dist_stf < static_suite.dist_prior))
    report(
        9,
        "single-epoch posterior closer to the particle reference than the prior",
        frac >= 0.95,
        f"{frac * 100:.1f}% of 200 replications",
    )


def test_criterion_10_determinism(tmp_path):
    cfg = ScenarioConfig(
        q=5.0, delta=5.0, rho=100.0, nu=4.0, K=10, n_mc=2, seed=3,
        estimators=("stf", "sts", "kf", "rtss", "pf"), name="det",
        pf_particles=500,
    )
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    run_experiment(cfg, out_path=out1)
    run_experiment(cfg, out_path=out2)
    report(
        10,
        "identical configuration produces byte-identical CSV",
        out1.read_bytes() == out2.read_bytes(),
    )
