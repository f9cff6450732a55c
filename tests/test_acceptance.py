"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with `pytest -s`) and
asserts both the tolerance and the runtime budget.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.linalg import expm

from carfima import (
    acf_carma,
    acf_closed_form,
    acf_integral_form,
    acf_tail_asymptote,
    autocovariance,
    empirical_acf,
    exact_gaussian_paths,
    fit,
    fourier_consistency_check,
    prepare,
    simulate_state_euler,
    spectrum_table,
    stationary_mean,
    vstar,
)
from carfima.acf import _eigen_coeffs
from carfima.simulate import SamplePath

from conftest import car1, model_from_eigenvalues, random_stable_model
from oracles import integral_cov_direct, integral_cov_kernel
from test_fgn import random_step

H_SET = (0.1, 0.3, 0.55, 0.7, 0.9)


def _criterion_models():
    """The 20 randomized stationary models shared by criteria 1 and 10."""
    rng = np.random.default_rng(812)
    models = []
    for H in H_SET:
        for _ in range(4):
            models.append(random_stable_model(rng, p_max=3, H=H))
    return models


MODELS_20 = _criterion_models()


def _report(num, name, passed, detail):
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")


def test_criterion_01_closed_form_vs_quadrature():
    lags = (0.0, 0.05, 0.5, 1.0, 2.0, 10.0)
    t0 = time.perf_counter()
    worst = 0.0
    for m in MODELS_20:
        parts = prepare(m)
        assert parts.stationary and parts.distinct
        for h in lags:
            c = acf_closed_form(m, h)
            q = acf_integral_form(m, h)
            worst = max(worst, abs(c - q) / max(abs(c), 1e-10))
    elapsed = time.perf_counter() - t0
    passed = worst < 1e-6 and elapsed < 60
    _report(1, "closed-form vs quadrature ACF", passed,
            f"max rel dev {worst:.3e} over 20 models x 6 lags, {elapsed:.1f}s")
    assert worst < 1e-6
    assert elapsed < 60


def test_criterion_02_carma_reduction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(93)
    worst_forms = 0.0
    for _ in range(8):
        m = random_stable_model(rng, H=0.5)
        parts = prepare(m)
        V = vstar(m)
        coeffs = _eigen_coeffs(m, parts.lambdas)
        for h in (0.0, 0.5, 1.0, 2.0):
            mat = float(parts.beta_vec @ expm(parts.A * h) @ V @ parts.beta_vec)
            eig = float((m.sigma**2 * np.sum(coeffs * np.exp(parts.lambdas * h))).real)
            worst_forms = max(worst_forms, abs(mat - eig) / max(abs(mat), abs(eig)))
    # H -> 1/2 limit of the closed form, probed two-sided at 0.5 +- 1e-5:
    # the symmetric average cancels the genuine dgamma/dH term, leaving the
    # numerical limit; each one-sided probe stays within the continuity bound
    worst_limit = 0.0
    worst_side = 0.0
    for h in (0.0, 1.0, 3.0):
        ref = acf_carma(car1(0.5), h)
        lo = acf_closed_form(car1(0.5 - 1e-5), h)
        hi = acf_closed_form(car1(0.5 + 1e-5), h)
        worst_limit = max(worst_limit, abs(0.5 * (lo + hi) - ref) / abs(ref))
        worst_side = max(worst_side, abs(lo - ref) / abs(ref),
                         abs(hi - ref) / abs(ref))
    elapsed = time.perf_counter() - t0
    # one-sided probes carry the true derivative gap |dlog gamma/dH| * 1e-5,
    # up to ~1.6e-4 at h=3; the guard only has to catch cancellation blow-up
    passed = worst_forms < 1e-9 and worst_limit < 1e-6 and worst_side < 5e-4 \
        and elapsed < 5
    _report(2, "CARMA reduction at H=1/2", passed,
            f"forms {worst_forms:.3e}, limit {worst_limit:.3e}, "
            f"one-sided {worst_side:.3e}, {elapsed:.1f}s")
    assert worst_forms < 1e-9
    assert worst_limit < 1e-6
    assert worst_side < 5e-4
    assert elapsed < 5


def test_criterion_03_fourier_consistency():
    t0 = time.perf_counter()
    worst = 0.0
    for H in (0.3, 0.5, 0.7):
        rep = fourier_consistency_check(car1(H), (0.0, 1.0, 5.0))
        worst = max(worst, rep["max_rel_dev"])
    m2 = model_from_eigenvalues([-1.0, -2.0], q=1, beta=(0.5,), H=0.3)
    rep = fourier_consistency_check(m2, (0.0, 1.0, 5.0))
    worst = max(worst, rep["max_rel_dev"])
    elapsed = time.perf_counter() - t0
    passed = worst < 1e-4 and elapsed < 120
    _report(3, "Fourier consistency (spectrum vs ACF)", passed,
            f"max rel dev {worst:.3e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 120


def test_criterion_04_tail_law():
    t0 = time.perf_counter()
    slopes = {}
    for H in (0.2, 0.7):
        m = car1(H)
        hs = np.geomspace(100.0, 1000.0, 15)
        vals = np.array([acf_closed_form(m, float(h)) for h in hs])
        slopes[H] = float(np.polyfit(np.log(hs), np.log(np.abs(vals)), 1)[0])
    sign_02 = acf_closed_form(car1(0.2), 500.0)
    sign_07 = acf_closed_form(car1(0.7), 500.0)
    elapsed = time.perf_counter() - t0
    slope_ok = all(abs(slopes[H] - (2 * H - 2)) < 0.05 for H in (0.2, 0.7))
    sign_ok = sign_02 < 0 < sign_07
    passed = slope_ok and sign_ok and elapsed < 10
    _report(4, "tail power law", passed,
            f"slopes {slopes[0.2]:+.4f}/{slopes[0.7]:+.4f} "
            f"(targets -1.6/-0.6), signs {sign_02:.2e}/{sign_07:.2e}, {elapsed:.1f}s")
    for H in (0.2, 0.7):
        assert abs(slopes[H] - (2 * H - 2)) < 0.05
    assert sign_02 < 0
    assert sign_07 > 0
    assert elapsed < 10


def test_criterion_05_antipersistence_integral():
    t0 = time.perf_counter()
    m = car1(0.3)
    H = m.H
    g0 = acf_closed_form(m, 0.0)
    T = 1e4
    body = 0.0
    for a, b in ((0.0, 10.0), (10.0, 100.0), (100.0, T)):
        val, _ = quad(lambda h: acf_closed_form(m, h), a, b, limit=400)
        body += val
    # integral of the power-law tail beyond T
    tail = acf_tail_asymptote(m, T) * T / (1.0 - 2.0 * H)
    total = 2.0 * (body + tail)
    elapsed = time.perf_counter() - t0
    passed = abs(total) < 1e-3 * g0 and elapsed < 30
    _report(5, "antipersistent ACF integrates to zero", passed,
            f"|integral| {abs(total):.3e} vs 1e-3*gamma(0) {1e-3 * g0:.3e}, "
            f"{elapsed:.1f}s")
    assert abs(total) < 1e-3 * g0
    assert elapsed < 30


def test_criterion_06_stochastic_integral_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4817)
    worst = 0.0
    for _ in range(100):
        f = random_step(rng)
        g = random_step(rng)
        for H in (0.1, 0.25, 0.4, 0.6, 0.75, 0.9):
            a = integral_cov_direct(f, g, H)
            b = integral_cov_kernel(f, g, H)
            worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    elapsed = time.perf_counter() - t0
    passed = worst < 1e-10 and elapsed < 5
    _report(6, "stochastic-integral covariance oracle", passed,
            f"max rel dev {worst:.3e} over 100 pairs x 6 H, {elapsed:.1f}s")
    assert worst < 1e-10
    assert elapsed < 5


def test_criterion_07_monte_carlo_fidelity():
    t0 = time.perf_counter()
    exceed = {}
    for H, seed in ((0.7, 1001), (0.3, 1002)):
        m = car1(H)
        paths = exact_gaussian_paths(m, 512, 1.0, 10_000, seed=seed)
        gam = autocovariance(m, np.arange(21) * 1.0)
        emp = empirical_acf(paths, 20, mean=stationary_mean(m))
        se = emp.std(axis=0, ddof=1) / math.sqrt(len(emp))
        z = np.abs(emp.mean(axis=0) - gam.values) / se
        exceed[H] = int(np.sum(z > 3.0))
    elapsed = time.perf_counter() - t0
    passed = all(v <= 2 for v in exceed.values()) and elapsed < 300
    _report(7, "Monte Carlo fidelity (10^4 paths)", passed,
            f"3-SE exceedances H=0.7: {exceed[0.7]}, H=0.3: {exceed[0.3]} "
            f"(allowed 2 each), {elapsed:.1f}s")
    assert exceed[0.7] <= 2
    assert exceed[0.3] <= 2
    assert elapsed < 300


def test_criterion_08_simulator_cross_check():
    t0 = time.perf_counter()
    m = car1(0.7)
    n, reps = 4096, 24
    exact = exact_gaussian_paths(m, n, 1.0, reps, seed=515)
    euler = np.stack([
        simulate_state_euler(m, n, 1.0, 8, seed=9000 + r).values
        for r in range(reps)
    ])
    # marginal KS on subsampled values: the iid test is invalid on raw
    # long-memory samples (it rejects exact-vs-exact more often than not)
    ks_p = stats.ks_2samp(exact[0][::32], euler[0][::32]).pvalue
    moments_ok = True
    moment_msgs = []
    for k in (0, 1):
        ex = empirical_acf(exact, k, mean=0.0)[:, k]
        eu = empirical_acf(euler, k, mean=0.0)[:, k]
        se = math.hypot(ex.std(ddof=1) / math.sqrt(reps),
                        eu.std(ddof=1) / math.sqrt(reps))
        dev = abs(ex.mean() - eu.mean())
        moment_msgs.append(f"lag{k}: |d|={dev:.4f} 3SE={3 * se:.4f}")
        moments_ok &= dev < 3 * se
    elapsed = time.perf_counter() - t0
    passed = ks_p > 0.01 and moments_ok and elapsed < 180
    _report(8, "state simulator vs exact simulator", passed,
            f"KS p={ks_p:.3f}, {'; '.join(moment_msgs)}, {elapsed:.1f}s")
    assert ks_p > 0.01
    assert moments_ok
    assert elapsed < 180


def _whittle_sd_h(model, n, step_h):
    """Linearised Whittle sd of H-hat for a CAR(1) fit with alpha_1 free.

    The score of log f_h at each Fourier frequency comes from central
    differences in (H, alpha_1); sigma^2 is profiled out by centring the
    scores.  Each periodogram ordinate I/f_h is asymptotically Exp(1), so
    the information is the sum of outer products of the scores.
    """
    omegas = 2 * math.pi * np.arange(1, (n - 1) // 2 + 1) / n
    H0, a1 = model.H, model.alpha[1]
    d = 1e-4

    def log_f(H, a):
        table = spectrum_table(car1(H, a1=a), omegas, kind="aliased", step_h=step_h)
        return np.log(table.values)

    scores = np.stack([(log_f(H0 + d, a1) - log_f(H0 - d, a1)) / (2 * d),
                       (log_f(H0, a1 + d) - log_f(H0, a1 - d)) / (2 * d)])
    scores -= scores.mean(axis=1, keepdims=True)
    return math.sqrt(np.linalg.inv(scores @ scores.T)[0, 0])


def test_criterion_09_whittle_identifiability():
    t0 = time.perf_counter()
    n, reps = 4096, 50
    rates = {}
    sds = {}
    # alpha_1 = -0.3 in the antipersistent arm: at alpha_1 = -1 H and the mean
    # reversion are nearly confounded (sd(H-hat) = 0.138 at this n), so no
    # estimator could land 80% of fits within 0.07
    for H0, a1, tol, seed in ((0.7, -1.0, 0.05, 21), (0.25, -0.3, 0.07, 22)):
        m = car1(H0, a1=a1)
        # an asymptotically normal H-hat hits |err| <= tol at rate 80% only if
        # z_0.9 * sd <= tol; a design failing this cannot meet the criterion
        sds[H0] = _whittle_sd_h(m, n, 1.0)
        assert stats.norm.ppf(0.9) * sds[H0] <= tol
        paths = exact_gaussian_paths(m, n, 1.0, reps, seed=seed)
        hits = 0
        for r in range(reps):
            sp = SamplePath(values=paths[r], step_h=1.0, model_hash="acc",
                            seed=r, method="exact_gaussian")
            res = fit(sp, 1, 0, seed=r, n_starts=4)
            hits += abs(res.model_hat.H - H0) <= tol
        rates[H0] = hits / reps
    elapsed = time.perf_counter() - t0
    passed = rates[0.7] >= 0.8 and rates[0.25] >= 0.8 and elapsed < 600
    _report(9, "Whittle H recovery", passed,
            f"rate H0=0.7: {rates[0.7]:.0%} (need 80% within 0.05, "
            f"sd {sds[0.7]:.3f}), H0=0.25 a1=-0.3: {rates[0.25]:.0%} "
            f"(need 80% within 0.07, sd {sds[0.25]:.3f}), {elapsed:.0f}s")
    assert rates[0.7] >= 0.8
    assert rates[0.25] >= 0.8
    assert elapsed < 600


def test_criterion_10_lyapunov_residual():
    t0 = time.perf_counter()
    worst = 0.0
    for m in MODELS_20:
        parts = prepare(m)
        V = vstar(m)
        resid = np.max(np.abs(
            parts.A @ V + V @ parts.A.T
            + m.sigma**2 * np.outer(parts.delta_p, parts.delta_p)))
        worst = max(worst, resid / m.sigma**2)
    elapsed = time.perf_counter() - t0
    passed = worst < 1e-8 and elapsed < 1
    _report(10, "Lyapunov residual", passed,
            f"max residual {worst:.3e} * sigma^2 over 20 models, {elapsed:.2f}s")
    assert worst < 1e-8
    assert elapsed < 1
