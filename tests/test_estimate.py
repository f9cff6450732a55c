import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from carfima import (
    CarfimaModel,
    DomainError,
    Periodogram,
    SamplePath,
    TailBoundTooLooseError,
    exact_gaussian_paths,
    fit,
    periodogram,
    simulate_exact,
    spectral_density,
)
import carfima.estimate as est_mod
from carfima.estimate import (H_MAX, H_MIN, _AGREE_TOL, _alpha_coeffs, _alpha_jacobian,
                              _log_factors, _profiled, _split)
from carfima.model import alpha_poly_coeffs
from carfima.spectrum import DEFAULT_ALIAS_K, _AliasSum

from conftest import car1, model_from_eigenvalues


def _path(values, h=1.0):
    return SamplePath(values=np.asarray(values, dtype=float), step_h=h,
                      model_hash="test", seed=0, method="exact_gaussian")


def _whittle(pg, model, K=DEFAULT_ALIAS_K):
    """sum_j [log f_h(w_j) + I(w_j)/f_h(w_j)] at the model's own sigma."""
    f = _AliasSum(pg.omegas, pg.step_h, K)(model)[0]
    return float(np.sum(np.log(f) + pg.values / f))


def _profile(pg, model, K=DEFAULT_ALIAS_K):
    """(Q, s2): the objective fit minimises at the model's shape, and its sigma^2."""
    theta = np.concatenate([_log_factors(np.roots(alpha_poly_coeffs(model))),
                            model.beta, [model.H]])
    objective = _profiled(_AliasSum(pg.omegas, pg.step_h, K), pg.values, model.p, model.q)
    value, _, g = objective(theta)[:3]
    return value, float(np.mean(pg.values / g))


class TestPeriodogram:
    def test_constant_series_all_zero(self):
        pg = periodogram(_path(np.full(64, 3.7)))
        assert np.all(pg.values == 0.0)

    def test_single_cosine_concentrates(self):
        n, j0 = 256, 10
        k = np.arange(n)
        pg = periodogram(_path(np.cos(2 * math.pi * j0 * k / n)))
        assert int(np.argmax(pg.values)) == j0 - 1  # grid starts at j = 1
        others = np.delete(pg.values, j0 - 1)
        assert np.max(others) < 1e-12 * pg.values[j0 - 1]

    def test_white_noise_flat_level(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal(4096)
        pg = periodogram(_path(y))
        mean_level = float(pg.values.mean()) * 2 * math.pi
        var = float(np.var(y))
        assert mean_level == pytest.approx(var, rel=4 / math.sqrt(len(pg.values)))

    def test_frequency_grid(self):
        pg = periodogram(_path(np.random.default_rng(0).standard_normal(101)))
        assert len(pg.omegas) == 50
        assert pg.omegas[0] == pytest.approx(2 * math.pi / 101)

    def test_minimum_length(self):
        with pytest.raises(DomainError):
            periodogram(_path(np.zeros(8)))

    def test_far_from_unit_scale(self):
        # x 1e300 warned "overflow encountered in square" and gave inf
        # values; x 1e-300 gave zeros
        y = np.random.default_rng(0).standard_normal(256)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unit = periodogram(_path(y)).values
            for k in (400, -400):
                got = periodogram(_path(np.ldexp(y, k))).values
                assert np.array_equal(got, np.ldexp(unit, 2 * k))
            for scale in (1e300, 1e-300):
                with pytest.raises(DomainError, match="over- or underflow"):
                    periodogram(_path(y * scale))


class TestWhittleObjective:
    def test_true_model_beats_perturbed_H(self):
        m = car1(0.7)
        wins = 0
        reps = 20
        for r in range(reps):
            pg = periodogram(simulate_exact(m, 1024, 1.0, seed=900 + r))
            at_true = _whittle(pg, m)
            worse = min(
                _whittle(pg, car1(0.55)),
                _whittle(pg, car1(0.85)),
            )
            wins += at_true < worse
        assert wins >= reps // 2 + 1  # median over replications

    def test_finite_for_antipersistent_near_zero(self):
        m = car1(0.25)
        pg = periodogram(simulate_exact(m, 512, 1.0, seed=4))
        assert math.isfinite(_whittle(pg, m))

    def test_profiled_sigma2_matches_numerical(self):
        m = car1(0.7)
        pg = periodogram(simulate_exact(m, 2048, 1.0, seed=12))
        s2_hat = _profile(pg, m)[1]
        res = minimize_scalar(
            lambda s2: _whittle(
                pg, car1(0.7, sigma=math.sqrt(s2))),
            bracket=(0.5 * s2_hat, s2_hat, 2.0 * s2_hat),
        )
        assert s2_hat == pytest.approx(res.x, rel=1e-6)

    def test_profiled_sigma2_is_optimal_on_grid(self):
        m = car1(0.3)
        pg = periodogram(simulate_exact(m, 1024, 1.0, seed=3))
        value, s2_hat = _profile(pg, m)
        best = _whittle(pg, car1(0.3, sigma=math.sqrt(s2_hat)))
        assert best == pytest.approx(value, rel=1e-12)
        for f in np.linspace(0.6, 1.6, 10):
            other = _whittle(pg, car1(0.3, sigma=math.sqrt(f * s2_hat)))
            assert best <= other + 1e-10

    def test_mean_shift_invariance(self):
        m = car1(0.7)
        path = simulate_exact(m, 512, 1.0, seed=6)
        shifted = _path(path.values + 17.3)
        a = _whittle(periodogram(path), m)
        b = _whittle(periodogram(shifted), m)
        assert a == pytest.approx(b, rel=1e-12)

    def test_identifiability_separation(self):
        # objective at the generating model beats a distinct model
        m = car1(0.7)
        other = car1(0.3, a1=-0.5)
        wins = 0
        for r in range(20):
            pg = periodogram(simulate_exact(m, 1024, 1.0, seed=700 + r))
            wins += _whittle(pg, m) < _whittle(pg, other)
        assert wins >= 19

    def test_nonstationary_rejected(self):
        pg = periodogram(_path(np.random.default_rng(1).standard_normal(256)))
        with pytest.raises(DomainError):
            _whittle(pg, car1(0.7, a1=0.4))

    def test_profiled_sigma2_rejects_nonstationary(self):
        # root +0.5: a log-factor coordinate of the fit cannot express it
        pg = Periodogram(omegas=np.array([0.5]), values=np.array([1.0]), n=3, step_h=1.0)
        with pytest.raises(DomainError):
            _profile(pg, car1(0.5, a1=0.5))

    def test_profiled_objective_matches_pointwise_spectrum(self):
        # a resonance at 50 rad/s lies inside the tail bracket's grid at K = 2,
        # so the bracket depends on where that grid samples the ratio; the
        # objective on the full grid equals the one from one-row alias sums
        m = model_from_eigenvalues([-1 + 50j, -1 - 50j, -2.0], H=0.3)
        pg = periodogram(_path(np.random.default_rng(0).standard_normal(256)))
        f = np.array([_AliasSum(np.array([w]), 1.0, 2)(m)[0][0] for w in pg.omegas])
        expected = float(np.sum(np.log(f) + pg.values / f))
        assert _whittle(pg, m, K=2) == pytest.approx(expected, rel=1e-12)
        s2 = float(np.mean(pg.values / f))
        profiled = len(f) * math.log(s2) + float(np.sum(np.log(f))) + len(f)
        assert _profile(pg, m, K=2)[0] == pytest.approx(profiled, rel=1e-12)


class TestFit:
    def test_recovery_smoke(self):
        m = car1(0.7)
        path = simulate_exact(m, 2048, 1.0, seed=42)
        r = fit(path, 1, 0, seed=1, n_starts=2)
        assert r.stationarity_ok
        assert r.model_hat.H > 0.5
        assert abs(r.model_hat.H - 0.7) < 0.12
        assert abs(r.model_hat.sigma - 1.0) < 0.3

    def test_deterministic_given_seed(self):
        m = car1(0.3)
        path = simulate_exact(m, 1024, 1.0, seed=9)
        a = fit(path, 1, 0, seed=3, n_starts=2)
        b = fit(path, 1, 0, seed=3, n_starts=2)
        assert a.to_json() == b.to_json()

    def test_init_respected(self):
        m = car1(0.7)
        path = simulate_exact(m, 1024, 1.0, seed=2)
        r = fit(path, 1, 0, init=car1(0.65), seed=0, n_starts=2)
        assert r.model_hat.H > 0.5

    def test_init_of_other_order_or_nonstationary_rejected(self):
        path = simulate_exact(car1(0.7), 256, 1.0, seed=1)
        with pytest.raises(DomainError, match="orders"):
            fit(path, 2, 0, init=car1(0.7), n_starts=1)
        with pytest.raises(DomainError, match="stationary"):
            fit(path, 1, 0, init=car1(0.7, a1=0.5), n_starts=1)

    def test_logit_below_exp_range_does_not_overflow(self):
        # the old simplex over logit H drove the logit below -709.78 on this
        # path, where an unguarded math.exp(-x) raised OverflowError; H now
        # moves inside box bounds
        m = CarfimaModel(p=2, q=1, alpha=(0.0, -1.0, -1.5), beta=(0.5,), H=0.3,
                         sigma=1.0)
        path = _path(exact_gaussian_paths(m, 4096, 1.0, 2, seed=5)[0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r = fit(path, 2, 1, seed=0, n_starts=4)
        assert 0.0 < r.model_hat.H < 1.0

    def test_result_json_fields(self):
        m = car1(0.7)
        path = simulate_exact(m, 512, 1.0, seed=2)
        r = fit(path, 1, 0, seed=0, n_starts=1)
        d = json.loads(r.to_json())
        assert set(d) == {"model", "objective", "converged", "iterations", "stderr"}
        CarfimaModel.from_dict(d["model"])

    def test_bad_orders_rejected(self):
        path = _path(np.random.default_rng(0).standard_normal(256))
        with pytest.raises(DomainError):
            fit(path, 0, 0)
        with pytest.raises(DomainError):
            fit(path, 1, 1)

    def test_fast_root_estimate_raises(self):
        # alpha(z) = z^2 + 0.5 z + 1e6: roots -0.25 +- 1000i at h = 1, far
        # beyond the explicit aliases, where the tail bracket is as wide as
        # the spectrum; a fit started there stays there and must not return
        m = CarfimaModel(p=2, q=1, alpha=(0.0, -1e6, -0.5), beta=(0.4,), H=0.3, sigma=1.0)
        path = _path(exact_gaussian_paths(m, 512, 1.0, 1, seed=0)[0])
        with pytest.raises(TailBoundTooLooseError):
            fit(path, 2, 1, init=m, n_starts=1)

    def test_four_roots_on_a_short_path(self):
        # fit(p=4) on n = 256 once raised OverflowError
        path = simulate_exact(car1(0.7), 256, 1.0, seed=1)
        r = fit(path, 4, 0, seed=0, n_starts=2)
        assert r.model_hat.p == 4 and math.isfinite(r.objective_value)

    def test_constant_path_rejected(self):
        with pytest.raises(DomainError, match="constant"):
            fit(_path(np.ones(64)), 1, 0)

    def test_far_from_unit_scale(self):
        # x 1e300 overflowed the periodogram's squares into a "must be
        # finite" error, and x 1e-300 underflowed them into "constant path"
        y = np.random.default_rng(0).standard_normal(256)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unit = fit(_path(y), 1, 0, seed=0, n_starts=2)
            for k in (900, -900):
                r = fit(_path(np.ldexp(y, k)), 1, 0, seed=0, n_starts=2)
                assert (r.model_hat.H, r.model_hat.alpha) == (unit.model_hat.H,
                                                             unit.model_hat.alpha)
                assert r.model_hat.sigma == math.ldexp(unit.model_hat.sigma, k)
                assert r.objective_value == pytest.approx(
                    unit.objective_value + 2 * 127 * k * math.log(2.0), rel=1e-12)
            for scale in (1e300, 1e-300):
                r = fit(_path(y * scale), 1, 0, seed=0, n_starts=2)
                assert r.model_hat.H == pytest.approx(unit.model_hat.H, rel=1e-3)
                assert r.model_hat.sigma / scale == pytest.approx(unit.model_hat.sigma,
                                                                  rel=1e-3)

    def test_carfima_2_1_recovery(self):
        m = CarfimaModel(p=2, q=1, alpha=(0.0, -1.0, -1.5), beta=(0.5,), H=0.7, sigma=1.0)
        path = _path(exact_gaussian_paths(m, 4096, 1.0, 1, seed=31)[0])
        r = fit(path, 2, 1, seed=0, n_starts=4)
        assert r.converged
        assert r.stationarity_ok
        assert r.objective_value <= _profile(periodogram(path), m)[0]

    def test_stderr_of_h_matches_central_differences(self):
        # the first criterion-9 path at H0 = 0.7; the oracle differentiates the
        # printed aliased spectrum numerically at the fitted model
        from test_acceptance import _whittle_sd_h

        paths = exact_gaussian_paths(car1(0.7), 4096, 1.0, 50, seed=21)
        r = fit(_path(paths[0]), 1, 0, seed=0, n_starts=4)
        assert len(r.stderr) == 2
        oracle = _whittle_sd_h(r.model_hat, 4096, 1.0)
        assert r.stderr[-1] == pytest.approx(oracle, rel=0.02)

    @pytest.mark.parametrize("a1", [-1.0, -0.3])
    def test_short_memory_reachable(self, a1):
        # H = 1/2 is the CARMA member of the family: with one H box the fit
        # may land anywhere near it, and no estimate sits on a bound.  Two
        # boxes around an excluded band (0.495, 0.505) put 2 of these 20
        # estimates on a band edge at each a1
        paths = exact_gaussian_paths(car1(0.5, a1=a1), 4096, 1.0, 20, seed=77)
        hs = np.array([fit(_path(paths[r]), 1, 0, seed=r, n_starts=4).model_hat.H
                       for r in range(20)])
        assert np.any(np.abs(hs - 0.5) < 0.005)
        for bound in (H_MIN, 0.495, 0.505, H_MAX):
            assert np.all(np.abs(hs - bound) > 1e-6)
        assert abs(hs.mean() - 0.5) < 0.03


@pytest.fixture
def start_log(monkeypatch):
    """(final objective per ordinate, H) of every L-BFGS-B run fit makes."""
    log = []
    run = est_mod.minimize

    def logged(*args, **kwargs):
        res = run(*args, **kwargs)
        log.append((float(res.fun), float(res.x[-1])))
        return res

    monkeypatch.setattr(est_mod, "minimize", logged)
    return log


class TestMultiStart:
    def test_stops_once_two_starts_agree(self, start_log, monkeypatch):
        path = _path(exact_gaussian_paths(car1(0.7), 2048, 1.0, 1, seed=42)[0])
        r = fit(path, 1, 0, seed=1, n_starts=4)
        assert len(start_log) == 2
        assert abs(start_log[1][0] - start_log[0][0]) <= _AGREE_TOL
        # n_starts is a maximum: the same two starts, the same bits
        assert fit(path, 1, 0, seed=1, n_starts=2).to_json() == r.to_json()
        # the full search finds the same estimate
        start_log.clear()
        monkeypatch.setattr(est_mod, "_AGREE_TOL", -math.inf)
        full = fit(path, 1, 0, seed=1, n_starts=4)
        assert len(start_log) == 4
        assert abs(full.model_hat.H - r.model_hat.H) < 1e-5
        m = len(periodogram(path).values)
        assert abs(full.objective_value - r.objective_value) <= m * _AGREE_TOL

    def test_third_start_runs_when_the_first_two_disagree(self, start_log):
        # on this path the first two starts end in different local minima
        # (H = 0.440 and 0.322); the third reaches the first one again
        m = CarfimaModel(p=2, q=1, alpha=(0.0, -1.0, -1.5), beta=(0.5,), H=0.3, sigma=1.0)
        path = _path(exact_gaussian_paths(m, 1024, 1.0, 1, seed=1)[0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r = fit(path, 2, 1, seed=0, n_starts=4)
            assert len(start_log) == 3
            (f0, h0), (f1, h1), (f2, _) = start_log
            assert abs(f1 - f0) > 100 * _AGREE_TOL and abs(h1 - h0) > 0.05
            assert abs(f2 - f0) <= _AGREE_TOL
            # the best of the three wins
            m = len(periodogram(path).values)
            assert r.objective_value == pytest.approx(m * min(start_log)[0], rel=1e-12)
            # and n_starts stays a maximum when no two starts agree
            start_log.clear()
            fit(path, 2, 1, seed=0, n_starts=2)
            assert len(start_log) == 2


def _draw_theta(p, data, high, seed):
    """(q, beta, H, theta, rng) of a random CARFIMA(p, H, q) shape."""
    q = data.draw(st.integers(0, p - 1))
    rng = np.random.default_rng(seed)
    beta = rng.uniform(-0.6, 0.6, q)
    if q:
        beta[-1] = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.8)
    H = rng.uniform(0.55, 0.95) if high else rng.uniform(0.05, 0.45)
    return q, beta, H, np.concatenate([rng.uniform(-1.5, 1.0, p), beta, [H]]), rng


def _central_differences(fn, theta, step=1e-6):
    return np.array([(fn(theta + step * e) - fn(theta - step * e)) / (2 * step)
                     for e in np.eye(len(theta))])


class TestProfiledObjective:
    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(p=st.integers(1, 3), data=st.data(), high=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_gradient_and_value(self, p, data, high, seed):
        q, beta, H, theta, rng = _draw_theta(p, data, high, seed)
        pg = periodogram(_path(rng.standard_normal(256)))
        objective = _profiled(_AliasSum(pg.omegas, pg.step_h, 64), pg.values, p, q)
        value, grad = objective(theta)[:2]
        # central differences, tail bracket included
        fd = _central_differences(lambda t: objective(t)[0], theta)
        assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)
        # one engine: the same value as the unprofiled objective at the
        # closed-form sigma^2
        quadratic, linear = _split(theta, p, q)[:2]
        shape = CarfimaModel(p=p, q=q, alpha=(0.0, *_alpha_coeffs(quadratic, linear)),
                             beta=tuple(beta), H=H, sigma=1.0)
        s2 = float(np.mean(pg.values / _AliasSum(pg.omegas, pg.step_h, 64)(shape)[0]))
        profiled = replace(shape, sigma=math.sqrt(s2))
        assert value == pytest.approx(_whittle(pg, profiled, K=64), rel=1e-12)
        # the factor-to-coefficient Jacobian that maps the standard errors
        jac = _alpha_jacobian(quadratic, linear)
        fd = _central_differences(lambda t: _alpha_coeffs(*_split(t, p, q)[:2]), theta)
        assert np.allclose(jac, fd[:p].T, rtol=1e-6, atol=1e-8)

    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(p=st.integers(1, 3), data=st.data(), high=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_gradient_at_default_K(self, p, data, high, seed):
        q, _, _, theta, rng = _draw_theta(p, data, high, seed)
        pg = periodogram(_path(rng.standard_normal(256)))
        objective = _profiled(_AliasSum(pg.omegas, pg.step_h, DEFAULT_ALIAS_K),
                              pg.values, p, q)
        grad = objective(theta)[1]
        fd = _central_differences(lambda t: objective(t)[0], theta)
        assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_fast_root_tail_stays_in_bracket(self):
        # CAR(1) with alpha_1 = -1e6 at h = 1: the root lies far beyond the
        # first omitted alias (|W| = 104), the power-law series diverges far
        # below zero (r1 = -1e12), and the bracket's lower end sets the tail
        pg = periodogram(_path(np.random.default_rng(3).standard_normal(256)))
        alias = _AliasSum(pg.omegas, pg.step_h, DEFAULT_ALIAS_K)
        theta = np.array([math.log(1e6), 0.7])

        def log_f(t):
            return np.log(alias.evaluate(*_split(t, 1, 0))[0])

        f, tail_lo, tail_hi, dlog_f = alias.evaluate(*_split(theta, 1, 0), grad=True)
        ks = np.arange(-DEFAULT_ALIAS_K, DEFAULT_ALIAS_K + 1)
        m = CarfimaModel(p=1, q=0, alpha=(0.0, -1e6), beta=(), H=0.7, sigma=1.0)
        trunc = spectral_density(m, pg.omegas[:, None] + 2 * math.pi * ks).sum(axis=1)
        assert np.all(np.isfinite(f)) and np.all(f > 0)
        assert np.all(f - trunc >= tail_lo * (1 - 1e-9))
        assert np.all(f - trunc <= tail_hi * (1 + 1e-9))
        assert np.allclose(dlog_f, _central_differences(log_f, theta, 1e-5).T, rtol=1e-6)
        value, grad = _profiled(alias, pg.values, 1, 0)(theta)[:2]
        assert math.isfinite(value) and np.all(np.isfinite(grad))
