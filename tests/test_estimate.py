import json
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from carfima import (
    CarfimaModel,
    DomainError,
    SamplePath,
    exact_gaussian_paths,
    fit,
    periodogram,
    profile_sigma2,
    simulate_exact,
    whittle_objective,
)
from carfima.estimate import _ROW_BLOCK, _WhittleCache, h_to_logit, logit_to_h

from conftest import car1


def _path(values, h=1.0):
    return SamplePath(values=np.asarray(values, dtype=float), step_h=h,
                      model_hash="test", seed=0, method="exact_gaussian")


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


class TestWhittleObjective:
    def test_true_model_beats_perturbed_H(self):
        m = car1(0.7)
        wins = 0
        reps = 20
        for r in range(reps):
            pg = periodogram(simulate_exact(m, 1024, 1.0, seed=900 + r))
            at_true = whittle_objective(pg, m)
            worse = min(
                whittle_objective(pg, car1(0.55)),
                whittle_objective(pg, car1(0.85)),
            )
            wins += at_true < worse
        assert wins >= reps // 2 + 1  # median over replications

    def test_finite_for_antipersistent_near_zero(self):
        m = car1(0.25)
        pg = periodogram(simulate_exact(m, 512, 1.0, seed=4))
        assert math.isfinite(whittle_objective(pg, m))

    def test_profile_sigma2_matches_numerical(self):
        m = car1(0.7)
        pg = periodogram(simulate_exact(m, 2048, 1.0, seed=12))
        s2_hat = profile_sigma2(pg, m)
        res = minimize_scalar(
            lambda s2: whittle_objective(
                pg, car1(0.7, sigma=math.sqrt(s2))),
            bracket=(0.5 * s2_hat, s2_hat, 2.0 * s2_hat),
        )
        assert s2_hat == pytest.approx(res.x, rel=1e-6)

    def test_profile_sigma2_is_optimal_on_grid(self):
        m = car1(0.3)
        pg = periodogram(simulate_exact(m, 1024, 1.0, seed=3))
        s2_hat = profile_sigma2(pg, m)
        best = whittle_objective(pg, car1(0.3, sigma=math.sqrt(s2_hat)))
        for f in np.linspace(0.6, 1.6, 10):
            other = whittle_objective(pg, car1(0.3, sigma=math.sqrt(f * s2_hat)))
            assert best <= other + 1e-10

    def test_mean_shift_invariance(self):
        m = car1(0.7)
        path = simulate_exact(m, 512, 1.0, seed=6)
        shifted = _path(path.values + 17.3)
        a = whittle_objective(periodogram(path), m)
        b = whittle_objective(periodogram(shifted), m)
        assert a == pytest.approx(b, rel=1e-12)

    def test_identifiability_separation(self):
        # objective at the generating model beats a distinct model
        m = car1(0.7)
        other = car1(0.3, a1=-0.5)
        wins = 0
        for r in range(20):
            pg = periodogram(simulate_exact(m, 1024, 1.0, seed=700 + r))
            wins += whittle_objective(pg, m) < whittle_objective(pg, other)
        assert wins >= 19

    def test_nonstationary_rejected(self):
        pg = periodogram(_path(np.random.default_rng(1).standard_normal(256)))
        with pytest.raises(DomainError):
            whittle_objective(pg, car1(0.7, a1=0.4))


class TestLogisticMap:
    def test_round_trip(self):
        for side, hs in (("low", (0.011, 0.2, 0.49)), ("high", (0.506, 0.7, 0.989))):
            for H in hs:
                assert logit_to_h(h_to_logit(H, side), side) == pytest.approx(
                    H, abs=1e-12)

    def test_ranges_exclude_half(self):
        for x in (-50.0, 0.0, 50.0):
            assert logit_to_h(x, "low") < 0.5 - 0.004
            assert logit_to_h(x, "high") > 0.5 + 0.004

    def test_out_of_side_rejected(self):
        with pytest.raises(DomainError):
            h_to_logit(0.7, "low")

    def test_extreme_logits_saturate(self):
        # math.exp(-x) alone overflows below x = -709.78
        assert logit_to_h(-800.0, "low") == 0.01
        assert logit_to_h(-1e308, "high") == 0.505
        assert logit_to_h(800.0, "low") == 0.495


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

    def test_logit_below_exp_range_does_not_overflow(self):
        # the simplex drives the H logit below -709.78 on this path, where an
        # unguarded math.exp(-x) raised OverflowError
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
        assert set(d) == {"model", "objective", "converged", "iterations"}
        CarfimaModel.from_dict(d["model"])

    def test_bad_orders_rejected(self):
        path = _path(np.random.default_rng(0).standard_normal(256))
        with pytest.raises(DomainError):
            fit(path, 0, 0)
        with pytest.raises(DomainError):
            fit(path, 1, 1)

    def test_cache_consistent_with_pointwise_spectrum(self):
        from carfima import aliased_spectrum

        m = CarfimaModel(p=2, q=1, alpha=(0.0, -2.0, -3.0), beta=(0.5,),
                         H=0.3, sigma=1.2)
        # n = 2048 has 1023 Fourier frequencies, so the alias sum spans
        # several row blocks; check both sides of every block boundary
        for n in (256, 2048):
            path = simulate_exact(car1(0.5), n, 0.5, seed=0)
            pg = periodogram(path)
            cache = _WhittleCache(pg, 32)
            f = cache.shape_spectrum(m) * m.sigma**2
            m_rows = len(pg.omegas)
            idxs = {0, 40, 100, m_rows - 1}
            for b in range(_ROW_BLOCK, m_rows, _ROW_BLOCK):
                idxs |= {b - 1, b}
            for idx in sorted(idxs):
                w = float(pg.omegas[idx])
                assert f[idx] == pytest.approx(
                    aliased_spectrum(m, w, 0.5, K=32), rel=1e-12)
