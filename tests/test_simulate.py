import json
import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import toeplitz

from carfima import (
    CarfimaModel,
    DomainError,
    FactorizationFailureError,
    acf_carma,
    autocovariance,
    empirical_acf,
    exact_gaussian_paths,
    read_path_csv,
    simulate_exact,
    simulate_state_euler,
    stationary_mean,
)
import carfima.simulate as sim_mod
from carfima.fgn import _circulant_rows

from conftest import car1


class TestExactSimulator:
    def test_determinism(self):
        m = car1(0.7)
        a = simulate_exact(m, 128, 1.0, seed=5)
        b = simulate_exact(m, 128, 1.0, seed=5)
        assert np.array_equal(a.values, b.values)
        assert a.method == "exact_gaussian"

    def test_mean_recovery(self):
        # nonzero drift: stationary mean -alpha_0/alpha_1 = 2
        m = car1(0.7, a0=2.0)
        paths = exact_gaussian_paths(m, 512, 1.0, 200, seed=31)
        g0 = autocovariance(m, [0.0]).values[0]
        path_means = paths.mean(axis=1)
        se = path_means.std(ddof=1) / math.sqrt(200)
        assert abs(path_means.mean() - 2.0) < 3 * se
        assert g0 > 0

    def test_variance_recovery(self):
        m = car1(0.7)
        paths = exact_gaussian_paths(m, 512, 1.0, 400, seed=7)
        emp = empirical_acf(paths, 0, mean=0.0)[:, 0]
        se = emp.std(ddof=1) / math.sqrt(len(emp))
        g0 = autocovariance(m, [0.0]).values[0]
        assert abs(emp.mean() - g0) < 3 * se

    def test_acf_fidelity_quick(self):
        m = car1(0.7)
        paths = exact_gaussian_paths(m, 512, 1.0, 2000, seed=13)
        gam = autocovariance(m, np.arange(21) * 1.0)
        emp = empirical_acf(paths, 20, mean=0.0)
        se = emp.std(axis=0, ddof=1) / math.sqrt(len(emp))
        z = np.abs(emp.mean(axis=0) - gam.values) / se
        assert int(np.sum(z > 3)) <= 2

    def test_antipersistent_sample_sign(self):
        # tail covariances are ~ -5e-4 here, so average enough paths for
        # the per-lag standard error to sit well below that
        m = car1(0.3)
        paths = exact_gaussian_paths(m, 512, 1.0, 6000, seed=3)
        emp = empirical_acf(paths, 60, mean=0.0).mean(axis=0)
        assert np.mean(emp[40:] < 0) > 0.8
        assert emp[40:].mean() < 0

    def test_gaussianity(self):
        m = car1(0.7)
        pooled = exact_gaussian_paths(m, 256, 1.0, 100, seed=9).ravel()
        n = pooled.size
        skew = stats.skew(pooled)
        kurt = stats.kurtosis(pooled)
        assert abs(skew) < 4 * math.sqrt(6.0 / n) * 3  # dependence inflates SE
        assert abs(kurt) < 4 * math.sqrt(24.0 / n) * 3

    def test_factorization_failure_is_fatal(self, monkeypatch):
        from carfima.acf import AcfTable

        def bad_autocov(model, lags, method="auto", parts=None):
            vals = np.full(len(lags), -1.0)
            vals[0] = 1.0
            return AcfTable(lags=np.asarray(lags, dtype=float), values=vals,
                            method="empirical", model_hash="x")

        monkeypatch.setattr(sim_mod, "autocovariance", bad_autocov)
        with pytest.raises(FactorizationFailureError):
            simulate_exact(car1(0.7), 64, 1.0, seed=0)

    def test_embedding_route_mapping(self):
        # PSD embedding and n_paths <= n: one (n_paths, 2(n-1)) normal block
        m, n = car1(0.7, a0=2.0), 64
        g = autocovariance(m, np.arange(n) * 0.5).values
        eig = np.fft.rfft(np.concatenate([g, g[-2:0:-1]])).real
        rng = np.random.default_rng(np.random.SeedSequence(3))
        expect = 2.0 + _circulant_rows(eig, rng.standard_normal((5, 2 * (n - 1))))
        assert np.array_equal(exact_gaussian_paths(m, n, 0.5, 5, seed=3), expect)

    @pytest.mark.parametrize(
        "model, n, step_h, n_paths, warns",
        [
            # minimal embedding not PSD (min/max eigenvalue about -1e-3)
            (car1(0.9, a1=-0.01), 128, 0.5, 3, True),
            # more paths than lags: Cholesky draws fewer normals per path
            (car1(0.7), 16, 1.0, 40, False),
        ],
    )
    def test_cholesky_route_bit_identical(self, model, n, step_h, n_paths, warns):
        g = autocovariance(model, np.arange(n) * step_h).values
        rng = np.random.default_rng(np.random.SeedSequence(8))
        expect = (np.linalg.cholesky(toeplitz(g)) @ rng.standard_normal((n, n_paths))).T
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = exact_gaussian_paths(model, n, step_h, n_paths, seed=8)
        assert any("not PSD" in str(w.message) for w in caught) == warns
        assert np.array_equal(got, expect)

    def test_requires_stationary(self):
        with pytest.raises(DomainError):
            simulate_exact(car1(0.7, a1=0.5), 32, 1.0, seed=0)


class TestStateEuler:
    def test_determinism(self):
        m = car1(0.7)
        a = simulate_state_euler(m, 64, 1.0, 4, seed=2)
        b = simulate_state_euler(m, 64, 1.0, 4, seed=2)
        assert np.array_equal(a.values, b.values)
        assert a.method == "state_euler"

    def test_ou_acf_matches_theory(self, ou_model):
        # ensemble of euler paths against the exact CARMA autocovariance
        reps, n = 400, 256
        gam = [acf_carma(ou_model, float(k)) for k in (0, 1, 2, 5)]
        rows = np.stack([
            simulate_state_euler(ou_model, n, 1.0, 4, seed=1000 + r).values
            for r in range(reps)
        ])
        for idx, k in enumerate((0, 1, 2, 5)):
            per = np.mean(rows[:, : n - k] * rows[:, k:], axis=1)
            se = per.std(ddof=1) / math.sqrt(reps)
            assert abs(per.mean() - gam[idx]) < 3 * se + 0.01 * gam[0]

    def test_substep_refinement_reduces_bias(self):
        m = car1(0.7)
        g0 = autocovariance(m, [0.0]).values[0]
        biases = {}
        for sub in (1, 2):
            vals = [
                empirical_acf(
                    simulate_state_euler(m, 1024, 1.0, sub, seed=4000 + r).values,
                    0, mean=0.0)[0, 0]
                for r in range(120)
            ]
            biases[sub] = np.mean(vals) - g0
        assert abs(biases[2]) < 0.65 * abs(biases[1])

    def test_marginal_agreement_with_exact(self):
        # KS on subsampled values: raw long-memory samples break the iid
        # assumptions of the test (exact-vs-exact rejects >half the time)
        m = car1(0.7)
        ex = simulate_exact(m, 4096, 1.0, seed=21)
        eu = simulate_state_euler(m, 4096, 1.0, 8, seed=22)
        p = stats.ks_2samp(ex.values[::32], eu.values[::32]).pvalue
        assert p > 0.01

    def test_mean_with_drift(self):
        m = car1(0.5, a0=3.0)
        path = simulate_state_euler(m, 2000, 0.5, 2, seed=8)
        assert abs(path.values.mean() - 3.0) < 0.2


class TestPathIO:
    def test_csv_round_trip_lossless(self, tmp_path):
        m = car1(0.7)
        path = simulate_exact(m, 64, 0.25, seed=17)
        f = tmp_path / "path.csv"
        path.to_csv(f, model=m)
        values, h = read_path_csv(f)
        assert np.array_equal(values, path.values)
        assert h == 0.25
        meta = json.loads((tmp_path / "path.csv.meta.json").read_text())
        assert meta["seed"] == 17
        assert meta["method"] == "exact_gaussian"
        assert meta["model"]["H"] == 0.7
        assert meta["n"] == 64

    def test_irregular_spacing_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("t,y\n1.0,0.5\n2.0,0.1\n4.0,0.3\n")
        with pytest.raises(DomainError):
            read_path_csv(f)
