import json
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import toeplitz

from carfima import (
    CarfimaModel,
    DomainError,
    FactorizationFailureError,
    QuadratureError,
    SamplePath,
    acf_carma,
    autocovariance,
    empirical_acf,
    exact_gaussian_paths,
    read_path_csv,
    simulate_exact,
    simulate_state_euler,
    spectrum_table,
    stationary_mean,
)
import carfima.fgn as fgn_mod
import carfima.simulate as sim_mod
from carfima.fgn import _circulant_rows, simulate_fgn

from conftest import car1
from oracles import empirical_acf_loop, state_euler_loop


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

    def test_empirical_acf_matches_the_loop(self):
        # one row-wise dot product per lag against the mean of the products
        paths = exact_gaussian_paths(car1(0.7, a0=0.5), 256, 1.0, 2000, seed=21)
        got = empirical_acf(paths, 20, mean=0.5)
        ref = empirical_acf_loop(paths, 20, mean=0.5)
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))

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

        def bad_autocov(model, lags, method="auto"):
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

    @pytest.mark.parametrize("n, n_paths", [
        (4096, 50),  # 4 rows a block: 13 blocks, the last of 2 rows
        (4096, 1),
        (20000, 3),  # one row of 39998 normals is wider than a block
    ])
    def test_blocked_rows_equal_one_shot_map(self, n, n_paths):
        # the blocks draw, map and write the same bits as one draw mapped at once
        m = car1(0.7, a0=2.0)
        g = autocovariance(m, np.arange(n) * 0.5).values
        eig = np.fft.rfft(np.concatenate([g, g[-2:0:-1]])).real
        rng = np.random.default_rng(np.random.SeedSequence(4))
        expect = 2.0 + _circulant_rows(eig, rng.standard_normal((n_paths, 2 * (n - 1))))
        assert np.array_equal(exact_gaussian_paths(m, n, 0.5, n_paths, seed=4), expect)

    def test_blocked_fgn_equals_one_shot_map(self):
        H, n, dt = 0.3, 20000, 0.25
        cov = dt ** (2 * H) * fgn_mod.fgn_autocovariance(H, np.arange(n))
        eig = np.fft.rfft(np.concatenate([cov, cov[-2:0:-1]])).real
        z = np.random.default_rng(6).standard_normal((1, 2 * (n - 1)))
        assert np.array_equal(simulate_fgn(H, n, dt, 6), _circulant_rows(eig, z)[0])

    def test_peak_memory_near_the_output(self):
        # one (n_paths, 2(n-1)) normal block and its complex spectrum once
        # peaked at 8.3 times the output
        exact_gaussian_paths(car1(0.7), 64, 1.0, 2, seed=0)  # warm the imports
        tracemalloc.start()
        try:
            out = exact_gaussian_paths(car1(0.7), 4096, 1.0, 50, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * out.nbytes

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


class TestEmbeddingCache:
    """The covariance and circulant spectrum are built once per (model, n, step)."""

    @staticmethod
    def counted_autocovariance(monkeypatch):
        calls = []

        def counted(model, lags, method="auto"):
            calls.append((model, len(lags)))
            return autocovariance(model, lags, method=method)

        monkeypatch.setattr(sim_mod, "autocovariance", counted)
        return calls

    @staticmethod
    def one_shot(model, n, step_h, n_paths, seed):
        g = autocovariance(model, np.arange(n) * step_h).values
        eig = np.fft.rfft(np.concatenate([g, g[-2:0:-1]])).real
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        return stationary_mean(model) + _circulant_rows(
            eig, rng.standard_normal((n_paths, 2 * (n - 1))))

    @pytest.mark.parametrize("n, n_paths", [(4096, 50), (300, 7), (20000, 3)])
    def test_cold_and_warm_bits_equal_the_one_shot_map(self, n, n_paths):
        m = car1(0.7, a0=2.0)
        expect = self.one_shot(m, n, 0.5, n_paths, 4)
        for _ in ("cold", "warm"):
            assert np.array_equal(exact_gaussian_paths(m, n, 0.5, n_paths, seed=4), expect)
        H, dt = 0.3, 0.25
        cov = dt ** (2 * H) * fgn_mod.fgn_autocovariance(H, np.arange(n))
        eig = np.fft.rfft(np.concatenate([cov, cov[-2:0:-1]])).real
        z = np.random.default_rng(6).standard_normal((1, 2 * (n - 1)))
        for _ in ("cold", "warm"):
            assert np.array_equal(simulate_fgn(H, n, dt, 6), _circulant_rows(eig, z)[0])

    def test_warm_call_computes_no_acf(self, monkeypatch):
        calls = self.counted_autocovariance(monkeypatch)
        m = car1(0.7)
        for seed in range(3):
            exact_gaussian_paths(m, 256, 1.0, 4, seed=seed)
        simulate_exact(m, 256, 1.0, seed=9)  # one path, the same key
        assert len(calls) == 1
        exact_gaussian_paths(m, 257, 1.0, 4, seed=0)
        exact_gaussian_paths(m, 256, 0.5, 4, seed=0)
        exact_gaussian_paths(car1(0.7, sigma=2.0), 256, 1.0, 4, seed=0)
        assert len(calls) == 4

    def test_warm_fgn_call_computes_no_covariance(self, monkeypatch):
        real, calls = fgn_mod.fgn_autocovariance, []

        def counted(H, k):
            calls.append(H)
            return real(H, k)

        monkeypatch.setattr(fgn_mod, "fgn_autocovariance", counted)
        simulate_fgn(0.7, 500, 0.5, 1)
        simulate_fgn(0.7, 500, 0.5, 2)
        simulate_state_euler(car1(0.7), 64, 1.0, 4, seed=1)
        simulate_state_euler(car1(0.7), 64, 1.0, 4, seed=2)
        assert len(calls) == 2
        simulate_fgn(0.7, 500, 0.25, 1)
        simulate_fgn(0.3, 500, 0.5, 1)
        assert len(calls) == 4

    def test_non_psd_model_warns_on_every_call(self):
        model, n, step_h, n_paths = car1(0.9, a1=-0.01), 128, 0.5, 3
        g = autocovariance(model, np.arange(n) * step_h).values
        rng = np.random.default_rng(np.random.SeedSequence(8))
        expect = (np.linalg.cholesky(toeplitz(g)) @ rng.standard_normal((n, n_paths))).T
        for _ in ("cold", "warm"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = exact_gaussian_paths(model, n, step_h, n_paths, seed=8)
            assert sum("not PSD" in str(w.message) for w in caught) == 1
            assert np.array_equal(got, expect)

    def test_cached_arrays_are_read_only(self):
        m = car1(0.7)
        exact_gaussian_paths(m, 64, 1.0, 2, seed=0)

        def no_build():
            raise AssertionError("a cached entry was built again")

        cov, eig = fgn_mod._embedding((m, 64, 1.0), no_build)
        assert len(cov) == len(eig) == 64
        for a in (cov, eig):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_bytes_stay_within_the_bound(self, monkeypatch):
        # each entry at n = 64 is charged 2 * 64 * 8 bytes plus the overhead
        entry = 2 * 64 * 8 + fgn_mod._ENTRY_OVERHEAD
        monkeypatch.setattr(fgn_mod, "_CACHE_BYTES", 2 * entry + entry // 2)
        calls = self.counted_autocovariance(monkeypatch)
        models = [car1(H) for H in (0.3, 0.5, 0.7)]
        for m in models:
            exact_gaussian_paths(m, 64, 1.0, 2, seed=0)
            assert fgn_mod._cache_bytes <= fgn_mod._CACHE_BYTES
            assert fgn_mod._cache_bytes == sum(e[2] for e in fgn_mod._cache.values())
        assert len(fgn_mod._cache) == 2  # the least recently used, H = 0.3, went
        exact_gaussian_paths(models[2], 64, 1.0, 2, seed=1)
        exact_gaussian_paths(models[0], 64, 1.0, 2, seed=1)
        assert len(calls) == 4
        # an entry larger than the bound is used but not kept
        m = car1(0.7, a0=2.0)
        big = exact_gaussian_paths(m, 300, 1.0, 3, seed=4)
        assert np.array_equal(big, self.one_shot(m, 300, 1.0, 3, 4))
        assert (m, 300, 1.0) not in fgn_mod._cache and len(fgn_mod._cache) == 2
        assert fgn_mod._cache_bytes <= fgn_mod._CACHE_BYTES

    def test_threads_keep_the_byte_count(self, monkeypatch):
        # more threads than cores, switching often, on a bound that evicts
        entry = 2 * 32 * 8 + fgn_mod._ENTRY_OVERHEAD
        monkeypatch.setattr(fgn_mod, "_CACHE_BYTES", 5 * entry)
        keys = [0.1 * k for k in range(1, 10)]
        expect = {h: simulate_fgn(0.7, 32, h, 3) for h in keys}
        errors = []

        def draw():
            try:
                for _ in range(20):
                    for h in keys:
                        assert np.array_equal(simulate_fgn(0.7, 32, h, 3), expect[h])
            except AssertionError as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        assert fgn_mod._cache_bytes == sum(e[2] for e in fgn_mod._cache.values())
        assert fgn_mod._cache_bytes <= fgn_mod._CACHE_BYTES

    def test_acf_that_raises_leaves_no_entry(self, monkeypatch):
        def failing(model, lags, method="auto"):
            raise QuadratureError("no ACF")

        monkeypatch.setattr(sim_mod, "autocovariance", failing)
        with pytest.raises(QuadratureError):
            exact_gaussian_paths(car1(0.7), 64, 1.0, 2, seed=0)
        assert not fgn_mod._cache and fgn_mod._cache_bytes == 0


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

    @pytest.mark.parametrize("model, n, step_h, substeps, seed", [
        pytest.param(car1(0.7), 4096, 1.0, 8, 7, id="benchmark_car1_h070"),
        pytest.param(CarfimaModel(p=2, q=1, alpha=(0.0, -1.0, -1.5), beta=(0.5,), H=0.3,
                                  sigma=1.0), 512, 1.0, 4, 3, id="carfima_2_h030_1"),
        # alpha(z) = (z + 0.1)^3: a triple root, stationary mean 300
        pytest.param(CarfimaModel(p=3, q=1, alpha=(0.3, -0.001, -0.03, -0.3), beta=(0.5,),
                                  H=0.7, sigma=1.0), 64, 1.0, 64, 5, id="triple_root"),
        pytest.param(car1(0.3, a1=-0.5, a0=3.0), 256, 0.5, 3, 11, id="alpha0_nonzero"),
        pytest.param(car1(0.7), 300, 1.0, 1, 13, id="one_substep"),
        pytest.param(car1(0.7), 20, 2.0, 1, 17, id="fewer_steps_than_a_block"),
    ])
    def test_scan_matches_substep_loop(self, model, n, step_h, substeps, seed):
        # same fGn draw, one sub-step at a time; the scan sums in another order
        expect, total = state_euler_loop(model, n, step_h, substeps, seed)
        got = simulate_state_euler(model, n, step_h, substeps, seed).values
        assert total < sim_mod._SCAN_BLOCK or total % sim_mod._SCAN_BLOCK != 0
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_burn_in_cap(self, monkeypatch):
        # burn-in max(100, 20/1e-6) time units at 8 sub-steps: 1.6e8 sub-steps
        def no_draw(*args):
            raise AssertionError("the fGn increments were drawn")

        with monkeypatch.context() as patch:
            patch.setattr(sim_mod, "simulate_fgn", no_draw)
            with pytest.raises(DomainError, match="exceeds"):
                simulate_state_euler(car1(0.7, a1=-1e-6), 1, 1.0, 8, seed=0)
            with pytest.raises(DomainError, match="exceeds"):
                simulate_state_euler(car1(0.7), sim_mod.MAX_GRID_POINTS, 1.0, 1, seed=0)
            # the smallest subnormal step: 100 / step_h overflows, and
            # step_h / 2 underflows to a zero sub-step
            for substeps in (1, 2):
                with pytest.raises(DomainError, match="exceeds"):
                    simulate_state_euler(car1(0.7), 1, 5e-324, substeps, seed=0)
        # 200 burn-in sub-steps plus 16 * 2: the cap admits exactly 232
        monkeypatch.setattr(sim_mod, "MAX_GRID_POINTS", 231)
        with pytest.raises(DomainError, match="exceeds"):
            simulate_state_euler(car1(0.7), 16, 1.0, 2, seed=0)
        monkeypatch.setattr(sim_mod, "MAX_GRID_POINTS", 232)
        assert simulate_state_euler(car1(0.7), 16, 1.0, 2, seed=0).n == 16


# one rule for every sampling step: paths, both simulators and aliased spectra
@pytest.mark.parametrize("step_h", [0.0, -1.0, math.nan, math.inf, None])
@pytest.mark.parametrize("simulate", [
    lambda h: simulate_state_euler(car1(0.7), 64, h, 8, seed=0),
    lambda h: simulate_exact(car1(0.7), 64, h, seed=0),
    lambda h: exact_gaussian_paths(car1(0.7), 64, h, 3, seed=0),
    lambda h: SamplePath(values=np.zeros(4), step_h=h, model_hash="", seed=0,
                         method="exact_gaussian"),
    lambda h: spectrum_table(car1(0.7), [0.5], kind="aliased", step_h=h),
    lambda h: simulate_fgn(0.7, 64, h, 0),
], ids=["state_euler", "exact", "exact_paths", "sample_path", "aliased_table", "fgn"])
def test_bad_step_rejected_before_any_work(monkeypatch, simulate, step_h):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before step_h was checked")

    for name in ("prepare", "autocovariance", "simulate_fgn"):
        monkeypatch.setattr(sim_mod, name, no_work)
    monkeypatch.setattr(fgn_mod, "fgn_autocovariance", no_work)
    with pytest.raises(DomainError, match="step_h must be finite and positive"):
        simulate(step_h)


@pytest.mark.parametrize("n, n_paths", [(10**20, 1), (256, 10**20), (4097, 2441)])
def test_oversized_paths_rejected_before_any_work(monkeypatch, n, n_paths):
    # n * n_paths above MAX_GRID_POINTS once reached np.arange or the normal
    # draw and escaped as "ValueError: Maximum allowed size exceeded"
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the path size was checked")

    monkeypatch.setattr(sim_mod, "autocovariance", no_work)
    with pytest.raises(DomainError, match=f"more than {sim_mod.MAX_GRID_POINTS} points"):
        exact_gaussian_paths(car1(0.7), n, 1.0, n_paths, seed=0)


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
