import math

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import toeplitz

from carfima import (
    DomainError,
    autocovariance,
    fbm_cov,
    fgn_autocovariance,
    simulate_fgn,
)
from carfima.fgn import MAX_GRID_POINTS, _circulant_rows, _cholesky_rows

from conftest import car1
from oracles import StepFunction, integral_cov_direct, integral_cov_kernel


def random_step(rng, max_pieces=6, span=5.0):
    m = int(rng.integers(1, max_pieces + 1))
    while True:
        b = np.sort(rng.uniform(-span, span, m + 1))
        if np.all(np.diff(b) > 1e-3):
            break
    return StepFunction(tuple(b), tuple(rng.uniform(-2, 2, m)))


class TestFgnAutocovariance:
    def test_unit_variance(self):
        for H in (0.1, 0.5, 0.9):
            assert fgn_autocovariance(H, 0) == pytest.approx(1.0)

    def test_brownian_uncorrelated(self):
        assert fgn_autocovariance(0.5, 1) == 0.0
        assert fgn_autocovariance(0.5, 7) == 0.0
        assert not np.any(fgn_autocovariance(0.5, np.arange(1, 2000)))

    def test_h03_lag1(self):
        got = fgn_autocovariance(0.3, 1)
        assert got == pytest.approx(0.5 * (2**0.6 - 2), rel=1e-14)
        assert got == pytest.approx(-0.242141716744801, rel=1e-12)

    def test_second_difference_oracle(self, rng):
        # gamma_F(k) is half the second difference of k -> |k|^{2H}
        for _ in range(20):
            H = float(rng.uniform(0.05, 0.95))
            k = int(rng.integers(1, 50))
            f = lambda x: abs(x) ** (2 * H)
            oracle = 0.5 * (f(k + 1) - 2 * f(k) + f(k - 1))
            assert fgn_autocovariance(H, k) == pytest.approx(oracle, rel=1e-12)

    def test_sign_pattern(self):
        assert fgn_autocovariance(0.3, 3) < 0
        assert fgn_autocovariance(0.8, 3) > 0

    def test_negative_lag_even(self):
        assert fgn_autocovariance(0.7, -4) == fgn_autocovariance(0.7, 4)

    def test_mpmath_oracle_to_large_lags(self):
        # the second difference in 40-digit arithmetic; in double precision
        # it loses about log10(k^2) digits, 1e-4 relative at k = 1e6
        ks = np.unique(np.r_[np.arange(6), np.geomspace(6, 1e6, 40).astype(int)])
        for H in (0.05, 0.3, 0.499, 0.7, 0.95):
            got = fgn_autocovariance(H, ks)
            assert got.shape == ks.shape
            with mp.workdps(40):
                g = 2 * mp.mpf(H)
                for k, v in zip(ks, got):
                    x = mp.mpf(int(k))
                    ref = float((x + 1) ** g - 2 * x**g + abs(x - 1) ** g) / 2
                    assert abs(v - ref) <= 1e-9 * abs(ref), (H, k)
                    assert v == fgn_autocovariance(H, int(k))


class TestFbmCov:
    def test_variance_at_one(self):
        for H in (0.2, 0.5, 0.8):
            assert fbm_cov(H, 1.0, 1.0) == pytest.approx(1.0)

    def test_zero_time(self):
        assert fbm_cov(0.7, 0.0, 2.0) == 0.0

    def test_brownian_min(self):
        assert fbm_cov(0.5, 1.0, 2.0) == pytest.approx(1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            fbm_cov(0.5, -1.0, 1.0)


class TestSimulateFgn:
    def test_determinism(self):
        a = simulate_fgn(0.3, 500, 0.5, 123)
        b = simulate_fgn(0.3, 500, 0.5, 123)
        assert np.array_equal(a, b)

    def test_brownian_increments_iid(self):
        n = 10**6
        x = simulate_fgn(0.5, n, 1.0, 42)
        r1 = np.mean(x[:-1] * x[1:]) / np.var(x)
        assert abs(r1) < 3 / math.sqrt(n)

    def test_empirical_acf_h03(self):
        # batch the path to get honest standard errors for each lag
        H, n, dt = 0.3, 2**14, 1.0
        x = simulate_fgn(H, n, dt, 7)
        batches = x.reshape(32, -1)
        for k in range(1, 6):
            per_batch = np.mean(batches[:, :-k] * batches[:, k:], axis=1)
            se = per_batch.std(ddof=1) / math.sqrt(32)
            theory = dt ** (2 * H) * fgn_autocovariance(H, k)
            assert abs(per_batch.mean() - theory) < 3 * se

    def test_step_scaling(self):
        x = simulate_fgn(0.8, 2**14, 0.25, 5)
        theory = 0.25**1.6
        assert np.var(x) == pytest.approx(theory, rel=0.1)

    def test_single_increment(self):
        x = simulate_fgn(0.6, 1, 2.0, 3)
        assert x.shape == (1,)

    def test_toeplitz_fallback_covariance(self):
        # exercise the shared Cholesky ladder directly with the fGn covariance
        H, n = 0.3, 64
        cov = np.array([fgn_autocovariance(H, k) for k in range(n)])
        rng = np.random.default_rng(11)
        draws = _cholesky_rows(cov, 4000, rng)
        emp0 = np.mean(draws[:, 0] * draws[:, 0])
        emp1 = np.mean(draws[:, :-1] * draws[:, 1:])
        assert emp0 == pytest.approx(1.0, abs=0.08)
        assert emp1 == pytest.approx(cov[1], abs=0.05)

    @pytest.mark.parametrize("n", [2, 3, 64])
    def test_embedding_covariance_oracle(self, n):
        # rows of the identity pass the kernel's linear map through unchanged,
        # so A^T A is exactly the covariance the embedding samples
        covs = [np.array([fgn_autocovariance(0.3, k) for k in range(n)]),
                autocovariance(car1(0.7), np.arange(n) * 0.5).values]
        for cov in covs:
            eig = np.fft.rfft(np.concatenate([cov, cov[-2:0:-1]])).real
            assert eig.min() > 0
            A = _circulant_rows(eig, np.eye(2 * (n - 1)))
            assert np.max(np.abs(A.T @ A - toeplitz(cov))) < 1e-12 * cov[0]

    def test_invalid_args(self):
        with pytest.raises(DomainError):
            simulate_fgn(0.5, 0, 1.0, 0)
        with pytest.raises(DomainError):
            simulate_fgn(0.5, 10, -1.0, 0)
        with pytest.raises(DomainError):
            simulate_fgn(1.5, 10, 1.0, 0)
        # a NaN or infinite step once gave a NaN or infinite path
        for dt in (math.nan, math.inf):
            with pytest.raises(DomainError, match="step_h must be finite and positive"):
                simulate_fgn(0.7, 10, dt, 0)
        # refused before numpy is asked for 10^20 values
        with pytest.raises(DomainError, match=f"more than {MAX_GRID_POINTS} points"):
            simulate_fgn(0.7, 10**20, 1.0, 0)


class TestStepFunction:
    def test_validation(self):
        with pytest.raises(DomainError):
            StepFunction((0.0, 0.0), (1.0,))
        with pytest.raises(DomainError):
            StepFunction((0.0, 1.0), ())

    def test_end_accessors(self):
        f = StepFunction((0.0, 1.0, 3.0), (2.0, -1.0))
        assert f.end == 3.0
        assert f.end_level == -1.0


class TestIntegralCovariances:
    def test_unit_indicator_variance(self):
        f = StepFunction((0.0, 1.0), (1.0,))
        for H in (0.2, 0.5, 0.9):
            assert integral_cov_direct(f, f, H) == pytest.approx(1.0)

    def test_disjoint_brownian_increments(self):
        f = StepFunction((0.0, 1.0), (1.0,))
        g = StepFunction((1.0, 2.0), (1.0,))
        assert integral_cov_direct(f, g, 0.5) == pytest.approx(0.0)

    def test_adjacent_units_equal_fgn(self):
        f = StepFunction((0.0, 1.0), (1.0,))
        g = StepFunction((1.0, 2.0), (1.0,))
        for H in (0.3, 0.7):
            expect = fgn_autocovariance(H, 1)
            assert integral_cov_direct(f, g, H) == pytest.approx(expect, rel=1e-12)
            assert integral_cov_kernel(f, g, H) == pytest.approx(expect, rel=1e-12)

    def test_unit_variance_via_h_above_half_kernel(self):
        f = StepFunction((0.0, 1.0), (1.0,))
        assert integral_cov_kernel(f, f, 0.7) == pytest.approx(1.0, rel=1e-13)

    def test_kernel_requires_fractional(self):
        f = StepFunction((0.0, 1.0), (1.0,))
        with pytest.raises(DomainError):
            integral_cov_kernel(f, f, 0.5)

    def test_oracle_equivalence_randomized(self, rng):
        # the central identity: kernel forms equal the increment double sum
        worst = 0.0
        for _ in range(100):
            f = random_step(rng)
            g = random_step(rng)
            for H in (0.1, 0.25, 0.4, 0.6, 0.75, 0.9):
                a = integral_cov_direct(f, g, H)
                b = integral_cov_kernel(f, g, H)
                worst = max(worst, abs(a - b) / (1 + abs(a)))
        assert worst < 1e-10

    def test_self_covariance_nonnegative(self, rng):
        for _ in range(30):
            f = random_step(rng)
            H = float(rng.uniform(0.05, 0.95))
            assert integral_cov_direct(f, f, H) >= -1e-12
            if H != 0.5:
                assert integral_cov_kernel(f, f, H) >= -1e-12

    def test_bilinearity(self, rng):
        # combine on a shared grid so af1 + bf2 is again a step function
        for route in (integral_cov_direct, integral_cov_kernel):
            for _ in range(20):
                bp = tuple(np.sort(rng.uniform(-4, 4, 5)))
                if np.any(np.diff(bp) <= 1e-3):
                    continue
                c1 = rng.uniform(-2, 2, 4)
                c2 = rng.uniform(-2, 2, 4)
                g = random_step(rng)
                a, b = rng.uniform(-3, 3, 2)
                H = 0.35 if route is integral_cov_kernel else 0.5
                f1 = StepFunction(bp, tuple(c1))
                f2 = StepFunction(bp, tuple(c2))
                combo = StepFunction(bp, tuple(a * c1 + b * c2))
                lhs = route(combo, g, H)
                rhs = a * route(f1, g, H) + b * route(f2, g, H)
                assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))
