import csv
import dataclasses
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, toeplitz
from scipy.special import gamma as gamma_fn

from carfima import (
    CarfimaModel,
    CarfimaError,
    DomainError,
    QuadratureError,
    RepeatedEigenvaluesError,
    SingularLyapunovError,
    acf_carma,
    acf_closed_form,
    acf_integral_form,
    acf_tail_asymptote,
    autocovariance,
    cov_y0_fbm,
    prepare,
    simulate_exact,
    vstar,
)
import carfima.acf
from carfima.acf import _THETA13, AcfTable, _expm_lags, _write_csv
from carfima.fgn import simulate_fgn
from carfima.simulate import SamplePath
from carfima.spectrum import spectrum_table

from conftest import car1, model_from_eigenvalues, random_stable_model
from oracles import (acf_integral_quad, car1_acf_mpmath, carma_acf_mpmath, cov_y0_fbm_quad,
                     csv_writer_rows, vstar_integral)
from test_acceptance import MODELS_20


class TestVstar:
    def test_scalar_ou(self):
        m = car1(0.5)
        assert vstar(m)[0, 0] == pytest.approx(0.5)

    @pytest.mark.parametrize("a,sigma", [(1.0, 1.0), (0.5, 2.0), (3.0, 0.7)])
    def test_scalar_general(self, a, sigma):
        m = car1(0.5, a1=-a, sigma=sigma)
        assert vstar(m)[0, 0] == pytest.approx(sigma**2 / (2 * a))

    def test_kronecker_matches_integral_oracle(self):
        m = CarfimaModel(p=2, q=0, alpha=(0.0, -2.0, -3.0), beta=(), H=0.5, sigma=1.0)
        V = vstar(m)
        Vq = vstar_integral(prepare(m), m)
        assert np.max(np.abs(V - Vq)) < 1e-8

    def test_psd_and_residual(self, rng):
        for _ in range(10):
            m = random_stable_model(rng)
            parts = prepare(m)
            V = vstar(m)
            assert np.min(np.linalg.eigvalsh(V)) > -1e-10 * np.max(np.abs(V))
            resid = parts.A @ V + V @ parts.A.T \
                + m.sigma**2 * np.outer(parts.delta_p, parts.delta_p)
            assert np.max(np.abs(resid)) < 1e-8 * m.sigma**2

    def test_singular_lyapunov(self):
        # eigenvalues exactly +-1: lambda_i + lambda_j = 0, Kronecker system singular
        m = CarfimaModel(p=2, q=0, alpha=(0.0, 1.0, 0.0), beta=(), H=0.5, sigma=1.0)
        with pytest.raises(SingularLyapunovError):
            vstar(m)


    def test_singular_lyapunov_warning_stays_inside(self):
        # scipy warns about the perturbed system; the residual check is the guard
        m = CarfimaModel(p=2, q=0, alpha=(0.0, 1.0, 0.0), beta=(), H=0.5, sigma=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularLyapunovError):
                vstar(m)


class TestLagArrays:
    @settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1),
           ks=st.lists(st.integers(0, 400), min_size=1, max_size=4, unique=True),
           neg_at=st.integers(0, 3))
    def test_array_call_matches_scalar_calls(self, seed, ks, neg_at):
        m = random_stable_model(np.random.default_rng(seed))
        m_half = dataclasses.replace(m, H=0.5)
        hs = np.sort(ks) / 20.0  # lags on [0, 20]
        cases = ((acf_closed_form, m, 0.0), (acf_integral_form, m, 0.0),
                 (acf_carma, m_half, 1e-14))
        for route, model, rel in cases:
            got = route(model, hs)
            assert isinstance(got, np.ndarray) and got.shape == hs.shape
            scalar = np.array([route(model, float(h)) for h in hs])
            if rel:
                assert np.all(np.abs(got - scalar) <= rel * np.abs(scalar))
            else:
                assert np.array_equal(got, scalar)
            zero_d = route(model, np.array(hs[0]))
            assert type(zero_d) is float and zero_d == got[0]
            bad = np.insert(hs, min(neg_at, len(hs)), -0.25)
            with pytest.raises(DomainError):
                route(model, bad)

    @pytest.mark.parametrize("route,H", [(acf_closed_form, 0.7), (acf_integral_form, 0.7),
                                         (acf_carma, 0.5)])
    def test_infinite_lag_refused(self, route, H):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for h in (math.inf, np.array([0.0, 1.0, math.inf])):
                with pytest.raises(DomainError):
                    route(car1(H), h)

    def test_carma_cross_check_bites(self, monkeypatch):
        m = model_from_eigenvalues([-1.0, -2.0], q=1, beta=(0.5,), H=0.5)
        lags = np.linspace(0.0, 5.0, 11)
        acf_carma(m, lags)
        exact = carfima.acf._eigen_coeffs
        monkeypatch.setattr(carfima.acf, "_eigen_coeffs",
                            lambda model, es: exact(model, es) * (1 + 1e-6))
        with pytest.raises(CarfimaError):
            acf_carma(m, lags)

    def test_route_does_not_depend_on_the_other_lags(self):
        # roots -0.1 +- 3i and -0.10036 +- 3i at H = 0.8: the ratio
        # sum |c_i u_i(h)| / |gamma(0)| is 946.7 at lag 0 and 1035.8 at
        # h = 0.155, on either side of the bound the closed form refuses at
        m = CarfimaModel(p=4, q=0, alpha=(0.0, -81.18074605270071, -3.610463328000492,
                                          -18.060214855731665, -0.4007157588466174),
                         beta=(), H=0.8, sigma=1.0)
        short = autocovariance(m, [0.0, 0.1])
        long = autocovariance(m, [0.0, 0.1, 0.155])
        assert short.method == long.method == "closed_form"
        assert np.array_equal(short.values, long.values[:2])

    def test_autocovariance_resolves_route_at_call_time(self, monkeypatch):
        calls = []
        route = carfima.acf.acf_closed_form

        def spy(model, lags):
            calls.append(len(lags))
            return route(model, lags)

        monkeypatch.setattr(carfima.acf, "acf_closed_form", spy)
        table = autocovariance(car1(0.7), np.arange(5.0))
        assert calls == [5]
        assert table.values.tolist() == [route(car1(0.7), float(h)) for h in range(5)]


class TestClosedForm:
    def test_car1_variance_H07(self):
        # sigma^2/2 Gamma(2H+1) * [1/(1*2)] * 2 = Gamma(2.4)/2
        got = acf_closed_form(car1(0.7), 0.0)
        assert got == pytest.approx(gamma_fn(2.4) / 2, rel=1e-12)
        assert got == pytest.approx(0.6210846722521527, rel=1e-12)

    def test_matches_quadrature_per_lag(self, rng):
        for _ in range(6):
            m = random_stable_model(rng)
            for h in (0.0, 0.1, 1.0, 5.0):
                c = acf_closed_form(m, h)
                q = acf_integral_form(m, h)
                assert abs(c - q) <= 1e-6 * max(abs(c), 1e-10)

    def test_near_half_continuity(self):
        # one-sided gap is the true dH derivative, ~4.4e-5 relative here
        ref = acf_carma(car1(0.5), 1.0)
        for H in (0.5 - 1e-5, 0.5 + 1e-5):
            assert acf_closed_form(car1(H), 1.0) == pytest.approx(ref, rel=1e-4)

    def test_repeated_eigenvalues_refused(self):
        m = CarfimaModel(p=2, q=0, alpha=(0.0, -1.0, -2.0), beta=(), H=0.7, sigma=1.0)
        with pytest.raises(RepeatedEigenvaluesError):
            acf_closed_form(m, 1.0)

    def test_clustered_roots_refused(self):
        # (z + 1)^3: np.roots splits the triple root by 1e-5, and the weights
        # cancel to gamma(0) = 1991.8 where the integral form gives 0.0871
        m = CarfimaModel(p=3, q=0, alpha=(0.0, -1.0, -3.0, -3.0), beta=(), H=0.3, sigma=1.0)
        assert prepare(m).distinct
        with pytest.raises(RepeatedEigenvaluesError, match="condition number"):
            acf_closed_form(m, np.array([0.0, 1.0]))

    def test_sign_change_keeps_the_closed_form(self):
        # roots -1, -0.5 +- 1i at H = 0.3: gamma crosses zero on this grid,
        # where sum |c_i u_i| / |gamma(h)| reaches 2.9e3, yet nothing cancels
        m = CarfimaModel(p=3, q=0, alpha=(0.0, -1.25, -2.25, -2.0), beta=(), H=0.3, sigma=1.0)
        table = autocovariance(m, np.arange(4001) * 0.01)
        assert table.method == "closed_form"
        assert np.min(table.values) < 0 < table.values[0]

    def test_nonstationary_refused(self):
        m = car1(0.7, a1=1.0)
        with pytest.raises(DomainError):
            acf_closed_form(m, 0.0)

    def test_complex_eigenvalues_give_real_values(self):
        m = model_from_eigenvalues([-0.4 + 1.8j, -0.4 - 1.8j], q=1, beta=(0.3,), H=0.3)
        for h in (0.0, 0.5, 2.0, 9.0):
            c = acf_closed_form(m, h)
            q = acf_integral_form(m, h)
            assert abs(c - q) <= 1e-6 * max(abs(c), 1e-10)


class TestIntegralForm:
    def test_carma_case_matches_matrix_form(self, rng):
        for _ in range(4):
            m = random_stable_model(rng, H=0.5)
            parts = prepare(m)
            V = vstar(m)
            for h in (0.0, 0.7, 3.0):
                direct = parts.beta_vec @ expm(parts.A * h) @ V @ parts.beta_vec
                assert acf_integral_form(m, h) == pytest.approx(direct, rel=1e-8)

    def test_large_lag_negative_for_antipersistent(self):
        m = car1(0.3)
        assert acf_integral_form(m, 40.0) < 0.0

    def test_h_negative_rejected(self):
        with pytest.raises(DomainError):
            acf_integral_form(car1(0.3), -1.0)

    def test_no_quad_and_no_expm_per_node(self, monkeypatch):
        # the only scipy expm calls left are the decay horizon's, as many for
        # one lag as for eleven, and no QUADPACK call is made at all
        import scipy.integrate

        def refuse(*args, **kwargs):
            raise AssertionError("QUADPACK call")

        calls = []
        scipy_expm = carfima.acf.expm

        def counted(M):
            calls.append(M.shape)
            return scipy_expm(M)

        monkeypatch.setattr(scipy.integrate, "quad", refuse)
        monkeypatch.setattr(carfima.acf, "expm", counted)
        assert not hasattr(carfima.acf, "quad")
        m = car1(0.7)
        counts = []
        for lags in (1.0, np.arange(11) * 0.5):
            calls.clear()
            acf_integral_form(m, lags)
            counts.append(len(calls))
        calls.clear()
        carfima.acf._decay_horizon(prepare(m).A, rtol=1e-15, weight_exp=0.4)
        assert counts == [len(calls), len(calls)] and 0 < len(calls) <= 5
        calls.clear()
        cov_y0_fbm(m, 2.0)
        assert 0 < len(calls) <= 5

    def test_pinned_to_closed_form_and_adaptive_oracle(self):
        # the criterion-1 models and lags, within 1e-10 of max(|gamma|, 1e-10)
        lags = np.array([0.0, 0.05, 0.5, 1.0, 2.0, 10.0])
        for m in MODELS_20:
            got = acf_integral_form(m, lags)
            for ref in (acf_closed_form(m, lags), acf_integral_quad(m, lags)):
                assert np.all(np.abs(got - ref) <= 1e-10 * np.maximum(np.abs(ref), 1e-10))

    @pytest.mark.parametrize("H", [0.3, 0.7])
    def test_double_root_table(self, H):
        m = CarfimaModel(p=2, q=0, alpha=(0.0, -1.0, -2.0), beta=(), H=H, sigma=1.0)
        lags = np.linspace(0.0, 40.0, 401)
        t0 = time.perf_counter()
        table = autocovariance(m, lags)
        elapsed = time.perf_counter() - t0
        assert table.method == "quadrature"
        idx = [0, 5, 37, 150, 400]
        ref = acf_integral_quad(m, lags[idx])
        scale = np.maximum(np.abs(ref), 1e-6 * ref[0])
        assert np.all(np.abs(table.values[idx] - ref) <= 1e-9 * scale)
        assert elapsed < 1.0

    @pytest.mark.parametrize("H", [0.5 - 1e-7, 0.5 + 1e-7])
    def test_mpmath_near_half(self, H):
        # I1 and I2 tend to one value here; the adaptive oracle is off by
        # 2.7e-9 of this scale at lag 20
        lags = np.array([0.0, 1.0, 5.0, 20.0])
        ref = np.array([car1_acf_mpmath(H, x) for x in lags])
        got = acf_integral_form(car1(H), lags)
        scale = np.maximum(np.abs(ref), 1e-6 * ref[0])
        assert np.all(np.abs(got - ref) <= 1e-10 * scale)

    def test_far_lags_of_a_slow_model(self):
        # lags past twice the decay horizon run on the horizon nodes alone
        m = model_from_eigenvalues([-0.05, -5.0], H=0.3)
        lags = np.array([0.0, 1.0, 100.0, 1000.0, 4000.0])
        ref = acf_closed_form(m, lags)
        got = acf_integral_form(m, lags)
        assert np.all(np.abs(got - ref) <= 1e-10 * np.maximum(np.abs(ref), 1e-6 * ref[0]))

    def test_error_estimate_bites(self, monkeypatch):
        # one panel for a lightly damped pair: the two levels disagree
        m = model_from_eigenvalues([-0.25 + 2j, -0.25 - 2j], H=0.7)
        lags = np.array([0.0, 1.0, 5.0])
        acf_integral_form(m, lags)
        cov_y0_fbm(m, 1.0)
        monkeypatch.setattr(carfima.acf, "_PANEL_RADIANS", 1e9)
        with pytest.raises(QuadratureError):
            acf_integral_form(m, lags)
        with pytest.raises(QuadratureError):
            cov_y0_fbm(m, 1.0)

    def test_error_messages_name_the_location(self, monkeypatch):
        m = model_from_eigenvalues([-0.25 + 2j, -0.25 - 2j], H=0.7)
        monkeypatch.setattr(carfima.acf, "_PANEL_RADIANS", 1e9)
        with pytest.raises(QuadratureError, match=r"too large for value .* at h="):
            acf_integral_form(m, np.array([0.0, 1.0, 5.0]))
        with pytest.raises(QuadratureError, match=r"too large for value .* at t=1\.0$"):
            cov_y0_fbm(m, 1.0)

    def test_too_many_panels_refused(self):
        # 1e4 oscillations before the decay: refused before any node is formed
        m = model_from_eigenvalues([-1e-4 + 1j, -1e-4 - 1j], H=0.7)
        with pytest.raises(QuadratureError, match="panels"):
            acf_integral_form(m, 1.0)


class TestCarma:
    def test_ou_values(self, ou_model):
        assert acf_carma(ou_model, 0.0) == pytest.approx(0.5)
        assert acf_carma(ou_model, 1.0) == pytest.approx(0.5 * math.exp(-1), rel=1e-12)

    def test_eigen_form_agreement_p2(self):
        m = model_from_eigenvalues([-1.0, -2.0], H=0.5)
        got = acf_carma(m, 0.0)
        # sigma^2 sum_i beta(l)beta(-l)/(alpha'(l)alpha(-l)) at h=0
        eig = 0.0
        for lam in (-1.0, -2.0):
            a1 = 2 * lam + 3
            a_neg = lam**2 - 3 * lam + 2
            eig += 1.0 / (a1 * a_neg)
        assert got == pytest.approx(eig, rel=1e-9)

    def test_requires_half(self):
        with pytest.raises(DomainError):
            acf_carma(car1(0.7), 1.0)


# the double root is the one where acf_carma skips its eigen cross-check
_CARMA_ORACLE_MODELS = {
    "carma_2_1": CarfimaModel(p=2, q=1, alpha=(0.0, -1.0, -1.5), beta=(0.5,), H=0.5,
                              sigma=1.0),
    "car3_pair": CarfimaModel(p=3, q=0, alpha=(0.0, -1.25, -2.25, -2.0), beta=(), H=0.5,
                              sigma=1.0),
    "double_root": CarfimaModel(p=2, q=0, alpha=(0.0, -1.0, -2.0), beta=(), H=0.5,
                                sigma=1.0),
    "light_pair": CarfimaModel(p=2, q=0, alpha=(0.0, -100.0, -0.2), beta=(), H=0.5,
                               sigma=1.0),
}


def _squarings(A, h):
    x = np.linalg.norm(A, 1) * h / _THETA13
    return max(0, math.ceil(math.log2(x))) if x > 0 else 0


class TestCarmaKernel:
    @pytest.mark.parametrize("name", list(_CARMA_ORACLE_MODELS))
    def test_mpmath_oracle(self, name):
        m = _CARMA_ORACLE_MODELS[name]
        parts = prepare(m)
        A = parts.A
        assert parts.distinct == (name != "double_root")
        lags = np.array([0.0, 1e-3, 0.37, 1.0, 2.5, 7.0, 20.0, 60.0, 100.0, 150.0])
        assert max(_squarings(A, h) for h in lags) >= 7
        assert sum(_squarings(A, h) >= 6 for h in lags) >= 2
        ref = np.array(carma_acf_mpmath(m, lags))
        got = acf_carma(m, lags)
        scale = np.maximum(np.abs(ref), 1e-6 * ref[0])
        assert np.all(np.abs(got - ref) <= 1e-12 * scale)

    @pytest.mark.parametrize("name", list(_CARMA_ORACLE_MODELS))
    def test_lag_zero_is_the_identity(self, name):
        A = prepare(_CARMA_ORACLE_MODELS[name]).A
        got = _expm_lags(A, np.array([0.0, 0.5, 3.0]))
        assert np.array_equal(got[0], np.eye(len(A)))

    @pytest.mark.parametrize("h", [1e50, 1e300, 1.7e308])
    def test_far_lags_underflow_to_zero(self, h):
        m = _CARMA_ORACLE_MODELS["carma_2_1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert acf_carma(m, h) == 0.0
            assert acf_carma(m, np.array([0.0, h]))[1] == 0.0

    def test_no_scipy_expm_per_lag(self, monkeypatch):
        calls = []
        scipy_expm = carfima.acf.expm

        def counted(M):
            calls.append(M.shape)
            return scipy_expm(M)

        monkeypatch.setattr(carfima.acf, "expm", counted)
        m = _CARMA_ORACLE_MODELS["carma_2_1"]
        acf_carma(m, np.arange(4001) * 0.01)
        assert calls == []
        carfima.acf._decay_horizon(prepare(m).A)  # the counter does count
        assert calls


_CLUSTERED = {
    "triple_root": (0.0, -1.0, -3.0, -3.0),
    "quadruple_root": (0.0, -1.0, -4.0, -6.0, -4.0),
    "slow_triple_root": (0.0, -0.001, -0.03, -0.3),
}


class TestClusteredRoots:
    """np.roots splits a multiple root past the separation gate; the weights
    of the eigen-expansion then cancel, and the routes must notice."""

    @pytest.mark.parametrize("H", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("name", list(_CLUSTERED))
    def test_autocovariance_matches_oracle(self, name, H):
        alpha = _CLUSTERED[name]
        m = CarfimaModel(p=len(alpha) - 1, q=0, alpha=alpha, beta=(), H=H, sigma=1.0)
        assert prepare(m).distinct
        lags = np.array([0.0, 0.5, 2.0, 5.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = autocovariance(m, lags)
        assert table.method == ("carma_exact" if H == 0.5 else "quadrature")
        ref = acf_integral_quad(m, lags)
        assert np.all(np.abs(table.values - ref) <= 1e-6 * np.maximum(np.abs(ref), 1e-10))
        if H == 0.5:
            mp = np.array(carma_acf_mpmath(m, lags))
            assert np.all(np.abs(table.values - mp) <= 1e-12 * np.maximum(np.abs(mp), mp[0]))

    def test_route_decided_before_any_lag(self, monkeypatch):
        calls = []
        kernel = carfima.acf.u_kernel
        monkeypatch.setattr(carfima.acf, "u_kernel",
                            lambda *args: calls.append(args) or kernel(*args))
        m = CarfimaModel(p=3, q=0, alpha=_CLUSTERED["triple_root"], beta=(), H=0.3, sigma=1.0)
        lags = np.array([0.0, 0.5, 2.0])
        assert autocovariance(m, lags).method == "quadrature"
        with pytest.raises(RepeatedEigenvaluesError, match="condition number"):
            acf_closed_form(m, lags)
        assert calls == []
        autocovariance(car1(0.3), lags)
        assert len(calls) == 1

    def test_simulate_exact_variance(self):
        m = CarfimaModel(p=3, q=0, alpha=_CLUSTERED["triple_root"], beta=(), H=0.3, sigma=1.0)
        gamma0 = float(acf_integral_quad(m, 0.0))
        assert gamma0 == pytest.approx(0.0871, abs=1e-4)
        path = simulate_exact(m, 4096, 1.0, seed=11)
        assert abs(np.mean(path.values**2) / gamma0 - 1.0) < 0.1


class TestTailAsymptote:
    def test_sign_negative_below_half(self):
        m = car1(0.3)
        for h in (1.0, 10.0, 500.0):
            assert acf_tail_asymptote(m, h) < 0

    def test_value_H07(self):
        # 0.28 * 100^{-0.6}, computed two independent ways
        got = acf_tail_asymptote(car1(0.7), 100.0)
        assert got == pytest.approx(0.0176668056454454, rel=1e-12)
        assert got == pytest.approx(0.28 * math.exp(-0.6 * math.log(100)), rel=1e-12)

    def test_half_rejected(self):
        with pytest.raises(DomainError):
            acf_tail_asymptote(car1(0.5), 10.0)

    @pytest.mark.parametrize("m,top", [
        (car1(0.7), 1e300), (model_from_eigenvalues([-0.5 + 1j, -0.5 - 1j], H=0.8), 1e300),
        (car1(0.3), 1e200),  # h^{-1.4} underflows past about 1e220
    ])
    def test_far_lags_match_the_asymptote(self, m, top):
        # the kernel's expansion once formed z^k, which overflows near |lambda h| = 1e299;
        # the two forms round the exponent 2H - 2 apart, by about log(h) eps
        hs = np.arange(1, 11) * (top / 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = acf_closed_form(m, hs)
        ref = np.array([acf_tail_asymptote(m, h) for h in hs])
        assert np.all(np.abs(got / ref - 1.0) <= 1e-13)

    def test_closed_form_converges_to_asymptote(self):
        m = car1(0.7)
        r100 = acf_closed_form(m, 100.0) / acf_tail_asymptote(m, 100.0)
        r800 = acf_closed_form(m, 800.0) / acf_tail_asymptote(m, 800.0)
        assert abs(r800 - 1) < abs(r100 - 1)
        assert abs(r800 - 1) < 2e-4


class TestCovY0Fbm:
    def test_t_zero(self):
        assert cov_y0_fbm(car1(0.7), 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_t_zero_needs_no_quadrature(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("quadrature at t = 0")

        monkeypatch.setattr(carfima.acf, "_horizon_rule", refuse)
        assert cov_y0_fbm(car1(0.7), 0.0) == 0.0

    @pytest.mark.parametrize("m", [
        car1(0.3), car1(0.7),
        model_from_eigenvalues([-0.4 + 1.8j, -0.4 - 1.8j], q=1, beta=(0.3,), H=0.3),
        model_from_eigenvalues([-1.0, -1.0 - 1e-3, -2.5], q=2, beta=(0.4, -0.2), H=0.8),
    ])
    def test_pinned_to_adaptive_oracle(self, m):
        for t in (0.5, 3.0, 20.0):
            ref = cov_y0_fbm_quad(m, t)
            assert abs(cov_y0_fbm(m, t) - ref) <= 1e-9 * abs(ref)

    def test_brownian_independence(self, ou_model):
        for t in (0.5, 1.0, 4.0):
            assert cov_y0_fbm(ou_model, t) == pytest.approx(0.0, abs=1e-10)

    def test_alpha0_required(self):
        with pytest.raises(DomainError):
            cov_y0_fbm(car1(0.7, a0=1.0), 1.0)

    def test_monte_carlo_oracle(self):
        # Simulate the stationary CAR(1) state with fGn forcing, then
        # correlate Y at the end of a long warmup with the ensuing fBm.
        H, lam, sigma, t = 0.7, -1.0, 1.0, 1.0
        m = car1(H)
        theory = cov_y0_fbm(m, t)
        dt = 0.05
        warm = int(40 / dt)
        extra = int(t / dt)
        total = warm + extra
        n_paths = 3000
        rng = np.random.default_rng(77)
        prop = math.exp(lam * dt)
        half = math.exp(lam * dt / 2)
        y0 = np.zeros(n_paths)
        bt = np.zeros(n_paths)
        for i in range(n_paths):
            db = simulate_fgn(H, total, dt, rng)
            x = 0.0
            for k in range(warm):
                x = prop * x + sigma * half * db[k]
            y0[i] = x
            bt[i] = db[warm:].sum()
        prods = y0 * bt
        est = prods.mean()
        se = prods.std(ddof=1) / math.sqrt(n_paths)
        assert abs(est - theory) < 3 * se + 0.02 * abs(theory)


class TestAutocovarianceTable:
    def test_dispatch_closed_form(self):
        t = autocovariance(car1(0.7), [0.0, 1.0, 2.0])
        assert t.method == "closed_form"
        assert t.values[0] == pytest.approx(gamma_fn(2.4) / 2)

    def test_dispatch_carma(self, ou_model):
        t = autocovariance(ou_model, [0.0, 1.0])
        assert t.method == "carma_exact"

    def test_dispatch_near_half_takes_closed_form(self):
        # the route is picked at the model's own H: CARMA only at H = 1/2
        # exactly; at lag 20 the H = 1/2 table misses this one by 1e-2 of scale
        m = car1(0.5 + 1e-7)
        lags = [0.0, 1.0, 5.0, 20.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = autocovariance(m, lags)
        assert t.method == "closed_form"
        quad = acf_integral_form(m, lags)
        scale = np.maximum(np.abs(quad), 1e-6 * quad[0])
        assert np.max(np.abs(t.values - quad) / scale) < 1e-9

    def test_dispatch_repeated_eigenvalues_quadrature(self):
        # AcfTable.method is the one report of the route; nothing warns
        m = CarfimaModel(p=2, q=0, alpha=(0.0, -1.0, -2.0), beta=(), H=0.7, sigma=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = autocovariance(m, [0.0, 1.0])
        assert t.method == "quadrature"

    def test_lag_zero_dominance(self, rng):
        for _ in range(5):
            m = random_stable_model(rng)
            t = autocovariance(m, np.linspace(0, 20, 41))
            assert t.values[0] >= 0
            assert np.all(np.abs(t.values) <= t.values[0] * (1 + 1e-10))

    def test_toeplitz_psd_with_tiny_jitter(self):
        for H in (0.2, 0.7):
            t = autocovariance(car1(H), np.arange(256) * 0.1)
            cov = toeplitz(t.values)
            jitter = 1e-10 * t.values[0]
            np.linalg.cholesky(cov + jitter * np.eye(256))

    def test_tail_slope_matches_power_law(self):
        for H in (0.2, 0.7):
            m = car1(H)
            hs = np.geomspace(100, 1000, 12)
            vals = np.array([acf_closed_form(m, h) for h in hs])
            slope = np.polyfit(np.log(hs), np.log(np.abs(vals)), 1)[0]
            assert abs(slope - (2 * H - 2)) < 0.05

    def test_antipersistent_sign(self):
        m = car1(0.3)
        for h in (50.0, 120.0, 400.0):
            assert acf_closed_form(m, h) < 0

    def test_csv_round_trip(self, tmp_path):
        t = autocovariance(car1(0.7), [0.0, 0.5, 1.0])
        f = tmp_path / "acf.csv"
        t.to_csv(f)
        with open(f, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert np.array_equal([float(r["lag"]) for r in rows], t.lags)
        assert np.array_equal([float(r["gamma"]) for r in rows], t.values)
        assert {r["method"] for r in rows} == {t.method}

    def test_table_rejects_bad_dominance(self):
        with pytest.raises(CarfimaError):
            AcfTable(lags=np.array([0.0, 1.0]), values=np.array([1.0, 2.0]),
                     method="closed_form", model_hash="x")


class TestCsvWriter:
    """The one-pass writer gives the bytes of the csv.writer rows."""

    @staticmethod
    def _same_bytes(tmp_path, write, header, columns, constants=()):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write(got)
        csv_writer_rows(want, header, columns, constants)
        assert got.read_bytes() == want.read_bytes()

    def test_acf_table(self, tmp_path):
        t = autocovariance(car1(0.7), np.linspace(0.0, 40.0, 401))
        self._same_bytes(tmp_path, t.to_csv, ["lag", "gamma", "method"],
                         (t.lags, t.values), [t.method])

    def test_aliased_spectrum_table(self, tmp_path):
        t = spectrum_table(car1(0.7), np.linspace(0.0, math.pi, 65), kind="aliased",
                           step_h=0.5, K=32)
        self._same_bytes(tmp_path, t.to_csv, ["omega", "f", "kind", "h", "K"],
                         (t.omegas, t.values), ["aliased", "0.5", "32"])

    def test_continuous_spectrum_table_with_inf(self, tmp_path):
        t = spectrum_table(car1(0.7), np.linspace(0.0, 5.0, 51))
        assert t.values[0] == math.inf
        self._same_bytes(tmp_path, t.to_csv, ["omega", "f", "kind", "h", "K"],
                         (t.omegas, t.values), ["continuous", "", ""])

    def test_sample_path(self, tmp_path):
        path = SamplePath(values=simulate_fgn(0.7, 300, 0.1, np.random.default_rng(3)),
                          step_h=0.1, model_hash="", seed=3, method="exact_gaussian")
        self._same_bytes(tmp_path, path.to_csv, ["t", "y"],
                         (np.arange(1, path.n + 1) * path.step_h, path.values))

    def test_special_values(self, tmp_path):
        col = np.array([-0.0, 5e-324, 1e22, 0.1, -1e-300, math.inf, 3.0])
        cols = (np.arange(len(col)), col)
        self._same_bytes(tmp_path, lambda f: _write_csv(f, ["a", "b", "c"], cols, ["x"]),
                         ["a", "b", "c"], cols, ["x"])
