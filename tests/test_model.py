import importlib.util
import inspect
import json
import math
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from scipy.linalg import expm

from carfima import (
    CarfimaModel,
    DomainError,
    char_poly_eval,
    is_stationary,
    mean_trajectory,
    prepare,
    stationary_mean,
)
import carfima
from carfima.model import alpha_poly_coeffs
from carfima.specfun import u_kernel

from conftest import car1, model_from_eigenvalues, random_stable_model


def _residues(m, lambdas):
    """Residue weights beta(l) / alpha'(l) of the partial fractions of beta/alpha."""
    values = [char_poly_eval(m, lam) for lam in lambdas]
    return np.array([b / a1 for _, a1, b in values])


class TestCompanion:
    def test_scalar_companion(self):
        parts = prepare(car1(0.5))
        assert parts.A.tolist() == [[-1.0]]
        assert parts.delta_p.tolist() == [1.0]
        assert parts.beta_vec.tolist() == [1.0]

    def test_p2_layout(self):
        m = CarfimaModel(p=2, q=1, alpha=(0.0, -2.0, -3.0), beta=(0.4,), H=0.5, sigma=1.0)
        parts = prepare(m)
        assert parts.A.tolist() == [[0.0, 1.0], [-2.0, -3.0]]
        assert parts.beta_vec.tolist() == [1.0, 0.4]
        assert parts.delta_p.tolist() == [0.0, 1.0]

    def test_beta_vec_zero_padded(self):
        m = CarfimaModel(p=3, q=1, alpha=(0.0, -6.0, -11.0, -6.0), beta=(0.7,),
                         H=0.3, sigma=1.0)
        assert prepare(m).beta_vec.tolist() == [1.0, 0.7, 0.0]

    def test_arrays_read_only(self):
        parts = prepare(model_from_eigenvalues([-1.0, -2.0], q=1, beta=(0.5,)))
        for arr in (parts.A, parts.beta_vec, parts.delta_p, parts.lambdas):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestCharPoly:
    def test_linear_case(self):
        a, a1, b = char_poly_eval(car1(0.5), 0.0)
        assert (a, a1, b) == (1.0, 1.0, 1.0)

    def test_p2_at_i(self):
        # alpha(z) = z^2 + 3z + 2 at z = i, checked against numpy polyval
        m = CarfimaModel(p=2, q=0, alpha=(0.0, -2.0, -3.0), beta=(), H=0.5, sigma=1.0)
        a, a1, b = char_poly_eval(m, 1j)
        assert a == pytest.approx(1 + 3j)
        assert a == pytest.approx(np.polyval([1.0, 3.0, 2.0], 1j))
        assert a1 == pytest.approx(np.polyval([2.0, 3.0], 1j))
        assert b == 1.0

    def test_beta_poly(self):
        m = CarfimaModel(p=2, q=1, alpha=(0.0, -2.0, -3.0), beta=(0.5,), H=0.5, sigma=1.0)
        assert char_poly_eval(m, 2.0)[2] == pytest.approx(2.0)

    def test_derivative_matches_finite_difference(self, rng):
        for _ in range(10):
            m = random_stable_model(rng)
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            _, a1, _ = char_poly_eval(m, z)
            eps = 1e-7
            fd = (char_poly_eval(m, z + eps)[0] - char_poly_eval(m, z - eps)[0]) / (2 * eps)
            assert a1 == pytest.approx(fd, rel=1e-5)


class TestEigenStructure:
    def test_scalar(self):
        m = car1(0.5)
        parts = prepare(m)
        assert parts.lambdas == pytest.approx([-1.0])
        assert _residues(m, parts.lambdas) == pytest.approx([1.0])
        assert parts.distinct

    def test_factored_quadratic(self):
        # alpha(z) = (z+1)(z+2): residues beta/alpha' at -1, -2 are 1 and -1
        m = model_from_eigenvalues([-1.0, -2.0])
        lams = prepare(m).lambdas
        got = sorted(zip(lams.real, _residues(m, lams).real))
        assert got[0][0] == pytest.approx(-2.0)
        assert got[0][1] == pytest.approx(-1.0)
        assert got[1][0] == pytest.approx(-1.0)
        assert got[1][1] == pytest.approx(1.0)

    def test_repeated_root_flagged(self):
        # alpha(z) = (z+1)^2
        m = CarfimaModel(p=2, q=0, alpha=(0.0, -1.0, -2.0), beta=(), H=0.5, sigma=1.0)
        assert not prepare(m).distinct

    def test_roots_match_dense_eigensolver(self, rng):
        for _ in range(25):
            m = random_stable_model(rng, p_max=5)
            roots = np.sort_complex(np.roots(alpha_poly_coeffs(m)))
            eigs = np.sort_complex(np.linalg.eigvals(prepare(m).A))
            assert np.max(np.abs(roots - eigs)) < 1e-8


class TestStationarity:
    def test_simple_cases(self):
        # the roots of alpha(z), as prepare passes them
        assert is_stationary(np.array([-1.0]))
        assert not is_stationary(np.array([-1.0, 0.001]))
        assert is_stationary(np.array([-0.5 + 2j, -0.5 - 2j]))

    def test_stationary_mean(self):
        assert stationary_mean(car1(0.5, a0=0.0)) == 0.0
        assert stationary_mean(car1(0.5, a0=2.0)) == pytest.approx(2.0)
        assert stationary_mean(car1(0.5, a1=-4.0, a0=1.0)) == pytest.approx(0.25)


class TestMeanTrajectory:
    def test_fixed_point(self):
        m = car1(0.7, a0=3.0)
        mu0 = -(m.alpha[0] / m.alpha[1]) * np.array([1.0])
        for t in (0.0, 0.5, 2.0, 10.0):
            assert mean_trajectory(m, mu0, t) == pytest.approx(mu0)

    def test_t_zero_identity(self, rng):
        m = random_stable_model(rng, p_max=3)
        mu0 = rng.standard_normal(m.p)
        assert mean_trajectory(m, mu0, 0.0) == pytest.approx(mu0)

    def test_scalar_decay(self):
        # p=1, alpha_0=0: mu_t = e^{-t} mu_0, cross-checked with a Taylor sum
        m = car1(0.7)
        got = mean_trajectory(m, [1.0], 1.0)[0]
        assert got == pytest.approx(math.exp(-1.0), rel=1e-12)
        series = sum((-1.0) ** n / math.factorial(n) for n in range(30))
        assert got == pytest.approx(series, rel=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            mean_trajectory(car1(0.5), [0.0], -1.0)


class TestSpectralIdentities:
    """Partial-fraction and exponential-expansion identities behind the
    closed-form autocovariance."""

    def _weights(self, m):
        parts = prepare(m)
        return parts, parts.lambdas, _residues(m, parts.lambdas)

    def test_exponential_expansion(self, rng):
        for _ in range(12):
            m = random_stable_model(rng)
            parts, lams, w = self._weights(m)
            for h in (0.0, 0.1, 0.7, 2.0, 5.0):
                lhs = parts.beta_vec @ expm(parts.A * h) @ parts.delta_p
                rhs = np.sum(w * np.exp(lams * h))
                assert abs(lhs - rhs) < 1e-8

    def test_derivative_expansion(self, rng):
        for _ in range(12):
            m = random_stable_model(rng)
            parts, lams, w = self._weights(m)
            for h in (0.0, 0.1, 0.7, 2.0, 5.0):
                lhs = parts.beta_vec @ parts.A @ expm(parts.A * h) @ parts.delta_p
                rhs = np.sum(w * lams * np.exp(lams * h))
                assert abs(lhs - rhs) < 1e-8

    def test_partial_fraction(self, rng):
        for _ in range(12):
            m = random_stable_model(rng)
            _, lams, w = self._weights(m)
            for lam_i in lams:
                a_neg, _, b_neg = char_poly_eval(m, -lam_i)
                lhs = -b_neg / a_neg
                rhs = np.sum(w / (lam_i + lams))
                assert abs(lhs - rhs) < 1e-10

    def test_weighted_sum_identity(self, rng):
        for _ in range(12):
            m = random_stable_model(rng)
            _, lams, w = self._weights(m)
            total = 0j
            for lam_i in lams:
                a_neg, _, b_neg = char_poly_eval(m, -lam_i)
                _, a1, b_pos = char_poly_eval(m, lam_i)
                total += b_pos * b_neg / (a1 * a_neg * lam_i)
            a0, _, b0 = char_poly_eval(m, 0.0)
            assert abs(total + b0**2 / (2 * a0**2)) < 1e-10


class TestModelValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p=0, q=0, alpha=(0.0,), beta=(), H=0.5, sigma=1.0),
            dict(p=1, q=0, alpha=(0.0, 0.0), beta=(), H=0.5, sigma=1.0),
            dict(p=1, q=0, alpha=(0.0, -1.0), beta=(), H=0.0, sigma=1.0),
            dict(p=1, q=0, alpha=(0.0, -1.0), beta=(), H=1.0, sigma=1.0),
            dict(p=1, q=0, alpha=(0.0, -1.0), beta=(), H=0.5, sigma=0.0),
            dict(p=2, q=1, alpha=(0.0, -1.0, -2.0), beta=(0.0,), H=0.5, sigma=1.0),
            dict(p=1, q=1, alpha=(0.0, -1.0), beta=(0.5,), H=0.5, sigma=1.0),
            dict(p=2, q=0, alpha=(0.0, -1.0), beta=(), H=0.5, sigma=1.0),
            dict(p=1, q=0, alpha=(0.0, -1.0), beta=(), H=0.5, sigma=math.inf),
            dict(p=1, q=0, alpha=(math.nan, -1.0), beta=(), H=0.5, sigma=1.0),
            dict(p=1, q=0, alpha=(0.0, math.nan), beta=(), H=0.5, sigma=1.0),
            dict(p=2, q=1, alpha=(0.0, -1.0, -2.0), beta=(math.inf,), H=0.5, sigma=1.0),
            dict(p=1, q=0, alpha=(0.0, -1.0), beta=(), H=math.nan, sigma=1.0),
            # finite, but |beta(iw)|^2 overflows or nearly does
            dict(p=2, q=1, alpha=(0.0, -1.0, -2.0), beta=(1e160,), H=0.5, sigma=1.0),
            dict(p=3, q=2, alpha=(0.0, -1.0, -3.0, -3.0), beta=(-1.5e100, 0.5), H=0.7,
                 sigma=1.0),
        ],
    )
    def test_invalid_models_rejected(self, kwargs):
        with pytest.raises(DomainError):
            CarfimaModel(**kwargs)

    @pytest.mark.parametrize(
        "change",
        [{"alpha": [0.0, "x"]}, {"p": "two"}, {"beta": [None], "q": 1, "p": 2,
                                               "alpha": [0.0, -1.0, -2.0]},
         {"H": "half"}, {"sigma": [1.0]}, {"alpha": 5}],
    )
    def test_non_numeric_entries_rejected(self, change):
        d = {**car1(0.7).to_dict(), **change}
        with pytest.raises(DomainError):
            CarfimaModel.from_dict(d)
        with pytest.raises(DomainError):
            CarfimaModel(**d)

    def test_json_round_trip(self, rng):
        for _ in range(10):
            m = random_stable_model(rng)
            s = m.to_json()
            d = json.loads(s)
            assert set(d) == {"p", "q", "alpha", "beta", "H", "sigma"}
            m2 = CarfimaModel.from_json(s)
            assert m2 == m
            assert m2.model_hash() == m.model_hash()


class TestPublicSurface:
    def test_calls_take_the_model_not_its_derived_parts(self):
        # each call derives what it needs from the model itself, so no caller
        # can pair a model with the companion system or eigenvalues of another
        funcs = [getattr(carfima, name) for name in carfima.__all__]
        for fn in [f for f in funcs if inspect.isfunction(f)] + [u_kernel]:
            params = set(inspect.signature(fn).parameters)
            assert not params & {"parts", "sys", "allow_asymptotic"}, fn.__name__

    def test_all_names_resolve(self):
        # __all__ is every public name the package imports, and only those
        for name in carfima.__all__:
            assert not isinstance(getattr(carfima, name), ModuleType), name
        removed = {"CompanionSystem", "EigenStructure", "build_companion",
                   "eigen_structure", "StationaryStateCov", "aliased_spectrum",
                   "aliased_spectrum_detail", "AliasedValue", "whittle_objective",
                   "profile_sigma2"}
        assert not removed & set(carfima.__all__)
        assert "prepare" in carfima.__all__ and "autocovariance" in carfima.__all__

    def test_benchmark_trace_targets_resolve(self):
        # bench/tracing.py rebinds these names for --trace; each must exist
        path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("bench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        for module, attr, _, _ in tracing.TARGETS:
            assert callable(getattr(importlib.import_module(module), attr)), (module, attr)

    def test_closed_form_calls_the_kernel_once_per_eigenvalue(self, monkeypatch):
        # the benchmark counts u_kernel calls through carfima.acf.u_kernel;
        # the closed form makes one per eigenvalue, each over every lag
        m = model_from_eigenvalues([-1.0, -0.5 + 1.0j, -0.5 - 1.0j], q=0, H=0.3)
        lags = np.linspace(0.0, 80.0, 401)
        calls = []

        def counted(H, lam, h):
            calls.append((lam, h))
            return u_kernel(H, lam, h)

        monkeypatch.setattr(carfima.acf, "u_kernel", counted)
        carfima.acf.acf_closed_form(m, lags)
        assert [lam for lam, _ in calls] == list(prepare(m).lambdas)
        for _, h in calls:
            assert np.array_equal(h, lags)
