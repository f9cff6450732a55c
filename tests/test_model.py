import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

from carfima import (
    CarfimaModel,
    DomainError,
    EigenStructure,
    build_companion,
    char_poly_eval,
    eigen_structure,
    is_stationary,
    mean_trajectory,
    prepare,
    stationary_mean,
)
from carfima.model import alpha_poly_coeffs

from conftest import car1, model_from_eigenvalues, random_stable_model


class TestCompanion:
    def test_scalar_companion(self):
        sys = build_companion(car1(0.5))
        assert sys.A.tolist() == [[-1.0]]
        assert sys.delta_p.tolist() == [1.0]
        assert sys.beta_vec.tolist() == [1.0]

    def test_p2_layout(self):
        m = CarfimaModel(p=2, q=1, alpha=(0.0, -2.0, -3.0), beta=(0.4,), H=0.5, sigma=1.0)
        sys = build_companion(m)
        assert sys.A.tolist() == [[0.0, 1.0], [-2.0, -3.0]]
        assert sys.beta_vec.tolist() == [1.0, 0.4]
        assert sys.delta_1.tolist() == [1.0, 0.0]

    def test_beta_vec_zero_padded(self):
        m = CarfimaModel(p=3, q=1, alpha=(0.0, -6.0, -11.0, -6.0), beta=(0.7,),
                         H=0.3, sigma=1.0)
        assert build_companion(m).beta_vec.tolist() == [1.0, 0.7, 0.0]


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
        es = eigen_structure(build_companion(m), m)
        assert es.lambdas == pytest.approx([-1.0])
        assert es.residues == pytest.approx([1.0])
        assert es.distinct

    def test_factored_quadratic(self):
        # alpha(z) = (z+1)(z+2): residues beta/alpha' at -1, -2 are 1 and -1
        m = model_from_eigenvalues([-1.0, -2.0])
        es = eigen_structure(build_companion(m), m)
        got = sorted(zip(es.lambdas.real, es.residues.real))
        assert got[0][0] == pytest.approx(-2.0)
        assert got[0][1] == pytest.approx(-1.0)
        assert got[1][0] == pytest.approx(-1.0)
        assert got[1][1] == pytest.approx(1.0)

    def test_repeated_root_flagged(self):
        # alpha(z) = (z+1)^2
        m = CarfimaModel(p=2, q=0, alpha=(0.0, -1.0, -2.0), beta=(), H=0.5, sigma=1.0)
        es = eigen_structure(build_companion(m), m)
        assert not es.distinct

    def test_roots_match_dense_eigensolver(self, rng):
        for _ in range(25):
            m = random_stable_model(rng, p_max=5)
            sys = build_companion(m)
            roots = np.sort_complex(np.roots(alpha_poly_coeffs(m)))
            eigs = np.sort_complex(np.linalg.eigvals(sys.A))
            assert np.max(np.abs(roots - eigs)) < 1e-8


class TestStationarity:
    def test_simple_cases(self):
        mk = lambda lams: EigenStructure(lambdas=np.array(lams, dtype=complex),
                                         residues=np.ones(len(lams), dtype=complex),
                                         distinct=True)
        assert is_stationary(mk([-1.0]))
        assert not is_stationary(mk([-1.0, 0.001]))
        assert is_stationary(mk([-0.5 + 2j, -0.5 - 2j]))

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
        lams = parts.es.lambdas
        w = parts.es.residues
        return parts, lams, w

    def test_exponential_expansion(self, rng):
        for _ in range(12):
            m = random_stable_model(rng)
            parts, lams, w = self._weights(m)
            for h in (0.0, 0.1, 0.7, 2.0, 5.0):
                lhs = parts.sys.beta_vec @ expm(parts.sys.A * h) @ parts.sys.delta_p
                rhs = np.sum(w * np.exp(lams * h))
                assert abs(lhs - rhs) < 1e-8

    def test_derivative_expansion(self, rng):
        for _ in range(12):
            m = random_stable_model(rng)
            parts, lams, w = self._weights(m)
            for h in (0.0, 0.1, 0.7, 2.0, 5.0):
                lhs = (parts.sys.beta_vec @ parts.sys.A
                       @ expm(parts.sys.A * h) @ parts.sys.delta_p)
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
        ],
    )
    def test_invalid_models_rejected(self, kwargs):
        with pytest.raises(DomainError):
            CarfimaModel(**kwargs)

    def test_json_round_trip(self, rng):
        for _ in range(10):
            m = random_stable_model(rng)
            s = m.to_json()
            d = json.loads(s)
            assert set(d) == {"p", "q", "alpha", "beta", "H", "sigma"}
            m2 = CarfimaModel.from_json(s)
            assert m2 == m
            assert m2.model_hash() == m.model_hash()
