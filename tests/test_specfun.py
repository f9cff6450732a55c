import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from carfima import DomainError
from carfima.specfun import (
    _exp_p_product,
    _exp_q_product,
    _pick_method,
    _series_kummer,
    _upper_asym_factor,
    _upper_cf_factor,
    complex_power,
    u_kernel,
)

A_GRID = (0.2, 0.8, 1.4, 1.9)

# digits of the mpmath oracle
MP_DPS = 30


def mp_exp_p(a: float, v: complex) -> complex:
    """e^v P(a, v), formed directly in MP_DPS-digit arithmetic."""
    with mp.workdps(MP_DPS):
        v = mp.mpc(v)
        return complex(mp.exp(v) * mp.gammainc(a, 0, v, regularized=True))


def mp_exp_q(a: float, w: complex) -> complex:
    """e^w (1 - P(a, w)) = e^w Gamma(a, w)/Gamma(a) in MP_DPS-digit arithmetic."""
    with mp.workdps(MP_DPS):
        w = mp.mpc(w)
        return complex(mp.exp(w) * mp.gammainc(a, w, regularized=True))


def mp_u_kernel(H: float, lam: complex, h: float) -> complex:
    """The kernel (-l)^e e^z + l^e e^z P(2H, z) + (-l)^e e^{-z} (1 - P(2H, -z)),
    e = 1 - 2H, z = l h, in MP_DPS-digit arithmetic.

    Every term stays polynomially sized, so the digits go to the
    cancellation between the two gamma terms at large |z| (about log10 |z|),
    not to exp(|z|).
    """
    with mp.workdps(MP_DPS):
        a = mp.mpf(2.0 * H)
        lam = mp.mpc(lam)
        z = lam * mp.mpf(h)
        e = 1 - a
        value = ((-lam) ** e * mp.exp(z)
                 + lam**e * mp.exp(z) * mp.gammainc(a, 0, z, regularized=True)
                 + (-lam) ** e * mp.exp(-z) * mp.gammainc(a, -z, regularized=True))
        return complex(value)


class TestComplexPower:
    def test_unit_base(self):
        for e in (-2.0, 0.0, 0.4, 3.0):
            assert complex_power(1.0, e) == 1.0

    def test_zero_exponent(self):
        assert complex_power(math.e, 1 - 2 * 0.5) == 1.0

    def test_principal_branch_sqrt(self):
        assert complex_power(-1.0 + 0j, 0.5) == pytest.approx(1j)
        # principal log: arg in (-pi, pi]
        z = complex_power(-2.0, 0.3)
        assert z == pytest.approx(cmath.exp(0.3 * cmath.log(-2.0 + 0j)))

    def test_zero_base(self):
        assert complex_power(0.0, 1.5) == 0j
        with pytest.raises(DomainError):
            complex_power(0.0, 0.0)
        with pytest.raises(DomainError):
            complex_power(0.0, -1.0)


class TestLowerGammaP:
    """P(a, z) through the stable products the kernel uses:
    e^z P(a, z) for Re z <= 0 and e^z (1 - P(a, z)) for Re z >= 0."""

    def test_at_zero(self):
        assert _exp_p_product(1.3, 0j) == 0j
        assert _exp_q_product(1.3, 0j) == 1.0

    def test_exponential_case(self):
        # P(1, z) = 1 - e^{-z}, so e^z P = e^z - 1 and e^z (1 - P) = 1
        for z in (2.0, -1.5, 1 + 2j, -3 + 0.5j):
            z = complex(z)
            if z.real <= 0:
                assert _exp_p_product(1.0, z) == pytest.approx(cmath.exp(z) - 1, rel=1e-12)
            else:
                assert _exp_q_product(1.0, z) == pytest.approx(1.0, rel=1e-12)

    def test_real_nonnegative_z_in_unit_interval(self):
        for a in A_GRID:
            for z in (0.3, 2.0, 11.0, 37.0):
                q = _exp_q_product(a, complex(z))
                assert q.imag == 0.0
                assert 0.0 <= 1.0 - math.exp(-z) * q.real <= 1.0

    @pytest.mark.parametrize("a", A_GRID)
    def test_oracle_agreement_across_plane(self, a):
        # every evaluation regime against 30-digit mpmath
        for rad in (0.5, 3.0, 8.0, 15.0, 25.0, 35.0, 45.0, 50.0):
            for deg in (0, 30, 60, 85, 95, 120, 150, 180):
                z = rad * cmath.exp(1j * math.radians(deg))
                if z.real <= 0:
                    got, ref = _exp_p_product(a, z), mp_exp_p(a, z)
                else:
                    got, ref = _exp_q_product(a, z), mp_exp_q(a, z)
                assert abs(got - ref) <= 1e-10 * abs(ref), (a, rad, deg)

    def test_method_regions_used(self):
        assert _pick_method(3.0 + 0j) == "series"
        assert _pick_method(30j) == "continued_fraction"
        assert _pick_method(45.0 + 0j) == "asymptotic"

    def test_methods_agree_in_overlap(self):
        # points where two expansions are both well-conditioned
        a = 1.4
        z = 15.0 * cmath.exp(1j * math.radians(60))
        s = _series_kummer(a, z)[0]
        f, _ = _upper_cf_factor(a, z)
        cf = 1.0 - cmath.exp(-z) * complex_power(z, a) * f / gamma_fn(a)
        assert s == pytest.approx(cf, rel=1e-11)
        z = 45.0 * cmath.exp(1j * math.radians(100))
        f, _ = _upper_cf_factor(a, z)
        cf = 1.0 - cmath.exp(-z) * complex_power(z, a) * f / gamma_fn(a)
        srs, _ = _upper_asym_factor(a, z)
        asym = 1.0 - cmath.exp(-z) * complex_power(z, a - 1) * srs / gamma_fn(a)
        assert cf == pytest.approx(asym, rel=1e-11)


class TestUpperGamma:
    """Gamma(a, z) = Gamma(a) e^{-z} [e^z (1 - P(a, z))]."""

    def test_at_zero(self):
        assert gamma_fn(2.0) * _exp_q_product(2.0, 0j) == pytest.approx(1.0)

    def test_exponential_integral(self):
        upper = math.exp(-1.0) * _exp_q_product(1.0, 1.0 + 0j)
        assert upper == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_recursion_identity(self, rng):
        # Gamma(a+1, z) = a Gamma(a, z) + z^a e^{-z}; times e^z / Gamma(a+1) it
        # reads q(a+1) = q(a) + z^a / Gamma(a+1) for the upper product and
        # p(a+1) = p(a) - z^a / Gamma(a+1) for the lower one
        worst = 0.0
        for _ in range(150):
            a = float(rng.uniform(0.1, 2.4))
            z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
            step = complex_power(z, a) / gamma_fn(a + 1)
            if z.real >= 0:
                lhs = _exp_q_product(a + 1, z)
                rhs = _exp_q_product(a, z) + step
            else:
                lhs = _exp_p_product(a + 1, z)
                rhs = _exp_p_product(a, z) - step
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-290))
        assert worst < 1e-10


class TestStableProducts:
    def test_exp_q_never_overflows(self):
        # e^{w} Gamma(a, w)/Gamma(a) stays polynomial-sized for huge Re w
        v = _exp_q_product(0.6, 5000.0 + 3.0j)
        assert np.isfinite(v.real) and np.isfinite(v.imag)
        # leading asymptotics w^{a-1}/Gamma(a)
        assert v == pytest.approx(complex_power(5000.0 + 3j, -0.4) / gamma_fn(0.6), rel=1e-2)

    def test_exp_p_decays(self):
        v = _exp_p_product(0.6, -5000.0)
        ref = -complex_power(-5000.0, -0.4) / gamma_fn(0.6)
        assert v == pytest.approx(ref, rel=1e-2)

    def test_products_match_naive_in_safe_range(self, rng):
        # the naive products e^v P(a, v) and e^w (1 - P(a, w)), formed
        # directly in 30-digit arithmetic
        for _ in range(40):
            a = float(rng.uniform(0.1, 2.0))
            v = complex(-rng.uniform(0.1, 5.0), rng.uniform(-15, 15))
            assert _exp_p_product(a, v) == pytest.approx(mp_exp_p(a, v), rel=1e-9)
            w = -v
            got = _exp_q_product(a, w)
            assert abs(got - mp_exp_q(a, w)) <= 1e-9 * max(abs(got), 1e-250)


class TestUKernel:
    def test_h_zero(self):
        for H in (0.1, 0.3, 0.7, 0.9):
            for lam in (-1.0, -0.5 + 2j, -3.0 - 1j):
                assert u_kernel(H, lam, 0.0) == pytest.approx(
                    2 * complex_power(-lam, 1 - 2 * H), rel=1e-13)

    def test_brownian_reduction(self):
        # at H = 1/2 the kernel telescopes to 2 e^{lam h}
        for lam in (-1.0, -0.3 + 1.7j, -2.5):
            for h in (0.0, 0.4, 3.0, 20.0, 100.0):
                assert u_kernel(0.5, lam, h) == pytest.approx(
                    2 * cmath.exp(lam * h), abs=1e-14, rel=1e-12)

    def test_conjugate_symmetry(self, rng):
        for _ in range(30):
            H = float(rng.uniform(0.05, 0.95))
            lam = complex(-rng.uniform(0.1, 3), rng.uniform(-3, 3))
            h = float(rng.uniform(0, 30))
            assert u_kernel(H, lam.conjugate(), h) == pytest.approx(
                u_kernel(H, lam, h).conjugate(), rel=1e-11, abs=1e-300)

    def test_continuity_in_h_at_half(self):
        # |u(H) - 2 e^{lam h}| small for H = 1/2 +- 1e-4
        for lam, h in ((-1.0, 1.0), (-0.5 + 1.2j, 2.5)):
            carma = 2 * cmath.exp(lam * h)
            for H in (0.5 - 1e-4, 0.5 + 1e-4):
                assert abs(u_kernel(H, lam, h) - carma) <= 1e-3 * abs(carma)

    def test_tail_asymptote(self):
        # u ~ -4H(2H-1)/(Gamma(2H+1) lam) h^{2H-2}; ratio converges to 1
        for H in (0.3, 0.7):
            lam = -1.0
            ratios = []
            for h in (100.0, 200.0, 800.0):
                asym = -4 * H * (2 * H - 1) / (gamma_fn(2 * H + 1) * lam) * h ** (2 * H - 2)
                ratios.append(abs(u_kernel(H, lam, h) / asym - 1))
            assert ratios[1] < 1e-3  # convergence study: ~2.4e-5 at h=200
            assert ratios[2] < ratios[0]

    def test_switch_point_seamless(self):
        # values straddling |lam h| = 50 follow one smooth curve
        lam = -1.0
        for H in (0.2, 0.55, 0.8):
            below = u_kernel(H, lam, 49.995)
            above = u_kernel(H, lam, 50.005)
            mid = 0.5 * (below + above)
            interp_err = abs(above - below) / max(abs(mid), 1e-290)
            assert interp_err < 1e-3  # no jump beyond the local slope

    def test_overflow_guard(self):
        # e^{-lam h} alone overflows beyond |lam h| = 709; the kernel never forms it
        for h in (1000.0, 1e5):
            v = u_kernel(0.3, -1.0, h)
            assert np.isfinite(v.real) and np.isfinite(v.imag)

    @pytest.mark.parametrize("band", [(0.1, 1.0, 4.5), (7.0, 20.0, 45.0),
                                      (55.0, 120.0, 800.0)],
                             ids=["series_band", "cf_band", "asymptotic_band"])
    def test_mpmath_oracle(self, band):
        # |lam h| <= 5, 5-50 and 50-800 (beyond the asymptotic switch), at
        # four angles of lam, on both sides of H = 1/2
        for H in (0.15, 0.35, 0.65, 0.85):
            for lam in (-1.0, -0.3 + 1.7j, -2.0 - 0.5j, -0.05 + 1.0j):
                for r in band:
                    h = r / abs(lam)
                    got, ref = u_kernel(H, lam, h), mp_u_kernel(H, lam, h)
                    assert abs(got - ref) <= 1e-10 * abs(ref), (H, lam, h)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            u_kernel(0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            u_kernel(1.2, -1.0, 1.0)
        with pytest.raises(DomainError):
            u_kernel(0.5, -1.0, -0.1)
