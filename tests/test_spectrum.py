import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from carfima import (
    CarfimaModel,
    DomainError,
    TailBoundTooLooseError,
    acf_carma,
    autocovariance,
    fourier_consistency_check,
    spectral_density,
    spectrum_table,
)
from carfima.spectrum import DEFAULT_ALIAS_K, DEFAULT_BRACKET_RTOL, SpectrumTable, _AliasSum

from conftest import car1, model_from_eigenvalues, random_stable_model


class TestSpectralDensity:
    def test_zero_frequency_antipersistent(self):
        assert spectral_density(car1(0.3), 0.0) == 0.0

    def test_zero_frequency_ou(self, ou_model):
        assert spectral_density(ou_model, 0.0) == pytest.approx(1 / (2 * math.pi))

    def test_zero_frequency_long_memory_is_inf(self):
        assert spectral_density(car1(0.7), 0.0) == math.inf

    def test_car1_H07_at_one(self):
        # direct evaluation with stdlib gamma as the independent route
        expected = (1 / (2 * math.pi)) * math.gamma(2.4) * math.sin(0.7 * math.pi) * 0.5
        got = spectral_density(car1(0.7), 1.0)
        assert got == pytest.approx(expected, rel=1e-13)
        assert got == pytest.approx(0.07997027466683695, rel=1e-12)

    def test_even_in_omega(self, rng):
        m = random_stable_model(rng)
        w = rng.uniform(0.1, 5, 8)
        assert spectral_density(m, w) == pytest.approx(spectral_density(m, -w))

    def test_nonnegative_on_dense_grids(self, rng):
        for _ in range(6):
            m = random_stable_model(rng)
            vals = spectral_density(m, np.linspace(-30, 30, 501))
            finite = np.isfinite(vals)
            assert np.all(vals[finite] >= 0)

    def test_low_frequency_power_law(self):
        # f/|w|^{1-2H} -> sigma^2 Gamma(2H+1) sin(pi H)/(2 pi alpha_1^2)
        for H in (0.25, 0.7):
            m = car1(H, a1=-1.3, sigma=1.4)
            limit = (m.sigma**2 * math.gamma(2 * H + 1) * math.sin(math.pi * H)
                     / (2 * math.pi * m.alpha[1] ** 2))
            r3 = spectral_density(m, 1e-3) / 1e-3 ** (1 - 2 * H)
            r4 = spectral_density(m, 1e-4) / 1e-4 ** (1 - 2 * H)
            assert r3 == pytest.approx(limit, rel=1e-3)
            assert r4 == pytest.approx(limit, rel=1e-3)
            assert abs(r4 - limit) < abs(r3 - limit)

    def test_nonstationary_rejected(self):
        with pytest.raises(DomainError):
            spectral_density(car1(0.5, a1=0.5), 1.0)

    @pytest.mark.parametrize("m", [
        CarfimaModel(p=2, q=1, alpha=(0.0, -1.0, -1.5), beta=(0.5,), H=0.3, sigma=1.0),
        CarfimaModel(p=3, q=2, alpha=(0.0, -1.25, -2.25, -2.0), beta=(0.3, -0.2), H=0.8,
                     sigma=2.0),
        car1(0.1),
    ], ids=["carfima_2_1", "carfima_3_2", "car1"])
    def test_huge_frequencies_match_mpmath(self, m):
        # on CARFIMA(2, 0.3, 1) the density once read 0.0 at 1e150, where it is
        # 2.9e-242, and NaN above about 1.3e154
        omegas = [1e100, 1e150, 1e155, 1e300, -1e150, 0.99e8, 1.01e8]
        with mpmath.workdps(40):
            refs = [float(_density_mp(m, w)) for w in omegas]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spectral_density(m, omegas)
            assert [spectral_density(m, w) for w in omegas] == got.tolist()
        # below the normal range only the absolute error counts
        assert got == pytest.approx(refs, rel=1e-14, abs=1e-320)
        assert spectral_density(m, math.inf) == 0.0


def _density_mp(m, omega):
    """f_Y(omega) from the model's polynomials in mpmath, at the working precision."""
    w = mpmath.mpf(omega)
    z = 1j * w
    alpha = z**m.p - sum(mpmath.mpf(a) * z ** (k - 1) for k, a in enumerate(m.alpha) if k)
    beta = 1 + sum(mpmath.mpf(b) * z ** (k + 1) for k, b in enumerate(m.beta))
    H = mpmath.mpf(m.H)
    front = mpmath.mpf(m.sigma) ** 2 * mpmath.gamma(2 * H + 1) * mpmath.sin(mpmath.pi * H)
    return front / (2 * mpmath.pi) * abs(w) ** (1 - 2 * H) * abs(beta) ** 2 / abs(alpha) ** 2


def _aliased(m, omega, step_h, K=DEFAULT_ALIAS_K):
    """f_h at one frequency: a one-row aliased table, bracket checked."""
    return spectrum_table(m, [omega], kind="aliased", step_h=step_h, K=K).values[0]


def _raw(m, omega, step_h, K=DEFAULT_ALIAS_K):
    """(f_h, bracket width) at one frequency from the engine, bracket unchecked."""
    values, tail_lo, tail_hi = _AliasSum(np.array([float(omega)]), step_h, K)(m)
    return values[0], tail_hi[0] - tail_lo[0]


class TestAliasedSpectrum:
    def test_even_symmetry(self):
        m = car1(0.7)
        for w in (0.3, 1.2, 3.0):
            assert _aliased(m, w, 1.0) == pytest.approx(_aliased(m, -w, 1.0), rel=1e-14)

    def test_ou_matches_discrete_acf_sum(self, ou_model):
        # f_h(w) = (1/2pi) sum_j gamma(jh) e^{-ijw}; OU gamma decays fast
        h = 1.0
        js = np.arange(-2000, 2001)
        gam = 0.5 * np.exp(-np.abs(js) * h)
        for w in (0.3, 1.0, 2.5):
            direct = float(np.sum(gam * np.cos(js * w))) / (2 * math.pi)
            value, width = _raw(ou_model, w, h)
            assert value == _aliased(ou_model, w, h)
            assert abs(value - direct) <= width + 1e-9 * direct

    def test_doubling_K_stays_within_bracket(self):
        m = car1(0.7)
        v8, width8 = _raw(m, 0.5, 1.0, K=8)
        v16, width16 = _raw(m, 0.5, 1.0, K=16)
        assert width8 <= abs(v8) and width16 <= abs(v16)
        assert abs(v16 - v8) < width8

    def test_variance_identity(self):
        # integral of f_h over [-pi, pi] equals gamma(0); 0 stays an endpoint
        for H in (0.3, 0.7):
            m = car1(H)
            val, _ = quad(lambda w: _aliased(m, w, 1.0), 0.0, math.pi, limit=200)
            val *= 2
            g0 = autocovariance(m, [0.0]).values[0]
            width = _raw(m, 1.0, 1.0)[1]
            tol = 2 * math.pi * width + 1e-4 * g0
            assert abs(val - g0) <= tol

    def test_tail_bound_too_loose_raises(self):
        # at K = 1 and h = 4 the bracket is 9 % of the value, at h = 1 0.4 %
        value, width = _raw(car1(0.25), 1.0, 4.0, K=1)
        assert width > DEFAULT_BRACKET_RTOL * value
        with pytest.raises(TailBoundTooLooseError):
            _aliased(car1(0.25), 1.0, 4.0, K=1)
        _aliased(car1(0.25), 1.0, 1.0, K=1)

    def test_loose_bracket_raises_by_both_routes(self):
        # at h = 1000 the first omitted alias of K = 16 sits at |W| = 0.1, below
        # the root at 1, and the tail bracket is 27 times the value at omega = 0.5;
        # a one-row table and a two-row table both refuse it
        with pytest.raises(TailBoundTooLooseError):
            _aliased(car1(0.7), 0.5, 1000.0)
        with pytest.raises(TailBoundTooLooseError):
            spectrum_table(car1(0.7), [0.1, 0.5], kind="aliased", step_h=1000.0)

    def test_omega_range_enforced(self):
        with pytest.raises(DomainError):
            _aliased(car1(0.7), 4.0, 1.0)

    def test_inf_at_zero_for_long_memory(self):
        assert _aliased(car1(0.7), 0.0, 1.0) == math.inf

    @pytest.mark.parametrize("step_h", [1e-300, 1e100, 1e200, 1e300])
    def test_extreme_step_is_a_loose_bracket(self, step_h):
        # the alias sum over- or underflows: NaN values and brackets are refused
        with np.errstate(all="ignore"), pytest.raises(TailBoundTooLooseError):
            spectrum_table(car1(0.7), [0.0, 0.5], kind="aliased", step_h=step_h)

    def test_oversized_alias_grid_rejected(self):
        with pytest.raises(DomainError, match="aliases"):
            spectrum_table(car1(0.7), [0.5], kind="aliased", step_h=1.0, K=10**12)


class TestAliasedTailOracle:
    # |k| <= DIRECT summed directly, then the Hurwitz-zeta sum of the leading
    # law c beta_q^2 |W|^{-s}, s = 2H - 1 + 2(p - q), beyond; the next law
    # moves that remainder by under 1e-9 of itself
    DIRECT = 20000
    MODELS = {
        "car1_h025": car1(0.25),
        "car1_h070": car1(0.7),
        "carfima_2_h030_1": CarfimaModel(p=2, q=1, alpha=(0.0, -1.0, -1.5), beta=(0.5,),
                                         H=0.3, sigma=1.0),
        # roots -1 and -0.5 +- 1i
        "car3_pair": CarfimaModel(p=3, q=0, alpha=(0.0, -1.25, -2.25, -2.0), beta=(),
                                  H=0.3, sigma=1.0),
    }

    def _reference(self, m, omegas, h):
        ks = np.arange(-self.DIRECT, self.DIRECT + 1)
        direct = spectral_density(m, (omegas[:, None] + 2 * math.pi * ks) / h).sum(axis=1)
        s = 2 * m.H - 1 + 2 * (m.p - m.q)
        lead = m.beta[-1] ** 2 if m.q else 1.0
        scale = (m.sigma**2 * math.gamma(2 * m.H + 1) * math.sin(math.pi * m.H) / (2 * math.pi)
                 * lead * (2 * math.pi / h) ** -s)
        tail = [scale * float(mpmath.zeta(s, self.DIRECT + 1 + x)
                              + mpmath.zeta(s, self.DIRECT + 1 - x))
                for x in omegas / (2 * math.pi)]
        return (direct + np.array(tail)) / h

    @pytest.mark.parametrize("step_h", [0.1, 1.0, 5.0])
    @pytest.mark.parametrize("name", list(MODELS))
    def test_default_K_matches_long_sum(self, name, step_h):
        m = self.MODELS[name]
        omegas = np.array([-math.pi, -2.0, -0.5, 0.1, 1.0, 2.5, math.pi])
        got = spectrum_table(m, omegas, kind="aliased", step_h=step_h).values
        assert np.max(np.abs(got / self._reference(m, omegas, step_h) - 1)) <= 1e-9


class TestFourierConsistency:
    def test_ou_classical_pair(self, ou_model):
        rep = fourier_consistency_check(ou_model, (0.0, 1.0, 5.0))
        assert rep["max_rel_dev"] < 1e-6
        assert rep["passed"]

    @pytest.mark.parametrize("H", [0.3, 0.7])
    def test_car1_fractional(self, H):
        rep = fourier_consistency_check(car1(H), (0.0, 1.0, 5.0))
        assert rep["max_rel_dev"] < 1e-4

    def test_carfima_2_H_1(self):
        m = model_from_eigenvalues([-1.0, -2.0], q=1, beta=(0.5,), H=0.3)
        rep = fourier_consistency_check(m, (0.0, 1.0, 5.0))
        assert rep["max_rel_dev"] < 1e-4

    def test_carma_reference_used_at_half(self, ou_model):
        rep = fourier_consistency_check(ou_model, (0.0,))
        assert rep["acf"][0] == pytest.approx(acf_carma(ou_model, 0.0))


class TestSpectrumTable:
    def test_continuous_table(self):
        t = spectrum_table(car1(0.3), np.linspace(0, 3, 7))
        assert t.kind == "continuous"
        assert np.all(t.values >= 0)
        with pytest.raises(DomainError):
            spectrum_table(car1(0.3), [0.5, math.nan])

    def test_aliased_table_and_csv(self, tmp_path):
        t = spectrum_table(car1(0.7), np.linspace(-3, 3, 9), kind="aliased",
                           step_h=0.5, K=32)
        assert t.step_h == 0.5
        f = tmp_path / "spec.csv"
        t.to_csv(f)
        rows = f.read_text().strip().splitlines()
        assert rows[0] == "omega,f,kind,h,K"
        assert len(rows) == 10
        cells = rows[1].split(",")
        assert float(cells[0]) == t.omegas[0]
        assert float(cells[1]) == t.values[0]

    def test_aliased_table_matches_pointwise_across_row_blocks(self):
        # 1100 frequencies span several passes of the alias sum; checking
        # every row covers both sides of each block boundary
        m = model_from_eigenvalues([-1.0, -2.0], q=1, beta=(0.5,), H=0.3, sigma=1.2)
        omegas = np.linspace(-math.pi, math.pi, 1100)
        t = spectrum_table(m, omegas, kind="aliased", step_h=0.5, K=32)
        point = [_aliased(m, w, 0.5, K=32) for w in omegas]
        assert t.values == pytest.approx(point, rel=1e-12)

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), step_h=st.sampled_from([0.1, 0.5, 1.0, 4.0]))
    def test_aliased_table_and_pointwise_routes_agree(self, seed, step_h):
        # same values, and the same bracket policy: the table raises exactly
        # when some frequency's bracket is loose
        m = random_stable_model(np.random.default_rng(seed))
        omegas = np.linspace(-math.pi, math.pi, 9)
        rows = [_raw(m, w, step_h) for w in omegas]
        if any(math.isfinite(value) and width > DEFAULT_BRACKET_RTOL * value
               for value, width in rows):
            with pytest.raises(TailBoundTooLooseError):
                spectrum_table(m, omegas, kind="aliased", step_h=step_h)
        else:
            t = spectrum_table(m, omegas, kind="aliased", step_h=step_h)
            assert t.values == pytest.approx([value for value, _ in rows], rel=1e-12)

    def test_aliased_table_rejects_nonstationary(self):
        with pytest.raises(DomainError):
            spectrum_table(car1(0.5, a1=0.5), [0.5], kind="aliased", step_h=1.0)

    def test_negative_values_rejected(self):
        for value in (-1.0, math.nan):
            with pytest.raises(DomainError):
                SpectrumTable(omegas=np.array([0.0]), values=np.array([value]),
                              kind="continuous")
