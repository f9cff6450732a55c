import math

import numpy as np
import pytest
from scipy.integrate import quad

from carfima import (
    DomainError,
    TailBoundTooLooseError,
    acf_carma,
    aliased_spectrum,
    aliased_spectrum_detail,
    autocovariance,
    fourier_consistency_check,
    spectral_density,
    spectrum_table,
)
from carfima.spectrum import SpectrumTable

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


class TestAliasedSpectrum:
    def test_even_symmetry(self):
        m = car1(0.7)
        for w in (0.3, 1.2, 3.0):
            assert aliased_spectrum(m, w, 1.0) == pytest.approx(
                aliased_spectrum(m, -w, 1.0), rel=1e-14)

    def test_ou_matches_discrete_acf_sum(self, ou_model):
        # f_h(w) = (1/2pi) sum_j gamma(jh) e^{-ijw}; OU gamma decays fast
        h = 1.0
        js = np.arange(-2000, 2001)
        gam = 0.5 * np.exp(-np.abs(js) * h)
        for w in (0.3, 1.0, 2.5):
            direct = float(np.sum(gam * np.cos(js * w))) / (2 * math.pi)
            detail = aliased_spectrum_detail(ou_model, w, h)
            assert abs(detail.value - direct) <= detail.bracket_width + 1e-9 * direct

    def test_doubling_K_stays_within_bracket(self):
        m = car1(0.7)
        d8 = aliased_spectrum_detail(m, 0.5, 1.0, K=8, bracket_rtol=1.0)
        d16 = aliased_spectrum_detail(m, 0.5, 1.0, K=16, bracket_rtol=1.0)
        assert abs(d16.value - d8.value) < d8.bracket_width

    def test_variance_identity(self):
        # integral of f_h over [-pi, pi] equals gamma(0); 0 stays an endpoint
        for H in (0.3, 0.7):
            m = car1(H)
            val, _ = quad(lambda w: aliased_spectrum(m, w, 1.0), 0.0, math.pi,
                          limit=200)
            val *= 2
            g0 = autocovariance(m, [0.0]).values[0]
            detail = aliased_spectrum_detail(m, 1.0, 1.0)
            tol = 2 * math.pi * detail.bracket_width + 1e-4 * g0
            assert abs(val - g0) <= tol

    def test_tail_bound_too_loose_raises(self):
        with pytest.raises(TailBoundTooLooseError):
            aliased_spectrum(car1(0.25), 1.0, 1.0, K=1, bracket_rtol=1e-6)

    def test_loose_bracket_raises_by_both_routes(self):
        # at h = 1000 the tail bracket is 93% of the value at omega = 0.5
        with pytest.raises(TailBoundTooLooseError):
            aliased_spectrum(car1(0.7), 0.5, 1000.0)
        with pytest.raises(TailBoundTooLooseError):
            spectrum_table(car1(0.7), [0.1, 0.5], kind="aliased", step_h=1000.0)

    def test_omega_range_enforced(self):
        with pytest.raises(DomainError):
            aliased_spectrum(car1(0.7), 4.0, 1.0)

    def test_inf_at_zero_for_long_memory(self):
        d = aliased_spectrum_detail(car1(0.7), 0.0, 1.0)
        assert d.value == math.inf


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

    def test_negative_values_rejected(self):
        with pytest.raises(DomainError):
            SpectrumTable(omegas=np.array([0.0]), values=np.array([-1.0]),
                          kind="continuous")
