"""Incomplete gamma functions with complex arguments and the covariance kernel.

The autocovariance eigen-expansion needs P(a, z), the normalized lower
incomplete gamma integrated along the radial line from 0 to z, for z = l*h
and z = -l*h with Re(l) < 0.  Three evaluation regimes cover the plane:

* power series for moderate |z| away from the imaginary axis, where the
  cancellation amplification exp(|z| - |Re z|) stays harmless;
* a modified-Lentz continued fraction in the sector near the imaginary
  axis (far from the branch cut on the negative reals);
* the divergent asymptotic series of Gamma(a, z) for large |z|.

The kernel oracle is 30-digit mpmath: the tests check the kernel and the
stable products e^{v} P(a, v) and e^{w} (1 - P(a, w)) against
mpmath.gammainc.

u_{H,l}(h) combines exp(+-l h) with P(2H, +-l h).  The growing factor
exp(-l h) is never formed on its own: it is absorbed into the continued
fraction / asymptotic representation of Gamma(2H, -l h), so the kernel is
overflow-safe for every h.  Beyond |l h| = 50 the kernel switches to its
own asymptotic expansion (the odd-order terms of the two gamma tails).
"""

from __future__ import annotations

import cmath
import math

from scipy.special import gamma as gamma_fn

from .errors import ConvergenceError, DomainError

# Series are trusted while |z| <= SERIES_MAX_ABS and the cancellation
# exponent |z| - |Re z| stays below SERIES_MAX_CANCEL (roundoff blow-up
# exp(10)*eps ~ 5e-12, inside the 1e-10 oracle budget).
SERIES_MAX_ABS = 40.0
SERIES_MAX_CANCEL = 10.0
ASYM_MIN_ABS = 40.0

# |l h| above which u_kernel uses its large-argument expansion.
U_KERNEL_ASYM_SWITCH = 50.0

_MAX_SERIES_TERMS = 700
_MAX_CF_ITER = 20000


def complex_power(base, exponent: float) -> complex:
    """base**exponent via the principal logarithm, Im(Log) in (-pi, pi]."""
    base = complex(base)
    if base == 0:
        if exponent > 0:
            return 0j
        raise DomainError("0 cannot be raised to a nonpositive exponent")
    return cmath.exp(exponent * cmath.log(base))


def _series_kummer(a: float, z: complex) -> tuple[complex, int]:
    """P(a, z) = z^a e^{-z} sum_n z^n / (a (a+1) ... (a+n)) / Gamma(a)."""
    term = 1.0 / a
    total = term
    for n in range(1, _MAX_SERIES_TERMS):
        term *= z / (a + n)
        total += term
        if abs(term) < 1e-17 * abs(total):
            prefactor = complex_power(z, a) * cmath.exp(-z) / gamma_fn(a)
            return prefactor * total, n
    raise ConvergenceError(f"Kummer series for P({a}, {z}) did not converge")


def _series_direct(a: float, z: complex) -> tuple[complex, int]:
    """P(a, z) = z^a sum_k (-z)^k / (k! (a+k)) / Gamma(a)."""
    w = -z
    t = 1.0 + 0j
    total = 1.0 / a
    for k in range(1, _MAX_SERIES_TERMS):
        t *= w / k
        total += t / (a + k)
        if abs(t) / (a + k) < 1e-17 * abs(total):
            return complex_power(z, a) * total / gamma_fn(a), k
    raise ConvergenceError(f"Taylor series for P({a}, {z}) did not converge")


def _upper_cf_factor(a: float, z: complex) -> tuple[complex, int]:
    """F with Gamma(a, z) = e^{-z} z^a F, by modified Lentz recursion."""
    tiny = 1e-300
    b = z + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    f = d
    for i in range(1, _MAX_CF_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        f *= delta
        if abs(delta - 1.0) < 1e-15:
            return f, i
    raise ConvergenceError(f"continued fraction for Gamma({a}, {z}) stalled")


def _upper_asym_factor(a: float, z: complex) -> tuple[complex, int]:
    """S with Gamma(a, z) ~ z^{a-1} e^{-z} S; truncated at the smallest term."""
    s = 1.0 + 0j
    term = 1.0 + 0j
    prev = 1.0
    for k in range(1, 80):
        term *= (a - k) / z
        mag = abs(term)
        if mag > prev:
            return s, k - 1
        s += term
        prev = mag
        if mag < 1e-17 * abs(s):
            return s, k
    return s, 79


def _pick_method(z: complex) -> str:
    az = abs(z)
    if az <= SERIES_MAX_ABS and az - abs(z.real) <= SERIES_MAX_CANCEL:
        return "series"
    if az > ASYM_MIN_ABS:
        return "asymptotic"
    return "continued_fraction"


def _exp_p_product(a: float, v: complex) -> complex:
    """e^v P(a, v) for Re v <= 0, stable for all |v|."""
    if v == 0:
        return 0j
    method = _pick_method(v)
    if method == "series":
        value, _ = _series_direct(a, v) if v.real < 0 else _series_kummer(a, v)
        return cmath.exp(v) * value
    ev = cmath.exp(v) if v.real > -745.0 else 0j
    if method == "continued_fraction":
        f, _ = _upper_cf_factor(a, v)
        return ev - complex_power(v, a) * f / gamma_fn(a)
    s, _ = _upper_asym_factor(a, v)
    return ev - complex_power(v, a - 1.0) * s / gamma_fn(a)


def _exp_q_product(a: float, w: complex) -> complex:
    """e^w (1 - P(a, w)) = e^w Gamma(a, w)/Gamma(a) for Re w >= 0.

    Only polynomially growing quantities are formed, so this stays finite
    for arbitrarily large Re w.
    """
    if w == 0:
        return 1.0 + 0j
    if abs(w) <= a + 1.0:
        value, _ = _series_kummer(a, w)
        return cmath.exp(w) * (1.0 - value)
    if abs(w) <= ASYM_MIN_ABS:
        f, _ = _upper_cf_factor(a, w)
        return complex_power(w, a) * f / gamma_fn(a)
    s, _ = _upper_asym_factor(a, w)
    return complex_power(w, a - 1.0) * s / gamma_fn(a)


def u_kernel(H: float, lam, h: float) -> complex:
    """Scalar kernel of the autocovariance eigen-expansion.

    u = 2(-l)^{1-2H} cosh(l h) + l^{1-2H} e^{l h} P(2H, l h)
        - (-l)^{1-2H} e^{-l h} P(2H, -l h)

    assembled as (-l)^{1-2H} e^{l h} + l^{1-2H} [e^{l h} P(2H, l h)] +
    (-l)^{1-2H} [e^{-l h} (1 - P(2H, -l h))] so that no factor overflows.

    For |l h| > 50 the expansion through the gamma-tail odd terms is used.
    """
    if not 0.0 < H < 1.0:
        raise DomainError(f"H must lie in (0, 1), got {H}")
    lam = complex(lam)
    if lam.real >= 0:
        raise DomainError(f"Re(lambda) must be negative, got {lam}")
    if h < 0:
        raise DomainError(f"h must be >= 0, got {h}")
    a = 2.0 * H
    z = lam * h
    pow_neg = complex_power(-lam, 1.0 - a)
    if abs(z) <= U_KERNEL_ASYM_SWITCH:
        pow_pos = complex_power(lam, 1.0 - a)
        return (
            pow_neg * cmath.exp(z)
            + pow_pos * _exp_p_product(a, z)
            + pow_neg * _exp_q_product(a, -z)
        )
    pow_pos = complex_power(lam, 1.0 - a)
    expz = cmath.exp(z) if z.real > -745.0 else 0j
    head = (pow_neg + pow_pos) * expz
    # odd-order terms of Gamma(a, -z) minus Gamma(a, z) tails
    c = 1.0
    zk = 1.0 + 0j
    s = 0j
    prev = math.inf
    for k in range(1, 70):
        c *= a - k
        zk *= z
        if k % 2 == 1:
            term = c / zk
            mag = abs(term)
            if mag > prev:
                break
            s += term
            prev = mag
            if mag < 1e-18 * abs(s):
                break
    tail = -2.0 * h ** (a - 1.0) / gamma_fn(a) * s
    return head + tail
