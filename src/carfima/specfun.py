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

Every function here takes a scalar or an array of arguments; u_kernel
takes one eigenvalue and a lag array.  Each regime runs as one numpy pass
over the elements that fall in it.  Its series or recursion runs term by
term over a shrinking set of active elements (`_per_element`): an element
leaves the set at the term where a loop over it alone would stop, and no
(elements x terms) array is formed.  A scalar argument runs the same code
as a 1-element array.
"""

from __future__ import annotations

import numpy as np
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
_MAX_ASYM_TERMS = 79
_MAX_KERNEL_ORDER = 69  # odd orders 1, 3, ..., 69 of the kernel expansion


def _flat(x) -> np.ndarray:
    """x as a 1-d complex array."""
    return np.asarray(x, dtype=complex).reshape(-1)


def _shaped(out: np.ndarray, like):
    """A complex for a scalar argument, otherwise out in the argument's shape."""
    shape = np.shape(like)
    return complex(out[0]) if shape == () else out.reshape(shape)


def complex_power(base, exponent: float):
    """base**exponent via the principal logarithm, Im(Log) in (-pi, pi].

    Takes a scalar or an array of bases; 0 to a positive power is 0.
    """
    b = _flat(base)
    zero = b == 0
    if exponent <= 0 and np.any(zero):
        raise DomainError("0 cannot be raised to a nonpositive exponent")
    out = np.zeros(len(b), dtype=complex)
    out[~zero] = np.exp(exponent * np.log(b[~zero]))
    return _shaped(out, base)


def _per_element(step, state: tuple, n_max: int, what: str) -> np.ndarray:
    """Run step(n, *state) for n = 1 .. n_max - 1 over the active elements.

    state holds one 1-d array per loop variable, the argument first.  step
    returns (state, done, value): the updated variables, which elements stop
    at this n, and their results.  Stopped elements leave every state
    array, so each element stops at the n where a loop over it alone would
    stop.  An element still active after n_max - 1 steps raises
    ConvergenceError.
    """
    out = np.empty(len(state[0]), dtype=complex)
    idx = np.arange(len(out))
    for n in range(1, n_max):
        if not idx.size:
            return out
        state, done, value = step(n, *state)
        if done.any():
            out[idx[done]] = value[done]
            keep = ~done
            idx = idx[keep]
            state = tuple(s[keep] for s in state)
    if idx.size:
        raise ConvergenceError(f"{what} did not converge at argument {state[0][0]}")
    return out


def _series_kummer(a: float, z) -> np.ndarray:
    """P(a, z) = z^a e^{-z} sum_n z^n / (a (a+1) ... (a+n)) / Gamma(a)."""
    z = _flat(z)

    def step(n, z, term, total):
        term = term * (z / (a + n))
        total = total + term
        return (z, term, total), np.abs(term) < 1e-17 * np.abs(total), total

    first = np.full(len(z), 1.0 / a, dtype=complex)
    total = _per_element(step, (z, first, first), _MAX_SERIES_TERMS,
                         f"Kummer series for P({a}, z)")
    return complex_power(z, a) * np.exp(-z) / gamma_fn(a) * total


def _series_direct(a: float, z) -> np.ndarray:
    """P(a, z) = z^a sum_k (-z)^k / (k! (a+k)) / Gamma(a)."""
    z = _flat(z)

    def step(k, w, t, total):
        t = t * (w / k)
        total = total + t / (a + k)
        return (w, t, total), np.abs(t) / (a + k) < 1e-17 * np.abs(total), total

    ones = np.ones(len(z), dtype=complex)
    total = _per_element(step, (-z, ones, ones / a), _MAX_SERIES_TERMS,
                         f"Taylor series for P({a}, -w) in w")
    return complex_power(z, a) * total / gamma_fn(a)


def _upper_cf_factor(a: float, z) -> np.ndarray:
    """F with Gamma(a, z) = e^{-z} z^a F, by modified Lentz recursion."""
    z = _flat(z)
    tiny = 1e-300

    def step(i, z, b, c, d, f):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = d * c
        f = f * delta
        return (z, b, c, d, f), np.abs(delta - 1.0) < 1e-15, f

    b = z + 1.0 - a
    d = np.full(len(z), 1.0 / tiny, dtype=complex)
    np.divide(1.0, b, out=d, where=b != 0)
    c = np.full(len(z), 1.0 / tiny, dtype=complex)
    return _per_element(step, (z, b, c, d, d), _MAX_CF_ITER,
                        f"continued fraction for Gamma({a}, z)")


def _upper_asym_factor(a: float, z) -> np.ndarray:
    """S with Gamma(a, z) ~ z^{a-1} e^{-z} S; truncated at the smallest term."""
    z = _flat(z)

    def step(k, z, s, term, prev):
        term = term * ((a - k) / z)
        mag = np.abs(term)
        grow = mag > prev
        s_new = s + term
        done = grow | (mag < 1e-17 * np.abs(s_new)) | (k == _MAX_ASYM_TERMS)
        return (z, s_new, term, mag), done, np.where(grow, s, s_new)

    ones = np.ones(len(z), dtype=complex)
    return _per_element(step, (z, ones, ones, np.ones(len(z))), _MAX_ASYM_TERMS + 1,
                        f"asymptotic series for Gamma({a}, z)")


def _pick_method(z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks (series, continued_fraction, asymptotic) over the elements of z."""
    z = _flat(z)
    az = np.abs(z)
    series = (az <= SERIES_MAX_ABS) & (az - np.abs(z.real) <= SERIES_MAX_CANCEL)
    asym = ~series & (az > ASYM_MIN_ABS)
    return series, ~series & ~asym, asym


def _exp_or_zero(v: np.ndarray) -> np.ndarray:
    """e^v, with 0 where Re v <= -745 and e^v underflows."""
    out = np.zeros(len(v), dtype=complex)
    live = v.real > -745.0
    out[live] = np.exp(v[live])
    return out


def _exp_p_product(a: float, v):
    """e^v P(a, v) for Re v <= 0, stable for all |v|."""
    vs = _flat(v)
    series, cf, asym = _pick_method(vs)
    series &= vs != 0
    direct = series & (vs.real < 0)
    kummer = series & ~direct
    out = np.zeros(len(vs), dtype=complex)
    out[direct] = np.exp(vs[direct]) * _series_direct(a, vs[direct])
    out[kummer] = np.exp(vs[kummer]) * _series_kummer(a, vs[kummer])
    x = vs[cf]
    out[cf] = _exp_or_zero(x) - complex_power(x, a) * _upper_cf_factor(a, x) / gamma_fn(a)
    x = vs[asym]
    out[asym] = (_exp_or_zero(x)
                 - complex_power(x, a - 1.0) * _upper_asym_factor(a, x) / gamma_fn(a))
    return _shaped(out, v)


def _exp_q_product(a: float, w):
    """e^w (1 - P(a, w)) = e^w Gamma(a, w)/Gamma(a) for Re w >= 0.

    Only polynomially growing quantities are formed, so this stays finite
    for arbitrarily large Re w.
    """
    ws = _flat(w)
    aw = np.abs(ws)
    zero = ws == 0
    kummer = ~zero & (aw <= a + 1.0)
    cf = ~zero & ~kummer & (aw <= ASYM_MIN_ABS)
    asym = ~zero & ~kummer & ~cf
    out = np.ones(len(ws), dtype=complex)
    x = ws[kummer]
    out[kummer] = np.exp(x) * (1.0 - _series_kummer(a, x))
    x = ws[cf]
    out[cf] = complex_power(x, a) * _upper_cf_factor(a, x) / gamma_fn(a)
    x = ws[asym]
    out[asym] = complex_power(x, a - 1.0) * _upper_asym_factor(a, x) / gamma_fn(a)
    return _shaped(out, w)


def _kernel_expansion(a: float, z: np.ndarray, h: np.ndarray, pow_sum: complex) -> np.ndarray:
    """u for |z| > U_KERNEL_ASYM_SWITCH: (l^{1-a} + (-l)^{1-a}) e^z plus the
    odd-order terms of the Gamma(a, -z) and Gamma(a, z) tails, each element
    truncated at its smallest term."""
    coefs = [1.0]  # coefs[k] = (a-1)(a-2)...(a-k)
    for k in range(1, _MAX_KERNEL_ORDER + 1):
        coefs.append(coefs[-1] * (a - k))

    def step(n, z, zk, s, prev):
        k = 2 * n - 1
        zk = zk * z if k == 1 else zk * z * z
        term = coefs[k] / zk
        mag = np.abs(term)
        grow = mag > prev
        s_new = s + term
        done = grow | (mag < 1e-18 * np.abs(s_new)) | (k == _MAX_KERNEL_ORDER)
        return (z, zk, s_new, mag), done, np.where(grow, s, s_new)

    ones = np.ones(len(z), dtype=complex)
    s = _per_element(step, (z, ones, np.zeros(len(z), dtype=complex),
                            np.full(len(z), np.inf)),
                     (_MAX_KERNEL_ORDER + 3) // 2, "kernel expansion")
    return pow_sum * _exp_or_zero(z) + -2.0 * h ** (a - 1.0) / gamma_fn(a) * s


def u_kernel(H: float, lam, h):
    """Kernel of the autocovariance eigen-expansion at one eigenvalue l.

    u = 2(-l)^{1-2H} cosh(l h) + l^{1-2H} e^{l h} P(2H, l h)
        - (-l)^{1-2H} e^{-l h} P(2H, -l h)

    assembled as (-l)^{1-2H} e^{l h} + l^{1-2H} [e^{l h} P(2H, l h)] +
    (-l)^{1-2H} [e^{-l h} (1 - P(2H, -l h))] so that no factor overflows.

    For |l h| > 50 the expansion through the gamma-tail odd terms is used.
    h is a lag or an array of lags; a lag gives a complex, an array gives
    a complex array of its shape.
    """
    if not 0.0 < H < 1.0:
        raise DomainError(f"H must lie in (0, 1), got {H}")
    lam = complex(lam)
    if lam.real >= 0:
        raise DomainError(f"Re(lambda) must be negative, got {lam}")
    hs = np.asarray(h, dtype=float).reshape(-1)
    if not np.all(hs >= 0):
        raise DomainError(f"h must be >= 0, got {hs[~(hs >= 0)][0]}")
    a = 2.0 * H
    z = lam * hs
    pow_neg = complex_power(-lam, 1.0 - a)
    pow_pos = complex_power(lam, 1.0 - a)
    far = np.abs(z) > U_KERNEL_ASYM_SWITCH
    out = np.empty(len(z), dtype=complex)
    out[far] = _kernel_expansion(a, z[far], hs[far], pow_neg + pow_pos)
    x = z[~far]
    out[~far] = (pow_neg * np.exp(x) + pow_pos * _exp_p_product(a, x)
                 + pow_neg * _exp_q_product(a, -x))
    return _shaped(out, h)
