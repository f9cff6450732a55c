"""mpmath reference autocovariances, cached in reference_acf.json.

gamma(h) = 2 int_0^inf f_Y(w) cos(w h) dw with f_Y from oracle.py's
formula, in 20-digit arithmetic: mp.quad over [0, pi/h] (split at the
moduli of the AR roots) and mp.quadosc beyond.  One quadosc from 0 loses
about 1e-3 at H = 0.7, h = 1; the split form agrees with the program's
closed form to about 1e-13.

Recompute the cache (about a minute on one core) with

    python3 bench/reference.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import specs

CACHE = Path(__file__).with_name("reference_acf.json")
DPS = 20


def acf_mp(m, lag: float):
    """Reference autocovariance at one lag, as an mpf."""
    import mpmath as mp  # only needed to rebuild the cache

    with mp.workdps(DPS):
        H = mp.mpf(m["H"])
        h = mp.mpf(lag)
        alpha = [mp.mpf(a) for a in m["alpha"]]
        beta = [mp.mpf(b) for b in m["beta"]]
        p = m["p"]
        C = mp.mpf(m["sigma"]) ** 2 * mp.gamma(2 * H + 1) * mp.sin(mp.pi * H) / (2 * mp.pi)

        def f(w):
            z = mp.mpc(0, w)
            a = z**p - sum(alpha[j] * z ** (j - 1) for j in range(1, p + 1))
            b = 1 + sum(beta[j - 1] * z**j for j in range(1, len(beta) + 1))
            return C * w ** (1 - 2 * H) * abs(b) ** 2 / abs(a) ** 2

        roots = np.roots([1.0] + [-a for a in m["alpha"][:0:-1]])
        scales = sorted({float(abs(r)) for r in roots} | {float(abs(r.imag)) for r in roots
                                                          if r.imag != 0})
        if h == 0:
            pts = [mp.mpf(0)] + [mp.mpf(s) for s in scales] + [mp.inf]
            return 2 * mp.quad(f, pts)
        half = mp.pi / h
        pts = [mp.mpf(0)] + [mp.mpf(s) for s in scales if s < half] + [half]
        g = lambda w: f(w) * mp.cos(w * h)  # noqa: E731
        return 2 * (mp.quad(g, pts) + mp.quadosc(g, [half, mp.inf], omega=h))


def build() -> dict:
    entries = []
    for name, m, lags in specs.reference_points():
        values = [float(acf_mp(m, lag)) for lag in lags]
        entries.append({"name": name, "model": m, "lags": lags, "acf": values})
        print(f"{name}: {len(lags)} lags", flush=True)
    return {"dps": DPS, "entries": entries}


def load() -> dict:
    """{(name, lag): value}, after checking the cache matches specs.py."""
    data = json.loads(CACHE.read_text())
    table = {}
    for e in data["entries"]:
        for lag, val in zip(e["lags"], e["acf"]):
            table[(e["name"], lag)] = (e["model"], val)
    for name, m, lags in specs.reference_points():
        for lag in lags:
            if table.get((name, lag), (None,))[0] != m:
                raise SystemExit(f"reference_acf.json is stale at {name}, lag {lag}: "
                                 "run python3 bench/reference.py")
    return {key: val for key, (_, val) in table.items()}


if __name__ == "__main__":
    data = build()
    entries = ",\n".join("  " + json.dumps(e) for e in data["entries"])
    CACHE.write_text(f'{{"dps": {data["dps"]}, "entries": [\n{entries}\n]}}\n')
    print(f"wrote {CACHE}")
