"""Command-line interface: tables, paths, fits and the verification suite.

Exit codes: 0 success, 1 validation error (bad arguments, files, or model),
2 numerical failure inside a computation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .acf import acf_carma, acf_closed_form, acf_integral_form, acf_route
from .acf import autocovariance, vstar
from .errors import CarfimaError, DomainError
from .estimate import fit
from .model import CarfimaModel, prepare, stationary_mean
from .fgn import MAX_GRID_POINTS
from .simulate import SamplePath, empirical_acf, exact_gaussian_paths
from .simulate import read_path_csv, simulate_exact, simulate_state_euler
from .spectrum import DEFAULT_ALIAS_K, fourier_consistency_check, spectrum_table


def _parse_lag_grid(spec: str) -> np.ndarray:
    try:
        a, b, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise DomainError(f"bad lag grid {spec!r}, expected a:b:step") from exc
    if not all(map(math.isfinite, (a, b, step))) or step <= 0 or b < a:
        raise DomainError(f"bad lag grid {spec!r}")
    span = (b - a) / step  # inf when the point count overflows
    if span >= MAX_GRID_POINTS:
        raise DomainError(f"bad lag grid {spec!r}: more than {MAX_GRID_POINTS} points")
    return a + step * np.arange(int(math.floor(span + 1e-9)) + 1)


def _parse_omega_grid(spec: str) -> np.ndarray:
    try:
        a, b, count = spec.split(":")
        a, b, count = float(a), float(b), int(count)
    except ValueError as exc:
        raise DomainError(f"bad omega grid {spec!r}, expected a:b:count") from exc
    if not (math.isfinite(a) and math.isfinite(b)) or count < 1 or b < a:
        raise DomainError(f"bad omega grid {spec!r}")
    if count > MAX_GRID_POINTS:
        raise DomainError(f"bad omega grid {spec!r}: more than {MAX_GRID_POINTS} points")
    return np.linspace(a, b, count)


def _load_model(path) -> CarfimaModel:
    try:
        with open(path, encoding="utf-8") as fh:
            return CarfimaModel.from_dict(json.load(fh))
    except FileNotFoundError as exc:
        raise DomainError(f"model file not found: {path}") from exc
    # ValueError covers bad JSON and bytes that are not UTF-8
    except (ValueError, KeyError, TypeError) as exc:
        raise DomainError(f"malformed model JSON in {path}: {exc}") from exc


def _cmd_acf(args) -> int:
    model = _load_model(args.model)
    lags = _parse_lag_grid(args.lags)
    table = autocovariance(model, lags, method=args.method)
    table.to_csv(args.out)
    print(f"wrote {len(lags)} lags to {args.out} (method={table.method})")
    return 0


def _cmd_spectrum(args) -> int:
    model = _load_model(args.model)
    omegas = _parse_omega_grid(args.omegas)
    kind = "aliased" if args.aliased else "continuous"
    table = spectrum_table(model, omegas, kind=kind, step_h=args.h, K=args.K)
    table.to_csv(args.out)
    print(f"wrote {len(omegas)} frequencies to {args.out} (kind={kind})")
    return 0


def _cmd_simulate(args) -> int:
    model = _load_model(args.model)
    if args.method == "exact":
        path = simulate_exact(model, args.n, args.h, args.seed)
    else:
        path = simulate_state_euler(model, args.n, args.h, args.substeps, args.seed)
    path.to_csv(args.out, model=model)
    print(f"wrote {path.n} samples to {args.out} (method={path.method})")
    return 0


def _cmd_fit(args) -> int:
    values, h = read_path_csv(args.path)
    sample = SamplePath(values=values, step_h=h, model_hash="", seed=args.seed,
                        method="exact_gaussian")
    init = _load_model(args.init) if args.init else None
    result = fit(sample, args.p, args.q, init=init, seed=args.seed,
                 n_starts=args.starts, K=args.K)
    with open(args.out, "w") as fh:
        fh.write(result.to_json())
    print(f"fit: H={result.model_hat.H:.6g} sigma={result.model_hat.sigma:.6g} "
          f"objective={result.objective_value:.6g} converged={result.converged}")
    return 0


def _cmd_verify(args) -> int:
    model = _load_model(args.model)
    if args.mc_paths < 2:
        raise DomainError(f"--mc-paths must be >= 2, got {args.mc_paths}")
    parts = prepare(model)
    if not parts.stationary:
        raise DomainError("verify requires a stationary model")
    lags = _parse_lag_grid(args.lags)
    checks = []

    V = vstar(model)
    resid = float(np.max(np.abs(
        parts.A @ V + V @ parts.A.T
        + model.sigma**2 * np.outer(parts.delta_p, parts.delta_p))))
    checks.append(("lyapunov_residual", resid, 1e-8 * model.sigma**2))

    route = acf_route(model)
    if route == "quadrature":
        why = "clustered" if parts.distinct else "repeated"
        print(f"note: {why} eigenvalues, closed-form route not checked")
    else:
        # acf_carma cross-checks the matrix and eigen forms internally
        name, fn = {"carma_exact": ("carma_vs_quadrature", acf_carma),
                    "closed_form": ("closed_vs_quadrature", acf_closed_form)}[route]
        ref = fn(model, lags)
        quadv = acf_integral_form(model, lags)
        devs = np.abs(ref - quadv) / np.maximum(np.abs(ref), 1e-10)
        checks.append((name, devs.max(), args.tol))

    rep = fourier_consistency_check(model, lags[:4])
    checks.append(("fourier_vs_acf", rep["max_rel_dev"], rep["tolerance"]))

    paths = exact_gaussian_paths(model, args.mc_n, 1.0, args.mc_paths, seed=args.seed)
    max_lag = min(20, args.mc_n - 1)
    gam = autocovariance(model, np.arange(max_lag + 1) * 1.0)
    emp = empirical_acf(paths, max_lag, mean=stationary_mean(model))
    se = emp.std(axis=0, ddof=1) / math.sqrt(args.mc_paths)
    z = np.abs(emp.mean(axis=0) - gam.values) / se
    exceed = int(np.sum(z > 3.0))
    checks.append(("monte_carlo_acf_exceedances", float(exceed), 2.0))

    failed = 0
    lines = []
    for name, dev, tol in checks:
        dev, tol = float(dev), float(tol)
        ok = bool(dev <= tol)
        failed += not ok
        lines.append({"check": name, "deviation": dev, "tolerance": tol, "passed": ok})
        print(f"{'PASS' if ok else 'FAIL'} {name}: deviation={dev:.6g} tolerance={tol:.6g}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"model": model.to_dict(), "checks": lines,
                       "passed": failed == 0}, fh, indent=2)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="carfima",
                                     description="CARFIMA(p, H, q) process toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_acf = sub.add_parser("acf", help="write an autocovariance table CSV")
    p_acf.add_argument("--model", required=True)
    p_acf.add_argument("--out", required=True)
    p_acf.add_argument("--lags", default="0:10:0.5")
    p_acf.add_argument("--method", default="auto",
                       choices=["auto", "closed_form", "quadrature", "carma_exact"])
    p_acf.set_defaults(func=_cmd_acf)

    p_sp = sub.add_parser("spectrum", help="write a spectral density table CSV")
    p_sp.add_argument("--model", required=True)
    p_sp.add_argument("--out", required=True)
    p_sp.add_argument("--omegas", default="0:3.141592653589793:129")
    p_sp.add_argument("--aliased", action="store_true")
    p_sp.add_argument("--h", type=float, default=1.0)
    p_sp.add_argument("--K", type=int, default=DEFAULT_ALIAS_K)
    p_sp.set_defaults(func=_cmd_spectrum)

    p_sim = sub.add_parser("simulate", help="simulate a sampled path to CSV")
    p_sim.add_argument("--model", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--h", type=float, default=1.0)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--method", default="exact", choices=["exact", "euler"])
    p_sim.add_argument("--substeps", type=int, default=8)
    p_sim.set_defaults(func=_cmd_simulate)

    p_fit = sub.add_parser("fit", help="Whittle fit from a path CSV")
    p_fit.add_argument("--path", required=True)
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--p", type=int, required=True)
    p_fit.add_argument("--q", type=int, default=0)
    p_fit.add_argument("--K", type=int, default=DEFAULT_ALIAS_K)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--starts", type=int, default=8)
    p_fit.add_argument("--init", default=None)
    p_fit.set_defaults(func=_cmd_fit)

    p_ver = sub.add_parser("verify", help="run the cross-route consistency suite")
    p_ver.add_argument("--model", required=True)
    p_ver.add_argument("--out", default=None)
    p_ver.add_argument("--lags", default="0:5:0.5")
    p_ver.add_argument("--tol", type=float, default=1e-6)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--mc-paths", type=int, default=2000)
    p_ver.add_argument("--mc-n", type=int, default=256)
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CarfimaError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
