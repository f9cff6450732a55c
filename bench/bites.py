"""Show that every output check of the benchmark bites.

    python3 bench/bites.py

Each check is fed the program's real output (it must pass) and a
deliberately wrong one (it must fail):

* tables: every ACF table scaled by 1 + 1e-6; the aliased spectrum with
  its alias tail beyond K dropped;
* simulate: exact paths and the Euler path simulated at a wrong H;
* fit: a fit result moved off its optimum, once with its reported
  objective kept and once with the objective recomputed at the new point.

Exits 1 if a real output fails or a wrong one passes.  Takes about 30 s.
"""

import copy
import sys
from dataclasses import replace

import run  # sets the BLAS threads before numpy is imported

run.import_carfima()

import carfima.simulate  # noqa: E402
import oracle  # noqa: E402
import specs  # noqa: E402
import workloads  # noqa: E402

# wrong Hurst exponents for the simulate models
WRONG_H = {"car1_h070": 0.6, "car1_h025": 0.35, "carfima_2_h030_1": 0.4}
EULER_WRONG_H = 0.9


def main() -> int:
    out_dir = run.ROOT / "bench" / "out" / "bites"
    out_dir.mkdir(parents=True, exist_ok=True)
    bad = 0

    def expect(what, wl, label, digest, should_pass):
        nonlocal bad
        errors = wl.check(label, digest)
        ok = (not errors) == should_pass
        bad += not ok
        verdict = "passes" if not errors else f"fails ({len(errors)}: {errors[0]})"
        print(f"{'ok ' if ok else 'BAD'} {what}: {verdict}")

    tables = workloads.Tables(0, out_dir)
    tables.setup()
    for label, fn in tables.cycle():
        if not (label.startswith("acf") or label == "spectrum_aliased"):
            continue
        d = tables.digest(label, fn())
        expect(f"tables {label}", tables, label, d, True)
        if label == "spectrum_aliased":
            m = specs.TABLE_MODELS[specs.table_model(label)]
            dropped = oracle.alias_partial(m, d["x"], float(specs.table_arg(label, "--h")),
                                           int(specs.table_arg(label, "--K")))
            expect(f"tables {label}, tail dropped", tables, label,
                   dict(d, values=dropped), False)
        else:
            expect(f"tables {label} x (1 + 1e-6)", tables, label,
                   dict(d, values=d["values"] * (1 + 1e-6)), False)

    sim = workloads.Simulate(0, out_dir)
    sim.setup()
    for label, fn in sim.cycle():
        expect(f"simulate {label}", sim, label, sim.digest(label, fn()), True)
        if label.startswith("euler"):
            name, wrong_h = specs.EULER_MODEL, EULER_WRONG_H
            out = carfima.simulate.simulate_state_euler(
                replace(sim.models[name], H=wrong_h), specs.SIM_N, specs.SIM_STEP,
                specs.EULER_SUBSTEPS, seed=sim.path_seed["euler"])
        else:
            name = label.removeprefix("exact_")
            wrong_h = WRONG_H[name]
            out = carfima.simulate.exact_gaussian_paths(
                replace(sim.models[name], H=wrong_h), specs.SIM_N, specs.SIM_STEP,
                specs.SIM_PATHS, seed=sim.path_seed[name])
        expect(f"simulate {label} at H = {wrong_h}", sim, label, sim.digest(label, out), False)

    fit = workloads.Fit(0, out_dir)
    fit.setup()
    label, fn = fit.cycle()[0]
    d = fit.digest(label, fn())
    expect(f"fit {label}", fit, label, d, True)
    moved = copy.deepcopy(d)
    moved["model"]["H"] += 0.02
    expect(f"fit {label}, H moved by +0.02, objective kept", fit, label, moved, False)
    name, i = label.removeprefix("fit_").rsplit("_", 1)
    omegas, pgram = oracle.periodogram(fit.paths[(name, int(i))])
    moved["objective"] = oracle.whittle_objective(moved["model"], omegas, pgram,
                                                  specs.FIT_STEP)
    expect(f"fit {label}, H moved by +0.02, objective recomputed", fit, label, moved, False)

    print("all checks bite" if not bad else f"{bad} check(s) did not behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
