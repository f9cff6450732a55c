"""The three closed-loop workloads: inputs, operations and output checks.

Each workload makes its inputs from the seed in setup(), lists one cycle of
operations in cycle(), reduces each output right after its operation to
what the checks need in digest() (outside the timed region), and checks
each digest against values computed apart from the program in check().
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import math
from functools import partial
from pathlib import Path

import numpy as np
from scipy import stats

import carfima.cli
import carfima.estimate
import carfima.simulate
from carfima import CarfimaModel, SamplePath

import oracle
import reference
import specs

# Warm-up calls use inputs from this fixed seed, so set-up costs the same
# on every run whatever --seed is.
WARMUP_SEED = 20090211

# Family-wise false-alarm rate of one operation's lag-0..20 ACF test.
FALSE_ALARM = 1e-6


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


class Simulate:
    """Exact stationary paths (Toeplitz Cholesky) and one state-space Euler path."""

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.models = {name: CarfimaModel.from_dict(m) for name, m in specs.SIM_MODELS.items()}
        self.ref = reference.load()
        m = specs.SIM_MODELS[specs.EULER_MODEL]
        gamma = oracle.SpectralSynthesis(m, specs.SIM_N, specs.SIM_STEP).acf(
            specs.SIM_N + specs.SIM_MAX_LAG)
        self.euler_sd = oracle.known_mean_acf_sd(gamma, specs.SIM_N, specs.SIM_MAX_LAG)

    def setup(self):
        names = list(self.models)
        seeds = _seeds(self.seed, len(names) + 1)
        self.path_seed = dict(zip(names + ["euler"], seeds))
        self._exact(names[0], seed=WARMUP_SEED)
        self._euler(seed=WARMUP_SEED)

    def _exact(self, name, seed=None):
        return carfima.simulate.exact_gaussian_paths(
            self.models[name], specs.SIM_N, specs.SIM_STEP, specs.SIM_PATHS,
            seed=self.path_seed[name] if seed is None else seed)

    def _euler(self, seed=None):
        return carfima.simulate.simulate_state_euler(
            self.models[specs.EULER_MODEL], specs.SIM_N, specs.SIM_STEP,
            specs.EULER_SUBSTEPS, seed=self.path_seed["euler"] if seed is None else seed)

    def cycle(self):
        ops = [(f"exact_{name}", partial(self._exact, name)) for name in self.models]
        return ops + [(f"euler_{specs.EULER_MODEL}", self._euler)]

    def digest(self, label, output):
        values = output.values if label.startswith("euler") else output
        return oracle.known_mean_acf(values, specs.SIM_MAX_LAG)

    def _reference(self, name):
        return np.array([self.ref[(name, float(k) * specs.SIM_STEP)]
                         for k in range(specs.SIM_MAX_LAG + 1)])

    def check(self, label, acf) -> list[str]:
        lags = specs.SIM_MAX_LAG + 1
        if label.startswith("euler"):
            # one path: its sd comes from the Gaussian fourth-moment formula;
            # 8 substeps bias gamma by under 0.5 % of gamma(0) (60 paths),
            # allowed 2 %
            ref = self._reference(specs.EULER_MODEL)
            limit = (stats.norm.isf(FALSE_ALARM / (2 * lags)) * self.euler_sd
                     + 0.02 * ref[0])
            dev = np.abs(acf[0] - ref)
            return [f"lag {k}: |gamma_hat - gamma| = {dev[k]:.4g} > {limit[k]:.4g}"
                    for k in np.flatnonzero(dev > limit)]
        name = label.removeprefix("exact_")
        ref = self._reference(name)
        n_paths = acf.shape[0]
        z = (acf.mean(axis=0) - ref) / (acf.std(axis=0, ddof=1) / math.sqrt(n_paths))
        limit = stats.t.isf(FALSE_ALARM / (2 * lags), n_paths - 1)
        return [f"lag {k}: |z| = {abs(z[k]):.2f} > {limit:.2f}"
                for k in np.flatnonzero(np.abs(z) > limit)]


# Slack of the "no worse than the truth" test and of the local-minimum
# probes, in objective units (the objective is a negative log-likelihood
# up to constants; sampling moves it by about one unit per parameter).
OBJECTIVE_SLACK = 1e-3
# |reported objective - benchmark objective| at the estimate; the program's
# truncated alias sum moves the profiled objective by about 1e-5 here.
OBJECTIVE_TOL = 1e-3
# probe steps around the estimate: H by 0.01, each alpha_j by 2 %
PROBE_H = 0.01
PROBE_ALPHA = 0.02


class Fit:
    """Whittle fits of paths made by the benchmark's own spectral synthesis."""

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.synth = {name: oracle.SpectralSynthesis(m, specs.FIT_N, specs.FIT_STEP)
                      for name, m in specs.FIT_DESIGNS.items()}

    def _sample(self, values) -> SamplePath:
        return SamplePath(values=values, step_h=specs.FIT_STEP, model_hash="",
                          seed=self.seed, method="exact_gaussian")

    def setup(self):
        count = 1 + max(i for _, i in specs.FIT_CYCLE)
        self.paths = {}
        for name, seed in zip(self.synth, _seeds(self.seed, len(self.synth))):
            rng = np.random.default_rng(seed)
            for i, values in enumerate(self.synth[name].paths(rng, count)):
                self.paths[(name, i)] = values
        warm = self.synth[specs.FIT_CYCLE[0][0]].paths(np.random.default_rng(WARMUP_SEED), 1)
        self._fit(specs.FIT_CYCLE[0][0], warm[0])

    def _fit(self, name, values):
        m = specs.FIT_DESIGNS[name]
        return carfima.estimate.fit(self._sample(values), m["p"], m["q"],
                                    n_starts=specs.FIT_STARTS, seed=0)

    def cycle(self):
        return [(f"fit_{name}_{i}", partial(self._fit, name, self.paths[(name, i)]))
                for name, i in specs.FIT_CYCLE]

    def digest(self, label, result):
        return {"model": result.model_hat.to_dict(), "objective": result.objective_value,
                "converged": result.converged, "stationarity_ok": result.stationarity_ok}

    def check(self, label, fit) -> list[str]:
        name, i = label.removeprefix("fit_").rsplit("_", 1)
        truth = specs.FIT_DESIGNS[name]
        omegas, pgram = oracle.periodogram(self.paths[(name, int(i))])

        def q(m):
            return oracle.whittle_objective(m, omegas, pgram, specs.FIT_STEP)

        est = fit["model"]
        q_est, q_true = q(est), q(truth)
        errors = []
        if not (fit["converged"] and fit["stationarity_ok"]):
            errors.append(f"converged={fit['converged']} stationarity_ok={fit['stationarity_ok']}")
        if q_est > q_true + OBJECTIVE_SLACK:
            errors.append(f"objective at estimate {q_est:.6f} > truth {q_true:.6f}")
        if abs(fit["objective"] - q_est) > OBJECTIVE_TOL:
            errors.append(f"reported objective {fit['objective']:.6f} != {q_est:.6f}")
        for key, j, step in [("H", None, PROBE_H)] + [
                ("alpha", j, PROBE_ALPHA * abs(est["alpha"][j]))
                for j in range(1, est["p"] + 1)]:
            for sign in (-1, 1):
                probe = copy.deepcopy(est)
                if j is None:
                    probe["H"] += sign * step
                else:
                    probe["alpha"][j] += sign * step
                if q(probe) < q_est - OBJECTIVE_SLACK:
                    errors.append(f"objective falls moving {key}{j or ''} by {sign * step:+.4g}")
        return errors


# tolerance of the ACF tables against the mpmath reference, relative to
# max(|gamma(h)|, 1e-6 gamma(0)); the closed form and CARMA routes agree
# with it to about 1e-13
ACF_RTOL = 1e-9
# aliased table: |f - f_h| <= ALIAS_TAIL_SHARE * (alias tail beyond K) + 1e-12 f_h.
# The program brackets the tail between two power-law integrals (about 2 %
# of the tail apart at K = 64 for this model) and returns the midpoint;
# dropping the tail misses by the whole tail, 0.5-5.7 % of the value here,
# which a tolerance of 1 % of the value would mostly not see.
ALIAS_TAIL_SHARE = 0.1
SPECTRUM_RTOL = 1e-12


def _read_csv(path, columns):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [np.array([float(r[c]) for r in rows]) for c in columns]


class Tables:
    """Table requests made in-process through carfima.cli.main."""

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir
        self.ref = reference.load()
        aliased = specs.TABLE_MODELS[specs.table_model("spectrum_aliased")]
        step = float(specs.table_arg("spectrum_aliased", "--h"))
        K = int(specs.table_arg("spectrum_aliased", "--K"))
        self.alias_omegas = specs.omega_grid(specs.table_arg("spectrum_aliased", "--omegas"))
        self.alias_conv = oracle.aliased_density(aliased, self.alias_omegas, step)
        self.alias_tail = self.alias_conv - oracle.alias_partial(
            aliased, self.alias_omegas, step, K)
        cont = specs.TABLE_MODELS[specs.table_model("spectrum_continuous")]
        self.cont_omegas = specs.omega_grid(specs.table_arg("spectrum_continuous", "--omegas"))
        self.cont_f = oracle.spectral_density(cont, self.cont_omegas)

    def setup(self):
        for name, m in specs.TABLE_MODELS.items():
            (self.out_dir / f"{name}.json").write_text(json.dumps(m))
        for label, run in self.cycle():
            run()

    def _out(self, label) -> Path:
        return self.out_dir / f"{label}{'.json' if label == 'verify' else '.csv'}"

    def _argv(self, label, template):
        argv = [a.format(**{n: str(self.out_dir / f"{n}.json") for n in specs.TABLE_MODELS})
                for a in template]
        return argv + ["--out", str(self._out(label))]

    def _run(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = carfima.cli.main(argv)
        return rc

    def cycle(self):
        return [(label, partial(self._run, self._argv(label, template)))
                for label, template in specs.TABLE_OPS]

    def digest(self, label, rc):
        out = self._out(label)
        if rc != 0:
            return {"rc": rc}
        if label == "verify":
            return {"rc": rc, "report": json.loads(out.read_text())}
        if label.startswith("acf"):
            lags, values = _read_csv(out, ["lag", "gamma"])
            return {"rc": rc, "x": lags, "values": values}
        omegas, values = _read_csv(out, ["omega", "f"])
        return {"rc": rc, "x": omegas, "values": values}

    def check(self, label, d) -> list[str]:
        if d["rc"] != 0:
            return [f"exit code {d['rc']}"]
        if label == "verify":
            report = d["report"]
            bad = [c["check"] for c in report["checks"] if not c["passed"]]
            return [] if report["passed"] and not bad else [f"verify failed: {bad}"]
        if label.startswith("acf"):
            return self._check_acf(label, d)
        if label == "spectrum_aliased":
            expected, tol = self.alias_conv, ALIAS_TAIL_SHARE * self.alias_tail
            grid = self.alias_omegas
        else:
            expected, tol = self.cont_f, 0.0
            grid = self.cont_omegas
        if len(d["x"]) != len(grid) or np.max(np.abs(d["x"] - grid)) > 1e-12:
            return ["frequency grid differs from the request"]
        tol = tol + SPECTRUM_RTOL * expected
        bad = np.flatnonzero(np.abs(d["values"] - expected) > tol)
        return [f"omega {grid[j]:.6g}: {float(d['values'][j])!r} vs {float(expected[j])!r}"
                for j in bad[:5]]

    def _check_acf(self, label, d):
        name = specs.table_model(label)
        grid = specs.table_acf_lags(label)
        if len(d["x"]) != len(grid) or np.max(np.abs(d["x"] - grid)) > 1e-12 * grid[-1]:
            return ["lag grid differs from the request"]
        idx = specs.TABLE_CHECK_INDICES[label]
        ref = np.array([self.ref[(name, float(grid[i]))] for i in idx])
        scale = np.maximum(np.abs(ref), 1e-6 * self.ref[(name, 0.0)])
        dev = np.abs(d["values"][idx] - ref) / scale
        return [f"lag {grid[i]:.6g}: relative deviation {dev[k]:.3g} > {ACF_RTOL:g}"
                for k, i in enumerate(idx) if dev[k] > ACF_RTOL]


WORKLOADS = {"simulate": Simulate, "fit": Fit, "tables": Tables}
