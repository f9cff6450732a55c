import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carfima import CarfimaModel, acf_tail_asymptote, read_path_csv, simulate_exact
from carfima.cli import MAX_GRID_POINTS, build_parser, main
from carfima.spectrum import DEFAULT_ALIAS_K

from conftest import car1, model_from_eigenvalues


@pytest.fixture
def ou_file(tmp_path):
    f = tmp_path / "ou.json"
    f.write_text(car1(0.5).to_json())
    return str(f)


@pytest.fixture
def frac_file(tmp_path):
    f = tmp_path / "frac.json"
    f.write_text(car1(0.7).to_json())
    return str(f)


class TestAcfCommand:
    def test_ou_table_values(self, ou_file, tmp_path):
        out = tmp_path / "acf.csv"
        rc = main(["acf", "--model", ou_file, "--out", str(out), "--lags", "0:5:1"])
        assert rc == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "lag,gamma,method"
        first = rows[1].split(",")
        second = rows[2].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(0.5)
        assert float(second[1]) == pytest.approx(0.5 * math.exp(-1), rel=1e-12)

    def test_method_override(self, frac_file, tmp_path):
        out = tmp_path / "acf.csv"
        rc = main(["acf", "--model", frac_file, "--out", str(out),
                   "--lags", "0:2:1", "--method", "quadrature"])
        assert rc == 0
        assert "quadrature" in out.read_text()

    def test_far_lags_take_the_closed_form(self, frac_file, tmp_path):
        # the closed form's kernel once overflowed at these lags
        out = tmp_path / "acf.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["acf", "--model", frac_file, "--out", str(out),
                       "--lags", "0:1e300:1e299"])
        assert rc == 0
        rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
        assert len(rows) == 11 and {r[2] for r in rows} == {"closed_form"}
        for lag, gamma, _ in rows[1:]:
            ref = acf_tail_asymptote(car1(0.7), float(lag))
            assert float(gamma) == pytest.approx(ref, rel=1e-14)

    def test_missing_model_is_validation_error(self, tmp_path):
        rc = main(["acf", "--model", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    def test_malformed_model_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["acf", "--model", str(bad), "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    @pytest.mark.parametrize("flag", ["--model", "--init"])
    def test_model_file_not_utf8_is_validation_error(self, tmp_path, capsys, flag):
        # bytes that are not UTF-8 once escaped as a UnicodeDecodeError
        bad = tmp_path / "bad.json"
        bad.write_bytes(car1(0.7).to_json().encode()[:-1] + b"\xff}")
        if flag == "--model":
            argv = ["acf", "--model", str(bad)]
        else:
            path_csv = tmp_path / "path.csv"
            ys = np.random.default_rng(0).standard_normal(64).tolist()
            path_csv.write_text("t,y\n" + "".join(f"{k + 1},{y!r}\n" for k, y in enumerate(ys)))
            argv = ["fit", "--path", str(path_csv), "--init", str(bad), "--p", "1"]
        out = tmp_path / "out"
        rc = main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: malformed model JSON") and "utf-8" in err
        assert not out.exists()

    def test_non_numeric_model_entry_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**car1(0.7).to_dict(), "alpha": [0.0, "x"]}))
        rc = main(["acf", "--model", str(bad), "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_bad_grid_is_validation_error(self, ou_file, tmp_path):
        rc = main(["acf", "--model", ou_file, "--out", str(tmp_path / "x.csv"),
                   "--lags", "5:0:1"])
        assert rc == 1

    @pytest.mark.parametrize("command, flag, spec", [
        ("acf", "--lags", "nan:1:0.1"),
        ("acf", "--lags", "0:1:nan"),
        ("acf", "--lags", "0:inf:1"),
        ("spectrum", "--omegas", "nan:1:3"),
    ])
    def test_non_finite_grid_is_validation_error(self, ou_file, tmp_path, capsys,
                                                 command, flag, spec):
        out = tmp_path / "x.csv"
        rc = main([command, "--model", ou_file, "--out", str(out), flag, spec])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: bad ")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, spec", [
        ("acf", "--lags=-1e308:1e308:1", None),  # b - a overflows to inf
        ("acf", "--lags", "0:1e300:1e-300"),  # count overflows to inf
        ("acf", "--lags", "0:1e9:1e-3"),  # 1e12 lags
        ("spectrum", "--omegas", "0:1:100000000"),
        # paths of n * n_paths points once escaped as a ValueError from numpy
        ("simulate", "--n", str(10**20)),
        ("verify", "--mc-n", str(10**20)),
        ("verify", "--mc-paths", str(10**20)),
    ])
    def test_oversized_grid_is_validation_error(self, ou_file, tmp_path, capsys,
                                                command, flag, spec):
        out = tmp_path / "x.csv"
        rc = main([command, "--model", ou_file, "--out", str(out), flag]
                  + ([spec] if spec else []))
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: bad ") and f"more than {MAX_GRID_POINTS}" in err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0:1e300:1e299", "0:1.7e308:1e307"])
    def test_far_lags_of_a_carma_model(self, tmp_path, capsys, grid):
        # e^{Ah} at these lags once came out NaN, and the table was refused
        model = tmp_path / "carma.json"
        model.write_text(CarfimaModel(p=2, q=1, alpha=(0.0, -1.0, -1.5), beta=(0.5,),
                                      H=0.5, sigma=1.0).to_json())
        out = tmp_path / "acf.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["acf", "--model", str(model), "--out", str(out), "--lags", grid])
        assert rc == 0, capsys.readouterr().err
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert [float(r[1]) for r in rows[1:]] == [0.0] * (len(rows) - 1)
        assert float(rows[0][1]) > 0

    def test_bad_flag_exits_one(self, capsys):
        rc = main(["acf", "--nonsense"])
        capsys.readouterr()
        assert rc == 1


class TestSpectrumCommand:
    def test_continuous(self, frac_file, tmp_path):
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", "--model", frac_file, "--out", str(out),
                   "--omegas", "0.1:3:25"])
        assert rc == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "omega,f,kind,h,K"
        assert len(rows) == 26

    def test_aliased(self, frac_file, tmp_path):
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", "--model", frac_file, "--out", str(out),
                   "--omegas", "0.1:3:10", "--aliased", "--h", "1.0", "--K", "32"])
        assert rc == 0
        assert ",aliased,1.0,32" in out.read_text()

    @pytest.mark.parametrize("h", ["0", "-1", "nan", "inf"])
    def test_bad_step_is_validation_error(self, frac_file, tmp_path, capsys, h):
        # inf once reached np.geomspace and nan wrote a table of NaN rows
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", "--model", frac_file, "--out", str(out), "--aliased",
                   f"--h={h}"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: step_h must be finite and positive")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("h", ["1e300", "1e-300"])
    def test_extreme_step_is_numerical_failure_without_warnings(self, frac_file, tmp_path,
                                                                capsys, h):
        # the alias sum over- and underflows here; numpy's warnings once
        # reached stderr, and escaped main under warnings-as-errors
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["spectrum", "--model", frac_file, "--out", str(tmp_path / "s.csv"),
                       "--aliased", f"--h={h}"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("numerical failure: ")


class TestSimulateAndFit:
    def test_simulate_round_trip(self, frac_file, tmp_path):
        out = tmp_path / "path.csv"
        rc = main(["simulate", "--model", frac_file, "--out", str(out),
                   "--n", "128", "--h", "0.5", "--seed", "11"])
        assert rc == 0
        values, h = read_path_csv(out)
        assert len(values) == 128
        assert h == 0.5
        meta = json.loads((tmp_path / "path.csv.meta.json").read_text())
        assert meta["seed"] == 11

    def test_euler_method(self, frac_file, tmp_path):
        out = tmp_path / "path.csv"
        rc = main(["simulate", "--model", frac_file, "--out", str(out),
                   "--n", "64", "--method", "euler", "--substeps", "4"])
        assert rc == 0
        assert json.loads((tmp_path / "path.csv.meta.json").read_text())["method"] \
            == "state_euler"

    @pytest.mark.parametrize("method", ["exact", "euler"])
    @pytest.mark.parametrize("h", ["0", "-1", "nan", "inf"])
    def test_bad_step_is_validation_error(self, frac_file, tmp_path, capsys, method, h):
        out = tmp_path / "path.csv"
        rc = main(["simulate", "--model", frac_file, "--out", str(out), "--n", "64",
                   f"--h={h}", "--method", method])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: step_h must be finite and positive")
        assert "Traceback" not in err
        assert not out.exists()

    def test_unbounded_burn_in_is_validation_error(self, tmp_path, capsys):
        # burn-in of 20/1e-6 time units at 8 sub-steps: 1.6e8 sub-steps
        slow = tmp_path / "slow.json"
        slow.write_text(car1(0.7, a1=-1e-6).to_json())
        out = tmp_path / "path.csv"
        rc = main(["simulate", "--model", str(slow), "--out", str(out), "--n", "1",
                   "--method", "euler"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: burn-in") and f"exceeds {MAX_GRID_POINTS}" in err
        assert not out.exists()

    def test_fit_reproducible_bit_for_bit(self, frac_file, tmp_path):
        path_csv = tmp_path / "path.csv"
        main(["simulate", "--model", frac_file, "--out", str(path_csv),
              "--n", "1024", "--h", "1.0", "--seed", "5"])
        outs = []
        for name in ("fit1.json", "fit2.json"):
            out = tmp_path / name
            rc = main(["fit", "--path", str(path_csv), "--out", str(out),
                       "--p", "1", "--q", "0", "--seed", "3", "--starts", "2"])
            assert rc == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        d = json.loads(outs[0])
        assert d["model"]["H"] > 0.5

    def test_fit_missing_path(self, tmp_path):
        rc = main(["fit", "--path", str(tmp_path / "none.csv"),
                   "--out", str(tmp_path / "f.json"), "--p", "1"])
        assert rc == 1

    def test_fit_constant_path_is_validation_error(self, tmp_path, capsys):
        path_csv = tmp_path / "flat.csv"
        path_csv.write_text("t,y\n" + "".join(f"{k},2.5\n" for k in range(64)))
        rc = main(["fit", "--path", str(path_csv), "--out", str(tmp_path / "f.json"),
                   "--p", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_alias_truncation_defaults_to_library_default(self):
        parser = build_parser()
        for argv in (["spectrum", "--model", "m.json", "--out", "s.csv"],
                     ["fit", "--path", "p.csv", "--out", "f.json", "--p", "1"]):
            assert parser.parse_args(argv).K == DEFAULT_ALIAS_K


_BAD_REALS = ["0", "-1", "nan", "inf", "1e300"]
_BAD_COUNTS = ["0", "-3", "nan", "inf", str(10**18)]
_MODELS = [car1(0.7), car1(0.5),
           CarfimaModel(p=2, q=1, alpha=(0.0, -1.0, -1.5), beta=(0.5,), H=0.3, sigma=1.0)]


def _flag(valid, bad=_BAD_REALS):
    """The valid value half the time; otherwise zero, negative, NaN, infinite or huge."""
    return st.one_of(st.just(valid), st.sampled_from(bad))


def _grid(valid, bad_size):
    """The valid a:b:size grid half the time; otherwise one part drawn from the bad values."""
    parts = valid.split(":")
    variants = [":".join(parts[:i] + [v] + parts[i + 1:])
                for i, bad in enumerate((_BAD_REALS, _BAD_REALS, bad_size)) for v in bad]
    return st.one_of(st.just(valid), st.sampled_from(variants))


class TestErrorContract:
    # --h inf once reached np.geomspace and escaped as a ValueError
    @example(model=_MODELS[0], command="spectrum", aliased=True, omegas="0:3:9", h="inf",
             K="16", lags="0:10:0.5")
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(model=st.sampled_from(_MODELS), command=st.sampled_from(["spectrum", "acf"]),
           aliased=st.booleans(), omegas=_grid("-0.5:3:9", _BAD_COUNTS),
           h=_flag("0.5"), K=_flag("16", _BAD_COUNTS),
           lags=_grid("0.5:10:0.5", _BAD_REALS))
    def test_exit_code_without_traceback(self, model, command, aliased, omegas, h, K, lags):
        if command == "spectrum":
            args = [f"--omegas={omegas}", f"--h={h}", f"--K={K}"] + ["--aliased"] * aliased
        else:
            args = [f"--lags={lags}"]
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            model_file = Path(tmp) / "model.json"
            model_file.write_text(model.to_json())
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                    warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore")
                rc = main([command, "--model", str(model_file),
                           "--out", str(Path(tmp) / "out.csv"), *args])
        assert rc in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


_FIELDS = ("p", "q", "alpha", "beta", "H", "sigma")
# values no field accepts: None, a non-numeric string, a nested list, an object
_WRONG_TYPES = [None, "x", [["x"]], {"a": 1.0}]


@st.composite
def _bad_model_file(draw):
    """The text of a model file broken in one drawn way, from a stable model with p <= 6."""
    p = draw(st.integers(1, 6))
    q = draw(st.integers(0, p - 1))
    roots = [-draw(st.floats(0.1, 3.0)) for _ in range(p)]
    beta = [draw(st.floats(-1.0, 1.0)) for _ in range(q - 1)] + [0.5] * (q > 0)
    flaw = draw(st.sampled_from(["missing", "type", "nonfinite", "mismatch",
                                 "nonstationary", "not_an_object"] + ["huge"] * (q > 0)))
    if flaw == "nonstationary":
        roots[draw(st.integers(0, p - 1))] = draw(st.floats(0.1, 3.0))
    d = {"p": p, "q": q, "alpha": [0.0, *(-np.poly(roots)[:0:-1]).tolist()],
         "beta": beta, "H": draw(st.floats(0.05, 0.95)), "sigma": 1.0}
    if flaw == "missing":
        del d[draw(st.sampled_from(_FIELDS))]
    elif flaw == "type":
        field = draw(st.sampled_from(_FIELDS))
        d[field] = draw(st.sampled_from(_WRONG_TYPES + [float(p)] * (field in ("p", "q"))))
    elif flaw == "nonfinite":
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        field = draw(st.sampled_from(["alpha", "H", "sigma"] + ["beta"] * (q > 0)))
        if field in ("alpha", "beta"):
            d[field][draw(st.integers(0, len(d[field]) - 1))] = bad
        else:
            d[field] = bad
    elif flaw == "huge":  # finite, but its square overflows float64
        d["beta"][draw(st.integers(0, q - 1))] = draw(
            st.sampled_from([1e160, -1e200, 1e300, -1.7e308]))
    elif flaw == "mismatch":
        field = draw(st.sampled_from(_FIELDS[:4]))
        if field in ("p", "q"):
            d[field] += draw(st.sampled_from([-1, 1]))
        elif d[field] and draw(st.booleans()):
            d[field].pop()
        else:
            d[field].append(0.5)
    elif flaw == "not_an_object":
        return draw(st.sampled_from(["[]", "3", '"model"', "null", "{", json.dumps(d)[:-1]]))
    return json.dumps(d)


class TestModelFileContract:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(text=_bad_model_file(), command=st.sampled_from(
        [["acf"], ["spectrum"], ["spectrum", "--aliased"]]))
    def test_bad_model_file_exits_without_traceback(self, text, command):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            model_file = Path(tmp) / "model.json"
            model_file.write_text(text)
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = main([command[0], "--model", str(model_file),
                           "--out", str(Path(tmp) / "out.csv"), *command[1:]])
        assert rc in (1, 2)
        assert "Traceback" not in err.getvalue()


class TestHugeMaCoefficient:
    # beta_1 = 1e160 once escaped as "OverflowError: (34, 'Numerical result
    # out of range')" from the alias tail's beta_q^2
    @pytest.mark.parametrize("command", ["spectrum", "fit"])
    def test_exits_without_traceback(self, tmp_path, command):
        m = CarfimaModel(p=2, q=1, alpha=(0.0, -1.0, -1.5), beta=(0.5,), H=0.3, sigma=1.0)
        d = m.to_dict()
        d["beta"] = [1e160]
        model_file = tmp_path / "huge.json"
        model_file.write_text(json.dumps(d))
        if command == "spectrum":
            argv = ["spectrum", "--model", str(model_file), "--out", str(tmp_path / "s.csv"),
                    "--aliased", "--h", "1", "--K", "64"]
        else:
            path_file = tmp_path / "path.csv"
            simulate_exact(m, 256, 1.0, seed=3).to_csv(path_file)
            argv = ["fit", "--path", str(path_file), "--out", str(tmp_path / "f.json"),
                    "--p", "2", "--q", "1", "--init", str(model_file)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv)
        assert rc == 1
        assert "beta" in err.getvalue() and "Traceback" not in err.getvalue()


@st.composite
def _bad_path_file(draw):
    """The bytes of a path CSV broken in one drawn way, from a regular path of 16 to 40 rows."""
    n = draw(st.integers(16, 40))
    h = draw(st.sampled_from([0.25, 1.0, 3.0]))
    ys = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n)
    header = ["t", "y"]
    rows = [[repr(h * (k + 1)), repr(float(y))] for k, y in enumerate(ys)]
    flaw = draw(st.sampled_from(["column", "cell", "short", "encoding", "nonfinite",
                                 "irregular", "few", "constant"]))
    k, col = draw(st.integers(0, n - 1)), draw(st.integers(0, 1))
    if flaw == "column":
        header[col] = draw(st.sampled_from(["", "x", "T", ("y", "t")[col]]))
    elif flaw == "cell":
        rows[k][col] = draw(st.sampled_from(["", "x", "1..2", "0x10", "1e", "[1]", '"1,2"']))
    elif flaw == "short":  # no cells at all would be a blank line, which CSV skips
        rows[k] = rows[k][:1]
    elif flaw == "nonfinite":
        rows[k][col] = draw(st.sampled_from(["nan", "inf", "-inf", "1e999"]))
    elif flaw == "irregular":
        rows[k][0] = repr(h * (k + 1 + draw(st.sampled_from([-1.0, -0.5, 0.5, 1e-3]))))
    elif flaw == "few":
        rows = rows[:draw(st.integers(0, 15))]
    elif flaw == "constant":
        rows = [[t, "2.5"] for t, _ in rows]
    data = "".join(",".join(r) + "\n" for r in [header, *rows]).encode()
    if flaw == "encoding":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xfe\xff", b"\x80", b"\xc3("])) \
            + data[at:]
    return data


class TestPathFileContract:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(data=_bad_path_file())
    def test_bad_path_file_exits_without_traceback(self, data):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path_file = Path(tmp) / "path.csv"
            path_file.write_bytes(data)
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = main(["fit", "--path", str(path_file), "--out", str(Path(tmp) / "fit.json"),
                           "--p", "1", "--starts", "2"])
        assert rc == 1
        assert "Traceback" not in err.getvalue()


class TestVerifyCommand:
    def test_verify_carfima_2_03_1(self, tmp_path, capsys):
        # eigenvalues {-1, -2}, beta_1 = 0.5, H = 0.3
        m = model_from_eigenvalues([-1.0, -2.0], q=1, beta=(0.5,), H=0.3)
        mf = tmp_path / "m.json"
        mf.write_text(m.to_json())
        rc = main(["verify", "--model", str(mf), "--lags", "0:2:0.5",
                   "--mc-paths", "600", "--mc-n", "128",
                   "--out", str(tmp_path / "rep.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["passed"]
        names = {c["check"] for c in report["checks"]}
        assert "closed_vs_quadrature" in names
        assert "lyapunov_residual" in names

    def test_verify_repeated_eigenvalues(self, tmp_path, capsys):
        # alpha = (0, -1, -2): double root at -1, too close for the closed form,
        # so the Fourier check takes its reference from quadrature; the note
        # is the one report of that route, and no warning repeats it
        m = CarfimaModel(p=2, q=0, alpha=(0.0, -1.0, -2.0), beta=(), H=0.3, sigma=1.0)
        mf = tmp_path / "m.json"
        mf.write_text(m.to_json())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["verify", "--model", str(mf), "--lags", "0:2:0.5",
                       "--mc-paths", "600", "--mc-n", "128",
                       "--out", str(tmp_path / "rep.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "note: repeated eigenvalues" in out
        report = json.loads((tmp_path / "rep.json").read_text())
        checks = {c["check"]: c for c in report["checks"]}
        assert checks["fourier_vs_acf"]["passed"]

    def test_verify_clustered_roots(self, tmp_path, capsys):
        # (z + 1)^3: the closed form refuses its ill-conditioned expansion,
        # and every check takes its reference from quadrature
        m = CarfimaModel(p=3, q=0, alpha=(0.0, -1.0, -3.0, -3.0), beta=(), H=0.3, sigma=1.0)
        mf = tmp_path / "m.json"
        mf.write_text(m.to_json())
        rc = main(["verify", "--model", str(mf), "--lags", "0:2:0.5",
                   "--mc-paths", "600", "--mc-n", "128",
                   "--out", str(tmp_path / "rep.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "note: clustered eigenvalues" in out
        assert json.loads((tmp_path / "rep.json").read_text())["passed"]

    def test_verify_near_half(self, tmp_path, capsys):
        # H = 0.5000001 takes the closed form at its own H in every check,
        # and no warning reports a route
        mf = tmp_path / "m.json"
        mf.write_text(car1(0.5000001).to_json())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["verify", "--model", str(mf), "--lags", "0:2:0.5",
                       "--mc-paths", "600", "--mc-n", "128",
                       "--out", str(tmp_path / "rep.json")])
        capsys.readouterr()
        assert rc == 0
        report = json.loads((tmp_path / "rep.json").read_text())
        checks = {c["check"]: c for c in report["checks"]}
        assert checks["closed_vs_quadrature"]["passed"]
        assert report["passed"]

    def test_verify_single_path_rejected(self, ou_file, capsys):
        # one path gives no standard error, so the Monte Carlo check would pass vacuously
        rc = main(["verify", "--model", ou_file, "--mc-paths", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "--mc-paths" in err

    def test_verify_nonstationary_rejected(self, tmp_path):
        mf = tmp_path / "m.json"
        mf.write_text(car1(0.5, a1=0.3).to_json())
        rc = main(["verify", "--model", str(mf)])
        assert rc == 1
