"""CLI subcommands: exit codes, determinism, report and CSV schemas."""
import configparser
import csv
import json
import os
import pathlib
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from sspaceform import cli, curve, odesol, synth
from sspaceform.curve import (MAX_SAMPLES, CurveTrace, frenet_apparatus,
                              grid_samples, write_csv)
from sspaceform.manifold import ModelParams

from conftest import csv_writer_bytes


def write_config(path, body):
    path.write_text(body)
    return str(path)


CATENARY_CFG = """
[manifold]
m = 2
s = 2

[curve]
source = builtin:catenary
window = -2:2
step = 1e-3

[weight]
c1 = 1.0

[expect]
verdict = proper-f-biharmonic
"""


@pytest.fixture(scope="module")
def catenary_cfg(tmp_path_factory):
    d = tmp_path_factory.mktemp("cfg")
    return write_config(d / "catenary.ini", CATENARY_CFG)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_catenary_exit_ok(catenary_cfg, tmp_path):
    rep = tmp_path / "report.json"
    code = cli.main(["verify", "--config", catenary_cfg,
                     "--report", str(rep), "--csv", str(tmp_path / "s.csv")])
    assert code == cli.EXIT_OK
    data = json.loads(rep.read_text())
    assert data["report"]["verdict"] == "proper-f-biharmonic"
    assert data["report"]["case"] == "II"
    assert data["version"]
    assert data["config_hash"]
    assert "seed" in data and "tolerances" in data


def test_verify_deterministic_reports(catenary_cfg, tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli.main(["verify", "--config", catenary_cfg, "--report", str(r1)]) == 0
    assert cli.main(["verify", "--config", catenary_cfg, "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_verify_verdict_mismatch_exit_1(catenary_cfg):
    code = cli.main(["verify", "--config", catenary_cfg,
                     "--expect", "biharmonic"])
    assert code == cli.EXIT_VERDICT_MISMATCH


def test_verify_config_error_exit_2(tmp_path):
    bad = write_config(tmp_path / "bad.ini", """
[manifold]
m = 0
s = 2

[curve]
source = builtin:catenary
""")
    assert cli.main(["verify", "--config", bad]) == cli.EXIT_CONFIG
    missing = write_config(tmp_path / "missing.ini", "[manifold]\nm = 2\ns = 2\n")
    assert cli.main(["verify", "--config", missing]) == cli.EXIT_CONFIG
    assert cli.main(["verify", "--config", str(tmp_path / "nope.ini")]) \
        == cli.EXIT_CONFIG
    unknown = write_config(tmp_path / "unknown.ini", """
[manifold]
m = 2
s = 2

[curve]
source = builtin:spiral
""")
    assert cli.main(["verify", "--config", unknown]) == cli.EXIT_CONFIG


def test_verify_geodesic(tmp_path):
    cfg = write_config(tmp_path / "geo.ini", """
[manifold]
m = 2
s = 2

[curve]
source = builtin:geodesic

[weight]
constant = 2.0

[expect]
verdict = harmonic/geodesic
""")
    assert cli.main(["verify", "--config", cfg]) == cli.EXIT_OK


def test_verify_csv_schema(catenary_cfg, tmp_path):
    csv_path = tmp_path / "samples.csv"
    cli.main(["verify", "--config", catenary_cfg, "--csv", str(csv_path),
              "--report", str(tmp_path / "r.json")])
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["t", "k1", "k2", "k3"]
    assert "g_phiT_V2" in header and "eq1" in header and "g_tau3_phiT" in header
    # full-precision scientific notation round-trips losslessly
    row = lines[1].split(",")
    assert float(row[0]) == -2.0


def test_verify_r6_example_honest_verdict(tmp_path):
    # the configured r6 scalar data is not realizable: the spec'd order-4
    # synthesis drifts off slant and the verdict is honestly 'none'
    cfg = write_config(tmp_path / "r6.ini", """
[manifold]
m = 2
s = 2

[curve]
source = builtin:r6-example
window = -2:2
step = 2e-3

[weight]
c1 = 1.0
""")
    rep = tmp_path / "r.json"
    code = cli.main(["verify", "--config", cfg, "--report", str(rep)])
    assert code == cli.EXIT_OK   # default expectation is 'any'
    data = json.loads(rep.read_text())
    assert data["report"]["verdict"] == "none"
    assert not data["slant"]["is_slant"]
    code = cli.main(["verify", "--config", cfg, "--report", str(rep),
                     "--expect", "proper-f-biharmonic"])
    assert code == cli.EXIT_VERDICT_MISMATCH


def test_verify_case2_order3(tmp_path):
    cfg = write_config(tmp_path / "c2.ini", """
[manifold]
m = 2
s = 2

[curve]
source = builtin:case2-order3
window = -1.5:1.5
step = 1e-3

[weight]
c1 = 1.0

[expect]
verdict = proper-f-biharmonic
""")
    assert cli.main(["verify", "--config", cfg,
                     "--report", str(tmp_path / "r.json")]) == cli.EXIT_OK


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_writes_loadable_trace(tmp_path):
    out = tmp_path / "circle.csv"
    code = cli.main(["synth", "--builtin", "circle", "--out", str(out),
                     "--window", "0:3", "--step", "1e-3"])
    assert code == cli.EXIT_OK
    assert out.read_text().splitlines()[0] == "t,x1,x2,y1,y2,z1,z2"
    tr = CurveTrace.from_csv(ModelParams(2, 2), out)
    fd = frenet_apparatus(tr)
    assert fd.order == 2
    assert np.max(np.abs(fd.curvatures[0][5:-5] - 1.0)) < 1e-5


def test_synth_coarse_step_exit_3(tmp_path):
    code = cli.main(["synth", "--builtin", "r6-example",
                     "--out", str(tmp_path / "r6.csv"), "--step", "0.5"])
    assert code == cli.EXIT_NUMERICAL


def test_synth_window_is_kept_except_by_r6_steered(tmp_path):
    out = tmp_path / "c2.csv"
    assert cli.main(["synth", "--builtin", "case2-order3", "--out", str(out),
                     "--window", "0:1"]) == cli.EXIT_OK
    ts = np.loadtxt(out, delimiter=",", skiprows=1, usecols=0)
    assert (len(ts), ts[0], ts[-1]) == (1001, 0.0, 1.0)
    # r6-steered always builds on +-0.95 of its feasible bound, whatever
    # window it is given
    out = tmp_path / "steered.csv"
    assert cli.main(["synth", "--builtin", "r6-steered", "--out", str(out),
                     "--window=5:9"]) == cli.EXIT_OK
    ts = np.loadtxt(out, delimiter=",", skiprows=1, usecols=0)
    assert (len(ts), ts[0], ts[-1]) == (2925, -1.462, 1.462)
    code = cli.main(["synth", "--builtin", "geodesic",
                     "--out", str(tmp_path / "g.csv"), "--verify"])
    assert code == cli.EXIT_OK


def test_synth_verify_checks_tolerances_before_writing(tmp_path,
                                                      monkeypatch, capsys):
    # the trace used to be written before an unknown profile was refused
    monkeypatch.setenv("SSPACEFORM_TOLERANCES", "bogus")
    out = tmp_path / "syn.csv"
    argv = ["synth", "--builtin", "catenary", "--window=-1:1", "--out",
            str(out)]
    assert cli.main(argv + ["--verify"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert not out.exists()
    # without --verify no tolerance is read
    assert cli.main(argv) == cli.EXIT_OK
    assert out.exists()


def test_synth_report_without_verify_exit_2(tmp_path, capsys):
    # the report used to be dropped: exit 0 with only the trace written
    out, report = tmp_path / "syn.csv", tmp_path / "syn.json"
    assert cli.main(["synth", "--builtin", "catenary", "--window=-1:1",
                     "--out", str(out), "--report", str(report)]) \
        == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert not out.exists() and not report.exists()


def test_synth_unknown_builtin(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["synth", "--builtin", "moebius",
                  "--out", str(tmp_path / "x.csv")])


def test_synth_verify_roundtrip(tmp_path):
    rep = tmp_path / "rep.json"
    code = cli.main(["synth", "--builtin", "catenary",
                     "--out", str(tmp_path / "cat.csv"),
                     "--window", "-2:2", "--verify", "--report", str(rep)])
    assert code == cli.EXIT_OK
    data = json.loads(rep.read_text())
    assert data["report"]["verdict"] == "proper-f-biharmonic"


# ---------------------------------------------------------------------------
# ode
# ---------------------------------------------------------------------------

def test_ode_case_iii_reference(tmp_path):
    out = tmp_path / "ode.csv"
    code = cli.main(["ode", "--case", "iii", "--c2", "1", "--c3", "4",
                     "--c4", "0", "--range", "-2:2:0.001",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "t,y,residual,domain_ok"
    t, y, res, okf = lines[1].split(",")
    assert float(t) == -2.0
    assert abs(float(y) - 1.0 / 6.0) < 1e-12
    assert float(res) < 1e-10
    assert okf == "1"


def test_ode_degenerate_exit_3():
    assert cli.main(["ode", "--case", "iii", "--c3", "0",
                     "--range", "-2:2:0.01"]) == cli.EXIT_NUMERICAL


def test_ode_case_i_nowhere_real_exit_3():
    assert cli.main(["ode", "--case", "i", "--c3", "1", "--lambda", "1",
                     "--range", "-2:2:0.01"]) == cli.EXIT_NUMERICAL


def test_ode_isolated_real_sample_has_no_residual(tmp_path):
    # case (ii) is real only at u = 0, a single sample: no residual can be
    # differenced there, so the column is NaN and the run is refused
    out = tmp_path / "ode.csv"
    assert cli.main(["ode", "--case", "ii", "--c2", "1", "--c3", "2",
                     "--lambda", "1", "--range", "-1:1:0.5",
                     "--out", str(out)]) == cli.EXIT_NUMERICAL
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 3], [0, 0, 1, 0, 0])
    assert data[2, 1] == -0.5           # y = M/D = 2/(-4) at t = 0
    assert np.all(np.isnan(data[:, 2]))


@pytest.mark.parametrize("args", [
    ["--case", "ii", "--c2", "1", "--c3", "2", "--lambda", "1",
     "--range=-1:1:0.5"],
    ["--case", "iii", "--c2", "1", "--c3", "4", "--range=-2:2:1e-3",
     "--tol", "1e-30"],
], ids=["no-residual", "residual-above-tol"])
def test_ode_residual_not_below_tol_exit_3_with_one_line(args, capsys):
    # these used to exit 3 with an empty stderr; the summary line stays
    assert cli.main(["ode", *args]) == cli.EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert out.startswith("real fraction ")
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure:"), err


def test_ode_bad_range_exit_2():
    assert cli.main(["ode", "--case", "iii", "--c3", "4",
                     "--range", "2:-2:0.01"]) == cli.EXIT_CONFIG
    assert cli.main(["ode", "--case", "i", "--c3", "1",
                     "--range", "-1:1:0.01"]) == cli.EXIT_CONFIG  # lambda missing


def test_tolerance_profile_env(catenary_cfg, tmp_path, monkeypatch):
    monkeypatch.setenv("SSPACEFORM_TOLERANCES", "loose")
    assert cli.main(["verify", "--config", catenary_cfg,
                     "--report", str(tmp_path / "r.json")]) == cli.EXIT_OK
    monkeypatch.setenv("SSPACEFORM_TOLERANCES", "bogus")
    assert cli.main(["verify", "--config", catenary_cfg]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("case", ["missing-curve-csv", "missing-weight-csv",
                                  "header-only-weight", "one-column-weight",
                                  "non-integer-seed"])
def test_verify_bad_input_file_or_value_exit_2(case, tmp_path, capsys):
    # each used to end in a traceback with exit 1, the verdict-mismatch code
    source, extra = "builtin:catenary\nwindow = -1:1", ""
    weight = tmp_path / "w.csv"
    if case == "missing-curve-csv":
        source = f"csv:{tmp_path / 'nope.csv'}"
    elif case == "non-integer-seed":
        extra = "seed = abc"
    else:
        extra = f"\n[weight]\ncsv = {weight}"
        if case == "header-only-weight":
            weight.write_text("t,f\n")
        elif case == "one-column-weight":
            weight.write_text("t,f\n-2,1\n0\n2,1\n")
    cfg = write_config(tmp_path / "c.ini", f"""
[manifold]
m = 2
s = 2

[curve]
source = {source}
{extra}
""")
    assert cli.main(["verify", "--config", cfg]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err


MANIFOLD_22 = "[manifold]\nm = 2\ns = 2\n"
CATENARY_CURVE = "[curve]\nsource = builtin:catenary\nwindow = -1:1\n"
REFUSED_CONFIGS = {
    "unknown-tolerance-name": MANIFOLD_22 + CATENARY_CURVE
    + "[tolerances]\nbogus = 1\n",
    "window-not-lo-hi": MANIFOLD_22
    + "[curve]\nsource = builtin:catenary\nwindow = -1:0:1\n",
    "window-hi-not-above-lo": MANIFOLD_22
    + "[curve]\nsource = builtin:catenary\nwindow = 1:1\n",
    "step-zero": MANIFOLD_22 + CATENARY_CURVE + "step = 0\n",
    "step-nan": MANIFOLD_22 + CATENARY_CURVE + "step = nan\n",
    "csv-without-path": MANIFOLD_22 + "[curve]\nsource = csv:\n",
    "unknown-source-kind": MANIFOLD_22 + "[curve]\nsource = file:x.csv\n",
    "case2-order3-not-22": "[manifold]\nm = 3\ns = 2\n"
    "[curve]\nsource = builtin:case2-order3\n",
    "r6-example-not-22": "[manifold]\nm = 2\ns = 1\n"
    "[curve]\nsource = builtin:r6-example\n",
    "weight-csv-short-of-window": MANIFOLD_22 + CATENARY_CURVE
    + "[weight]\ncsv = {weight}\n",
}


@pytest.mark.parametrize("case", [*REFUSED_CONFIGS, "ode-unknown-case"])
def test_refusal_exit_2_with_one_line(case, tmp_path, capsys):
    if case == "ode-unknown-case":
        code = cli.run_ode("iv", 0.0, 1.0, 0.0, 1.0, "-1:1:0.1")
    else:
        weight = tmp_path / "w.csv"
        weight.write_text("t,f\n-0.5,1\n0.5,1\n")
        cfg = write_config(tmp_path / "c.ini",
                           REFUSED_CONFIGS[case].format(weight=weight))
        code = cli.run_verify(cfg)
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err


@pytest.mark.parametrize("table", ["t,f\n-2,1\n0,nan\n2,1\n",
                                   "t,f\n-2,1\ninf,1\n2,1\n"],
                         ids=["nan-f", "inf-t"])
def test_verify_nonfinite_weight_csv_exit_3(table, tmp_path, capsys):
    # a nan used to reach CubicSpline and exit 2 as a config error
    weight = tmp_path / "w.csv"
    weight.write_text(table)
    cfg = write_config(tmp_path / "c.ini", MANIFOLD_22 + CATENARY_CURVE
                       + f"[weight]\ncsv = {weight}\n")
    assert cli.run_verify(cfg) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure:"), err
    assert "data row 1" in err[0]


@pytest.mark.parametrize("curve", [
    "source = builtin:circle\nradius = 0",
    "source = builtin:catenary\nwindow = -inf:2",
], ids=["circle-radius-zero", "window-minus-inf"])
def test_verify_degenerate_curve_value_exit_2(curve, tmp_path, capsys):
    # each used to end in a traceback with exit 1 (ZeroDivisionError in
    # flat_circle_trace, OverflowError in the sample count)
    cfg = write_config(tmp_path / "c.ini",
                       f"[manifold]\nm = 2\ns = 2\n\n[curve]\n{curve}\n")
    assert cli.main(["verify", "--config", cfg]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err


@pytest.mark.parametrize("rng", ["nan:2:0.01", "-2:inf:0.01", "-2:2:nan"])
def test_ode_nonfinite_range_exit_2(rng, capsys):
    # np.arange used to raise on these, a traceback with exit 1
    assert cli.main(["ode", "--case", "iii", "--c3", "4",
                     f"--range={rng}"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err


@pytest.mark.parametrize("builtin, window", [
    ("catenary", "a:b"), ("r6-example", "1:2"), ("case2-order3", "1:2"),
], ids=["unparsable", "r6-example-without-0", "case2-order3-without-0"])
def test_synth_bad_window_exit_2(builtin, window, tmp_path, capsys):
    # each used to end in a ValueError traceback with exit 1, the
    # verdict-mismatch code
    out = tmp_path / "x.csv"
    assert cli.main(["synth", "--builtin", builtin, "--out", str(out),
                     f"--window={window}"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_verify_nonfinite_or_nonpositive_tolerance_exit_2(value, tmp_path,
                                                          capsys):
    # nan used to reach the report as "eq_tol": NaN (not JSON) with exit 0
    cfg = write_config(tmp_path / "c.ini", f"""
[manifold]
m = 2
s = 2

[curve]
source = builtin:catenary
window = -1:1

[tolerances]
eq = {value}
""")
    rep = tmp_path / "r.json"
    assert cli.main(["verify", "--config", cfg, "--report", str(rep)]) \
        == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert not rep.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_ode_nonfinite_or_nonpositive_tol_exit_2(value, capsys):
    # these used to be compared with the residual: exit 3 for nan, 0 and
    # -1 on a residual of 8.7e-18, and any residual passed inf
    assert cli.main(["ode", "--case", "iii", "--c2", "1", "--c3", "4",
                     "--range=-2:2:0.01", f"--tol={value}"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err


@pytest.mark.parametrize("body, code, prefix", [
    ("[manifold]\nm = 2\ns = 2\n\n[curve]\nsource = builtin:r6-example\n"
     "step = 0.2\n", cli.EXIT_NUMERICAL, "numerical failure:"),
    ("m = 2\ns = 2\n", cli.EXIT_CONFIG, "config error:"),
    ("[manifold]\nm = 2\nm = 3\n", cli.EXIT_CONFIG, "config error:"),
], ids=["r6-example-drift-guard", "no-section-header", "duplicate-option"])
def test_verify_config_failure_exit_2_or_3(body, code, prefix, tmp_path,
                                           capsys):
    # each used to end in a traceback with exit 1, the verdict-mismatch code
    # (SynthesisError, MissingSectionHeaderError, DuplicateOptionError)
    cfg = write_config(tmp_path / "c.ini", body)
    assert cli.main(["verify", "--config", cfg]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix), err


@pytest.mark.parametrize("argv", [
    ["verify", "--config", "{cfg}", "--report", "{bad}"],
    ["verify", "--config", "{cfg}", "--report", "{ok}", "--csv", "{bad}"],
    ["synth", "--builtin", "catenary", "--window=-1:1", "--out", "{bad}"],
    ["ode", "--case", "iii", "--c3", "4", "--range=-1:1:0.01", "--out",
     "{bad}"],
], ids=["verify-report", "verify-csv", "synth-out", "ode-out"])
def test_unwritable_output_path_exit_2(argv, tmp_path, capsys):
    # each used to end in a FileNotFoundError traceback with exit 1
    cfg = write_config(tmp_path / "c.ini", "[manifold]\nm = 2\ns = 2\n\n"
                       "[curve]\nsource = builtin:catenary\nwindow = -1:1\n")
    paths = {"cfg": cfg, "bad": str(tmp_path / "no-such-dir" / "out"),
             "ok": str(tmp_path / "r.json")}
    assert cli.main([a.format(**paths) for a in argv]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err


@pytest.mark.parametrize("report", ["file", "stdout"])
@pytest.mark.parametrize("csv_target", ["missing-dir", "directory"])
def test_refused_verify_leaves_no_partial_output(report, csv_target, tmp_path,
                                                 capsys):
    # the report used to be written before the CSV path was refused; a
    # directory target is refused before anything is written
    cfg = write_config(tmp_path / "c.ini", "[manifold]\nm = 2\ns = 2\n\n"
                       "[curve]\nsource = builtin:catenary\nwindow = -1:1\n")
    if csv_target == "directory":
        bad = tmp_path / "d"
        bad.mkdir()
        reason, left = "[Errno 21] Is a directory", ["c.ini", "d"]
    else:
        bad = tmp_path / "no-such-dir" / "s.csv"
        reason, left = "[Errno 2] No such file or directory", ["c.ini"]
    argv = ["verify", "--config", cfg, "--csv", str(bad)]
    if report == "file":
        argv += ["--report", str(tmp_path / "r.json")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert sorted(p.name for p in tmp_path.iterdir()) == left
    assert not any((tmp_path / "d").glob("*"))
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"config error: {reason}: {str(bad)!r}"]


def test_refused_synth_verify_leaves_no_trace(tmp_path, capsys):
    # the trace used to be written before the report path was refused
    out = tmp_path / "syn.csv"
    bad = tmp_path / "no-such-dir" / "r.json"
    assert cli.main(["synth", "--builtin", "catenary", "--window=-1:1",
                     "--out", str(out), "--verify", "--report", str(bad)]
                    ) == cli.EXIT_CONFIG
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, named", [
    (["verify", "--report", "same.out", "--csv", "same.out"], "same.out"),
    (["verify", "--report", "same.out", "--csv", "d/../same.out"],
     "d/../same.out"),
    (["verify", "--report", "link.out", "--csv", "same.out"], "same.out"),
    (["synth", "--builtin", "catenary", "--window=-1:1", "--out", "s.out",
      "--verify", "--report", "s.out"], "s.out"),
], ids=["verify", "verify-dotdot", "verify-symlink", "synth-verify"])
def test_two_outputs_naming_one_file_exit_2(argv, named, tmp_path, capsys,
                                            monkeypatch):
    # both used to exit 0, the file holding only the output written last
    cfg = write_config(tmp_path / "c.ini", "[manifold]\nm = 2\ns = 2\n\n"
                       "[curve]\nsource = builtin:catenary\nwindow = -1:1\n")
    (tmp_path / "d").mkdir()
    (tmp_path / "link.out").symlink_to(tmp_path / "same.out")
    monkeypatch.chdir(tmp_path)
    if argv[0] == "verify":
        argv = argv[:1] + ["--config", cfg] + argv[1:]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini", "d",
                                                          "link.out"]
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"config error: two outputs name the file {named!r}"]


def test_two_outputs_may_name_one_device(tmp_path):
    cfg = write_config(tmp_path / "c.ini", "[manifold]\nm = 2\ns = 2\n\n"
                       "[curve]\nsource = builtin:catenary\nwindow = -1:1\n")
    assert cli.main(["verify", "--config", cfg, "--report", os.devnull,
                     "--csv", os.devnull]) == cli.EXIT_OK


def test_verify_writes_through_symlink_and_device(tmp_path):
    # a symlinked report is written through, keeping the link and the
    # file's mode; a device such as os.devnull is written directly
    cfg = write_config(tmp_path / "c.ini", "[manifold]\nm = 2\ns = 2\n\n"
                       "[curve]\nsource = builtin:catenary\nwindow = -1:1\n")
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    real.write_text("old report")
    real.chmod(0o640)
    link.symlink_to(real)
    assert cli.main(["verify", "--config", cfg, "--report", str(link),
                     "--csv", os.devnull]) == cli.EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "c.ini", "link.json", "real.json"]
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert json.loads(real.read_text())["command"] == "verify"
    assert stat.S_IMODE(real.stat().st_mode) == 0o640
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_failed_verify_write_keeps_old_outputs(tmp_path, monkeypatch):
    # a write that fails midway leaves every target as it was and no
    # temporary file behind
    cfg = write_config(tmp_path / "c.ini", "[manifold]\nm = 2\ns = 2\n\n"
                       "[curve]\nsource = builtin:catenary\nwindow = -1:1\n")
    report, samples = tmp_path / "r.json", tmp_path / "s.csv"
    report.write_text("old report")
    samples.write_text("old samples")

    def fail_midway(path, *args):
        with open(path, "w") as fh:
            fh.write("t,k1\r\n")
        raise OSError(28, "No space left on device", path)

    monkeypatch.setattr(cli, "_write_verify_csv", fail_midway)
    assert cli.main(["verify", "--config", cfg, "--report", str(report),
                     "--csv", str(samples)]) == cli.EXIT_CONFIG
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "c.ini", "r.json", "s.csv"]
    assert report.read_text() == "old report"
    assert samples.read_text() == "old samples"


def test_verify_report_to_a_pipe(tmp_path):
    # --report /dev/stdout on a pipe names a FIFO, which is written
    # directly: there is no file next to it to rename
    cfg = write_config(tmp_path / "c.ini", "[manifold]\nm = 2\ns = 2\n\n"
                       "[curve]\nsource = builtin:catenary\nwindow = -1:1\n")
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-m", "sspaceform.cli", "verify",
                          "--config", cfg, "--report", "/dev/stdout"],
                         env=env, cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == cli.EXIT_OK, out.stderr
    assert json.loads(out.stdout)["command"] == "verify"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini"]


def _verdict_case_order(tmp_path, builtin, m, s):
    weight = "c1 = 1.0" if builtin == "catenary" else "constant = 1.0"
    cfg = write_config(tmp_path / f"{builtin}-{m}-{s}.ini",
                       f"[manifold]\nm = {m}\ns = {s}\n\n[curve]\n"
                       f"source = builtin:{builtin}\n\n[weight]\n{weight}\n")
    report = tmp_path / f"{builtin}-{m}-{s}.json"
    assert cli.run_verify(cfg, report_path=str(report)) == cli.EXIT_OK
    out = json.loads(report.read_text())
    return (out["report"]["verdict"], out["report"]["case"],
            out["curve"]["osculating_order"])


@pytest.mark.parametrize("builtin", ["catenary", "circle", "geodesic"])
def test_verify_outside_m2_s2_keeps_verdict_case_and_order(tmp_path, builtin):
    # the analytic builtins live in every R^(2m+s)(-3s); at 8 or more
    # components the frame sums no longer round as np.add.reduce would,
    # so what is pinned is the verdict, the case and the osculating order
    want = _verdict_case_order(tmp_path, builtin, 2, 2)
    for m, s in ((3, 2), (2, 1), (2, 8), (9, 9)):
        assert _verdict_case_order(tmp_path, builtin, m, s) == want, (m, s)


# 1 GiB of address space: a refused or an ordinary run fits, an unbounded
# grid fails at once instead of exhausting the machine's memory
CHILD_ADDRESS_SPACE = 1 << 30


def _run_cli_process(cwd, *argv, **kwargs):
    """`python -m sspaceform.cli` in a process of its own, whose stderr
    holds every warning it prints; `kwargs` go to subprocess.run."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "sspaceform.cli", *argv],
                          env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=120, **kwargs)


@pytest.mark.parametrize("command", [
    ["verify", "--config", "big.ini"],
    ["synth", "--builtin", "catenary", "--out", "t.csv", "--step", "1e-7"],
    ["synth", "--builtin", "r6-steered", "--out", "t.csv", "--step", "1e-7"],
    ["ode", "--case", "iii", "--c2", "1", "--c3", "4", "--range", "-2:2:1e-7"],
    ["synth", "--builtin", "case2-order3", "--out", "t.csv", "--step", "5e-324"],
    ["verify", "--config", "big-csv.ini"],
    ["verify", "--config", "big-weight.ini"],
])
def test_oversized_grid_is_refused_before_allocating(tmp_path, command):
    # step 1e-7 on a -2:2 window asks for 40,000,001 samples (r6-steered
    # keeps the step on its own window), and a subnormal step for infinitely
    # many: every grid above MAX_SAMPLES is a config error, raised before
    # the grid is allocated.  A csv: trace one row above the cap is refused
    # before it is differenced, and a [weight] csv one row above it before
    # it is interpolated.
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE,) * 2)

    head = "[manifold]\nm = 2\ns = 2\n\n[curve]\n"
    write_config(tmp_path / "big.ini",
                 head + "source = builtin:catenary\nstep = 1e-7\n")
    write_config(tmp_path / "big-csv.ini", head + "source = csv:big.csv\n")
    write_config(tmp_path / "big-weight.ini", head + "source = builtin:catenary"
                 "\n\n[weight]\ncsv = weight.csv\n")
    if "big-csv.ini" in command:
        # the integral curve of xi_1 (z_1 = 2t), unit speed on a uniform grid
        with open(tmp_path / "big.csv", "w") as fh:
            fh.write("t,x1,x2,y1,y2,z1,z2\n")
            fh.writelines(f"{k},0,0,0,0,{2 * k},0\n"
                          for k in range(MAX_SAMPLES + 1))
    if "big-weight.ini" in command:
        # a constant weight on a grid that covers the catenary's -2:2 window
        with open(tmp_path / "weight.csv", "w") as fh:
            fh.write("t,f\n")
            fh.writelines(f"{-2 + 4 * k / MAX_SAMPLES!r},1\n"
                          for k in range(MAX_SAMPLES + 1))
    inputs = sorted(p.name for p in tmp_path.iterdir())
    out = _run_cli_process(tmp_path, *command, preexec_fn=limit)
    assert out.returncode == cli.EXIT_CONFIG, out.stderr[-500:]
    assert out.stderr.startswith("config error:")
    assert "1000000 samples" in out.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs


@pytest.mark.parametrize("builtin", ["catenary", "circle", "geodesic"])
def test_oversized_manifold_is_refused_before_allocating(tmp_path, builtin):
    # m = 10^9 asks for 4001 x (2 10^9 + 2) floats, 58 TiB per array: more
    # than any address space maps, so an unchecked run fails at once with a
    # MemoryError traceback.  The refusal comes before the allocation.
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE,) * 2)

    write_config(tmp_path / "c.ini", "[manifold]\nm = 1000000000\ns = 2\n\n"
                 f"[curve]\nsource = builtin:{builtin}\n")
    out = _run_cli_process(tmp_path, "verify", "--config", "c.ini",
                           preexec_fn=limit)
    assert out.returncode == cli.EXIT_CONFIG, out.stderr[-500:]
    assert out.stderr.splitlines() == [
        "config error: 4001 samples in dimension 2000000002 exceed the "
        f"{6 * MAX_SAMPLES} values a trace may hold"]


def test_grid_samples_cap():
    assert grid_samples(4.0, 1e-3) == 4001
    assert grid_samples(1.0, 1.0 / (MAX_SAMPLES - 1)) == MAX_SAMPLES
    for step in (1.0 / MAX_SAMPLES, 5e-324, float("nan")):
        with pytest.raises(ValueError, match="samples a grid may have"):
            grid_samples(1.0, step)


def _weight_cp(path):
    cp = configparser.ConfigParser()
    cp.read_string(f"[weight]\ncsv = {path}\n")
    return cp


def test_verify_working_set_of_a_16001_sample_catenary(tmp_path):
    # the bench's largest verify, in process, with report and CSV: tau3 and
    # its norm come from one pass of sample blocks with no Frenet field, and
    # the Frenet frames keep only the kept levels (18.3 MB when tau2/tau3
    # built whole temporaries, 15.3 MB with a whole Frenet field)
    config = write_config(tmp_path / "c.ini", CATENARY_CFG.replace(
        "window = -2:2", "window = -8:8"))

    def run():
        assert cli.run_verify(config, report_path=str(tmp_path / "r.json"),
                              csv_path=str(tmp_path / "r.csv")) == 0

    run()       # the first call imports what it needs and builds the tables
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 15.0e6, peak


@pytest.mark.parametrize("reader", ["csv-source", "weight-csv"])
def test_small_csv_inputs_are_read_in_little_memory(catenary, tmp_path,
                                                    reader):
    # a capped read must not reserve the cap: with
    # `np.loadtxt(max_rows=MAX_SAMPLES + 1)` either read reserves a table
    # of a million rows, tens of MB
    if reader == "csv-source":
        catenary.to_csv(tmp_path / "trace.csv")

        def read():
            CurveTrace.from_csv(catenary.params, tmp_path / "trace.csv")
    else:
        with open(tmp_path / "weight.csv", "w") as fh:
            fh.write("t,f\n")
            fh.writelines(f"{t!r},{1 + t * t!r}\n"
                          for t in np.linspace(-2, 2, 801).tolist())
        cp = _weight_cp(tmp_path / "weight.csv")

        def read():
            cli._build_weight(catenary, None, None, cli._weight_config(cp))
    read()      # the first call imports what it needs
    tracemalloc.start()
    try:
        read()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("reader", ["csv-source", "weight-csv"])
def test_csv_inputs_past_the_cap_after_blank_lines_are_refused(
        catenary, tmp_path, monkeypatch, reader):
    # blank and comment lines are no rows, so a cap on lines must still see
    # the rows past it
    monkeypatch.setattr(curve, "MAX_SAMPLES", 400)
    path = tmp_path / "in.csv"
    if reader == "csv-source":
        catenary.to_csv(path)
        head, *rows = path.read_text().splitlines(keepends=True)
    else:
        head = "t,f\n"
        rows = [f"{t!r},1\n" for t in np.linspace(-2, 2, 401).tolist()]
    path.write_text(head + "\n# a comment\n" * 10 + "".join(rows))
    with pytest.raises(ValueError, match="more than the 400 samples"):
        if reader == "csv-source":
            CurveTrace.from_csv(catenary.params, path)
        else:
            cli._weight_config(_weight_cp(path))


def _no_trace(*args):
    raise AssertionError("the trace was built before the weight was read")


@pytest.mark.parametrize("table, code, message", [
    ("t,f\n" + "0,1\n" * 401, cli.EXIT_CONFIG,
     "config error: [weight] csv has more than the 400 samples"),
    ("t,f\n-2,1\n0,nan\n2,1\n", cli.EXIT_NUMERICAL,
     "numerical failure: non-finite t or f in data row 1 of the [weight] csv"),
    ("t\n-2,1\n2,1\n", cli.EXIT_CONFIG,
     "config error: [weight] csv needs 2 columns, got 1"),
], ids=["rows-past-the-cap", "nan-row", "narrow-header"])
def test_weight_csv_is_refused_before_the_trace_is_built(
        table, code, message, tmp_path, monkeypatch, capsys):
    # a bad [weight] csv is refused with no trace built and no Frenet pass
    monkeypatch.setattr(curve, "MAX_SAMPLES", 400)
    monkeypatch.setattr(cli, "_build_trace", _no_trace)
    monkeypatch.setattr(cli, "frenet_apparatus", _no_trace)
    (tmp_path / "w.csv").write_text(table)
    cfg = write_config(tmp_path / "c.ini", MANIFOLD_22 + CATENARY_CURVE
                       + f"[weight]\ncsv = {tmp_path / 'w.csv'}\n")
    assert cli.run_verify(cfg) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(message), err


@pytest.mark.parametrize("key", ["c1", "constant"])
@pytest.mark.parametrize("value", ["nan", "inf", "0.0", "-1.0"])
def test_nonfinite_weight_value_exit_2(key, value, tmp_path, monkeypatch,
                                       capsys):
    # a nan or inf c1 or constant used to reach WeightFunction and exit 3
    # as a non-finite f in row 0; a nonpositive one was refused with exit
    # 2, but only after the trace and its Frenet pass
    monkeypatch.setattr(cli, "_build_trace", _no_trace)
    cfg = write_config(tmp_path / "c.ini", MANIFOLD_22 + CATENARY_CURVE
                       + f"[weight]\n{key} = {value}\n")
    assert cli.run_verify(cfg) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: [weight] {key} must be positive and "
                   f"finite, got {value}"], err


@pytest.mark.parametrize("reader", ["csv-source", "weight-csv"])
def test_header_only_csv_input_exit_2_with_one_line(tmp_path, reader):
    # NumPy warns about a table without rows; the reader refuses it with
    # one stderr line and no warning before it
    head = "[manifold]\nm = 2\ns = 2\n\n[curve]\n"
    if reader == "csv-source":
        (tmp_path / "in.csv").write_text("t,x1,x2,y1,y2,z1,z2\n")
        body = head + "source = csv:in.csv\n"
    else:
        (tmp_path / "in.csv").write_text("t,f\n")
        body = head + "source = builtin:catenary\n\n[weight]\ncsv = in.csv\n"
    write_config(tmp_path / "c.ini", body)
    out = _run_cli_process(tmp_path, "verify", "--config", "c.ini")
    assert out.returncode == cli.EXIT_CONFIG, out.stderr
    err = out.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err


@pytest.mark.parametrize("line, name", [
    ("setp = 0.5", "'setp' in [curve]"),
    ("windw = 0:1", "'windw' in [curve]"),
    ("[wieght]\nconstant = 2", "[wieght]"),
    ("[tolerances]\nslnat = 1e-3", "'slnat' in [tolerances]"),
])
def test_verify_unknown_config_name_exit_2(line, name, tmp_path, capsys):
    # a misspelled name used to fall back silently to its default
    body = "[manifold]\nm = 2\ns = 2\n[curve]\nsource = builtin:catenary\n"
    cfg = write_config(tmp_path / "c.ini", body + line + "\n")
    assert cli.run_verify(cfg) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert name in err[0]


def test_verify_accepts_every_config_name(tmp_path):
    cfg = write_config(tmp_path / "c.ini", """
[manifold]
m = 2
s = 2
[curve]
source = builtin:circle
window = -1:1
step = 1e-2
radius = 2.0
seed = 7
[weight]
constant = 2
[tolerances]
eq = 2
slant = 1e-5
ode = 1e-10
[expect]
verdict = biharmonic
""")
    rep = tmp_path / "r.json"
    assert cli.run_verify(cfg, report_path=str(rep)) == cli.EXIT_OK
    assert json.loads(rep.read_text())["seed"] == 7


@pytest.mark.parametrize("source, line", [
    ("csv", "window = 0:1"),
    ("csv", "step = 0.5"),
    ("csv", "step = 0.00101"),
    ("csv", "radius = 9"),
    ("builtin:catenary", "radius = 9"),
])
def test_verify_refuses_curve_names_its_source_ignores(catenary, tmp_path,
                                                       capsys, source, line):
    # each used to be ignored: the csv: trace ran on its own rows (-2:2,
    # n = 4001) and the catenary on its own radius, with exit 0
    path = tmp_path / "c.csv"
    catenary.to_csv(path)
    if source == "csv":
        source = f"csv:{path}"
    cfg = write_config(tmp_path / "c.ini", "[manifold]\nm = 2\ns = 2\n"
                       f"[curve]\nsource = {source}\n{line}\n")
    assert cli.run_verify(cfg) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert f"[curve] {line.split()[0]}" in err[0]


def test_verify_csv_source_accepts_its_own_step(catenary, tmp_path):
    # a step equal to the trace's grid step within the grid tolerance is
    # accepted, as every csv: config the bench writes has one
    path = tmp_path / "c.csv"
    catenary.to_csv(path)
    assert CurveTrace.from_csv(catenary.params, path).step != 1e-3
    cfg = write_config(tmp_path / "c.ini", "[manifold]\nm = 2\ns = 2\n"
                       f"[curve]\nsource = csv:{path}\nstep = 0.001\n")
    rep = tmp_path / "r.json"
    assert cli.run_verify(cfg, report_path=str(rep)) == cli.EXIT_OK
    assert json.loads(rep.read_text())["curve"]["window"] == [-2.0, 2.0]


@pytest.mark.parametrize("delta, code", [(4e-6, cli.EXIT_OK),
                                         (6e-6, cli.EXIT_CONFIG)])
def test_csv_trace_speed_deviation_boundary(catenary, tmp_path, delta, code):
    # positions scaled by 1 + delta give a speed deviation of 2 delta, on
    # either side of the 1e-5 that a sampled trace may have
    path = tmp_path / "scaled.csv"
    curve.write_csv(path, ["t", "x1", "x2", "y1", "y2", "z1", "z2"],
                    [catenary.ts, *(catenary.points * (1 + delta)).T])
    trace = CurveTrace.from_csv(catenary.params, path)
    assert curve.unit_speed_check(trace) == pytest.approx(
        2 * delta, rel=1e-4)
    cfg = write_config(tmp_path / "c.ini", "[manifold]\nm = 2\ns = 2\n"
                       f"[curve]\nsource = csv:{path}\n")
    assert cli.run_verify(cfg, report_path=str(tmp_path / "r.json")) == code


@pytest.mark.parametrize("factor, verdict", [(0.5, "none"),
                                             (2.0, "proper-f-biharmonic")])
def test_eq_tolerance_boundary(tmp_path, factor, verdict):
    # the verdict flips where [tolerances] eq passes the largest residual
    body = "[manifold]\nm = 2\ns = 2\n[curve]\nsource = builtin:catenary\n"
    rep = tmp_path / "r.json"
    cli.run_verify(write_config(tmp_path / "c.ini", body), report_path=str(rep))
    residuals = json.loads(rep.read_text())["report"]["residuals"]
    top = max(residuals[k] for k in ("eq1", "eq2", "eq3", "eq4", "gphiT"))
    assert top > 1e-10
    cfg = write_config(tmp_path / "t.ini",
                       body + f"[tolerances]\neq = {factor * top!r}\n")
    cli.run_verify(cfg, report_path=str(rep))
    assert json.loads(rep.read_text())["report"]["verdict"] == verdict


# the case-theorem layer: only tests and demos call it
MOVED_TO_FINDINGS = {
    "biharmonic": ("_fit_constant", "case1_case2_checker",
                   "_independence_gram", "case3_obstruction", "case4_mu",
                   "case4_checker"),
    "odesol": ("lambda_constants",),
    "slant": ("_nabla_phiT",),
}


# names only tests and demos used; they no longer ship at all
UNSHIPPED = {
    "sspaceform": ("ModelParams", "CurveTrace", "FrenetData",
                   "frenet_apparatus", "unit_speed_check", "SlantProfile",
                   "contact_angles", "phiT_decomposition", "BiharmonicReport",
                   "WeightFunction", "check_conditions", "OdeSolutionSpec",
                   "k1_closed_form", "numeric_solution_oracle",
                   "R6ExampleConfig", "SynthesisSpec", "integrate_frenet_system"),
    "biharmonic": ("_c_s",),
    "WeightFunction": ("from_samples",),
    "SlantProfile": ("cos_thetas",),
}


def test_case_checkers_live_in_findings_only():
    # the modules the CLI imports do not ship the case checkers or the
    # helpers only they use; sspaceform.findings provides all of them.  Nor
    # do they ship the names that only tests and demos used.
    import sspaceform
    from sspaceform import biharmonic, findings, slant
    modules = {"biharmonic": biharmonic, "odesol": odesol, "slant": slant}
    shipped = [f"{module}.{name}" for module, names in MOVED_TO_FINDINGS.items()
               for name in names if hasattr(modules[module], name)]
    assert shipped == []
    missing = [name for names in MOVED_TO_FINDINGS.values() for name in names
               if not callable(getattr(findings, name, None))]
    assert missing == []
    owners = {"sspaceform": sspaceform, "biharmonic": biharmonic,
              "WeightFunction": biharmonic.WeightFunction,
              "SlantProfile": slant.SlantProfile}
    assert [f"{owner}.{name}" for owner, names in UNSHIPPED.items()
            for name in names if hasattr(owners[owner], name)] == []


@pytest.mark.parametrize("where", ["flag", "config"])
def test_verify_unknown_expected_verdict_exit_2(where, tmp_path, capsys,
                                                monkeypatch):
    # a typo used to run the whole pipeline, then exit 1 "verdict mismatch"
    builds = _count_calls(monkeypatch, synth, "legendre_catenary")
    expect = "\n[expect]\nverdict = proper-f-biharmonc\n"
    cfg = write_config(tmp_path / "c.ini", CATENARY_CFG.split("[expect]")[0]
                       + (expect if where == "config" else ""))
    argv = ["verify", "--config", cfg]
    if where == "flag":
        argv += ["--expect", "proper-f-biharmonc"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert builds == []


@pytest.mark.parametrize("exc, code, prefix", [
    (cli.ConfigError, cli.EXIT_CONFIG, "config error:"),
    (ValueError, cli.EXIT_CONFIG, "config error:"),
    (OSError, cli.EXIT_CONFIG, "config error:"),
    (configparser.Error, cli.EXIT_CONFIG, "config error:"),
    (synth.SynthesisError, cli.EXIT_NUMERICAL, "numerical failure:"),
    (FloatingPointError, cli.EXIT_NUMERICAL, "numerical failure:"),
], ids=["ConfigError", "ValueError", "OSError", "configparser.Error",
        "SynthesisError", "FloatingPointError"])
@pytest.mark.parametrize("entry", ["verify", "synth", "ode"])
def test_exit_policy_maps_each_error_class(entry, exc, code, prefix,
                                           catenary_cfg, tmp_path,
                                           monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise exc("first line\nsecond line")

    if entry == "ode":
        monkeypatch.setattr(odesol, "k1_closed_form", fail)
        rc = cli.run_ode("iii", 1.0, 4.0, 0.0, 0.0, "-1:1:0.1")
    else:
        monkeypatch.setattr(cli, "_build_trace", fail)
        rc = (cli.run_verify(catenary_cfg) if entry == "verify" else
              cli.run_synth("catenary", str(tmp_path / "x.csv"), None, 1e-3,
                            False))
    assert rc == code
    assert capsys.readouterr().err.splitlines() == [
        f"{prefix} first line second line"]


def test_exit_policy_keeps_the_traceback_of_a_programming_error(
        catenary_cfg, monkeypatch):
    def fail(*args, **kwargs):
        raise TypeError("a bug, not a refusal")

    monkeypatch.setattr(cli, "_build_trace", fail)
    with pytest.raises(TypeError):
        cli.run_verify(catenary_cfg)


# ---------------------------------------------------------------------------
# additional source/weight paths
# ---------------------------------------------------------------------------

def test_verify_csv_sourced_curve(tmp_path):
    # synth writes a trace CSV; verify consumes it as a sampled curve
    out = tmp_path / "cat.csv"
    assert cli.main(["synth", "--builtin", "catenary", "--out", str(out),
                     "--window", "-1.5:1.5"]) == cli.EXIT_OK
    cfg = write_config(tmp_path / "fromcsv.ini", f"""
[manifold]
m = 2
s = 2

[curve]
source = csv:{out}

[weight]
c1 = 1.0

[expect]
verdict = proper-f-biharmonic
""")
    rep = tmp_path / "r.json"
    assert cli.main(["verify", "--config", cfg, "--report", str(rep)]) \
        == cli.EXIT_OK
    data = json.loads(rep.read_text())
    assert data["report"]["verdict"] == "proper-f-biharmonic"


def test_verify_csv_ignores_extra_columns(tmp_path):
    # a trace file may carry more columns than t and the coordinates, as
    # derivative columns; csv: reads the same trace and the same verify CSV
    trace = synth.case2_order3_curve(window=(-1.0, 1.0), step=1e-3)
    narrow, wide = tmp_path / "narrow.csv", tmp_path / "wide.csv"
    trace.to_csv(narrow)
    header = narrow.read_text().splitlines()[0].split(",")
    header += [f"d{k}_{name}" for k in range(1, trace.depth + 1)
               for name in header[1:]]
    write_csv(wide, header, [trace.ts, *trace.points.T,
                             *(c for d in trace.derivs for c in d.T)])
    loaded = [CurveTrace.from_csv(trace.params, p) for p in (narrow, wide)]
    assert np.array_equal(loaded[1].ts, loaded[0].ts)
    assert np.array_equal(loaded[1].points, loaded[0].points)
    verify_csvs = []
    for path in (narrow, wide):
        cfg = write_config(tmp_path / f"{path.stem}.ini", "[manifold]\nm = 2\n"
                           f"s = 2\n[curve]\nsource = csv:{path}\n")
        out = tmp_path / f"{path.stem}-verify.csv"
        assert cli.run_verify(cfg, csv_path=str(out)) == cli.EXIT_OK
        verify_csvs.append(out.read_bytes())
    assert verify_csvs[1] == verify_csvs[0]


@pytest.mark.xfail(strict=True, reason="finite-difference noise of sampled "
                   "positions reaches eq2 through k1'' (ROADMAP items 3 and 4)")
def test_verify_csv_catenary_on_the_default_window(tmp_path):
    # builtin:catenary on -2:2 is proper-f-biharmonic (eq2 = 5.7e-10); its
    # csv: round trip reads eq2 = 1.48e-3 over the 1e-3 tolerance and order
    # 2, so its verdict is none
    out = tmp_path / "cat.csv"
    assert cli.main(["synth", "--builtin", "catenary", "--out", str(out),
                     "--window", "-2:2"]) == cli.EXIT_OK
    cfg = write_config(tmp_path / "c.ini", "[manifold]\nm = 2\ns = 2\n"
                       f"[curve]\nsource = csv:{out}\n")
    rep = tmp_path / "r.json"
    assert cli.run_verify(cfg, report_path=str(rep)) == cli.EXIT_OK
    assert json.loads(rep.read_text())["report"]["verdict"] \
        == "proper-f-biharmonic"


def test_verify_sampled_weight_csv(tmp_path):
    # weight supplied as a sampled (t, f) table
    ts = np.linspace(-2, 2, 801)
    fcsv = tmp_path / "weight.csv"
    with open(fcsv, "w") as fh:
        fh.write("t,f\n")
        for t in ts:
            fh.write(f"{t:.16e},{(1 + t * t) ** 1.5:.16e}\n")
    cfg = write_config(tmp_path / "wcsv.ini", f"""
[manifold]
m = 2
s = 2

[curve]
source = builtin:catenary
window = -2:2
step = 1e-3

[weight]
csv = {fcsv}

[expect]
verdict = proper-f-biharmonic
""")
    assert cli.main(["verify", "--config", cfg,
                     "--report", str(tmp_path / "r.json")]) == cli.EXIT_OK


def test_weight_sections_mutually_exclusive(tmp_path):
    cfg = write_config(tmp_path / "two.ini", """
[manifold]
m = 2
s = 2

[curve]
source = builtin:catenary

[weight]
c1 = 1.0
constant = 2.0
""")
    assert cli.main(["verify", "--config", cfg]) == cli.EXIT_CONFIG


def test_verify_r6_steered_builtin(tmp_path):
    # the best-possible realization synthesizes on its feasible window and
    # is honestly not f-biharmonic (eq 4 fails)
    cfg = write_config(tmp_path / "steer.ini", """
[manifold]
m = 2
s = 2

[curve]
source = builtin:r6-steered
step = 2e-3

[weight]
c1 = 1.0
""")
    rep = tmp_path / "r.json"
    assert cli.main(["verify", "--config", cfg, "--report", str(rep)]) \
        == cli.EXIT_OK
    data = json.loads(rep.read_text())
    assert data["slant"]["is_slant"]
    assert data["report"]["verdict"] == "none"
    assert data["report"]["residuals"]["eq4"] > 0.5


def test_verify_csv_matches_report_on_r6_steered(tmp_path):
    # the CSV g_tau3_phiT column is the array whose trimmed maximum the
    # report lists, including the part of phiT outside span{V2, V3, V4}
    cfg = write_config(tmp_path / "steer.ini", """
[manifold]
m = 2
s = 2

[curve]
source = builtin:r6-steered
""")
    rep, samples = tmp_path / "r.json", tmp_path / "s.csv"
    assert cli.main(["verify", "--config", cfg, "--report", str(rep),
                     "--csv", str(samples)]) == cli.EXIT_OK
    data = json.loads(rep.read_text())
    assert data["curve"]["osculating_order"] == 5
    with open(samples, newline="") as fh:
        rows = list(csv.DictReader(fh))
    trim = 2 + 3 * 5    # check_conditions' edge trim for fd stride 5
    for key, col in (("gphiT", "g_tau3_phiT"), ("eq4", "eq4"),
                     ("tau3_norm", "tau3_norm")):
        col_max = max(abs(float(r[col])) for r in rows[trim:-trim])
        assert col_max == data["report"]["residuals"][key], key


def test_verify_nan_coordinate_exit_3(params22, tmp_path, capsys):
    # one nan coordinate in a csv: trace is a numerical failure, not a verdict
    trace = synth.legendre_catenary(params22, window=(-1.0, 1.0), n=401)
    path = tmp_path / "nan.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    cells = lines[1 + 100].split(",")
    cells[4] = "nan"
    lines[1 + 100] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path / "nan.ini", f"""
[manifold]
m = 2
s = 2

[curve]
source = csv:{path}
""")
    assert cli.main(["verify", "--config", cfg]) == cli.EXIT_NUMERICAL
    assert "row 100" in capsys.readouterr().err


def _count_calls(monkeypatch, module, name):
    """Count calls of module.name through every package binding of it."""
    orig = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return orig(*args, **kwargs)

    for mod in [m for key, m in list(sys.modules.items())
                if key.split(".")[0] == "sspaceform"]:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                monkeypatch.setattr(mod, attr, counted)
    return calls


def test_verify_builds_each_measurement_once(catenary_cfg, tmp_path,
                                             monkeypatch):
    from sspaceform import curve, manifold
    # on this path only CurveTrace.tangent_frame calls coords_to_frame
    builds = _count_calls(monkeypatch, manifold, "coords_to_frame")
    speed = _count_calls(monkeypatch, curve, "unit_speed_check")
    assert cli.run_verify(catenary_cfg,
                          report_path=str(tmp_path / "r.json")) == cli.EXIT_OK
    assert (len(builds), len(speed)) == (1, 1)

    # r6-example: one chain for the initial frame, one for the verify; the
    # synthesis itself builds none
    chains = _count_calls(monkeypatch, curve, "covariant_chain")
    cfg = write_config(tmp_path / "r6.ini", """
[manifold]
m = 2
s = 2

[curve]
source = builtin:r6-example
window = -0.5:0.5
""")
    assert cli.run_verify(cfg, report_path=str(tmp_path / "r6.json")) == cli.EXIT_OK
    assert len(chains) == 2


def test_verify_differences_each_curvature_once(catenary_cfg, tmp_path,
                                                monkeypatch):
    from sspaceform import curve
    diffs = _count_calls(monkeypatch, curve, "fd_derivative")
    # catenary: the analytic k1 of the weight (2) and the jet k1', k1'',
    # k2' shared by the master equations and tau2 (3); the phi T
    # decomposition differences nothing
    assert cli.run_verify(catenary_cfg,
                          report_path=str(tmp_path / "r.json")) == cli.EXIT_OK
    assert len(diffs) == 5

    out = tmp_path / "c2.csv"
    assert cli.main(["synth", "--builtin", "case2-order3", "--out", str(out),
                     "--window", "-1:1"]) == cli.EXIT_OK
    cfg = write_config(tmp_path / "c2.ini", f"""
[manifold]
m = 2
s = 2

[curve]
source = csv:{out}
""")
    diffs.clear()
    # csv: the trace derivatives (4) and the jet (3), which the weight
    # f = c1 k1^(-3/2) reads too
    assert cli.run_verify(cfg, report_path=str(tmp_path / "c2.json")) \
        == cli.EXIT_OK
    assert len(diffs) == 7


def test_synth_verify_builds_the_trace_once(tmp_path, monkeypatch):
    # synth --verify verifies the trace it wrote; it does not synthesize a
    # second one from a re-read config
    builds = _count_calls(monkeypatch, synth, "steered_slant_curve")
    assert cli.main(["synth", "--builtin", "case2-order3",
                     "--out", str(tmp_path / "c.csv"), "--verify",
                     "--report", str(tmp_path / "r.json")]) == cli.EXIT_OK
    assert len(builds) == 1
    assert json.loads((tmp_path / "r.json").read_text())["report"]["verdict"] \
        == "proper-f-biharmonic"


# ---------------------------------------------------------------------------
# CSV bytes and import cost
# ---------------------------------------------------------------------------

def _captured_write_csv(monkeypatch):
    """Patch cli.write_csv to record its (header, rows) and still write."""
    calls = []
    real = cli.write_csv

    def spy(path, header, columns):
        calls.append((header, np.column_stack(columns).astype(float)))
        real(path, header, columns)

    monkeypatch.setattr(cli, "write_csv", spy)
    return calls


def test_verify_csv_bytes_match_csv_writer(tmp_path, monkeypatch):
    # the geodesic's beta and residual columns hold nan
    cfg = write_config(tmp_path / "geo.ini", """
[manifold]
m = 2
s = 2

[curve]
source = builtin:geodesic
""")
    calls = _captured_write_csv(monkeypatch)
    out = tmp_path / "s.csv"
    assert cli.main(["verify", "--config", cfg, "--csv", str(out),
                     "--report", str(tmp_path / "r.json")]) == cli.EXIT_OK
    (header, data), = calls
    assert np.isnan(data).any()
    old = csv_writer_bytes(tmp_path / "old.csv", header,
                            [[f"{v:.16e}" for v in row] for row in data])
    assert out.read_bytes() == old


@pytest.mark.parametrize("case, eps, lam, c3", [
    ("iii", 0, 0.0, 4.0),
    ("i", 1, 1.0, 1.0),      # nowhere real: every y is "nan"
])
def test_ode_csv_bytes_match_csv_writer(case, eps, lam, c3, tmp_path):
    out = tmp_path / "ode.csv"
    cli.main(["ode", "--case", case, "--lambda", str(lam), "--c2", "1",
              "--c3", str(c3), "--range", "-1:1:0.01", "--out", str(out)])
    ts = np.arange(-1.0, 1.0 + 0.005, 0.01)
    spec = odesol.OdeSolutionSpec(epsilon=eps, lam=lam, c2=1.0, c3=c3, c4=0.0)
    y, ok = odesol.k1_closed_form(spec, ts)
    residual = np.loadtxt(out, delimiter=",", skiprows=1, usecols=2)
    rows = [[f"{ts[i]:.16e}", f"{y[i]:.16e}" if ok[i] else "nan",
             f"{residual[i]:.16e}" if np.isfinite(residual[i]) else "nan",
             int(ok[i])] for i in range(len(ts))]
    assert out.read_bytes() == csv_writer_bytes(
        tmp_path / "old.csv", ["t", "y", "residual", "domain_ok"], rows)


def test_cli_import_leaves_scipy_unloaded():
    # scipy.integrate is most of the import time of a cold CLI run; only
    # findings.case4_mu needs it and imports it itself.  sympy, the exact
    # model in sspaceform.oracles and the analyses in sspaceform.findings
    # (the case checkers among them) are for tests and demos only.
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    for module in ("sspaceform", "sspaceform.cli"):
        code = (f"import sys, {module}; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('scipy', 'sympy') "
                "or m in ('sspaceform.oracles', 'sspaceform.findings')))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        assert out.stdout.strip() == "[]", (module, out.stdout)


def test_cli_import_leaves_logging_unloaded():
    # the package logger is set up on the first clipped angle, not on import
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = "import sys, sspaceform.cli; print('logging' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_csv_kernel_unloaded():
    # the CSV kernel's module and its tables are compiled and built on the
    # first write, not by every cold import
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, sspaceform.cli; "
            "print('sspaceform.csvformat' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.strip() == "False"
