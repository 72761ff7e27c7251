import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from zeipel import cli
from zeipel.cli import CSV_HEADER, RunConfig, load_config, main
from zeipel.errors import UsageError


def run(argv):
    buf = io.StringIO()
    rc = main(argv, stdout=buf)
    return rc, buf.getvalue()


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


SMALL_GRID = {"grid": {"t0": 0.0, "t1": 2000.0, "count": 21}}


def test_propagate_row_count(tmp_path):
    cfg = write_config(tmp_path, SMALL_GRID)
    rc, out = run(["propagate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "analytic.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 22
    assert "21 rows" in out


def test_propagate_with_oracle(tmp_path):
    cfg = write_config(tmp_path, SMALL_GRID)
    rc, _ = run(["propagate", "--config", cfg, "--oracle", "--out", str(tmp_path / "o")])
    assert rc == 0
    a = (tmp_path / "o" / "analytic.csv").read_text().splitlines()
    b = (tmp_path / "o" / "oracle.csv").read_text().splitlines()
    assert len(a) == len(b) == 22
    # the two ephemerides stay close over a fraction of an orbit
    ra = np.array([float(x) for x in a[-1].split(",")[7:10]])
    rb = np.array([float(x) for x in b[-1].split(",")[7:10]])
    assert np.linalg.norm(ra - rb) < 0.05


def test_orders_produce_distinct_files(tmp_path):
    cfg = write_config(tmp_path, SMALL_GRID)
    run(["propagate", "--config", cfg, "--order", "1", "--out", str(tmp_path / "o1")])
    run(["propagate", "--config", cfg, "--order", "2", "--out", str(tmp_path / "o2")])
    f1 = (tmp_path / "o1" / "analytic.csv").read_bytes()
    f2 = (tmp_path / "o2" / "analytic.csv").read_bytes()
    assert f1 != f2


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, SMALL_GRID)
    run(["propagate", "--config", cfg, "--out", str(tmp_path / "a")])
    run(["propagate", "--config", cfg, "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "analytic.csv").read_bytes() == (
        tmp_path / "b" / "analytic.csv"
    ).read_bytes()


def test_csv_rows_read_as_per_value_format(tmp_path):
    # The writer formats a row with one "%.17g" template; its text must be
    # what `_fmt` writes value by value, at signed zero, the smallest
    # subnormal and large magnitudes too.
    rows = np.random.default_rng(3).normal(size=(4, 19)) * 10.0 ** np.arange(-9, 10)
    rows[0, :6] = (-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300)
    rows[1, 7:10] = (-0.0, 5e-324, 1e300)
    eph = SimpleNamespace(t=rows[:, 0], kep=rows[:, 1:7], cart=rows[:, 7:13], delaunay=rows[:, 13:19])
    cli.write_ephemeris_csv(tmp_path / "e.csv", eph)
    want = [CSV_HEADER] + [",".join(cli._fmt(x) for x in row) for row in rows]
    assert (tmp_path / "e.csv").read_text() == "\n".join(want) + "\n"
    assert want[1].startswith("-0,0,4.9406564584124654e-324,-4.9406564584124654e-324,1.0000000000000001e+300,")


def test_compare_requires_oracle(tmp_path):
    cfg = write_config(tmp_path, SMALL_GRID)
    rc, _ = run(["compare", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2


def test_compare_writes_report(tmp_path):
    cfg = write_config(tmp_path, SMALL_GRID)
    rc, out = run(["compare", "--config", cfg, "--oracle", "--out", str(tmp_path / "o")])
    assert rc == 0
    report = (tmp_path / "o" / "compare.txt").read_text()
    assert report == out
    assert "max_pos_err_km" in report
    assert "halving table" in report
    first = float(report.splitlines()[1].split()[1])
    assert first < 0.05


def test_verify_passes_by_default():
    rc, out = run(["verify"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "verification passed"
    checks = [ln for ln in lines[:-1]]
    assert len(checks) == 10
    assert all(ln.startswith("PASS ") for ln in checks)


def test_verify_fails_at_zero_tolerance(monkeypatch):
    registry = cli.verify_checks
    monkeypatch.setattr(
        cli, "verify_checks",
        lambda model, order: [(name, fn, args, 0.0) for name, fn, args, _ in registry(model, order)],
    )
    rc, out = run(["verify"])
    assert rc == 1
    failing = [ln for ln in out.splitlines() if ln.startswith("FAIL ")]
    assert failing, "expected named failures"
    # every failing line names its property
    assert all(":" in ln and ln.split()[1].endswith(":") for ln in failing)
    assert "verification failed:" in out
    # the exactly-zero identity check passes even at tolerance 0
    assert "PASS map-identity-at-zero" in out


def test_elements_roundtrip_through_cli():
    rc, out = run(["elements", "--direction", "kep_to_delaunay"])
    assert rc == 0
    st = json.loads(out)
    rc, out2 = run(["elements", "--direction", "delaunay_to_kep", "--state", json.dumps(st)])
    assert rc == 0
    el = json.loads(out2)
    cfg = RunConfig()
    assert el["a"] == pytest.approx(cfg.a, rel=1e-9)
    assert el["e"] == pytest.approx(cfg.e, rel=1e-9)
    assert el["i"] == pytest.approx(cfg.i, rel=1e-9)
    for k in ("raan", "argp", "mean_anom"):
        assert el[k] == pytest.approx(getattr(cfg, k), abs=1e-9)


def test_elements_cartesian_roundtrip():
    rc, out = run(["elements", "--direction", "kep_to_cartesian"])
    assert rc == 0
    state = json.loads(out)
    rc, out2 = run(["elements", "--direction", "cartesian_to_kep", "--state", json.dumps(state)])
    assert rc == 0
    el = json.loads(out2)
    assert el["a"] == pytest.approx(RunConfig().a, rel=1e-9)


def test_elements_rejects_circular(tmp_path, capsys):
    cfg = write_config(tmp_path, {"elements": {"e": 0.0}})
    rc, _ = run(["elements", "--direction", "kep_to_delaunay", "--config", cfg])
    assert rc == 2
    assert "pericenter angle undefined" in capsys.readouterr().err


def test_elements_unknown_direction():
    rc, _ = run(["elements", "--direction", "kep_to_nowhere"])
    assert rc == 2
    rc, _ = run(["elements"])
    assert rc == 2
    rc, _ = run(["elements", "--direction", "delaunay_to_kep"])
    assert rc == 2  # needs --state


def test_elements_direction_error_names_the_option_and_the_directions(capsys):
    directions = "kep_to_delaunay, delaunay_to_kep, kep_to_cartesian, cartesian_to_kep"
    assert run(["elements"])[0] == 2
    assert capsys.readouterr().err == f"error: elements needs --direction, one of {directions}\n"
    assert run(["elements", "--direction", "kep_to_nowhere"])[0] == 2
    assert capsys.readouterr().err == f"error: elements needs --direction, one of {directions}, not 'kep_to_nowhere'\n"


def test_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run(["propagate", "--config", str(bad)])[0] == 2
    assert run(["propagate", "--config", str(tmp_path / "missing.json")])[0] == 2
    cfg = write_config(tmp_path, {"grid": {"t0": 10.0, "t1": 5.0}}, "rev.json")
    assert run(["propagate", "--config", cfg])[0] == 2
    # step > t1 - t0 leaves one sample: refused like count < 2, before any run
    cfg = write_config(tmp_path, {"grid": {"t0": 0, "t1": 10, "step": 100}}, "step.json")
    assert run(["propagate", "--oracle", "--config", cfg, "--out", str(tmp_path / "o")])[0] == 2
    assert not (tmp_path / "o").exists()
    cfg = write_config(tmp_path, {"grid": {"dt": 3.0}}, "key.json")
    assert run(["propagate", "--config", cfg])[0] == 2
    cfg = write_config(tmp_path, {"mystery": {}}, "sec.json")
    assert run(["propagate", "--config", cfg])[0] == 2
    capsys.readouterr()
    # the document and each section must be JSON objects
    cfg = write_config(tmp_path, [], "list.json")
    assert run(["propagate", "--config", cfg])[0] == 2
    assert "error: config document must be a JSON object" in capsys.readouterr().err
    cfg = write_config(tmp_path, {"model": 5}, "section.json")
    assert run(["propagate", "--config", cfg])[0] == 2
    assert "error: config section 'model' must be an object" in capsys.readouterr().err
    # the oracle sums the model's zonal degrees; there is no degree key
    cfg = write_config(tmp_path, {"run": {"oracle_nmax": 3}}, "nmax.json")
    assert run(["propagate", "--config", cfg])[0] == 2
    # a negative seed is refused by name, from the command line or a config
    cfg = write_config(tmp_path, {"run": {"seed": -1}}, "seed.json")
    for argv in (["verify", "--seed", "-1"], ["verify", "--config", cfg]):
        assert run(argv)[0] == 2
        assert "error: seed must be non-negative, got -1" in capsys.readouterr().err


def test_unknown_command_exits_with_usage_code(capsys):
    assert run(["decompile"])[0] == 2
    capsys.readouterr()


def test_numeric_failure_exit_code(tmp_path, capsys):
    # nearly circular orbit: the mean-element solve leaves the admissible
    # wedge, which is a numeric failure, not a usage error
    cfg = write_config(tmp_path, {"elements": {"e": 1.0e-7}, **SMALL_GRID})
    rc, _ = run(["propagate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


def test_perigee_inside_guard_radius_exits_with_usage_code(tmp_path, capsys):
    # a = 3000 km, e = 0.01: propagate refuses it in the analytic route and
    # compare --oracle in the oracle, each naming the guard radius and
    # leaving no output directory behind
    cfg = write_config(tmp_path, {"elements": {"a": 3000.0, "e": 0.01}, **SMALL_GRID})
    for argv in (["propagate"], ["compare", "--oracle"]):
        assert run([*argv, "--config", cfg, "--out", str(tmp_path / "o")])[0] == 2
        assert "inside the guard radius R/2 = 3189.1 km" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_degree_above_j2_exits_with_usage_code(tmp_path, capsys):
    # a (J2, J3) model: compare --oracle refuses it before any oracle run,
    # naming the degree, and propagate refuses it in the analytic route
    cfg = write_config(tmp_path, {"model": {"zonal": [1.08262668e-3, -2.53265649e-6]}, **SMALL_GRID})
    for argv in (["compare", "--oracle"], ["propagate", "--oracle"]):
        assert run([*argv, "--config", cfg, "--out", str(tmp_path / "o")])[0] == 2
        assert "error: J3 = -2.532656e-06 is nonzero: the analytic theory carries J2 alone" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_out_naming_a_file_exits_with_usage_code(tmp_path, capsys):
    # --out naming an existing file, or a path under one, is refused by name
    # once the results are in hand; the file is left as it was
    cfg = write_config(tmp_path, SMALL_GRID)
    blocker = tmp_path / "F"
    blocker.write_text("keep\n")
    for argv in (["propagate"], ["compare", "--oracle"]):
        for out in (blocker, blocker / "sub"):
            assert run([*argv, "--config", cfg, "--out", str(out)])[0] == 2
            assert f"error: cannot create output directory {out}: " in capsys.readouterr().err
    assert blocker.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["F", "cfg.json"]


def test_failed_oracle_leaves_no_partial_output(tmp_path, nan_field, capsys):
    # the analytic ephemeris is in hand when the oracle fails; it is not written
    nan_field(100)
    cfg = write_config(tmp_path, SMALL_GRID)
    assert run(["propagate", "--oracle", "--config", cfg, "--out", str(tmp_path / "o")])[0] == 3
    assert "oracle integration failed: the state or right-hand side became non-finite" in capsys.readouterr().err
    assert not (tmp_path / "o" / "analytic.csv").exists()


def cli_env(**extra):
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))), **extra}


def test_no_command_loads_scipy(tmp_path):
    # In a fresh interpreter no command loads any scipy module, the oracle's
    # and the map's included: zeipel's runtime needs numpy alone.
    cfg = write_config(tmp_path, SMALL_GRID)
    out = tmp_path / "o"
    script = f"""
import io, json, sys
import zeipel.cli as cli
for argv in (["propagate"], ["propagate", "--oracle"], ["compare", "--oracle"], ["verify"],
             ["elements", "--direction", "kep_to_cartesian"]):
    assert cli.main([*argv, "--config", {cfg!r}, "--out", {str(out)!r}], stdout=io.StringIO()) == 0
print(json.dumps(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))))
"""
    done = subprocess.run([sys.executable, "-c", script], env=cli_env(), capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == []
    assert (out / "oracle.csv").is_file()


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # The monomial tables' dense products are the map's BLAS calls: one and
    # two BLAS threads write byte-identical files.
    cfg = write_config(tmp_path, SMALL_GRID)
    written = {}
    for threads in ("1", "2"):
        env = cli_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        for argv in (["propagate", "--oracle"], ["compare", "--oracle"]):
            out = tmp_path / f"{argv[0]}-{threads}"
            subprocess.run([sys.executable, "-m", "zeipel.cli", *argv, "--config", cfg, "--out", str(out)],
                           env=env, capture_output=True, check=True)
            written[argv[0], threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    for command in ("propagate", "compare"):
        assert written[command, "1"] == written[command, "2"]
    assert sorted(written["propagate", "1"]) == ["analytic.csv", "oracle.csv"]
    assert "compare.txt" in written["compare", "1"]


def test_non_finite_fields_exit_with_usage_code(tmp_path, capsys):
    # JSON accepts NaN and Infinity: each is refused by its field name
    # before it reaches a solver or the output.
    cfg = write_config(tmp_path, {"elements": {"mean_anom": float("nan")}, **SMALL_GRID})
    assert run(["propagate", "--config", cfg, "--out", str(tmp_path / "o")])[0] == 2
    assert "error: mean_anom must be finite" in capsys.readouterr().err
    cfg = write_config(tmp_path, {"elements": {"raan": float("inf")}}, "inf.json")
    assert run(["elements", "--direction", "kep_to_cartesian", "--config", cfg])[0] == 2
    assert "error: raan must be finite" in capsys.readouterr().err
    state = '{"L": 52000, "G": 51990, "H": 40000, "l": NaN, "g": 1, "h": 1}'
    assert run(["elements", "--direction", "delaunay_to_kep", "--state", state]) == (2, "")
    assert "error: l must be finite" in capsys.readouterr().err
    cfg = write_config(tmp_path, {"model": {"zonal": [float("nan")]}, **SMALL_GRID}, "zonal.json")
    assert run(["propagate", "--config", cfg, "--out", str(tmp_path / "o")])[0] == 2
    assert "error: zonal must be finite" in capsys.readouterr().err
    # values of the wrong JSON type are usage errors that name the field
    cfg = write_config(tmp_path, {"elements": {"a": "x"}, **SMALL_GRID}, "type.json")
    assert run(["propagate", "--config", cfg, "--out", str(tmp_path / "o")])[0] == 2
    assert "error: a must be a number" in capsys.readouterr().err
    assert run(["elements", "--direction", "delaunay_to_kep", "--state", "5"]) == (2, "")
    assert "error: --state must be a JSON object" in capsys.readouterr().err
    state = '{"r": "abc", "v": [1, 2, 3]}'
    assert run(["elements", "--direction", "cartesian_to_kep", "--state", state]) == (2, "")
    assert "error: r must be a list of numbers" in capsys.readouterr().err
    # a key the state does not have is refused, not dropped
    state = '{"a": 7000.0, "e": 0.05, "i": 0.5, "raan": 0.3, "argp": 1.1, "mean_anom": 0.2, "M": 3.0}'
    assert run(["elements", "--direction", "kep_to_delaunay", "--state", state]) == (2, "")
    assert "error: state for kep_to_delaunay has unknown keys: M" in capsys.readouterr().err
    # and every key it has is required
    assert run(["elements", "--direction", "kep_to_delaunay", "--state", '{"a": 7000.0}']) == (2, "")
    assert "error: state for kep_to_delaunay missing keys: e, i, raan, argp, mean_anom" in capsys.readouterr().err
    assert run(["elements", "--direction", "delaunay_to_kep", "--state", "{nope"]) == (2, "")
    assert "error: --state is not valid JSON" in capsys.readouterr().err


def test_print_config_dumps_sections():
    rc, out = run(["propagate", "--print-config"])
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == {"model", "elements", "grid", "run"}
    assert doc["elements"]["a"] == 7000.0


def test_config_overrides_merge(tmp_path):
    cfg = load_config(write_config(tmp_path, {"model": {"zonal": [2e-3, 1e-6]}}))
    assert cfg.model.zonal == (2e-3, 1e-6)
    assert cfg.model.j2 == 2e-3
    with pytest.raises(UsageError):
        RunConfig(order=3).validate()
    with pytest.raises(UsageError):
        RunConfig(step=-1.0).validate()
    with pytest.raises(UsageError):
        RunConfig(count=1).validate()
    with pytest.raises(UsageError):
        RunConfig(t0=0.0, t1=10.0, step=100.0).validate()


def test_step_grid():
    cfg = RunConfig(t0=0.0, t1=10.0, step=2.5)
    assert np.allclose(cfg.times, [0.0, 2.5, 5.0, 7.5, 10.0])
    assert RunConfig(t0=0.0, t1=10.0, step=10.0).validate().times.tolist() == [0.0, 10.0]
    # a span a hair short of a whole number of steps still ends at t1
    for t1, step, n in ((0.3, 0.1, 4), (0.7, 0.1, 8), (0.9, 0.3, 4)):
        times = RunConfig(t0=0.0, t1=t1, step=step).validate().times
        assert len(times) == n and times[-1] == t1
    assert RunConfig(t0=0.0, t1=10.0, step=3.0).validate().times.tolist() == [0.0, 3.0, 6.0, 9.0]
