"""End-to-end checks of the command line driver and its artifacts."""

import json

import numpy as np
import pytest

from immlab.cli import SCHEMA, cli_run, main
from immlab.continuation import (ContinuationTrace, StepRecord,
                                 default_schedule)
from immlab.shapes import sphere_immersion
from immlab.spectral import coeff_index


def read_report(out):
    with open(out / "report.json") as fh:
        return json.load(fh)


def run(cmd, out, **cfg):
    rc = cli_run(cmd, {"out": str(out), "L": 8, **cfg})
    return rc, read_report(out)


def test_check_gauss(tmp_path):
    rc, rep = run("check-gauss", tmp_path, shape="ellipsoid:1,1.1,0.9")
    assert rc == 0
    assert rep["schema"] == SCHEMA
    assert rep["command"] == "check-gauss"
    assert rep["max_discrepancy"] <= 1e-3


def test_check_darboux(tmp_path):
    rc, rep = run("check-darboux", tmp_path, shape="ellipsoid:1,1.1,0.9",
                  seed=3)
    assert rc == 0
    assert len(rep["checks"]) == 3
    for chk in rep["checks"]:
        assert chk["max_residual"] <= 1e-3
        assert len(chk["direction"]) == 3


def test_uniformize_writes_geometry(tmp_path):
    rc, rep = run("uniformize", tmp_path, shape="sphere:1.2")
    assert rc == 0
    assert abs(rep["lambda2_min"] - 1.44) <= 1e-8
    assert abs(rep["lambda2_max"] - 1.44) <= 1e-8
    assert rep["strong_residual"] <= 1e-9
    lines = (tmp_path / "geometry.csv").read_text().splitlines()
    assert lines[0] == "theta,phi,H,K,lambda2"
    assert len(lines) == 1 + 162  # (L+1)(2L+2) nodes at L=8


def test_symbol_elliptic(tmp_path):
    rc, rep = run("symbol", tmp_path, shape="sphere:1", epsilon=0.25)
    assert rc == 0
    assert rep["min_singular_value"] > 0.1
    assert rep["characteristic"] is False
    assert rep["directions"] == 36


def test_symbol_degenerate_endpoint(tmp_path, capsys):
    rc, rep = run("symbol", tmp_path, shape="sphere:1", epsilon=0.0)
    assert rc == 0
    assert rep["characteristic"] is True
    assert rep["min_singular_value"] <= 1e-12
    assert "characteristic in all sampled directions" in capsys.readouterr().out


@pytest.mark.parametrize("directions", ["0", "-2"])
def test_symbol_needs_a_direction(tmp_path, capsys, directions):
    # a minimum over no sampled directions is no certificate: a usage error
    rc = main(["symbol", "--shape", "sphere:1", "--L", "4",
               "--directions", directions, "--out", str(tmp_path)])
    assert rc == 2
    rep = read_report(tmp_path)
    assert rep["status"] == "error"
    assert "--directions" in rep["error"]["message"]
    assert "min_singular_value" not in rep
    capsys.readouterr()


def test_index_report(tmp_path):
    rc, rep = run("index", tmp_path, shape="sphere:1", epsilon=1.0)
    assert rc == 0
    r = rep["report"]
    assert (r["kernel_dim"], r["cokernel_dim"], r["index"]) == (9, 3, 6)
    assert r["reliable"] is True
    assert len(r["smallest_singular_values"]) == 12
    # the per-class counts of the symmetric sphere: three rotations, and
    # three translations that each share a class with a conformal mode
    assert r["class_counts"]["+++"] == [0, 0]
    assert sorted(r["class_counts"].values()) == \
        [[0, 0]] * 2 + [[1, 0]] * 3 + [[2, 1]] * 3
    # the based report of the same matrix: the six isometries quotiented
    b = rep["based_report"]
    assert (b["kernel_dim"], b["cokernel_dim"], b["index"]) == (3, 3, 0)
    assert b["based"] is True and b["reliable"] is True


def _reject_constant(name):
    raise ValueError(f"report.json holds the non-JSON constant {name}")


def test_index_report_is_strict_json(tmp_path):
    # a certified full-rank spectrum reports an infinite gap; strict JSON
    # has no Infinity token, so the field is written as null
    rc, _ = run("index", tmp_path, shape="ellipsoid:1,1.2,0.8", epsilon=1.0)
    assert rc == 0
    rep = json.loads((tmp_path / "report.json").read_text(),
                     parse_constant=_reject_constant)
    for key in ("report", "based_report"):
        assert rep[key]["gap_ratio"] is None
        assert isinstance(rep[key]["kernel_dim"], int)


def test_kernel_sweep(tmp_path):
    rc, rep = run("kernel-sweep", tmp_path, shape="sphere:1")
    assert rc == 0
    assert rep["epsilons"] == [1.0, 0.5, 0.25, 0.1]
    for r in rep["reports"]:
        assert r["index"] == 6
        assert r["kernel_dim"] >= 6


def test_solve_recovers_shape(tmp_path):
    rc, rep = run("solve", tmp_path, shape="ellipsoid:1,1.05,0.95",
                  epsilon=1.0)
    assert rc == 0
    assert rep["procrustes_error"] <= 1e-4
    assert rep["residual_history"][-1] <= 1e-9
    assert (tmp_path / "solution.json").exists()
    lines = (tmp_path / "geometry.csv").read_text().splitlines()
    assert lines[0] == "theta,phi,H,K,lambda2"


def test_continue_trace(tmp_path):
    rc, rep = run("continue", tmp_path, shape="sphere:1")
    assert rc == 0
    assert rep["status"] == "reached eps_min"
    assert rep["epsilons"][0] == default_schedule()[0]
    assert rep["epsilons"][-1] == 0.05
    assert rep["final_defect"] <= 1e-9
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == ("epsilon,iters,residual," +
                        ",".join(f"sv{i}" for i in range(1, 13)))
    assert len(lines) == 1 + len(rep["epsilons"])
    assert (tmp_path / "solution.json").exists()


def test_continue_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    run("continue", a, shape="sphere:1")
    run("continue", b, shape="sphere:1")
    assert (a / "trace.csv").read_text() == (b / "trace.csv").read_text()


def test_continue_tol_sets_certificate(tmp_path, capsys):
    # at L = 8 this ellipsoid's uniformization residual is about 1.6e-8,
    # so the default 1e-9 certificate fails and a looser --tol passes
    rc, rep = run("continue", tmp_path, shape="ellipsoid:1,1.02,0.98",
                  tol=1e-7)
    assert rc == 0
    assert rep["status"] == "reached eps_min"
    assert rep["epsilons"][-1] == 0.05
    rc, rep = run("continue", tmp_path, shape="ellipsoid:1,1.02,0.98")
    assert rc == 1
    assert "uniformization residual" in rep["error"]["message"]
    capsys.readouterr()


@pytest.mark.parametrize("command", ["uniformize", "solve", "continue"])
@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_main_rejects_a_tol_that_is_not_positive_finite(tmp_path, capsys,
                                                        command, tol):
    # a bound that no residual meets (or that certifies nothing) is a usage
    # error found before any work, not a reported numerical failure
    rc = main([command, "--shape", "ellipsoid:1,1.02,0.98", "--L", "6",
               "--tol", tol, "--out", str(tmp_path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err)
    assert record["error"]["type"] == "ValueError"
    assert "'tol'" in record["error"]["message"]
    assert read_report(tmp_path) == record
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


@pytest.mark.parametrize("command", ["uniformize", "solve", "continue"])
@pytest.mark.parametrize("tol", [-1.0, 0, float("nan"), float("-inf")])
def test_cli_run_rejects_a_tol_that_is_not_positive_finite(tmp_path, capsys,
                                                           command, tol):
    rc, rep = run(command, tmp_path, shape="sphere:1", tol=tol)
    assert rc == 2
    assert capsys.readouterr().out == ""
    assert rep["status"] == "error"
    assert rep["error"]["type"] == "ValueError"
    assert "'tol'" in rep["error"]["message"]


def test_solver_failure_exit_code(tmp_path, capsys):
    rc, rep = run("solve", tmp_path, shape="ellipsoid:1,1.3,0.7",
                  epsilon=1.0, tol=1e-16)
    assert rc == 1
    assert rep["status"] == "error"
    assert rep["error"]["type"] == "ConvergenceError"
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"]["type"] == "ConvergenceError"


def test_linalg_failure_is_numerical(tmp_path, capsys, monkeypatch):
    def no_convergence(M):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr("immlab.cli.svd_report", no_convergence)
    rc, rep = run("index", tmp_path, shape="sphere:1", epsilon=1.0)
    assert rc == 1
    assert rep["status"] == "error"
    assert rep["error"] == {"type": "LinAlgError",
                            "message": "SVD did not converge"}
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"]["type"] == "LinAlgError"


def test_degenerate_immersion_is_numerical(tmp_path, capsys, monkeypatch):
    # the multiplicative blend needs H > 0; this shape dips below zero
    cwd, out = tmp_path / "cwd", tmp_path / "out"
    cwd.mkdir(), out.mkdir()
    monkeypatch.chdir(cwd)
    rc, rep = run("index", out, shape="perturbed:1;3,0,0.3",
                  variant="multiplicative", epsilon=0.5)
    assert rc == 1
    assert rep["schema"] == SCHEMA
    assert rep["status"] == "error"
    assert rep["error"]["type"] == "ImmersionRegularityError"
    assert "H > 0" in rep["error"]["message"]
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"]["type"] == \
        "ImmersionRegularityError"
    assert list(cwd.iterdir()) == []
    assert [p.name for p in out.iterdir()] == ["report.json"]


def _flat_disk_file(path):
    # x and y of the unit sphere, z = 0: the metric degenerates on the
    # equator, which is a node of the L = 8 and L = 10 grids
    nc = 81
    xy = np.sqrt(4.0 * np.pi / 3.0)
    coeffs = {key: [0.0] * nc for key in "xyz"}
    coeffs["x"][coeff_index(1, 1)] = xy
    coeffs["y"][coeff_index(1, -1)] = xy
    path.write_text(json.dumps({"L": 8, "coeffs": coeffs}))
    return f"file:{path}"


@pytest.mark.parametrize("shape,L", [
    ("ellipsoid:1,1,0", 8), ("sphere:0", 8), ("disk", 8), ("disk", 10)])
def test_degenerate_shape_is_numerical(tmp_path, capsys, shape, L):
    # a well-formed spec or file of a degenerate immersion exits 1, whether
    # it degenerates while parsing (resampled) or later (at its own L)
    if shape == "disk":
        shape = _flat_disk_file(tmp_path / "disk.json")
    rc, rep = run("index", tmp_path, shape=shape, L=L)
    assert rc == 1
    assert rep["error"]["type"] == "ImmersionRegularityError"
    assert "determinant" in rep["error"]["message"]
    capsys.readouterr()


def test_failed_continuation_record_says_error(tmp_path, capsys,
                                               monkeypatch):
    later = [StepRecord(1.0, 3, 1e-11, np.zeros(12), True, 1e-12),
             StepRecord(0.5, 25, 1e-6, np.zeros(12), False, 1e-6)]
    # a failed first step leaves the path at the start sphere, whose
    # geometry.csv is still written
    first = [StepRecord(1.0, 25, 1e-6, np.full(12, np.nan), False, 1e-2)]
    for name, steps, at_start in [("later", later, False),
                                  ("first", first, True)]:
        def stalled(metric, **kw):
            F = sphere_immersion(metric.grid) if at_start else None
            return ContinuationTrace(steps, status="stalled", F=F)

        monkeypatch.setattr("immlab.cli.epsilon_continuation", stalled)
        out = tmp_path / name
        out.mkdir()
        rc, rep = run("continue", out, shape="sphere:1")
        assert rc == 1
        assert rep["status"] == "error"
        assert rep["trace_status"] == "stalled"
        assert rep["error"]["type"] == "ConvergenceError"
        assert rep["epsilons"] == [s.epsilon for s in steps]
        assert (out / "geometry.csv").exists() == at_start
        err = json.loads(capsys.readouterr().err.strip())
        assert (err["status"], err["trace_status"]) == ("error", "stalled")


def test_bad_shape_exit_code(tmp_path, capsys):
    rc, rep = run("index", tmp_path, shape="blob:1")
    assert rc == 2
    assert rep["error"]["type"] == "ShapeSpecError"
    capsys.readouterr()


@pytest.mark.parametrize("shape", ["sphere:nan", "ellipsoid:1,inf,1"])
def test_non_finite_shape_is_a_usage_error(tmp_path, capsys, shape):
    rc, rep = run("check-gauss", tmp_path, shape=shape)
    assert rc == 2
    assert rep["error"]["type"] == "ShapeSpecError"
    assert "max_discrepancy" not in rep
    capsys.readouterr()


def test_unknown_command(tmp_path):
    rc = cli_run("frobnicate", {"out": str(tmp_path)})
    assert rc == 2
    assert read_report(tmp_path)["status"] == "error"


def test_main_merges_config_and_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 8, "shape": "sphere:1.3",
                               "epsilon": 0.5}))
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["symbol", "--config", str(cfg), "--out", str(out),
               "--epsilon", "0.25"])
    assert rc == 0
    rep = read_report(out)
    assert rep["shape"] == "sphere:1.3"  # from config
    assert rep["epsilon"] == 0.25        # flag wins
    assert rep["L"] == 8


def test_main_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 8, "banana": 3}))
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["symbol", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err.strip())["status"] == "error"


@pytest.mark.parametrize("command, bad", [
    ("symbol", {"L": "8"}),
    ("symbol", {"L": 8.0}),
    ("symbol", {"L": True}),
    ("uniformize", {"tol": "x"}),
    ("check-darboux", {"seed": 1.5}),
    ("symbol", {"directions": 2.5}),
    ("symbol", {"epsilon": False}),
    ("symbol", {"shape": 1}),
])
def test_main_rejects_config_value_of_wrong_type(tmp_path, capsys, command,
                                                 bad):
    # a value whose type differs from its default's is a usage error with
    # its record in --out, not a traceback, and never a silent conversion
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bad))
    out = tmp_path / "out"
    out.mkdir()
    rc = main([command, "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "ValueError"
    key, = bad
    assert repr(key) in record["error"]["message"]
    assert read_report(out) == record


def test_main_accepts_an_integer_for_a_real_config_value(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 8, "epsilon": 1, "tol": 1}))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["symbol", "--config", str(cfg), "--out", str(out),
                 "--directions", "4"]) == 0
    assert read_report(out)["epsilon"] == 1


@pytest.mark.parametrize("bad", [{"L": "8"}, {"L": 8.0},
                                 {"L": 8, "directions": 2.5},
                                 {"L": 8, "bogus": 1},
                                 {"L": 8, "epsilon": None}])
def test_cli_run_checks_its_config(tmp_path, capsys, bad):
    # a config passed from Python is checked like a --config file: a usage
    # error with its record in out, never a traceback or a run on it
    rc = cli_run("symbol", {"out": str(tmp_path), "shape": "sphere:1", **bad})
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err)
    assert record["error"]["type"] == "ValueError"
    assert read_report(tmp_path) == record


def test_main_rejects_non_dict_config(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([1, 2]))
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["symbol", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    capsys.readouterr()
    assert read_report(out)["status"] == "error"
    # the error lands in --out only, never in the working directory
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out"]
    assert [p.name for p in out.iterdir()] == ["report.json"]


def test_main_config_error_without_out_writes_nothing(tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    rc = main(["symbol", "--config", str(cfg)])
    assert rc == 2
    record = json.loads(capsys.readouterr().err)
    assert record["status"] == "error"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_main_rejects_unknown_subcommand(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["warp", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_out_must_be_a_writable_directory(tmp_path, capsys):
    # a missing --out is a usage error found before any work is done, not
    # an OSError after the whole command has run
    missing = tmp_path / "missing"
    rc = cli_run("symbol", {"out": str(missing), "L": 8, "shape": "sphere:1",
                            "epsilon": 1.0, "variant": "multiplicative"})
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err)
    assert record["status"] == "error"
    assert record["error"]["type"] == "usage"
    assert "not a writable directory" in record["error"]["message"]
    assert "report_error" not in record
    assert not missing.exists()
    # a file is no directory either
    path = tmp_path / "file"
    path.write_text("")
    assert cli_run("index", {"out": str(path), "L": 8}) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "usage"
    assert path.read_text() == ""


def test_error_record_names_an_unwritten_report(tmp_path, capsys):
    # the config error is reported on stderr even though --out cannot take
    # its report.json, and the record says so
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    missing = tmp_path / "missing"
    rc = main(["symbol", "--config", str(cfg), "--out", str(missing)])
    assert rc == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"]["type"] == "ValueError"
    assert record["report_error"].startswith(
        f"could not write {missing}/report.json:")
    assert not missing.exists()
