"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They run the workloads at a small band limit with one or two operations,
so they check the benchmark's plumbing, not immlab's numbers.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import run
from workloads import WORKLOADS

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)


def _small(name, **changes):
    return dataclasses.replace(WORKLOADS[name], L=8, pool=2, trace_ops=1,
                               **changes)


def _run(capsys, out_dir, spec, trace):
    code = run.main(["--workload", spec.name, "--seed", "5",
                     "--seconds", "0.001", "--trace", str(trace)],
                    workloads={spec.name: spec}, out_dir=str(out_dir))
    lines = capsys.readouterr().out.strip().splitlines()
    path = out_dir / f"{spec.name}-seed5-trace{trace}.json"
    with open(path) as f:
        record = json.load(f)
    return code, json.loads(lines[-1]), record


def _traced_bindings():
    """Names still bound to a tracing wrapper (module and class level)."""
    owners = [m for k, m in sys.modules.items()
              if k == "immlab" or k.startswith("immlab.")]
    owners += [v for m in list(owners) for v in vars(m).values()
               if isinstance(v, type)]
    owners.append(np.linalg)
    return [f"{getattr(o, '__name__', o)}.{k}" for o in owners
            for k, v in vars(o).items()
            if hasattr(getattr(v, "__func__", v), "span_name")]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_printed_with_its_unit(name, trace, capsys, tmp_path):
    code, result, record = _run(capsys, tmp_path, _small(name), trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))
    assert record["L"] == 8 and record["ops"][0]["params"]
    if trace:
        assert record["traced_matches_untraced"]
        assert record["spans"]["rows"]
        assert _traced_bindings() == []


def _miss(im, inp, result):
    checks, misses, fp = WORKLOADS["index"].gate(im, inp, result)
    return checks, misses + ["forced miss"], fp


def _raise(im, inp):
    raise sys.modules["immlab.continuation"].ConvergenceError("forced")


@pytest.mark.parametrize("change,kind", [
    ({"gate": _miss}, "GateMiss"),
    ({"operation": _raise}, "ConvergenceError"),
])
def test_failure_is_counted_not_fatal(change, kind, capsys, tmp_path):
    code, result, record = _run(capsys, tmp_path, _small("index", **change), 0)
    assert code == 0
    assert result["failed"] == result["attempted"] >= 1
    assert result["correct"] is False
    assert result["metrics"]["ok_frac"]["value"] == 0.0
    assert record["failed_frac"] == 1.0
    assert record["failures_by_type"] == {kind: result["failed"]}
    op = record["ops"][0]
    assert not op["ok"] and op["failure"] == kind and "radius" in op["params"]


def test_continue_gate_rejects_a_stalled_path():
    def trace(status, eps, defects):
        steps = [SimpleNamespace(epsilon=e, accepted=True, defect=d)
                 for e, d in zip(eps, defects)]
        return SimpleNamespace(status=status, steps=steps, F=None,
                               epsilons=np.array(eps),
                               defects=np.array(defects))
    gate = WORKLOADS["continue"].gate
    _, misses, _ = gate(None, None, trace("reached eps_min", [1.0, 0.05],
                                          [1e-2, 1e-6]))
    assert misses == []
    _, misses, _ = gate(None, None, trace("stalled", [1.0, 0.0576],
                                          [1e-2, 2e-2]))
    assert [m.split()[0] for m in misses] == ["status", "last", "defect",
                                              "final"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    (tmp_path / "perfbench").mkdir()
    for name in os.listdir(run.HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(run.HERE, name), tmp_path / "perfbench")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "index", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, env=env,
                       capture_output=True, text=True, timeout=120)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
    assert not (tmp_path / "perfbench" / "out").exists()


def test_benchmark_json_matches_the_workloads():
    for w in BENCH["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert "continue" not in {w["name"] for w in BENCH["workloads"]}
