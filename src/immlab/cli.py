"""Command-line entry points for batch experiments.

One experiment per invocation.  Every run writes report.json (schema
"immreg/1") into the output directory; solve and continue additionally
write geometry.csv for the solution immersion, and continue writes
trace.csv with one row per continuation step.  Failures print a
machine-readable error record and exit nonzero.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from .continuation import (TargetData, epsilon_continuation, newton_solve,
                           procrustes_align)
from .errors import (ConvergenceError, DegreeMismatchError,
                     ImmersionRegularityError, ShapeSpecError)
from .fredholm import based_report, kernel_vs_epsilon, svd_report
from .geometry import ImmersionMap, darboux_residual, gauss_check
from .operators import apply_phi, assemble_linearization, principal_symbol
from .shapes import parse_shape_spec, save_immersion, sphere_immersion
from .spectral import grid
from .uniformize import MetricData, solve_liouville

SCHEMA = "immreg/1"

_DEFAULTS = {
    "L": 12,
    "epsilon": 1.0,
    "variant": "additive",
    "shape": "sphere:1",
    "out": ".",
    "seed": 0,
    "tol": 1e-9,
    "directions": 36,
}


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonify(obj.item())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, float) and not np.isfinite(obj):
        # strict JSON has no Infinity/NaN tokens
        return None
    return obj


def _write_report(out_dir: str, payload: dict) -> None:
    payload = {"schema": SCHEMA, **payload}
    with open(f"{out_dir}/report.json", "w") as fh:
        json.dump(_jsonify(payload), fh, indent=2)
        fh.write("\n")


def _write_geometry(out_dir: str, F: ImmersionMap, lambda2) -> None:
    g = F.grid
    geo = F.geometry
    with open(f"{out_dir}/geometry.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta", "phi", "H", "K", "lambda2"])
        for n in range(g.n_nodes):
            w.writerow([repr(float(v)) for v in
                        (g.theta[n], g.phi[n], geo.H[n], geo.K[n],
                         lambda2[n])])


def _write_solution(out_dir: str, F: ImmersionMap) -> None:
    """geometry.csv, with lambda^2 from uniformizing F, and solution.json."""
    conf = solve_liouville(MetricData.from_immersion(F), tol=None)
    _write_geometry(out_dir, F, conf.lambda2)
    save_immersion(f"{out_dir}/solution.json", F)


def _write_trace(out_dir: str, trace) -> None:
    with open(f"{out_dir}/trace.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epsilon", "iters", "residual"]
                   + [f"sv{i}" for i in range(1, 13)])
        for st in trace.steps:
            w.writerow([repr(float(st.epsilon)), st.iterations,
                        repr(float(st.residual))]
                       + [repr(float(v)) for v in st.singular_values])


def _report_dict(rep) -> dict:
    return {
        "epsilon": rep.epsilon,
        "variant": rep.variant,
        "kernel_dim": rep.kernel_dim,
        "cokernel_dim": rep.cokernel_dim,
        "index": rep.index,
        "gap_ratio": rep.gap_ratio,
        "reliable": rep.reliable,
        "based": rep.based,
        "smallest_singular_values": rep.tail,
        "mode_labels": rep.mode_labels,
        "class_counts": rep.class_counts,
    }


# Each _cmd_* runs one subcommand on the parsed --shape immersion and
# returns its report.json fields after command, shape and L (see cli_run).

def _cmd_check_gauss(cfg: dict, F: ImmersionMap) -> dict:
    chk = gauss_check(F)
    print(f"max Gauss discrepancy: {chk.max_discrepancy:.6e}")
    return {"max_discrepancy": chk.max_discrepancy}


def _cmd_check_darboux(cfg: dict, F: ImmersionMap) -> dict:
    rng = np.random.default_rng(cfg["seed"])
    dirs = [np.array([0.0, 0.0, 1.0])]
    for _ in range(2):
        e = rng.standard_normal(3)
        dirs.append(e / np.linalg.norm(e))
    rows = []
    for e in dirs:
        chk = darboux_residual(F, e)
        rows.append({"direction": e, "max_residual": chk.max_residual})
        print(f"e = ({e[0]:+.4f}, {e[1]:+.4f}, {e[2]:+.4f}): "
              f"max residual {chk.max_residual:.6e}")
    return {"seed": cfg["seed"], "checks": rows}


def _cmd_uniformize(cfg: dict, F: ImmersionMap) -> dict:
    conf = solve_liouville(MetricData.from_immersion(F), tol=cfg["tol"])
    _write_geometry(cfg["out"], F, conf.lambda2)
    print(f"uniformized in {conf.iterations} iterations, "
          f"strong residual {conf.strong_residual:.6e}")
    return {"iterations": conf.iterations,
            "strong_residual": conf.strong_residual,
            "lambda2_min": float(conf.lambda2.min()),
            "lambda2_max": float(conf.lambda2.max())}


def _cmd_symbol(cfg: dict, F: ImmersionMap) -> dict:
    if cfg["directions"] < 1:
        # a minimum over no directions certifies nothing
        raise ValueError(f"--directions must be at least 1, "
                         f"got {cfg['directions']}")
    g = F.grid
    eps = cfg["epsilon"]
    data = apply_phi(F, eps, cfg["variant"], liouville_tol=None)
    angles = 2.0 * np.pi * np.arange(cfg["directions"]) / cfg["directions"]
    smin = np.inf
    for node in range(g.n_nodes):
        for a in angles:
            _, sv = principal_symbol(F, node, np.array([np.cos(a), np.sin(a)]),
                                     eps, cfg["variant"], data=data)
            smin = min(smin, sv)
    characteristic = smin <= 1e-12
    line = (f"minimum symbol singular value {smin:.6e} over "
            f"{g.n_nodes} nodes x {cfg['directions']} directions")
    if characteristic and eps == 0.0:
        line += "; characteristic in all sampled directions"
    print(line)
    return {"epsilon": eps, "variant": cfg["variant"],
            "directions": cfg["directions"],
            "min_singular_value": float(smin),
            "characteristic": bool(characteristic)}


def _cmd_index(cfg: dict, F: ImmersionMap) -> dict:
    M = assemble_linearization(F, cfg["epsilon"], cfg["variant"],
                               liouville_tol=None)
    rep, based = svd_report(M), based_report(M)
    for name, r in (("", rep), ("based: ", based)):
        print(f"{name}kernel {r.kernel_dim}, cokernel {r.cokernel_dim}, "
              f"index {r.index} (gap {r.gap_ratio:.2e}, "
              f"reliable {r.reliable})")
    return {"report": _report_dict(rep), "based_report": _report_dict(based)}


def _cmd_kernel_sweep(cfg: dict, F: ImmersionMap) -> dict:
    eps_grid = [1.0, 0.5, 0.25, 0.1]
    reports = kernel_vs_epsilon(F, eps_grid, cfg["variant"])
    for rep in reports:
        print(f"eps {rep.epsilon:5.2f}: kernel {rep.kernel_dim}, "
              f"cokernel {rep.cokernel_dim}, index {rep.index}")
    return {"variant": cfg["variant"], "epsilons": eps_grid,
            "reports": [_report_dict(r) for r in reports]}


def _cmd_solve(cfg: dict, F_true: ImmersionMap) -> dict:
    g = F_true.grid
    target = TargetData.from_immersion(F_true, cfg["epsilon"], cfg["variant"],
                                       liouville_tol=None)
    area = MetricData.from_immersion(F_true).vol_weights.sum()
    F0 = sphere_immersion(g, radius=float(np.sqrt(area / (4.0 * np.pi))))
    F, history = newton_solve(F0, target, tol=cfg["tol"])
    _, err = procrustes_align(F, F_true)
    _write_solution(cfg["out"], F)
    print(f"converged in {len(history) - 1} iterations, "
          f"residual {history[-1]:.6e}, aligned node error {err:.6e}")
    return {"epsilon": cfg["epsilon"], "variant": cfg["variant"],
            "iterations": len(history) - 1,
            "residual_history": history,
            "procrustes_error": err}


def _cmd_continue(cfg: dict, F_true: ImmersionMap) -> dict:
    metric = MetricData.from_immersion(F_true)
    trace = epsilon_continuation(metric, tol=cfg["tol"],
                                 variant=cfg["variant"],
                                 liouville_tol=cfg["tol"])
    _write_trace(cfg["out"], trace)
    if trace.F is not None:
        _write_solution(cfg["out"], trace.F)
    for st in trace.steps:
        print(f"eps {st.epsilon:7.4f}: iters {st.iterations:3d}, "
              f"residual {st.residual:.3e}, defect {st.defect:.3e}, "
              f"{'ok' if st.accepted else 'failed'}")
    print(f"status: {trace.status}")
    payload = {"variant": cfg["variant"], "status": trace.status,
               "epsilons": trace.epsilons, "defects": trace.defects,
               "final_defect": float(trace.defects[-1])}
    if trace.status != "reached eps_min":
        payload["trace_status"] = payload.pop("status")
        raise _TraceFailed(trace.status, payload)
    return payload


class _TraceFailed(Exception):
    def __init__(self, status, payload):
        super().__init__(f"continuation ended with status {status!r}")
        self.payload = payload


_COMMANDS = {
    "check-gauss": _cmd_check_gauss,
    "check-darboux": _cmd_check_darboux,
    "uniformize": _cmd_uniformize,
    "symbol": _cmd_symbol,
    "index": _cmd_index,
    "kernel-sweep": _cmd_kernel_sweep,
    "solve": _cmd_solve,
    "continue": _cmd_continue,
}


def cli_run(command: str, config: dict) -> int:
    """Run one subcommand with a merged config; returns the exit status.

    Every config key must be one of _DEFAULTS and have its default's type
    (_check_config_type), and tol must be positive and finite; else the run
    exits 2 with a ValueError record, before any work, written to the
    config's out when that names a writable directory.
    """
    try:
        unknown = set(config) - set(_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        for key, val in config.items():
            _check_config_type(key, val)
        if "tol" in config and not 0.0 < config["tol"] < np.inf:
            # no residual meets a bound <= 0 or NaN, and inf certifies none
            raise ValueError("config key 'tol' must be a positive finite "
                             f"number, got {config['tol']!r}")
    except ValueError as exc:
        out = config.get("out")
        _emit_error(out if isinstance(out, str) else None, "ValueError",
                    str(exc))
        return 2
    cfg = {**_DEFAULTS, **config}
    out = cfg["out"]
    if not (os.path.isdir(out) and os.access(out, os.W_OK | os.X_OK)):
        # checked before any work, since every run ends by writing there
        _emit_error(None, "usage", f"--out {out!r} is not a writable "
                    "directory")
        return 2
    if command not in _COMMANDS:
        _emit_error(cfg["out"], "usage", f"unknown command {command!r}")
        return 2
    head = {"command": command, "shape": cfg["shape"], "L": cfg["L"]}
    try:
        F = parse_shape_spec(cfg["shape"], grid(cfg["L"]))
        payload = {**head, **_COMMANDS[command](cfg, F)}
    except _TraceFailed as exc:
        _emit_error(cfg["out"], "ConvergenceError", str(exc),
                    extra={**head, **exc.payload})
        return 1
    except (np.linalg.LinAlgError, ImmersionRegularityError) as exc:
        # ValueError subclasses, but numerical failures, not usage errors
        _emit_error(cfg["out"], type(exc).__name__, str(exc))
        return 1
    except (ShapeSpecError, DegreeMismatchError, ValueError, OSError) as exc:
        _emit_error(cfg["out"], type(exc).__name__, str(exc))
        return 2
    except ConvergenceError as exc:
        _emit_error(cfg["out"], "ConvergenceError", str(exc))
        return 1
    _write_report(cfg["out"], payload)
    return 0


def _emit_error(out_dir: str | None, kind: str, message: str,
                extra: dict | None = None) -> None:
    """Write the error record as out_dir/report.json, then print it to
    stderr; a report that cannot be written is named in the printed
    record's "report_error"."""
    record = {**(extra or {}), "schema": SCHEMA, "status": "error",
              "error": {"type": kind, "message": message}}
    if out_dir is not None:
        try:
            _write_report(out_dir, record)
        except OSError as exc:
            record["report_error"] = (f"could not write {out_dir}/report.json:"
                                      f" {exc}")
    print(json.dumps(_jsonify(record)), file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="immlab",
        description="spectral laboratory for regularized isometric immersion")
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--variant", choices=["additive", "multiplicative"],
                   default=None)
    p.add_argument("--shape", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None,
                   help="JSON file with defaults for any flag")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--directions", type=int, default=None)
    return p


def _check_config_type(key: str, val) -> None:
    """Raise ValueError unless a config value has its default's type.

    Integers (L, seed, directions) must be int; reals (epsilon, tol) may
    be int or float; strings must be str.  A bool is never a number here,
    although Python counts it as an int.
    """
    want = type(_DEFAULTS[key])
    allowed = (int, float) if want is float else (want,)
    if isinstance(val, bool) or not isinstance(val, allowed):
        names = " or ".join(t.__name__ for t in allowed)
        raise ValueError(f"config key {key!r} must be {names}, got "
                         f"{type(val).__name__} {val!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
            if not isinstance(loaded, dict):
                raise ValueError("config file must hold a JSON object")
            config.update(loaded)
        except (OSError, ValueError) as exc:
            # the config never loaded, so only --out names a directory
            _emit_error(args.out, type(exc).__name__, str(exc))
            return 2
    for key in _DEFAULTS:
        val = getattr(args, key)
        if val is not None:
            config[key] = val
    return cli_run(args.command, config)


if __name__ == "__main__":
    sys.exit(main())
