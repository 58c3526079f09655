"""Command line front end.

Verbs:
  simulate   run one scenario, write trajectory.csv and manifest.json
  analyze    spectral report, consensus prediction, ISS constants -> report.json
  compare    baseline vs filter deviation statistics -> comparison.csv, summary.json
  envelope   certify a trajectory against its ISS envelope -> envelope.csv

Exit codes: 0 success, 2 configuration error, 3 numerical failure during
integration, 4 solver failure, 5 envelope violation.  Artifacts are pure
functions of (config file, seed): re-running a command writes
byte-identical CSV files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (ISSBound, assemble_global, disagreement_norms,
                       exp_bound_constants, iss_envelope, left_null_vector_of,
                       phi_max, predict_equilibrium, run_comparison,
                       spectral_report)
from .config import build_scenario, load_config
from .errors import BoundViolationError, ConfigError, MefconError
from .graphs import is_balanced, is_strongly_connected
from .simulate import simulate_classical, simulate_mef


def _finite(v: float):
    v = float(v)
    return v if math.isfinite(v) else None


def _write_csv(path: Path, columns: list[str], arrays: list[np.ndarray]) -> None:
    data = np.column_stack(arrays)
    np.savetxt(path, data, delimiter=",", header=",".join(columns),
               comments="", fmt="%.17g")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _prepare(args) -> tuple:
    raw = load_config(args.config)
    config, resolved = build_scenario(raw, args.seed, args.riccati)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return config, resolved, out


def _equilibrium(config, system):
    """The consensus value x* the configured run converges to.

    A steady run weights e0 by 1/Q* (``predict_equilibrium``); a dynamic
    run reaches that value only when its gain starts at Q*, i.e. Xi = 1/Q*.
    """
    if config.riccati == "dynamic" and not np.allclose(
            system.Xi * system.q_star, 1.0, rtol=0.0, atol=1e-9):
        raise ConfigError(
            "params.Xi must be 1/Q* (leave it null) for riccati: dynamic: "
            "a gain started elsewhere reaches a consensus value x* that "
            "is not predicted here")
    omega = left_null_vector_of(config.topology)
    return predict_equilibrium(system, omega, config.x0, config.prior - config.x0)


def cmd_simulate(args) -> int:
    config, resolved, out = _prepare(args)
    algorithm = resolved["algorithm"]
    start = time.perf_counter()
    traj = simulate_mef(config) if algorithm == "filter" else simulate_classical(config)
    duration = time.perf_counter() - start
    n = config.topology.node_count
    columns = (["t"] + [f"x_{i}" for i in range(1, n + 1)]
               + [f"xhat_{i}" for i in range(1, n + 1)]
               + [f"e_{i}" for i in range(1, n + 1)]
               + [f"u_{i}" for i in range(1, n + 1)])
    csv_path = out / "trajectory.csv"
    _write_csv(csv_path, columns, [traj.t, traj.x, traj.x_hat, traj.e, traj.u])
    manifest = {
        "tool": "mefcon",
        "version": __version__,
        "command": "simulate",
        "algorithm": algorithm,
        "config": resolved,
        "config_path": str(args.config),
        "artifacts": {"trajectory": csv_path.name, "manifest": "manifest.json"},
        "csv_columns": columns,
        "duration_s": round(duration, 6),
    }
    _write_json(out / "manifest.json", manifest)
    spread = float(np.max(np.abs(traj.x[-1] - traj.x[-1].mean())))
    print(f"simulate: {algorithm}, N={n}, steps={config.steps}, "
          f"final spread {spread:.3e}")
    print(f"wrote {csv_path} and {out / 'manifest.json'}")
    return 0


def cmd_analyze(args) -> int:
    config, resolved, out = _prepare(args)
    system = assemble_global(config.topology, config.params)
    report = spectral_report(system, args.tolerance)
    connected = is_strongly_connected(config.topology)
    payload = {
        "tool": "mefcon",
        "version": __version__,
        "command": "analyze",
        "config": resolved,
        "connectivity": {
            "strongly_connected": connected,
            "balanced": is_balanced(config.topology),
        },
        "spectral": {
            "q": report.q,
            "stable_count": report.stable_count,
            "spectral_abscissa_nonzero": _finite(report.spectral_abscissa_nonzero),
            "zero_tolerance": report.zero_tolerance,
            "eigenvalues": [[float(ev.real), float(ev.imag)]
                            for ev in report.eigenvalues],
        },
        "warnings": [],
    }
    if connected:
        eq = _equilibrium(config, system)
        a, b = exp_bound_constants(system, report, args.tolerance)
        phi = phi_max(config.params, config.topology,
                      config.profile.delta_max, config.profile.eps_max)
        bound = ISSBound(a, b, phi, float(system.q_star.max()))
        payload["equilibrium"] = {
            "x_star": eq.x_star,
            "numerator": eq.numerator,
            "denominator": eq.denominator,
            "omega": eq.omega.tolist(),
        }
        payload["iss"] = {
            "a": bound.a,
            "b": bound.b,
            "phi_max": bound.phi_max,
            "Q_max": bound.Q_max,
            "asymptotic_ball": bound.asymptotic_ball,
        }
        print(f"analyze: q={report.q}, stable={report.stable_count}, "
              f"x*={eq.x_star:.12g}, a={a:.6g}, b={b:.6g}, "
              f"phi_max={phi:.6g}")
    else:
        payload["warnings"].append(
            "graph is not strongly connected: consensus value and ISS "
            "constants are undefined, spectral counts reported only")
        print(f"analyze: q={report.q}, stable={report.stable_count} "
              "(not strongly connected; no equilibrium or envelope)")
    _write_json(out / "report.json", payload)
    print(f"wrote {out / 'report.json'}")
    return 0


def cmd_compare(args) -> int:
    config, resolved, out = _prepare(args)
    seeds = resolved["compare_seeds"]
    start = time.perf_counter()
    result = run_comparison(config, seeds)
    duration = time.perf_counter() - start
    csv_path = out / "comparison.csv"
    _write_csv(csv_path,
               ["t", "deviation_baseline", "deviation_filter_estimates",
                "deviation_filter_states"],
               [result.t, result.series_baseline, result.series_mef_estimates,
                result.series_mef_states])
    summary = {
        "tool": "mefcon",
        "version": __version__,
        "command": "compare",
        "config": resolved,
        "seeds": list(result.seeds),
        "coherence_analytical": _finite(result.d_ave),
        "statistic": "time average over the second half of the horizon of "
                     "sum_i (x_i - mean(x))^2",
        "baseline": result.baseline.tolist(),
        "filter_estimates": result.mef_estimates.tolist(),
        "filter_states": result.mef_states.tolist(),
        "means": {
            "baseline": float(result.baseline.mean()),
            "filter_estimates": float(result.mef_estimates.mean()),
            "filter_states": float(result.mef_states.mean()),
        },
        "estimates_below_baseline_all_seeds": result.ordering_holds,
        "duration_s": round(duration, 6),
    }
    _write_json(out / "summary.json", summary)
    print(f"compare: {len(result.seeds)} seeds, D_ave={result.d_ave:.6g}, "
          f"baseline mean {result.baseline.mean():.6g}, "
          f"filter estimate mean {result.mef_estimates.mean():.6g}, "
          f"filter state mean {result.mef_states.mean():.6g}")
    print(f"estimate spread below baseline on every seed: {result.ordering_holds}")
    print(f"wrote {csv_path} and {out / 'summary.json'}")
    return 0


def cmd_envelope(args) -> int:
    config, resolved, out = _prepare(args)
    if config.profile.kind not in ("sinusoid", "zero"):
        raise ConfigError(
            "envelope certification needs bounded continuous disturbances "
            "(kind 'sinusoid' or 'zero'); white noise has no amplitude bound")
    system = assemble_global(config.topology, config.params)
    report = spectral_report(system, args.tolerance)
    a, b = exp_bound_constants(system, report, args.tolerance)
    eq = _equilibrium(config, system)
    phi = phi_max(config.params, config.topology,
                  config.profile.delta_max, config.profile.eps_max)
    traj = simulate_mef(config)
    norms = disagreement_norms(traj, eq.x_star)
    env = iss_envelope(a, b, float(norms[0]), phi, traj.t)
    csv_path = out / "envelope.csv"
    _write_csv(csv_path, ["t", "disagreement_norm", "envelope"],
               [traj.t, norms, env])
    # rounding leaves about eps |x| per coordinate and step in the norm; an
    # envelope below that floor (phi = 0, late t) certifies nothing finer
    floor = ((config.steps + 1) * np.finfo(float).eps
             * math.sqrt(2 * config.topology.node_count) * float(np.abs(traj.x).max()))
    bound = env + floor
    above = norms > bound
    violations = int(np.sum(above))
    positive = bound > 0  # all zero only when x = 0 throughout: no ratio
    ratio = float(np.max(norms[positive] / bound[positive])) if positive.any() else None
    summary = {
        "tool": "mefcon",
        "version": __version__,
        "command": "envelope",
        "config": resolved,
        "a": a,
        "b": b,
        "phi_max": phi,
        "x_star": eq.x_star,
        "z0_norm": float(norms[0]),
        "asymptotic_ball": b * phi / a if a > 0 else None,
        "max_ratio": ratio,
        "floor": floor,
        "violations": violations,
    }
    _write_json(out / "envelope.json", summary)
    shown = "undefined" if ratio is None else f"{ratio:.6g}"
    print(f"envelope: a={a:.6g}, b={b:.6g}, phi_max={phi:.6g}, "
          f"max norm/(envelope + floor) ratio {shown}, floor {floor:.3g}")
    print(f"wrote {csv_path} and {out / 'envelope.json'}")
    if violations:
        first = int(np.argmax(above))
        raise BoundViolationError(
            f"disagreement norm {norms[first]:.6g} exceeds envelope "
            f"{env[first]:.6g} at t={traj.t[first]:.6g} "
            f"({violations} grid points in violation)")
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="scenario config file (YAML or JSON)")
    sub.add_argument("--out", default=".", help="output directory (default: .)")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the scenario seed")
    sub.add_argument("--tolerance", type=float, default=1e-8,
                     help="zero/stability classification tolerance (default 1e-8)")
    sub.add_argument("--riccati", choices=("steady", "dynamic"), default=None,
                     help="override the gain mode")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mefcon",
        description="Consensus filtering on directed networks with disturbed "
                    "measurements: simulation, spectral analysis, ISS "
                    "envelopes, coherence comparison.")
    parser.add_argument("--version", action="version",
                        version=f"mefcon {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, fn, blurb in (
            ("simulate", cmd_simulate, "integrate one scenario to CSV"),
            ("analyze", cmd_analyze, "spectral and equilibrium report"),
            ("compare", cmd_compare, "baseline vs filter deviation statistics"),
            ("envelope", cmd_envelope, "certify a run against its ISS envelope")):
        sub = subs.add_parser(name, help=blurb)
        _add_common(sub)
        sub.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except MefconError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # pragma: no cover - last resort
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
