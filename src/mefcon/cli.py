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
from .analysis import (disagreement_norms, exp_bound_constants, iss_envelope,
                       phi_max, phi_projected, run_comparison, spectral_report)
from .config import build_scenario, load_config
from .errors import BoundViolationError, ConfigError, MefconError, SimulationError
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


def _header(command: str, resolved: dict) -> dict:
    return {"tool": "mefcon", "version": __version__, "command": command,
            "config": resolved}


def _certificate(config, loop, report) -> tuple:
    """The consensus value x* the configured run converges to, and the ISS
    constants (a, b, phi, phi_max, Q_max, b phi / a): what ``analyze``
    prints and ``envelope`` checks, all read from the run's ``ClosedLoop``.

    x* = nu . (x0, prior) for the steady gain Q*; a dynamic run reaches
    that value only when its gain starts at Q*, i.e. Xi = 1/Q*.  phi
    bounds the input of the disagreement from the moving consensus value
    (``phi_projected``); phi_max is the paper's closed form, reported
    next to it.
    """
    if config.riccati == "dynamic" and not np.allclose(
            config.params.Xi * loop.q_star, 1.0, rtol=0.0, atol=1e-9):
        raise ConfigError(
            "params.Xi must be 1/Q* (leave it null) for riccati: dynamic: "
            "a gain started elsewhere reaches a consensus value x* that "
            "is not predicted here")
    x_star = float(loop.nu @ np.concatenate([config.x0, config.prior]))
    a, b = exp_bound_constants(loop, report)
    profile = config.profile
    phi = phi_projected(loop, profile.amplitudes(loop.noise_sizes))
    return x_star, {
        "a": a, "b": b, "phi": phi,
        "phi_max": phi_max(config.params, config.topology,
                           profile.delta_max, profile.eps_max),
        "Q_max": float(loop.q_star.max()), "asymptotic_ball": b * phi / a}


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
        **_header("simulate", resolved),
        "algorithm": algorithm,
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
    loop = config.loop
    report = spectral_report(loop, args.tolerance)
    connected = is_strongly_connected(config.topology)
    payload = {
        **_header("analyze", resolved),
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
            "rk4_margin": report.rk4_margin(config.h),
        },
        "warnings": [],
    }
    if connected:
        x_star, iss = _certificate(config, loop, report)
        payload["equilibrium"] = {"x_star": x_star, "weights": loop.nu.tolist()}
        payload["iss"] = iss
        print(f"analyze: q={report.q}, stable={report.stable_count}, "
              f"x*={x_star:.12g}, a={iss['a']:.6g}, b={iss['b']:.6g}, "
              f"phi={iss['phi']:.6g} (phi_max={iss['phi_max']:.6g})")
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
        **_header("compare", resolved),
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
    loop = config.loop
    report = spectral_report(loop, args.tolerance)
    x_star, iss = _certificate(config, loop, report)
    del iss["Q_max"]  # written to report.json only
    margin = report.rk4_margin(config.h)
    if margin > 1:
        raise SimulationError(
            f"integration.h = {config.h:g} is outside RK4's stability region: max "
            f"|R(h lambda)| over F's nonzero eigenvalues is {margin:.6g} > 1")
    traj = simulate_mef(config)
    # the disturbance moves the consensus value c(t) = nu . (x, x_hat); the
    # envelope bounds the disagreement from it, not from x* = c(0)
    n = loop.n
    c = traj.x @ loop.nu[:n] + traj.x_hat @ loop.nu[n:]
    norms = disagreement_norms(traj, c[:, None])
    env = iss_envelope(iss["a"], iss["b"], float(norms[0]), iss["phi"], traj.t)
    # rounding leaves about eps |x| per coordinate and step in the norm; an
    # envelope below that floor (phi = 0, late t) certifies nothing finer
    floor = ((config.steps + 1) * np.finfo(float).eps
             * math.sqrt(2 * config.topology.node_count) * float(np.abs(traj.x).max()))
    bound = env + floor
    csv_path = out / "envelope.csv"
    _write_csv(csv_path, ["t", "disagreement_norm", "envelope", "bound"],
               [traj.t, norms, env, bound])
    above = norms > bound
    violations = int(np.sum(above))
    positive = bound > 0  # all zero only when x = 0 throughout: no ratio
    ratio = float(np.max(norms[positive] / bound[positive])) if positive.any() else None
    summary = {
        **_header("envelope", resolved),
        **iss,
        "x_star": x_star,
        "consensus_drift": float(np.max(np.abs(c - c[0]))),
        "z0_norm": float(norms[0]),
        "rk4_margin": margin,
        "max_ratio": ratio,
        "floor": floor,
        "violations": violations,
    }
    _write_json(out / "envelope.json", summary)
    shown = "undefined" if ratio is None else f"{ratio:.6g}"
    print(f"envelope: a={iss['a']:.6g}, b={iss['b']:.6g}, phi={iss['phi']:.6g}, "
          f"max norm/(envelope + floor) ratio {shown}, floor {floor:.3g}, "
          f"consensus drift {summary['consensus_drift']:.3g}")
    print(f"wrote {csv_path} and {out / 'envelope.json'}")
    if violations:
        first = int(np.argmax(above))
        raise BoundViolationError(
            f"disagreement norm {norms[first]:.6g} exceeds envelope + floor "
            f"{bound[first]:.6g} at t={traj.t[first]:.6g} "
            f"({violations} grid points in violation)")
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="scenario config file (YAML or JSON)")
    sub.add_argument("--out", default=".", help="output directory (default: .)")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the scenario seed")
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
        if name in ("analyze", "envelope"):  # the verbs that classify F's spectrum
            sub.add_argument("--tolerance", type=float, default=1e-8,
                             help="zero/stability classification tolerance (default 1e-8)")
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
