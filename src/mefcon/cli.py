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
import contextlib
import io
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from ._csv import write_csv
from .analysis import (certify, check_envelope, require_bounded, run_comparison,
                       spectral_report)
from .config import build_scenario, load_config
from .errors import BoundViolationError, ConfigError, MefconError
from .graphs import is_balanced, is_strongly_connected
from .simulate import simulate_classical, simulate_mef


def _finite(v: float):
    v = float(v)
    return v if math.isfinite(v) else None


def _shown(v: float | None) -> str:
    return "null" if v is None else f"{v:.6g}"


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _prepare(args) -> tuple:
    raw = load_config(args.config)
    config, resolved = build_scenario(raw, args.seed, args.riccati)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, no permission
        raise ConfigError(f"--out {out}: cannot make the output directory: "
                          f"{exc.strerror}") from exc
    return config, resolved, out


def _header(command: str, resolved: dict) -> dict:
    return {"tool": "mefcon", "version": __version__, "command": command,
            "config": resolved}


# the certificate's ISS constants, written by analyze (with Q_max) and envelope
_ISS = ("a", "b", "phi", "phi_max", "asymptotic_ball")


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
    write_csv(csv_path, columns, [traj.t, traj.x, traj.x_hat, traj.e, traj.u])
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
    report = spectral_report(config.loop, args.tolerance)
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
        cert = certify(config, report)
        payload["equilibrium"] = {"x_star": cert.x_star, "weights": cert.nu.tolist()}
        payload["iss"] = {k: getattr(cert, k) for k in _ISS + ("Q_max",)}
        line = (f"analyze: q={report.q}, stable={report.stable_count}, "
                f"x*={cert.x_star:.12g}, a={cert.a:.6g}, b={cert.b:.6g}, "
                f"phi={_shown(cert.phi)} (phi_max={_shown(cert.phi_max)})")
    else:
        payload["warnings"].append(
            "graph is not strongly connected: consensus value and ISS "
            "constants are undefined, spectral counts reported only")
        line = (f"analyze: q={report.q}, stable={report.stable_count} "
                "(not strongly connected; no equilibrium or envelope)")
    _write_json(out / "report.json", payload)
    print(line)
    print(f"wrote {out / 'report.json'}")
    return 0


def cmd_compare(args) -> int:
    config, resolved, out = _prepare(args)
    seeds = resolved["compare_seeds"]
    start = time.perf_counter()
    result = run_comparison(config, seeds)
    duration = time.perf_counter() - start
    csv_path = out / "comparison.csv"
    write_csv(csv_path,
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
    require_bounded(config.profile)  # before the solve
    cert = certify(config, spectral_report(config.loop, args.tolerance))
    check = check_envelope(config, cert)
    csv_path = out / "envelope.csv"
    write_csv(csv_path, ["t", "disagreement_norm", "envelope", "bound"],
              [check.t, check.norms, check.envelope, check.bound])
    summary = {
        **_header("envelope", resolved),
        **{k: getattr(cert, k) for k in _ISS + ("x_star", "rk4_margin")},
        **{k: getattr(check, k) for k in ("consensus_drift", "z0_norm",
                                           "max_ratio", "floor", "violations")},
    }
    _write_json(out / "envelope.json", summary)
    shown = "undefined" if check.max_ratio is None else f"{check.max_ratio:.6g}"
    print(f"envelope: a={cert.a:.6g}, b={cert.b:.6g}, phi={cert.phi:.6g}, "
          f"max norm/(envelope + floor) ratio {shown}, floor {check.floor:.3g}, "
          f"consensus drift {check.consensus_drift:.3g}")
    print(f"wrote {csv_path} and {out / 'envelope.json'}")
    if check.violations:
        first = int(np.argmax(check.norms > check.bound))
        raise BoundViolationError(
            f"disagreement norm {check.norms[first]:.6g} exceeds envelope + floor "
            f"{check.bound[first]:.6g} at t={check.t[first]:.6g} "
            f"({check.violations} grid points in violation)")
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="scenario config file (YAML or JSON)")
    sub.add_argument("--out", default=".", help="output directory (default: .)")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the scenario seed (a nonnegative integer)")
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
    shown, error = io.StringIO(), None  # the verb's stdout, written once it ends
    try:
        with contextlib.redirect_stdout(shown):
            code = args.fn(args)
    except MefconError as exc:
        error, code = f"error: {exc}", exc.exit_code
    except Exception as exc:  # pragma: no cover - last resort
        error, code = f"unexpected error: {exc}", 1
    try:
        print(shown.getvalue(), end="", flush=True)
    except BrokenPipeError:  # a reader that stopped (| head -0): the Python docs'
        # SIGPIPE recipe, so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if error:
        print(error, file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
