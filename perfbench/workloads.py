"""Benchmark workloads: inputs generated from a seed, jobs, correctness checks.

Every workload is a closed loop of batch jobs run one at a time from a
single process.  A job is a list of operations; ``job(out, op)`` runs
each inside ``with op(name):``, which the caller uses to time it, and
``check`` (outside the timed region) turns what they returned and wrote
into one verdict per operation:

``compare-complete100``
    The ``compare`` verb on a complete graph, N=100 (E=9 900), white
    noise sigma=1, S=G=1, h=0.002, T=5, for three noise seeds.  This is
    the paper's noisy-consensus comparison against the classical
    protocol.  One operation per noise seed: the verb runs once per seed
    (``--seed``), so each operation is timed on its own.
``sweep-digraph``
    Twelve random strongly connected digraphs with N in [2, 8], built by
    the generator and admissibility rule of the test suite's sweep, each
    taken through make_graph -> uniform_params -> assemble_global ->
    spectral_report -> left_null_vector_of -> predict_equilibrium ->
    simulate_mef with zero disturbance, h=0.01, T=50.  One operation per
    digraph.
``pipeline-digraph100``
    One user session on a random strongly connected weighted digraph,
    N=100 with extra-edge probability 0.3 (E about 3 000) given as a
    ``custom`` edge list: ``analyze`` and ``envelope`` on a sinusoid
    scenario, then ``simulate`` on its white-noise twin with R=1, S=2,
    G=1, so neighbor measurement noise is on.  One operation per verb.

The library is reached through the ``mefcon`` package namespace at call
time, so traced runs see the instrumented functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

import mefcon
import mefcon.cli


@dataclass
class Op:
    """Outcome of one operation: its verdict, a digest of its outputs, a note."""

    ok: bool
    digest: str
    note: str = ""


@dataclass
class Workload:
    """Generated inputs of one workload and the job that runs them."""

    steps_per_job: int
    probe_args: list[str]
    job: Callable[[Path, Callable], object]
    check: Callable[[object, Path], list[Op]]
    rk4_margin: float
    step_shape: tuple[int, int]  # (nodes, edges) of a typical simulation step
    host_sensitivity: float  # exponent of the host-speed calibration, see clock.py
    rejected_candidates: int = 0


def rk4_margin(eigenvalues, h: float) -> float:
    """max |R(h lambda)| of classical RK4 over the nonzero eigenvalues.

    The consensus direction's zero eigenvalue, where R = 1 exactly, is
    left out; a value above 1 means some mode grows every step.
    """
    ev = np.asarray(eigenvalues)
    ev = ev[np.abs(ev) > 1e-8 * max(1.0, float(np.abs(ev).max()))]
    z = h * ev
    return float(np.abs(1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24).max())


def strongly_connected_edges(rng, n: int, p: float) -> list[tuple[int, int, float]]:
    """A Hamiltonian cycle over a random permutation plus extra edges w.p. ``p``.

    The cycle makes the digraph strongly connected; weights are drawn
    from U(0.5, 2).  Draw order follows the test suite's sweep generator.
    """
    perm = rng.permutation(n)
    pairs = {(int(perm[k]), int(perm[(k + 1) % n])) for k in range(n)}
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                pairs.add((i, j))
    return [(i, j, float(rng.uniform(0.5, 2.0))) for i, j in sorted(pairs)]


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def artifact_digest(path: Path) -> str:
    """CSV files by their bytes; JSON files without their ``duration_s``."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        payload.pop("duration_s", None)
        return digest(json.dumps(payload, sort_keys=True).encode())
    return digest(path.read_bytes())


def run_verb(argv: list[str]) -> int:
    """``mefcon.cli.main`` in-process with its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return mefcon.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            return int(exc.code or 0)


def _write_yaml(path: Path, payload: dict) -> None:
    path.write_text(yaml.safe_dump(payload, sort_keys=False,
                                   default_flow_style=None))


def _scenario_margin(path: Path, classical: bool) -> float:
    config, _ = mefcon.build_scenario(mefcon.load_config(path))
    ev = np.linalg.eigvals(mefcon.assemble_global(config.topology, config.params).F)
    if classical:
        ev = np.concatenate([ev, np.linalg.eigvals(mefcon.laplacian(config.topology))])
    return rk4_margin(ev, config.h)


# --- compare-complete100 ------------------------------------------------

COMPARE = dict(n=100, sigma=1.0, h=0.002, T=5.0, seeds=3)


def compare_op(code: int, summary: dict | None, fp: str) -> Op:
    """One seed: baseline within 20% of D_ave, estimates below the baseline."""
    if code != 0 or summary is None:
        return Op(False, fp, f"exit code {code}")
    d_ave = summary["coherence_analytical"]
    if d_ave is None or len(summary["baseline"]) != 1:
        return Op(False, fp, f"D_ave {d_ave}, {len(summary['baseline'])} seeds")
    (base,), (est,) = summary["baseline"], summary["filter_estimates"]
    ok = abs(base - d_ave) <= 0.2 * d_ave and est < base
    return Op(ok, fp, f"baseline {base:.4g}, estimates {est:.4g}, D_ave {d_ave:.4g}")


def compare_seeds(seed: int) -> list[int]:
    """The noise seeds of the workload seed; each also samples x0."""
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2 ** 31, COMPARE["seeds"])]


def make_compare(seed: int, workdir: Path) -> Workload:
    n = COMPARE["n"]
    noise_seeds = compare_seeds(seed)
    path = workdir / "compare.yaml"
    _write_yaml(path, {
        "graph": {"family": "complete", "n": n},
        "params": {"B": 1.0, "R": 1.0, "S": 1.0, "G": 1.0},
        "initial": {"x0": {"random_uniform": {"low": -1.0, "high": 1.0}}},
        "disturbance": {"kind": "white", "sigma": COMPARE["sigma"]},
        "integration": {"h": COMPARE["h"], "T": COMPARE["T"]},
    })
    steps = int(round(COMPARE["T"] / COMPARE["h"]))

    def job(out: Path, op) -> list[int]:
        codes = []
        for s in noise_seeds:
            with op("cli.compare"):
                codes.append(run_verb(["compare", "--config", str(path), "--seed",
                                       str(s), "--out", str(out / f"seed-{s}")]))
        return codes

    def check(codes: list[int], out: Path) -> list[Op]:
        ops = []
        for s, code in zip(noise_seeds, codes):
            summary_path = out / f"seed-{s}" / "summary.json"
            if not summary_path.exists():
                ops.append(compare_op(code, None, ""))
                continue
            fp = digest(artifact_digest(out / f"seed-{s}" / "comparison.csv").encode(),
                        artifact_digest(summary_path).encode())
            ops.append(compare_op(code, json.loads(summary_path.read_text()), fp))
        return ops

    return Workload(2 * steps * len(noise_seeds), ["scenario", str(path)], job,
                    check, _scenario_margin(path, classical=True), (n, n * (n - 1)),
                    host_sensitivity=0.6)


# --- sweep-digraph -------------------------------------------------------

SWEEP = dict(cases=12, h=0.01, T=50.0, min_rate=0.4, max_cond=40.0)


def sweep_candidate(rng) -> dict:
    """One random digraph case, drawn as in the test suite's sweep."""
    n = int(rng.integers(2, 9))
    edges = strongly_connected_edges(rng, n, 0.35)
    R = float(rng.uniform(0.3, 1.5))
    S = float(rng.uniform(1.0, 2.0))
    B = rng.uniform(0.5, 2.0, n)
    return {"n": n, "edges": [list(e) for e in edges], "R": R, "S": S,
            "B": B.tolist()}


def build_case(case: dict):
    """Topology and filter parameters of one sweep case."""
    top = mefcon.make_graph("custom", case["n"], edges=case["edges"])
    return top, mefcon.uniform_params(top, B=np.array(case["B"]), R=case["R"],
                                      S=case["S"], G=1.0)


def admissible(case: dict):
    """Eigenvalues of F when the case decays at rate >= 0.4 with an
    eigenbasis condition <= 40, else None (the test suite's rule)."""
    top, params = build_case(case)
    system = mefcon.assemble_global(top, params)
    report = mefcon.spectral_report(system)
    if -report.spectral_abscissa_nonzero < SWEEP["min_rate"]:
        return None
    ev, V = np.linalg.eig(system.F)
    if np.linalg.cond(V[:, ev.real < -1e-8]) > SWEEP["max_cond"]:
        return None
    return report.eigenvalues


def sweep_cases(seed: int, count: int) -> tuple[list[dict], int, float]:
    """Admissible cases for ``seed``, the number rejected, and the RK4 margin."""
    cases, rejected, margin = [], 0, 0.0
    k = 0
    while len(cases) < count:
        case = sweep_candidate(np.random.default_rng([seed, k]))
        k += 1
        ev = admissible(case)
        if ev is None:
            rejected += 1
            continue
        ic = np.random.default_rng([seed, 1_000_000 + len(cases)])
        n = case["n"]
        case["x0"] = ic.uniform(-1, 1, n).tolist()
        case["e0"] = (0.3 * ic.uniform(-1, 1, n)).tolist()
        margin = max(margin, rk4_margin(ev, SWEEP["h"]))
        cases.append(case)
    return cases, rejected, margin


def sweep_case(case: dict) -> tuple:
    """Run one case through the library; keep what its check needs."""
    n = case["n"]
    x0, e0 = np.array(case["x0"]), np.array(case["e0"])
    top, params = build_case(case)
    system = mefcon.assemble_global(top, params)
    report = mefcon.spectral_report(system)
    omega = mefcon.left_null_vector_of(top)
    eq = mefcon.predict_equilibrium(system, omega, x0, e0)
    traj = mefcon.simulate_mef(mefcon.ScenarioConfig(
        top, params, x0, x0 + e0, h=SWEEP["h"], T=SWEEP["T"]))
    return n, report.q, report.stable_count, eq.x_star, traj.x, traj.x_hat


def sweep_op(result) -> Op:
    """Terminal state within 1e-6 of x*, errors below 1e-6, one zero mode."""
    if isinstance(result, str):
        return Op(False, "", result)
    n, q, stable, x_star, x, x_hat = result
    dx = float(np.max(np.abs(x[-1] - x_star)))
    de = float(np.max(np.abs(x_hat[-1] - x[-1])))
    ok = dx < 1e-6 and de < 1e-6 and q == 1 and stable == 2 * n - 1
    return Op(ok, digest(x.tobytes(), x_hat.tobytes()),
              f"N={n}: |x_T - x*| {dx:.2e}, |e_T| {de:.2e}, q={q}")


def make_sweep(seed: int, workdir: Path) -> Workload:
    specs, rejected, margin = sweep_cases(seed, SWEEP["cases"])
    path = workdir / "sweep_cases.json"
    path.write_text(json.dumps(specs))

    def job(out: Path, op) -> list:
        results = []
        for case in specs:
            with op("sweep.case"):
                try:
                    results.append(sweep_case(case))
                except Exception as exc:  # a failed case is counted, the sweep goes on
                    results.append(f"{type(exc).__name__}: {exc}")
        return results

    def check(results: list, out: Path) -> list[Op]:
        return [sweep_op(r) for r in results]

    return Workload(SWEEP["cases"] * int(round(SWEEP["T"] / SWEEP["h"])),
                    ["sweep", str(path)], job, check, margin,
                    (8, max(len(c["edges"]) for c in specs)),
                    host_sensitivity=1.0, rejected_candidates=rejected)


# --- pipeline-digraph100 -------------------------------------------------

PIPELINE = dict(n=100, p=0.3, R=1.0, S=2.0, G=1.0, h=0.01, T=20.0,
                bound=0.05, frequency=0.5, sigma=0.1)


def pipeline_ops(codes: dict, out: Path, steps: int, digests: dict) -> list[Op]:
    """analyze: report with x*; envelope: no violation, same x*; simulate: exit 0."""
    def load(name):
        p = out / name
        return json.loads(p.read_text()) if p.exists() else {}

    report = load("analyze/report.json")
    envelope = load("envelope/envelope.json")
    manifest = load("simulate/manifest.json")
    x_report = report.get("equilibrium", {}).get("x_star")
    return [
        Op(codes["analyze"] == 0 and x_report is not None, digests["analyze"],
           f"exit {codes['analyze']}, x* {x_report}"),
        Op(codes["envelope"] == 0 and envelope.get("violations") == 0
           and x_report is not None and envelope.get("x_star") == x_report,
           digests["envelope"],
           f"exit {codes['envelope']}, violations {envelope.get('violations')}, "
           f"x* {envelope.get('x_star')} vs {x_report}"),
        Op(codes["simulate"] == 0
           and manifest.get("config", {}).get("integration", {}).get("steps") == steps,
           digests["simulate"], f"exit {codes['simulate']}"),
    ]


def make_pipeline(seed: int, workdir: Path, n: int = PIPELINE["n"],
                  T: float = PIPELINE["T"]) -> Workload:
    rng = np.random.default_rng(seed)
    edges = strongly_connected_edges(rng, n, PIPELINE["p"])
    scenario_seed = int(rng.integers(0, 2 ** 31))
    base = {
        "graph": {"family": "custom", "n": n,
                  "edges": [[i + 1, j + 1, w] for i, j, w in edges]},
        "params": {"B": 1.0, "R": PIPELINE["R"], "S": PIPELINE["S"],
                   "G": PIPELINE["G"]},
        "initial": {"x0": {"random_uniform": {"low": -1.0, "high": 1.0}}},
        "integration": {"h": PIPELINE["h"], "T": T},
        "seed": scenario_seed,
    }
    sinusoid, white = workdir / "pipeline_sinusoid.yaml", workdir / "pipeline_white.yaml"
    _write_yaml(sinusoid, {**base, "disturbance": {
        "kind": "sinusoid", "delta_max": PIPELINE["bound"],
        "eps_max": PIPELINE["bound"], "frequency": PIPELINE["frequency"]}})
    _write_yaml(white, {**base, "disturbance": {
        "kind": "white", "sigma": PIPELINE["sigma"]}})
    steps = int(round(T / PIPELINE["h"]))
    session = (("analyze", sinusoid, ["report.json"]),
               ("envelope", sinusoid, ["envelope.csv", "envelope.json"]),
               ("simulate", white, ["trajectory.csv", "manifest.json"]))

    def job(out: Path, op) -> dict:
        codes = {}
        for verb, path, _ in session:
            with op("cli." + verb):
                codes[verb] = run_verb([verb, "--config", str(path),
                                        "--out", str(out / verb)])
        return codes

    def check(codes: dict, out: Path) -> list[Op]:
        digests = {verb: digest(*(artifact_digest(out / verb / a).encode()
                                  for a in artifacts if (out / verb / a).exists()))
                   for verb, _, artifacts in session}
        return pipeline_ops(codes, out, steps, digests)

    return Workload(2 * steps,
                    ["scenario", str(sinusoid)], job, check,
                    _scenario_margin(sinusoid, classical=False), (n, len(edges)),
                    host_sensitivity=1.0)


WORKLOADS = {
    "compare-complete100": make_compare,
    "sweep-digraph": make_sweep,
    "pipeline-digraph100": make_pipeline,
}
