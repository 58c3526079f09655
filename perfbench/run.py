"""Benchmark of mefcon: run one workload, check its outputs, print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test is the checkout's own ``src/mefcon``; the run
stops with exit code 2 when it is missing.  Inputs are generated from
``--seed`` under ``.perfbench_out/`` and deleted at the end.  Jobs of
the workload repeat, one at a time, until ``--seconds`` have passed (at
least two jobs); a job that would end past them is not started.

``--trace 0`` prints the end-to-end metrics: the median job time
``run_s``, RK4 steps per second of it, the median of several fresh-process
set-up timings ``setup_s``, and the process's peak resident memory.
Job and set-up times are wall times scaled to a reference host speed
(see clock.py and setup_probe.py); raw wall-time quartiles are printed
too.  ``--trace 1`` alternates untraced and traced jobs and prints the
per-layer metrics (medians over traced jobs) with the tracing overhead;
its spans go to ``.perfbench_out/trace-<workload>-seed<n>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names
and units are those of ``BENCHMARK.json``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9
MIN_JOBS = 2


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    """Versions, BLAS and machine facts recorded with every result."""
    import numpy
    import scipy
    import yaml
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": nproc(),
        "cpu": cpu,
    }


def setup_probe(workload, workdir: Path) -> dict:
    """Timings of one fresh interpreter running ``setup_probe.py``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                           *workload.probe_args],
                          cwd=workdir, env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def run_job(workload, out: Path, span=None):
    """One job into a fresh ``out``: its Clock and checked operations."""
    from clock import Clock

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    timer = Clock(workload.step_shape, workload.host_sensitivity, span)
    result = workload.job(out, timer.op)
    return timer, workload.check(result, out)


def repeat(seconds: float, least: int):
    """Yield until ``seconds`` are spent, or the next iteration (as long
    as the median one so far) would overrun them, but at least ``least`` times."""
    took = []
    start = time.perf_counter()
    while len(took) < least or (time.perf_counter() - start
                                + statistics.median(took) <= seconds):
        begin = time.perf_counter()
        yield
        took.append(time.perf_counter() - begin)


def artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def timed_run(workload, workdir: Path, seconds: float):
    probes = [setup_probe(workload, workdir) for _ in range(SETUP_PROBES)]
    setup = [p["setup_s"] for p in probes]
    timers, jobs = [], []
    for _ in repeat(seconds, MIN_JOBS):
        timer, ops = run_job(workload, workdir / "out")
        timers.append(timer)
        jobs.append(ops)
    run_s = statistics.median(t.adjusted for t in timers)
    metrics = {
        "run_s": run_s,
        "steps_per_s": workload.steps_per_job / run_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"jobs {len(timers)}: run_s quartiles "
          f"{statistics.quantiles([t.adjusted for t in timers], n=4)}, raw wall "
          f"{statistics.quantiles([t.raw for t in timers], n=4)}")
    print(f"setup probes {len(setup)}: setup_s quartiles "
          f"{statistics.quantiles(setup, n=4)}, raw wall "
          f"{statistics.quantiles([p['raw_s'] for p in probes], n=4)}")
    return metrics, jobs, None


def traced_run(workload, workdir: Path, seconds: float):
    import spans

    out = workdir / "out"
    walls = {False: [], True: []}
    jobs, per_job, records = [], [], []
    for _ in repeat(seconds, 1):
        for traced in (False, True):
            if not traced:
                timer, ops = run_job(workload, out)
            else:
                tracer = spans.Tracer()
                with spans.instrument(tracer):
                    timer, ops = run_job(workload, out, tracer.span)
                tracer.counts["cli.artifact_bytes"] = artifact_bytes(out)
                per_job.append(spans.layer_metrics(tracer))
                records.append({"run_s": timer.adjusted, "wall_s": timer.raw,
                                "spans": tracer.spans,
                                "counts": dict(tracer.counts)})
            walls[traced].append(timer.adjusted)
            jobs.append(ops)
    metrics = {name: statistics.median(job[name] for job in per_job)
               for name in per_job[0]}
    traced_s, plain_s = (statistics.median(walls[k]) for k in (True, False))
    metrics.update({
        "simulate.rk4_margin": workload.rk4_margin,
        "sweep.rejected_candidates": workload.rejected_candidates,
        "trace.run_s": traced_s,
        "trace.overhead_s": traced_s - plain_s,
    })
    print(f"traced jobs {len(walls[True])}: run_s {traced_s:.6g} traced, "
          f"{plain_s:.6g} untraced, overhead {traced_s - plain_s:.6g} s")
    return metrics, jobs, records


def verdicts(workload, jobs: list[list]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations, with a note for each failure.

    An operation also fails when its outputs differ from the first job's
    (same inputs must give byte-identical artifacts), and every
    operation fails when the scenario lies outside RK4's stable region.
    """
    notes = []
    reference = [op.digest for op in jobs[0]]
    attempted = failed = 0
    for j, ops in enumerate(jobs):
        for k, op in enumerate(ops):
            attempted += 1
            why = None
            if not op.ok:
                why = op.note
            elif op.digest != reference[k]:
                why = "outputs differ from the first job's"
            elif workload.rk4_margin > 1.0:
                why = f"RK4 margin {workload.rk4_margin:.6g} > 1"
            if why is not None:
                failed += 1
                notes.append(f"job {j} op {k}: {why}")
    return attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mefcon" / "__init__.py").is_file():
        print(f"error: no mefcon source under {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc())
    sys.path.insert(0, str(SRC))
    import mefcon
    if not Path(mefcon.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported mefcon from {mefcon.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        measure = traced_run if args.trace else timed_run
        metrics, jobs, records = measure(workload, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if records is not None:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"environment": env, "jobs": records}))
        print(f"wrote {trace_path.relative_to(ROOT)}")
    if set(metrics) != set(units):
        raise RuntimeError("metrics do not match BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    attempted, failed, notes = verdicts(workload, jobs)
    for note in notes[:20]:
        print("FAILED " + note)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(units)},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
