"""Time mefcon's set-up in a fresh interpreter.

Usage: python3 setup_probe.py scenario CONFIG.yaml
       python3 setup_probe.py sweep CASES.json

Set-up is ``import mefcon`` (with the CLI module) plus the config, graph
and filter-parameter calls a workload makes before its first simulation
or analysis call: ``load_config`` and ``build_scenario`` for a scenario
file, ``make_graph`` and ``uniform_params`` for every sweep case.  Only
the standard library is imported before the clock starts; mefcon is
found through PYTHONPATH.

The host's speed drifts by tens of percent from one probe to the next,
so a fixed calibration is timed just before and just after the set-up,
in the same process, and the set-up time is scaled by ``CAL_REF_S`` over
their mean.  The calibration compiles, marshals and executes a
module-sized source: interpreter work of the kind an import does.
Prints one JSON object with the scaled ``setup_s``, the wall time
``raw_s`` and the mean calibration ``calibration_s``.
"""

import json
import marshal
import sys
import time
from pathlib import Path

CAL_REF_S = 0.08
CAL_SOURCE = "\n".join(
    f"def f{i}(a, b=1, *c, **k):\n"
    f"    x = [a + b for _ in c]\n"
    f"    return {{'k': x, 'n': {i}}}\n" for i in range(150))


def calibrate() -> float:
    """Seconds taken by the calibration; about ``CAL_REF_S`` on the host
    it was tuned on (a 2.1 GHz Xeon VM)."""
    start = time.perf_counter()
    for _ in range(8):
        code = compile(CAL_SOURCE, "<calibration>", "exec")
        exec(marshal.loads(marshal.dumps(code)), {})
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    kind, path = argv[1], Path(argv[2])
    cases = json.loads(path.read_text()) if kind == "sweep" else None
    before = calibrate()
    start = time.perf_counter()
    import mefcon
    import mefcon.cli  # noqa: F401  (the `mefcon` command imports it)
    if cases is None:
        mefcon.build_scenario(mefcon.load_config(path))
    else:
        for case in cases:
            top = mefcon.make_graph("custom", case["n"], edges=case["edges"])
            mefcon.uniform_params(top, B=case["B"], R=case["R"], S=case["S"], G=1.0)
    raw = time.perf_counter() - start
    calibration = (before + calibrate()) / 2
    print(json.dumps({"setup_s": raw * CAL_REF_S / calibration, "raw_s": raw,
                      "calibration_s": calibration}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
