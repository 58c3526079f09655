import os
import subprocess
import sys
from pathlib import Path

import mefcon

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_accuracy_robustness_tradeoff():
    # the child imports the same mefcon as this test, installed or not
    src = str(Path(mefcon.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "accuracy_robustness.py"),
         "--r-values", "1", "0.1", "0.01"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()
            if line.split() and line.split()[0] in ("1", "0.1", "0.01")]
    assert len(rows) == 3
    gaps = [float(row[2]) for row in rows]
    phis = [float(row[3]) for row in rows]
    # shrinking R pulls x* toward the average and grows the disturbance gain
    assert gaps[0] > gaps[1] > gaps[2]
    assert phis[0] < phis[1] < phis[2]
