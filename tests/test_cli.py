import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import mefcon
from mefcon import ConfigError, build_scenario, load_config
from mefcon.cli import main

TWO_NODE = """
graph:
  family: undirected_ring
  n: 2
params: {B: 1.0, R: 1.0, S: 1.0, G: 1.0}
initial:
  x0: [0.0, 1.0]
disturbance: {kind: zero}
integration: {h: 0.01, T: 50.0}
seed: 0
"""

RING_SINUSOID = """
graph: {family: undirected_ring, n: 2}
params: {B: 1.0, R: 1.0, S: 1.0, G: 1.0}
initial: {x0: [0.0, 1.0]}
disturbance: {kind: sinusoid, delta_max: 0.1, eps_max: 0.1, frequency: 1.0, seed: 7}
integration: {h: 0.01, T: 30.0}
seed: 7
"""


def _write(tmp_path, text, name="scenario.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return header, data


def test_simulate_writes_artifacts(tmp_path):
    cfg = _write(tmp_path, TWO_NODE)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    header, data = _read_csv(out / "trajectory.csv")
    assert header == ["t", "x_1", "x_2", "xhat_1", "xhat_2",
                      "e_1", "e_2", "u_1", "u_2"]
    assert data.shape == (5001, 9)
    final = data[-1]
    assert abs(final[1] - final[2]) < 1e-6  # consensus reached
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "mefcon"
    assert manifest["config"]["integration"]["steps"] == 5000
    assert manifest["artifacts"]["trajectory"] == "trajectory.csv"


def test_simulate_reruns_are_byte_identical(tmp_path):
    cfg = _write(tmp_path, TWO_NODE.replace("kind: zero", "kind: white"))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()


def test_manifest_round_trip(tmp_path):
    cfg = _write(tmp_path, TWO_NODE.replace("kind: zero", "kind: white"))
    first = tmp_path / "first"
    assert main(["simulate", "--config", cfg, "--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    echoed = dict(manifest["config"])
    echoed["integration"] = {k: v for k, v in echoed["integration"].items()
                             if k != "steps"}
    replay_cfg = _write(tmp_path, yaml.safe_dump(echoed), "replay.yaml")
    second = tmp_path / "second"
    assert main(["simulate", "--config", replay_cfg, "--out", str(second)]) == 0
    assert (first / "trajectory.csv").read_bytes() \
        == (second / "trajectory.csv").read_bytes()


def test_resolved_echo_rebuilds_the_scenario():
    config, resolved = build_scenario(yaml.safe_load(TWO_NODE))
    again, echo = build_scenario(resolved)
    assert echo == resolved
    assert again.steps == config.steps
    assert np.array_equal(again.x0, config.x0)
    resolved["integration"]["steps"] += 1
    with pytest.raises(ConfigError, match="integration.steps"):
        build_scenario(resolved)


def test_simulate_baseline_algorithm(tmp_path):
    cfg = _write(tmp_path, TWO_NODE + "algorithm: baseline\n")
    out = tmp_path / "base"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    _, data = _read_csv(out / "trajectory.csv")
    # baseline publishes x as xhat and zero error columns
    assert np.array_equal(data[:, 1:3], data[:, 3:5])
    assert not data[:, 5:7].any()


def test_seed_override_changes_noise(tmp_path):
    cfg = _write(tmp_path, TWO_NODE.replace("kind: zero", "kind: white"))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(a), "--seed", "1"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b), "--seed", "2"]) == 0
    assert (a / "trajectory.csv").read_bytes() != (b / "trajectory.csv").read_bytes()
    ma = json.loads((a / "manifest.json").read_text())
    assert ma["config"]["seed"] == 1


def test_analyze_report(tmp_path):
    cfg = _write(tmp_path, RING_SINUSOID)
    out = tmp_path / "rep"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["spectral"]["q"] == 1
    assert rep["spectral"]["stable_count"] == 3
    assert rep["connectivity"]["strongly_connected"] is True
    assert rep["equilibrium"]["x_star"] == pytest.approx(0.5)
    assert rep["iss"]["a"] == pytest.approx(0.48236190979495835)
    assert rep["iss"]["b"] == pytest.approx(1.183298941454881)
    assert rep["iss"]["phi_max"] == pytest.approx(0.68284, abs=1e-5)
    ball = rep["iss"]["b"] * rep["iss"]["phi_max"] / rep["iss"]["a"]
    assert rep["iss"]["asymptotic_ball"] == pytest.approx(ball)


def test_equilibrium_follows_the_gain_mode(tmp_path, capsys):
    # Xi = 3 is not 1/Q* = sqrt(2); e0 = (0.1, 0.1)
    cfg = _write(tmp_path, TWO_NODE.replace("G: 1.0}", "G: 1.0, Xi: 3.0}")
                 .replace("x0: [0.0, 1.0]", "x0: [0.0, 1.0]\n  prior: [0.1, 1.1]"))
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "rep")]) == 0
    x_star = json.loads((tmp_path / "rep" / "report.json").read_text())[
        "equilibrium"]["x_star"]
    # the steady gain weights e0 by 1/Q*, not by Xi (which would give 0.350)
    assert x_star == pytest.approx((2 - 0.2 * np.sqrt(2)) / 4, abs=1e-12)
    assert x_star == pytest.approx(0.4293, abs=1e-4)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "st")]) == 0
    _, data = _read_csv(tmp_path / "st" / "trajectory.csv")
    assert data[-1, 1:3] == pytest.approx([x_star, x_star], abs=1e-6)
    capsys.readouterr()
    # a dynamic gain from Q(0) = 1/3 settles elsewhere, so no x* is reported
    for verb in ("analyze", "envelope"):
        assert main([verb, "--config", cfg, "--out", str(tmp_path / verb),
                     "--riccati", "dynamic"]) == 2
        assert "params.Xi" in capsys.readouterr().err
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "dyn"),
                 "--riccati", "dynamic"]) == 0
    _, data = _read_csv(tmp_path / "dyn" / "trajectory.csv")
    assert data[-1, 1:3] == pytest.approx([0.4134, 0.4134], abs=1e-4)
    # B = 0 at a node freezes its gain at Q* = 0: there is no x* to report
    cfg = _write(tmp_path, TWO_NODE.replace("B: 1.0", "B: [1.0, 0.0]")
                 .replace("G: 1.0}", "G: 1.0, Xi: 1.0}"), "b0.yaml")
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "b0")]) == 4
    assert "Q*" in capsys.readouterr().err


def test_analyze_disconnected_graph(tmp_path):
    text = """
graph:
  family: custom
  n: 4
  edges: [[1, 2, 1.0], [2, 1, 1.0], [3, 4, 1.0], [4, 3, 1.0]]
params: {R: 1.0, S: 1.0, G: 1.0}
initial: {x0: [0.0, 1.0, 2.0, 3.0]}
"""
    cfg = _write(tmp_path, text)
    out = tmp_path / "disc"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["spectral"]["q"] == 2
    assert rep["connectivity"]["strongly_connected"] is False
    assert rep["warnings"]
    assert "equilibrium" not in rep and "iss" not in rep


def test_analyze_tolerance_flag(tmp_path):
    cfg = _write(tmp_path, TWO_NODE)
    out = tmp_path / "tol"
    assert main(["analyze", "--config", cfg, "--out", str(out),
                 "--tolerance", "1e-4"]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["spectral"]["zero_tolerance"] == 1e-4


def test_compare_zero_noise(tmp_path):
    text = TWO_NODE + "compare_seeds: [0, 1]\n"
    cfg = _write(tmp_path, text)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seeds"] == [0, 1]
    assert max(summary["baseline"]) < 1e-6
    assert max(summary["filter_estimates"]) < 1e-6
    header, data = _read_csv(out / "comparison.csv")
    assert header == ["t", "deviation_baseline", "deviation_filter_estimates",
                      "deviation_filter_states"]
    assert data.shape[0] == 5001


def test_compare_white_noise_summary(tmp_path):
    text = """
graph: {family: complete, n: 5}
params: {B: 1.0, R: 1.0, S: 1.0, G: 1.0}
initial: {x0: [0.1, -0.3, 0.7, 0.0, 0.4]}
disturbance: {kind: white, sigma: 1.0}
integration: {h: 0.005, T: 3.0}
seed: 0
compare_seeds: [0, 1, 2]
"""
    cfg = _write(tmp_path, text)
    out = tmp_path / "cmpw"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["coherence_analytical"] == pytest.approx(0.5 * 4 / 5)
    assert len(summary["filter_states"]) == 3
    assert summary["means"]["baseline"] > 0
    assert isinstance(summary["estimates_below_baseline_all_seeds"], bool)


def test_envelope_containment(tmp_path):
    cfg = _write(tmp_path, RING_SINUSOID)
    out = tmp_path / "env"
    assert main(["envelope", "--config", cfg, "--out", str(out)]) == 0
    header, data = _read_csv(out / "envelope.csv")
    assert header == ["t", "disagreement_norm", "envelope"]
    assert np.all(data[:, 1] <= data[:, 2])
    summary = json.loads((out / "envelope.json").read_text())
    assert summary["violations"] == 0
    assert summary["phi_max"] == pytest.approx(0.68284, abs=1e-5)


def test_envelope_rejects_white_noise(tmp_path, capsys):
    cfg = _write(tmp_path, RING_SINUSOID.replace(
        "kind: sinusoid, delta_max: 0.1, eps_max: 0.1, frequency: 1.0, seed: 7",
        "kind: white, sigma: 1.0"))
    assert main(["envelope", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "bounded continuous" in capsys.readouterr().err


def test_envelope_violation_exits_5(tmp_path, monkeypatch):
    import mefcon.cli as cli_mod
    monkeypatch.setattr(cli_mod, "iss_envelope",
                        lambda a, b, z0, phi, t: np.full(np.asarray(t).shape, 1e-12))
    cfg = _write(tmp_path, RING_SINUSOID)
    out = tmp_path / "viol"
    assert main(["envelope", "--config", cfg, "--out", str(out)]) == 5
    # the artifact is still written before the violation is raised
    assert (out / "envelope.csv").exists()


def _refuse_constant(name):
    raise ValueError(f"envelope.json holds the non-JSON constant {name}")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_envelope_rounding_floor_and_strict_json(tmp_path):
    # phi = 0: by t = 100 the envelope decays below the rounding residue of
    # the run; x0 at consensus makes the envelope zero throughout (0/0)
    for name, text in (("late", TWO_NODE.replace("T: 50.0", "T: 100.0")),
                       ("flat", TWO_NODE.replace("[0.0, 1.0]", "[0.5, 0.5]"))):
        out = tmp_path / name
        cfg = _write(tmp_path, text, name + ".yaml")
        assert main(["envelope", "--config", cfg, "--out", str(out)]) == 0, name
        summary = json.loads((out / "envelope.json").read_text(),
                             parse_constant=_refuse_constant)
        assert summary["violations"] == 0, name
        assert 0 < summary["floor"] < 1e-10, name
        assert 0 <= summary["max_ratio"] <= 1, name
        if name == "late":
            _, data = _read_csv(out / "envelope.csv")
            assert np.any(data[:, 1] > data[:, 2])  # only the floor absorbs it


def test_envelope_solver_failure_exits_4(tmp_path):
    text = """
graph:
  family: custom
  n: 4
  edges: [[1, 2, 1.0], [2, 1, 1.0], [3, 4, 1.0], [4, 3, 1.0]]
params: {R: 1.0, S: 1.0, G: 1.0}
initial: {x0: [0.0, 1.0, 2.0, 3.0]}
disturbance: {kind: zero}
"""
    cfg = _write(tmp_path, text)
    assert main(["envelope", "--config", cfg, "--out", str(tmp_path / "x")]) == 4


def test_config_error_paths(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path)]) == 2
    bad_h = _write(tmp_path, "graph: {family: complete, n: 3}\n"
                             "integration: {h: -0.5}\n", "bad_h.yaml")
    assert main(["simulate", "--config", bad_h, "--out", str(tmp_path)]) == 2
    assert "integration.h" in capsys.readouterr().err
    unknown = _write(tmp_path, "graph: {family: complete, n: 3}\ntypo: 1\n",
                     "unknown.yaml")
    assert main(["simulate", "--config", unknown, "--out", str(tmp_path)]) == 2
    noygraph = _write(tmp_path, "params: {R: 1.0}\n", "nog.yaml")
    assert main(["simulate", "--config", noygraph, "--out", str(tmp_path)]) == 2
    assert "graph.n" in capsys.readouterr().err
    notyaml = _write(tmp_path, "{:::", "broken.yaml")
    assert main(["simulate", "--config", notyaml, "--out", str(tmp_path)]) == 2
    for name, text, field in (
            ("n_text", "graph: {family: complete, n: abc}\n", "graph.n"),
            ("delta_text", "graph: {family: complete, n: 3}\n"
                           "disturbance: {kind: sinusoid, delta_max: x}\n",
             "disturbance.delta_max"),
            ("nested_typo", "graph: {family: complete, n: 3}\n"
                            "params: {RR: 5}\n", "params.RR"),
            ("seeds_bool", "graph: {family: complete, n: 3}\n"
                           "compare_seeds: true\n", "compare_seeds"),
            ("seeds_zero", "graph: {family: complete, n: 3}\n"
                           "compare_seeds: 0\n", "compare_seeds"),
            ("seeds_negative", "graph: {family: complete, n: 3}\n"
                               "compare_seeds: -2\n", "compare_seeds"),
            ("seeds_empty", "graph: {family: complete, n: 3}\n"
                            "compare_seeds: []\n", "compare_seeds"),
            ("ragged_T", "graph: {family: complete, n: 3}\n"
                         "integration: {h: 0.01, T: 0.015}\n", "integration.T")):
        bad = _write(tmp_path, text, name + ".yaml")
        assert main(["simulate", "--config", bad, "--out", str(tmp_path)]) == 2, name
        assert field in capsys.readouterr().err, name


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_numerical_failure_exits_3(tmp_path):
    text = """
graph: {family: undirected_ring, n: 2}
params: {B: 1.0, R: 1.0e-8, S: 1.0, G: 1.0}
initial: {x0: [0.0, 1.0]}
integration: {h: 10.0, T: 500.0}
"""
    cfg = _write(tmp_path, text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 3


def test_riccati_flag(tmp_path):
    cfg = _write(tmp_path, TWO_NODE)
    out = tmp_path / "dyn"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--riccati", "dynamic"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["riccati"] == "dynamic"


def test_json_config_accepted(tmp_path):
    payload = {
        "graph": {"family": "undirected_ring", "n": 2},
        "params": {"B": 1.0, "R": 1.0, "S": 1.0, "G": 1.0},
        "initial": {"x0": [0.0, 1.0]},
        "disturbance": {"kind": "zero"},
        "integration": {"h": 0.01, "T": 1.0},
        "seed": 0,
    }
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(payload))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "j")]) == 0


def test_console_entry_point(tmp_path):
    cfg = _write(tmp_path, TWO_NODE.replace("T: 50.0", "T: 1.0"))
    # the child imports the same mefcon as this test, installed or not
    src = str(Path(mefcon.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run(
        [sys.executable, "-m", "mefcon", "simulate", "--config", cfg,
         "--out", str(tmp_path / "sub")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert (tmp_path / "sub" / "trajectory.csv").exists()


def test_shipped_configs_build():
    config_dir = Path(__file__).resolve().parents[1] / "configs"
    paths = sorted(config_dir.glob("*.yaml"))
    assert len(paths) >= 3
    for path in paths:
        config, resolved = build_scenario(load_config(path))
        assert config.steps > 0
        assert resolved["graph"]["n"] == config.topology.node_count


def test_random_initial_condition_is_seeded(tmp_path):
    text = """
graph: {family: complete, n: 3}
params: {R: 1.0, S: 1.0, G: 1.0}
integration: {h: 0.01, T: 0.1}
seed: 11
"""
    cfg = _write(tmp_path, text)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    assert ma["config"]["initial"]["x0"] == mb["config"]["initial"]["x0"]
    assert all(-1.0 <= v <= 1.0 for v in ma["config"]["initial"]["x0"])
