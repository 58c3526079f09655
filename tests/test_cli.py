import csv
import dataclasses
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
disturbance: {kind: sinusoid, delta_max: 0.1, eps_max: 0.1, frequency: 1.0}
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
    # a custom graph's echo lists its edges and no unread weight
    _, resolved = build_scenario({"graph": {"family": "custom", "n": 2,
                                            "edges": [[1, 2, 0.5], [2, 1, 2.0]]}})
    assert "weight" not in resolved["graph"]
    assert build_scenario(resolved)[1] == resolved
    # each disturbance kind echoes the fields it reads, and no seed but the run's
    white = RING_SINUSOID.replace(
        "kind: sinusoid, delta_max: 0.1, eps_max: 0.1, frequency: 1.0",
        "kind: white, sigma: 0.5")
    for text, fields in ((TWO_NODE, ["kind"]),
                         (RING_SINUSOID, ["delta_max", "eps_max", "frequency", "kind"]),
                         (white, ["kind", "sigma"])):
        _, resolved = build_scenario(yaml.safe_load(text))
        assert sorted(resolved["disturbance"]) == fields
        assert build_scenario(resolved)[1] == resolved


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
    ball = rep["iss"]["b"] * rep["iss"]["phi"] / rep["iss"]["a"]
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


@pytest.mark.parametrize("verb", ["analyze", "envelope"])
def test_tolerance_that_certifies_nothing_is_refused(tmp_path, capsys, verb):
    # nan, inf and nonpositive values classify no eigenvalue soundly; at
    # 0.6 F's slowest stable pair counts as zero (q = 2), so a and b would
    # describe the wrong subspace
    cfg = str(CONFIGS / "two_ring_envelope.yaml")
    for value, code in (("nan", 2), ("inf", 2), ("0", 2), ("-1", 2), ("0.6", 4)):
        out = tmp_path / f"{verb}_{value}"
        assert main([verb, "--config", cfg, "--out", str(out),
                     "--tolerance", value]) == code, value
        assert "--tolerance" in capsys.readouterr().err, value
        assert not any(out.iterdir()), value


@pytest.mark.parametrize("verb", ["simulate", "compare"])
def test_tolerance_is_refused_where_unread(tmp_path, verb):
    # only analyze and envelope classify F's spectrum; elsewhere the flag
    # would be accepted and ignored
    cfg = _write(tmp_path, TWO_NODE)
    with pytest.raises(SystemExit) as exc:
        main([verb, "--config", cfg, "--out", str(tmp_path / verb),
              "--tolerance", "1e-4"])
    assert exc.value.code == 2


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
    assert summary["config"]["disturbance"] == {"kind": "white", "sigma": 1.0}


def test_compare_directed_graph_has_no_analytical_coherence(tmp_path, capsys):
    # the closed form holds for undirected graphs only: null, not a number
    cfg = _write(tmp_path, """
graph: {family: directed_cycle, n: 3}
initial: {x0: [0.1, -0.3, 0.7]}
disturbance: {kind: white, sigma: 0.5}
integration: {h: 0.01, T: 1.0}
""")
    out = tmp_path / "cmpd"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=_refuse_constant)
    assert summary["coherence_analytical"] is None
    assert "D_ave=nan" in capsys.readouterr().out


def test_envelope_containment(tmp_path):
    cfg = _write(tmp_path, RING_SINUSOID)
    out = tmp_path / "env"
    assert main(["envelope", "--config", cfg, "--out", str(out)]) == 0
    header, data = _read_csv(out / "envelope.csv")
    assert header == ["t", "disagreement_norm", "envelope", "bound"]
    assert np.all(data[:, 1] <= data[:, 2])
    summary = json.loads((out / "envelope.json").read_text())
    assert summary["violations"] == 0
    assert summary["phi_max"] == pytest.approx(0.68284, abs=1e-5)


def test_envelope_rejects_white_noise(tmp_path, capsys):
    cfg = _write(tmp_path, RING_SINUSOID.replace(
        "kind: sinusoid, delta_max: 0.1, eps_max: 0.1, frequency: 1.0",
        "kind: white, sigma: 1.0"))
    assert main(["envelope", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "bounded continuous" in capsys.readouterr().err


def test_envelope_violation_exits_5(tmp_path, monkeypatch):
    import mefcon.analysis as analysis_mod
    monkeypatch.setattr(analysis_mod, "iss_envelope",
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
            assert np.all(data[:, 1] <= data[:, 3])  # bound = envelope + floor


DIGRAPH6 = """
graph:
  family: custom
  n: 6
  edges: [[1, 2, 1.5], [2, 3, 0.7], [3, 4, 1.2], [4, 5, 2.0], [5, 6, 0.9],
          [6, 1, 1.1], [1, 4, 0.6], [3, 1, 1.8], [5, 2, 0.8]]
params: {B: [1.0, 0.5, 2.0, 1.2, 0.8, 1.5], R: 0.7, S: 1.3, G: 1.0}
initial: {x0: [0.3, -0.2, 0.9, 0.1, -0.6, 0.4]}
disturbance: {kind: sinusoid, delta_max: 0.05, eps_max: 0.02, frequency: 0.5}
integration: {h: 0.01, T: 20.0}
seed: 3
"""


@pytest.mark.parametrize("text", [RING_SINUSOID, DIGRAPH6], ids=["ring", "digraph6"])
def test_analyze_and_envelope_print_one_certificate(tmp_path, text):
    cfg = _write(tmp_path, text)
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "rep")]) == 0
    assert main(["envelope", "--config", cfg, "--out", str(tmp_path / "env")]) == 0
    rep = json.loads((tmp_path / "rep" / "report.json").read_text())
    env = json.loads((tmp_path / "env" / "envelope.json").read_text())
    for key in ("a", "b", "phi_max", "asymptotic_ball"):
        assert env[key] == rep["iss"][key], key
    assert env["x_star"] == rep["equilibrium"]["x_star"]
    assert env["rk4_margin"] == rep["spectral"]["rk4_margin"]


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("frequency", ["0.001", "0.01"])
def test_envelope_follows_the_moving_consensus_value(tmp_path, frequency):
    # a slow disturbance moves c(t) = nu . (x, x_hat) along the consensus
    # line; measured from the fixed x* = c(0) this run leaves the envelope
    text = (CONFIGS / "two_ring_envelope.yaml").read_text()
    assert "frequency: 1.0" in text
    cfg = _write(tmp_path, text.replace("frequency: 1.0", f"frequency: {frequency}"))
    out = tmp_path / "env"
    assert main(["envelope", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "envelope.json").read_text())
    assert summary["violations"] == 0
    assert summary["max_ratio"] == pytest.approx(0.845095, abs=1e-6)  # 1/b, at t = 0
    assert summary["phi"] == pytest.approx(0.422689, abs=1e-6)
    assert summary["phi_max"] == pytest.approx(0.68284, abs=1e-5)
    if frequency == "0.001":
        assert summary["consensus_drift"] == pytest.approx(1.658, abs=1e-3)
    _, data = _read_csv(out / "envelope.csv")
    assert np.all(data[:, 1] <= data[:, 3])


def test_missing_phi_max_is_null(tmp_path, monkeypatch, capsys):
    # a certificate without the closed form (R or S not uniform, reachable
    # from the library only) prints and writes phi_max as null
    certify = mefcon.cli.certify
    monkeypatch.setattr(mefcon.cli, "certify", lambda config, report: dataclasses.replace(
        certify(config, report), phi_max=None))
    path = CONFIGS / "two_ring_envelope.yaml"
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert "(phi_max=null)" in capsys.readouterr().out
    assert json.loads((tmp_path / "report.json").read_text())["iss"]["phi_max"] is None


def test_white_noise_certificate_has_no_bound(tmp_path, capsys):
    # white noise has no amplitude bound: phi, phi_max and the asymptotic
    # ball are null, not 0; a and b still describe the loop
    path = CONFIGS / "complete100_compare.yaml"
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert "phi=null (phi_max=null)" in capsys.readouterr().out
    iss = json.loads((tmp_path / "report.json").read_text())["iss"]
    assert iss["phi"] is iss["phi_max"] is iss["asymptotic_ball"] is None
    assert iss["a"] > 0 and iss["b"] >= 1


def test_library_certificate_matches_the_artifacts(tmp_path):
    path = CONFIGS / "two_ring_envelope.yaml"
    config, _ = build_scenario(load_config(path))
    cert = mefcon.certify(config, mefcon.spectral_report(config.loop))
    check = mefcon.check_envelope(config, cert)
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "rep")]) == 0
    assert main(["envelope", "--config", str(path), "--out", str(tmp_path / "env")]) == 0
    rep = json.loads((tmp_path / "rep" / "report.json").read_text())
    env = json.loads((tmp_path / "env" / "envelope.json").read_text())
    for key, value in rep["iss"].items():
        assert getattr(cert, key) == value, key
    assert cert.x_star == rep["equilibrium"]["x_star"]
    assert cert.nu.tolist() == rep["equilibrium"]["weights"]
    assert cert.rk4_margin == rep["spectral"]["rk4_margin"] == env["rk4_margin"]
    for key in ("floor", "violations", "max_ratio", "consensus_drift", "z0_norm"):
        assert getattr(check, key) == env[key], key
    assert check.violations == 0
    assert check.max_ratio == pytest.approx(0.845095, abs=1e-6)
    _, data = _read_csv(tmp_path / "env" / "envelope.csv")
    assert np.array_equal(np.column_stack([check.t, check.norms, check.envelope,
                                           check.bound]), data)


def test_certificate_covers_non_unit_G(tmp_path):
    text = RING_SINUSOID.replace("S: 1.0, G: 1.0", "S: 2.0, G: 0.5")
    cfg = _write(tmp_path, text)
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "rep")]) == 0
    assert main(["envelope", "--config", cfg, "--out", str(tmp_path / "env")]) == 0
    rep = json.loads((tmp_path / "rep" / "report.json").read_text())
    env = json.loads((tmp_path / "env" / "envelope.json").read_text())
    assert rep["iss"]["a"] == pytest.approx(0.2832, abs=1e-4)
    assert rep["iss"]["b"] == pytest.approx(1.602, abs=1e-3)
    assert rep["iss"]["phi"] == pytest.approx(0.5216, abs=1e-4)
    assert env["violations"] == 0
    # disturbance-free twin with unequal priors: x* is where the run settles
    twin = _write(tmp_path, text.replace(
        "kind: sinusoid, delta_max: 0.1, eps_max: 0.1, frequency: 1.0",
        "kind: zero").replace("x0: [0.0, 1.0]", "x0: [0.0, 1.0], prior: [0.3, 0.6]")
        .replace("T: 30.0", "T: 100.0"), "twin.yaml")
    assert main(["analyze", "--config", twin, "--out", str(tmp_path / "trep")]) == 0
    assert main(["simulate", "--config", twin, "--out", str(tmp_path / "run")]) == 0
    x_star = json.loads((tmp_path / "trep" / "report.json").read_text())[
        "equilibrium"]["x_star"]
    _, data = _read_csv(tmp_path / "run" / "trajectory.csv")
    assert np.max(np.abs(data[-1, 1:5] - x_star)) <= 1e-9  # x and x_hat


_ARTIFACTS = {"simulate": ["trajectory.csv", "manifest.json"],
              "analyze": ["report.json"],
              "envelope": ["envelope.csv", "envelope.json"]}


def test_readme_commands_run_on_shipped_configs(tmp_path, monkeypatch):
    readme = (CONFIGS.parent / "README.md").read_text()
    commands = [line.split() for line in readme.splitlines()
                if line.startswith("mefcon ") and line.split()[1] in _ARTIFACTS]
    assert sorted({cmd[1] for cmd in commands}) == sorted(_ARTIFACTS)
    monkeypatch.chdir(CONFIGS.parent)
    for k, (_, verb, *rest) in enumerate(commands):
        args = dict(zip(rest[::2], rest[1::2]))
        out = tmp_path / f"{k}_{verb}"
        assert main([verb, "--config", args["--config"], "--out", str(out)]) == 0, verb
        for name in _ARTIFACTS[verb]:
            assert (out / name).is_file(), (verb, name)


def test_envelope_builds_one_closed_loop(tmp_path, monkeypatch):
    built = []
    init = mefcon.ClosedLoop.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(mefcon.ClosedLoop, "__init__", counting)
    assert main(["envelope", "--config", str(CONFIGS / "two_ring_envelope.yaml"),
                 "--out", str(tmp_path)]) == 0
    assert len(built) == 1  # the certificate and the run share it


def test_envelope_refuses_an_unstable_step(tmp_path, capsys):
    cfg = _write(tmp_path, RING_SINUSOID)
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "rep")]) == 0
    rep = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert rep["spectral"]["rk4_margin"] == pytest.approx(0.99519, abs=1e-5)
    # at h = 1 RK4 grows a mode of F by 1.244 per step: no envelope to check
    cfg = _write(tmp_path, RING_SINUSOID.replace("h: 0.01", "h: 1.0"), "big_h.yaml")
    out = tmp_path / "big_h"
    capsys.readouterr()
    assert main(["envelope", "--config", cfg, "--out", str(out)]) == 3
    assert "integration.h" in capsys.readouterr().err
    assert not (out / "envelope.csv").exists()
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "rep1")]) == 0
    rep = json.loads((tmp_path / "rep1" / "report.json").read_text())
    assert rep["spectral"]["rk4_margin"] == pytest.approx(1.244, abs=1e-3)


def test_envelope_solver_failure_exits_4(tmp_path, capsys):
    # two disjoint pairs, and a path, which is connected but not strongly:
    # the certificate refuses both, as analyze reports them uncertified
    two_pairs = """
graph:
  family: custom
  n: 4
  edges: [[1, 2, 1.0], [2, 1, 1.0], [3, 4, 1.0], [4, 3, 1.0]]
params: {R: 1.0, S: 1.0, G: 1.0}
initial: {x0: [0.0, 1.0, 2.0, 3.0]}
disturbance: {kind: zero}
"""
    path = """
graph: {family: path, n: 4}
initial: {x0: [0.0, 1.0, 2.0, 3.0]}
disturbance: {kind: sinusoid, delta_max: 0.1, eps_max: 0.1}
integration: {h: 0.01, T: 5.0}
"""
    for name, text in (("two_pairs", two_pairs), ("path", path)):
        cfg = _write(tmp_path, text, name + ".yaml")
        out = tmp_path / name
        assert main(["envelope", "--config", cfg, "--out", str(out / "env")]) == 4, name
        assert "not strongly connected" in capsys.readouterr().err, name
        assert not (out / "env" / "envelope.csv").exists(), name
        assert main(["analyze", "--config", cfg, "--out", str(out / "rep")]) == 0, name
        assert "not strongly connected" in capsys.readouterr().out, name
        rep = json.loads((out / "rep" / "report.json").read_text())
        assert "iss" not in rep and rep["warnings"], name


def _exit_code(argv):
    """main's exit code, with argparse's refusals (SystemExit) included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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
    assert "config parse error" in capsys.readouterr().err
    for name, text, field, *flags in (
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
                         "integration: {h: 0.01, T: 0.015}\n", "integration.T"),
            ("named_edges", "graph: {family: complete, n: 3, "
                            "edges: [[1, 2, 5.0]]}\n", "graph.edges"),
            ("custom_weight", "graph: {family: custom, n: 2, weight: 2.0, "
                              "edges: [[1, 2, 1.0], [2, 1, 1.0]]}\n", "graph.weight"),
            ("n_zero", "graph: {family: complete, n: 0}\n", "graph.n"),
            ("weight_negative", "graph: {family: complete, n: 3, weight: -1}\n",
             "graph.weight"),
            ("family_unknown", "graph: {family: torus, n: 3}\n", "graph.family"),
            ("edge_self_loop", "graph: {family: custom, n: 2, edges: [[1, 2, 1.0], "
                               "[1, 1, 1.0]]}\n", "graph.edges' entry 2, [1, 1, 1.0]"),
            ("edge_pair", "graph: {family: custom, n: 2, edges: [[1, 2]]}\n",
             "graph.edges"),
            ("root_list", "- 1\n- 2\n", "config root"),
            ("section_list", "graph: [1, 2]\n", "section 'graph'"),
            ("B_length", "graph: {family: complete, n: 3}\nparams: {B: [1.0, 2.0]}\n",
             "params.B"),
            ("Xi_length", "graph: {family: complete, n: 3}\n"
                          "params: {Xi: [1.0, 2.0, 3.0, 4.0]}\n", "params.Xi"),
            ("uniform_empty", "graph: {family: complete, n: 3}\ninitial: {x0: "
                              "{random_uniform: {low: 1.0, high: 1.0}}}\n",
             "initial.x0.random_uniform.high"),
            ("x0_length", "graph: {family: complete, n: 3}\n"
                          "initial: {x0: [0.0, 1.0]}\n", "initial.x0"),
            ("prior_length", "graph: {family: complete, n: 3}\n"
                             "initial: {prior: [0.0, 1.0]}\n", "initial.prior"),
            ("prior_text", "graph: {family: complete, n: 3}\n"
                           "initial: {prior: zero}\n", "initial.prior"),
            ("algorithm_unknown", "graph: {family: complete, n: 3}\n"
                                  "algorithm: gossip\n", "field 'algorithm'"),
            ("kind_unknown", "graph: {family: complete, n: 3}\n"
                             "disturbance: {kind: brownian}\n", "disturbance.kind"),
            # a disturbance field that its kind does not read, the old noise seed too
            ("sigma_sinusoid", "graph: {family: complete, n: 3}\n"
                               "disturbance: {kind: sinusoid, sigma: 1.0}\n",
             "disturbance.sigma"),
            ("delta_white", "graph: {family: complete, n: 3}\n"
                            "disturbance: {kind: white, delta_max: 0.1}\n",
             "disturbance.delta_max"),
            ("frequency_zero", "graph: {family: complete, n: 3}\n"
                               "disturbance: {kind: zero, frequency: 1.0}\n",
             "disturbance.frequency"),
            ("disturbance_seed", "graph: {family: complete, n: 3}\n"
                                 "disturbance: {seed: 7}\n", "disturbance.seed"),
            ("seed_negative", "graph: {family: complete, n: 3}\nseed: -1\n",
             "field 'seed'"),
            ("seeds_negative_entry", "graph: {family: complete, n: 3}\n"
                                     "compare_seeds: [-2]\n", "compare_seeds"),
            ("seed_flag_negative", "graph: {family: complete, n: 3}\n", "--seed",
             "--seed", "-3")):
        bad = _write(tmp_path, text, name + ".yaml")
        assert _exit_code(["simulate", "--config", bad, "--out", str(tmp_path),
                           *flags]) == 2, name
        assert field in capsys.readouterr().err, name


@pytest.mark.parametrize("body, field", [
    ("disturbance: {kind: sinusoid, delta_max: -0.1}\n", "field 'disturbance.delta_max'"),
    ("disturbance: {kind: sinusoid, eps_max: -0.1}\n", "field 'disturbance.eps_max'"),
    ("disturbance: {kind: white, sigma: -1}\n", "field 'disturbance.sigma'"),
    ("disturbance: {kind: sinusoid, frequency: 0}\n", "field 'disturbance.frequency'"),
    ("riccati: adaptive\n", "field 'riccati'"),
    # params refusals quote the (first) refused value too
    ("params: {R: 0}\n", "field 'params.R' must be strictly positive, got 0.0"),
    ("params: {S: -1}\n", "field 'params.S' must be strictly positive, got -1.0"),
    ("params: {G: 0}\n", "field 'params.G' must be strictly positive, got 0.0"),
    ("params: {G: 3}\n", "field 'params.G' must not exceed params.S = 1.0, got 3.0"),
    ("params: {Xi: -1}\n", "field 'params.Xi' must be strictly positive, got -1.0"),
    ("params: {Xi: [1, 0, 2]}\n", "field 'params.Xi' must be strictly positive, got 0.0"),
    ("params: {B: [1, 0, 2]}\n", "field 'params.B' must be nonzero at every node "
                                 "for the default Xi = 1/Q*, got 0.0"),
    ("params: {B: 0}\n", "field 'params.B' must be nonzero at every node for the "
                         "default Xi = 1/Q*, got 0.0")],
    ids=["delta_max", "eps_max", "sigma", "frequency", "riccati", "R", "S", "G",
         "G_above_S", "Xi", "Xi_entry", "B_entry", "B_default_Xi"])
def test_refused_value_names_its_field(tmp_path, capsys, body, field):
    bad = _write(tmp_path, "graph: {family: complete, n: 3}\n" + body)
    assert _exit_code(["simulate", "--config", bad, "--out", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err


def test_unreadable_paths_exit_2(tmp_path, capsys):
    # a directory or a binary file as --config, a file in the way of --out
    binary = tmp_path / "binary.yaml"
    binary.write_bytes(bytes([0x93, 0xff, 0x00, 0x80]))
    for config in (tmp_path, binary):
        assert main(["simulate", "--config", str(config), "--out",
                     str(tmp_path / "out")]) == 2
        assert "--config" in capsys.readouterr().err
    good, taken = _write(tmp_path, TWO_NODE), tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "sub"):
        assert main(["simulate", "--config", good, "--out", str(out)]) == 2
        assert "--out" in capsys.readouterr().err
    assert taken.read_text() == ""


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


# the verb, its artifact, and its exit code; the envelope's bound is forced
# below the run's norms, so it ends in a violation
_CLOSED_STDOUT = {
    "simulate": ("trajectory.csv", 0, ""),
    "analyze": ("report.json", 0, ""),
    "envelope": ("envelope.json", 5, "error: disagreement norm"),
}


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("verb", list(_CLOSED_STDOUT))
def test_closed_stdout_is_not_a_failure(tmp_path, verb, buffered):
    # a reader that stops at once (| head -0): the artifact is written and
    # the exit code is the verb's own, whether stdout is block-buffered (a
    # pipe) or not (PYTHONUNBUFFERED)
    artifact, code, err = _CLOSED_STDOUT[verb]
    cfg = _write(tmp_path, RING_SINUSOID.replace("T: 30.0", "T: 1.0"))
    src = str(Path(mefcon.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [verb, "--config", cfg, "--out", str(tmp_path / "o")]
    program = "\n".join([
        "import sys, numpy as np",
        "import mefcon.analysis, mefcon.cli",
        "mefcon.analysis.iss_envelope = lambda a, b, z0, phi, t: np.full(np.shape(t), 1e-12)",
        f"sys.exit(mefcon.cli.main({argv!r}))"])
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-c", program], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(err) and (err or not proc.stderr), proc.stderr
    assert (tmp_path / "o" / artifact).exists()


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


_ROOT = Path(__file__).resolve().parents[1]
# Runs whose maps are all dense: each, in a fresh interpreter, must leave
# no scipy module loaded.  The benchmark's workload module builds the
# pipeline's sinusoid digraph (N = 100, E about 3 000) and the sweep.
_DENSE_RUNS = {
    "import": "",
    "compare": "run('compare', CONFIGS / 'complete100_compare.yaml')",
    **{f"analyze-{path.stem}": f"run('analyze', CONFIGS / {path.name!r})"
       for path in sorted((_ROOT / "configs").glob("*.yaml"))},
    "analyze-pipeline": "work.make_pipeline(1, OUT)\n"
                        "run('analyze', OUT / 'pipeline_sinusoid.yaml')",
    "sweep-case": "work.sweep_case(work.sweep_cases(1, 1)[0][0])",
}


@pytest.mark.parametrize("run", list(_DENSE_RUNS), ids=list(_DENSE_RUNS))
def test_runs_without_a_sparse_map_load_no_scipy(run, tmp_path):
    # scipy.sparse is imported only where a map is stored CSR; scipy.linalg
    # only by the overshoot's Schur/expm fallback, which these never reach
    src = str(Path(mefcon.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    code = "\n".join([
        "import json, sys",
        "from pathlib import Path",
        "import mefcon, mefcon.cli",
        f"sys.path.insert(0, {str(_ROOT / 'perfbench')!r})",
        "import workloads as work" if "work." in _DENSE_RUNS[run] else "",
        f"CONFIGS, OUT = Path({str(_ROOT / 'configs')!r}), Path({str(tmp_path)!r})",
        "def run(verb, path):",
        "    assert mefcon.cli.main([verb, '--config', str(path), '--out',",
        "                            str(OUT / verb)]) == 0",
        _DENSE_RUNS[run],
        "print(json.dumps([m for m in sys.modules if m.startswith('scipy')]))"])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
