"""Tests of the benchmark's own logic.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import clock  # noqa: E402
import mefcon  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


# --- span arithmetic -----------------------------------------------------

def test_covered_is_the_union_of_intervals():
    assert spans.covered([]) == 0.0
    assert spans.covered([(1, 3), (2, 4), (6, 7)]) == pytest.approx(4.0)
    assert spans.covered([(0, 10), (2, 3)]) == pytest.approx(10.0)


def test_self_time_subtracts_direct_children_and_folded_time():
    #  root [0, 10] folded 0.5
    #    a [1, 3]   -> grandchild g [1.5, 2.5]
    #    b [2, 4]   (overlaps a: the covered union is [1, 4])
    #    c [6, 7]
    spans_ = [
        ["root", 0.0, 10.0, -1, 0.5],
        ["a", 1.0, 3.0, 0, 0.0],
        ["g", 1.5, 2.5, 1, 0.0],
        ["b", 2.0, 4.0, 0, 0.25],
        ["c", 6.0, 7.0, 0, 0.0],
    ]
    got = spans.self_times(spans_)
    assert got == pytest.approx([10 - 4 - 0.5, 2 - 1, 1, 2 - 0.25, 1])


def test_tracer_nests_spans_and_folds_leaves_into_the_open_span():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        tracer.fold("leaf", 0.125)
        with tracer.span("inner"):
            tracer.fold("leaf", 0.25)
    outer, inner = tracer.spans
    assert (outer[spans.PARENT], inner[spans.PARENT]) == (-1, 0)
    assert (outer[spans.FOLDED], inner[spans.FOLDED]) == (0.125, 0.25)
    assert tracer.counts["leaf.calls"] == 2
    assert tracer.counts["leaf.s"] == 0.375


def test_layer_metrics_from_synthetic_spans():
    tracer = spans.Tracer()
    tracer.spans = [
        ["cli.simulate", 0.0, 4.0, -1, 0.0],
        ["config.load", 0.0, 1.0, 0, 0.0],
        ["simulate.mef", 1.0, 3.5, 0, 0.5],
        ["disturbances.sample", 1.0, 1.5, 2, 0.0],
    ]
    tracer.counts.update({"simulate.steps": 1000, "disturbances.at.s": 0.5,
                          "disturbances.at.calls": 4001})
    m = spans.layer_metrics(tracer)
    assert m["cli.simulate_s"] == 4.0
    assert m["cli.self_s"] == pytest.approx(4.0 - 1.0 - 2.5)
    assert m["simulate.mef_s"] == 2.5
    # 2.5 s inclusive - 0.5 s sampling - 0.5 s of at() calls over 1000 steps
    assert m["simulate.self_us_per_step"] == pytest.approx(1500.0)
    assert m["disturbances.sample_calls"] == 1
    assert m["disturbances.at_calls"] == 4001
    assert m["config.load_s"] == 1.0 and m["cli.compare_s"] == 0


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = set(spans.layer_metrics(spans.Tracer()))
    names |= {"simulate.rk4_margin", "sweep.rejected_candidates",
              "trace.run_s", "trace.overhead_s"}
    assert names == {m["name"] for m in spec["per_layer"]}


def test_instrument_patches_every_import_site_and_restores():
    original = mefcon.config.build_scenario
    sites = (mefcon, mefcon.config, mefcon.cli)
    assert all(site.build_scenario is original for site in sites)
    tracer = spans.Tracer()
    raw = {"graph": {"family": "directed_cycle", "n": 3}}
    with spans.instrument(tracer):
        assert all(site.build_scenario is not original for site in sites)
        mefcon.build_scenario(raw)
    assert all(site.build_scenario is original for site in sites)
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["config.build", "graphs.build", "filtering.params"]
    assert [s[spans.PARENT] for s in tracer.spans] == [-1, 0, 0]


# --- generator determinism -------------------------------------------------

def test_sweep_generator_is_deterministic(tmp_path):
    a = workloads.sweep_cases(7, 3)
    b = workloads.sweep_cases(7, 3)
    c = workloads.sweep_cases(8, 3)
    assert json.dumps(a) == json.dumps(b)
    assert json.dumps(a[0]) != json.dumps(c[0])
    cases, rejected, margin = a
    assert len(cases) == 3 and rejected >= 0 and 0 < margin <= 1
    for case in cases:
        assert 2 <= case["n"] <= 8 and len(case["x0"]) == case["n"]


def test_pipeline_scenarios_are_deterministic(tmp_path):
    files = ["pipeline_sinusoid.yaml", "pipeline_white.yaml"]
    texts = []
    for seed, sub in ((3, "a"), (3, "b"), (4, "c")):
        d = tmp_path / sub
        d.mkdir()
        workloads.make_pipeline(seed, d, n=6, T=0.1)
        texts.append([(d / f).read_text() for f in files])
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]


def test_compare_seeds_are_deterministic():
    assert workloads.compare_seeds(3) == workloads.compare_seeds(3)
    assert workloads.compare_seeds(3) != workloads.compare_seeds(4)
    assert len(set(workloads.compare_seeds(3))) == 3


# --- correctness checks ----------------------------------------------------

def _summary(baseline, estimates, d_ave=0.5):
    return {"coherence_analytical": d_ave, "baseline": baseline,
            "filter_estimates": estimates}


@pytest.mark.parametrize("code, summary, ok", [
    (0, _summary([0.52], [0.1]), True),
    (0, _summary([0.65], [0.1]), False),        # baseline 30% off D_ave
    (0, _summary([0.5], [0.6]), False),         # estimates above baseline
    (0, _summary([0.5], [0.1], None), False),   # no analytical value
    (0, _summary([0.5, 0.5], [0.1, 0.1]), False),
    (3, None, False),
])
def test_compare_check_rejects_corrupted_summaries(code, summary, ok):
    assert workloads.compare_op(code, summary, "d").ok is ok


def test_sweep_check_rejects_a_corrupted_terminal_state():
    cases, _, _ = workloads.sweep_cases(0, 1)
    result = workloads.sweep_case(cases[0])
    assert workloads.sweep_op(result).ok
    n, q, stable, x_star, x, x_hat = result
    bad_x = x.copy()
    bad_x[-1, 0] += 1e-3
    assert not workloads.sweep_op((n, q, stable, x_star, bad_x, x_hat)).ok
    assert not workloads.sweep_op((n, 2, stable, x_star, x, x_hat)).ok
    assert not workloads.sweep_op("SimulationError: boom").ok


def test_pipeline_check_rejects_corrupted_artifacts(tmp_path):
    wl = workloads.make_pipeline(5, tmp_path, n=6, T=1.0)
    out = tmp_path / "out"
    codes = wl.job(out, clock.Clock(wl.step_shape, wl.host_sensitivity).op)
    assert [op.ok for op in wl.check(codes, out)] == [True, True, True]

    env_path = out / "envelope" / "envelope.json"
    good = json.loads(env_path.read_text())
    env_path.write_text(json.dumps({**good, "x_star": good["x_star"] + 1e-12}))
    assert [op.ok for op in wl.check(codes, out)] == [True, False, True]
    env_path.write_text(json.dumps({**good, "violations": 1}))
    assert not wl.check(codes, out)[1].ok
    env_path.write_text(json.dumps(good))
    assert not wl.check({**codes, "simulate": 3}, out)[2].ok


def test_artifact_digest_ignores_only_duration(tmp_path):
    p = tmp_path / "summary.json"
    p.write_text(json.dumps({"duration_s": 1.0, "x": 1}))
    first = workloads.artifact_digest(p)
    p.write_text(json.dumps({"duration_s": 2.0, "x": 1}))
    assert workloads.artifact_digest(p) == first
    p.write_text(json.dumps({"duration_s": 2.0, "x": 2}))
    assert workloads.artifact_digest(p) != first
    csv = tmp_path / "a.csv"
    csv.write_text("t\n0\n")
    before = workloads.artifact_digest(csv)
    csv.write_text("t\n0.0\n")
    assert workloads.artifact_digest(csv) != before


def test_verdicts_fail_changed_outputs_and_unstable_scenarios():
    wl = workloads.Workload(1, [], None, None, rk4_margin=0.9, step_shape=(8, 32),
                            host_sensitivity=1.0)
    jobs = [[Op(True, "a"), Op(True, "b")],
            [Op(True, "a"), Op(True, "changed")],
            [Op(False, "a", "bad"), Op(True, "b")]]
    attempted, failed, notes = run.verdicts(wl, jobs)
    assert (attempted, failed) == (6, 2)
    assert "differ" in notes[0] and "bad" in notes[1]
    wl.rk4_margin = 1.5
    assert run.verdicts(wl, jobs[:1])[1] == 2


def test_rk4_margin():
    assert workloads.rk4_margin(np.array([0.0, -1.0]), 0.01) == pytest.approx(
        1 - 0.01 + 0.01 ** 2 / 2 - 0.01 ** 3 / 6 + 0.01 ** 4 / 24)
    assert workloads.rk4_margin(np.array([0.0, -300.0]), 0.01) > 1


def test_setup_probe_scales_set_up_by_its_own_calibration(tmp_path):
    import setup_probe

    cases, _, _ = workloads.sweep_cases(0, 2)
    path = tmp_path / "cases.json"
    path.write_text(json.dumps(cases))
    probe = workloads.Workload(1, ["sweep", str(path)], None, None, 0.9, (8, 8), 1.0)
    got = run.setup_probe(probe, tmp_path)
    assert got["raw_s"] > 0 and got["calibration_s"] > 0
    assert got["setup_s"] == pytest.approx(
        got["raw_s"] * setup_probe.CAL_REF_S / got["calibration_s"])


@pytest.mark.parametrize("sensitivity", [1.0, 0.6])
def test_clock_scales_operations_by_the_calibration_around_them(
        monkeypatch, sensitivity):
    cals = iter([0.04, 0.02, 0.01])
    monkeypatch.setattr(clock, "calibrate", lambda nodes, edges: next(cals))
    ticks = iter([0.0, 1.0, 5.0, 6.0])
    monkeypatch.setattr(clock.time, "perf_counter", lambda: next(ticks))
    timer = clock.Clock((8, 32), sensitivity)
    for _ in range(2):
        with timer.op("x"):
            pass
    assert timer.raw == 2.0
    # each 1 s operation is scaled by
    # (CAL_REF_S / mean(calibration before, after)) ** sensitivity
    assert timer.adjusted == pytest.approx(
        (clock.CAL_REF_S / 0.03) ** sensitivity
        + (clock.CAL_REF_S / 0.015) ** sensitivity)
