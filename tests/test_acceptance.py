"""Acceptance gate: eight numbered criteria, one verdict line each.

Each criterion is a single test, so plain ``pytest -v`` shows one
pass/fail entry per criterion; run with ``-s`` to also see the
``[criterion N] ...: PASS`` lines with timings.
"""
import time

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from mefcon import (DisturbanceProfile, NetworkTopology, ScenarioConfig,
                    analytical_coherence, assemble_global, disagreement_norms,
                    exp_bound_constants, integrate_riccati, iss_envelope,
                    left_null_vector_of, make_graph, measurements, phi_max,
                    predict_equilibrium, reduced_energy, run_comparison,
                    simulate_mef, spectral_report, uniform_params)


def _verdict(num: int, desc: str, ok: bool, elapsed: float, limit: float) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {desc}: {tag} ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert ok, f"criterion {num}: {desc}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_riccati_fixed_point():
    t0 = time.perf_counter()
    errs = [abs(integrate_riccati(q0, 1.0, 1.0, [1.0], 20.0, 0.01) - 2 ** -0.5)
            for q0 in (0.01, 1.0, 10.0)]
    _verdict(1, "gain recursion reaches 1/sqrt(2) within 1e-6 by t=20 "
                "from Q0 in {0.01, 1, 10}",
             max(errs) < 1e-6, time.perf_counter() - t0, 1.0)


def test_criterion_2_spectral_structure_sweep(admissible_sweep):
    t0 = time.perf_counter()
    ok = True
    for top, params, system, _ in admissible_sweep:
        report = spectral_report(system)
        ok = ok and report.q == 1
        ok = ok and report.stable_count == 2 * top.node_count - 1
    _verdict(2, "50 random strongly connected digraphs: exactly one zero "
                "eigenvalue and 2N-1 strictly stable",
             ok, time.perf_counter() - t0, 10.0)


def test_criterion_3_equilibrium_prediction(admissible_sweep):
    t0 = time.perf_counter()
    worst_x = worst_e = 0.0
    for i, (top, params, system, _) in enumerate(admissible_sweep):
        n = top.node_count
        rng = np.random.default_rng(1000 + i)
        x0 = rng.uniform(-1, 1, n)
        e0 = 0.3 * rng.uniform(-1, 1, n)
        traj = simulate_mef(ScenarioConfig(top, params, x0, x0 + e0))
        eq = predict_equilibrium(system, left_null_vector_of(top), x0, e0)
        worst_x = max(worst_x, float(np.max(np.abs(traj.x[-1] - eq.x_star))))
        worst_e = max(worst_e, float(np.max(np.abs(traj.e[-1]))))

    top2 = make_graph("undirected_ring", 2)
    params2 = uniform_params(top2)
    system2 = assemble_global(top2, params2)
    omega2 = left_null_vector_of(top2)
    x0 = np.array([0.0, 1.0])
    eq_a = predict_equilibrium(system2, omega2, x0, np.zeros(2))
    sim_a = simulate_mef(ScenarioConfig(top2, params2, x0))
    e0_b = np.array([0.1, 0.1])
    eq_b = predict_equilibrium(system2, omega2, x0, e0_b)
    sim_b = simulate_mef(ScenarioConfig(top2, params2, x0, x0 + e0_b))
    closed_b = (2.0 - 0.2 * np.sqrt(2.0)) / 4.0

    ok = (worst_x < 1e-6 and worst_e < 1e-6
          and abs(eq_a.x_star - 0.5) < 1e-12
          and np.max(np.abs(sim_a.x[-1] - 0.5)) < 1e-6
          and abs(eq_b.x_star - closed_b) < 1e-12
          and abs(eq_b.x_star - 0.42929) < 5e-6
          and np.max(np.abs(sim_b.x[-1] - eq_b.x_star)) < 1e-6)
    _verdict(3, "terminal state matches predicted consensus within 1e-6 "
                "across the sweep plus both two-node hand cases",
             ok, time.perf_counter() - t0, 30.0)


def test_criterion_4_exponential_decay_bound():
    t0 = time.perf_counter()
    top = make_graph("undirected_ring", 2)
    params = uniform_params(top)
    x0 = np.array([0.0, 1.0])
    e0 = np.array([0.1, -0.1])
    traj = simulate_mef(ScenarioConfig(top, params, x0, x0 + e0, h=0.01, T=20.0))
    system = assemble_global(top, params)
    a, b = exp_bound_constants(system, spectral_report(system))
    eq = predict_equilibrium(system, left_null_vector_of(top), x0, e0)
    norms = disagreement_norms(traj, eq.x_star)
    env = iss_envelope(a, b, float(norms[0]), 0.0, traj.t)
    _verdict(4, "disturbance-free disagreement norm under b*|z0|*exp(-a t) "
                "at every grid point",
             bool(np.all(norms <= env)), time.perf_counter() - t0, 1.0)


def test_criterion_5_disturbed_envelope():
    t0 = time.perf_counter()
    top = make_graph("undirected_ring", 2)
    params = uniform_params(top)
    x0 = np.array([0.0, 1.0])
    profile = DisturbanceProfile(kind="sinusoid", delta_max=0.1, eps_max=0.1,
                                 frequency=1.0)
    traj = simulate_mef(ScenarioConfig(top, params, x0, None, profile,
                                       0.01, 30.0, seed=7))
    system = assemble_global(top, params)
    a, b = exp_bound_constants(system, spectral_report(system))
    eq = predict_equilibrium(system, left_null_vector_of(top), x0, np.zeros(2))
    phi = phi_max(params, top, 0.1, 0.1)
    norms = disagreement_norms(traj, eq.x_star)
    env = iss_envelope(a, b, float(norms[0]), phi, traj.t)
    ok = (abs(phi - 0.682842712474619) < 1e-9
          and bool(np.all(norms <= env)))
    _verdict(5, "sinusoid at bounds 0.1/0.1: norm under the ISS envelope "
                "(phi_max = 0.68284) at every grid point",
             ok, time.perf_counter() - t0, 5.0)


@pytest.mark.slow
def test_criterion_6_minimum_energy_oracle():
    t0 = time.perf_counter()
    top = make_graph("complete", 2)
    params = uniform_params(top, B=1.0, R=1.0, S=2.0, G=1.0)
    x0 = np.array([0.3, -0.5])
    h, T = 0.001, 0.5
    profile = DisturbanceProfile(kind="sinusoid", delta_max=0.5, eps_max=0.5,
                                 frequency=1.3)
    config = ScenarioConfig(top, params, x0, None, profile, h, T, seed=3)
    traj = simulate_mef(config)
    K = config.steps

    # node 0 observes itself plus edge 0 = (0, 1); hypothesis space is the
    # initial value plus 5 piecewise-constant disturbance segments
    wq = np.full(K + 1, h)
    wq[0] = wq[-1] = h / 2
    seg = np.minimum(np.arange(K + 1) * 5 // K, 4)
    Msel = np.zeros((K + 1, 5))
    Msel[np.arange(K + 1), seg] = 1.0
    Cop = h * np.tril(np.ones((K + 1, K + 1)))
    Cop[:, 0] = h / 2
    np.fill_diagonal(Cop, h / 2)
    Cop[0, :] = 0.0

    u0 = traj.u[:, 0]
    Uc = cumulative_trapezoid(u0, dx=h, initial=0.0)
    y_self, y_edge = measurements(config, traj)
    y_self0 = y_self[:, 0]
    y_edge0 = y_edge[:, 0]
    B0, Xi0 = params.B[0], params.Xi[0]
    R, S = 1.0, 2.0
    prior0 = x0[0]

    CM = Cop @ Msel
    coef = np.column_stack([np.ones(K + 1), B0 * CM])
    A = np.vstack([
        np.concatenate([[np.sqrt(Xi0)], np.zeros(5)])[None, :],
        np.column_stack([np.zeros(K + 1), np.sqrt(wq)[:, None] * Msel]),
        np.sqrt(wq / R)[:, None] * coef,
        np.sqrt(wq / S)[:, None] * coef,
    ])
    rhs = np.concatenate([
        [np.sqrt(Xi0) * prior0],
        np.zeros(K + 1),
        np.sqrt(wq / R) * (y_self0 - Uc),
        np.sqrt(wq / S) * (y_edge0 - Uc),
    ])
    theta, *_ = np.linalg.lstsq(A, rhs, rcond=None)

    def energy_of(th):
        x_hyp = th[0] + Uc + B0 * (CM @ th[1:])
        delta_hyp = Msel @ th[1:]
        return x_hyp, reduced_energy(x_hyp, delta_hyp, y_self0,
                                     y_edge0[:, None], h, prior0, Xi0, R,
                                     np.array([S]))

    x_hyp, e_opt = energy_of(theta)
    e_matrix = 0.5 * float(np.sum((A @ theta - rhs) ** 2))
    rng = np.random.default_rng(5)
    higher = all(energy_of(theta + rng.normal(scale=0.05, size=6))[1] > e_opt
                 for _ in range(4))
    oracle = float(x_hyp[-1])
    rel = abs(float(traj.x_hat[-1, 0]) - oracle) / abs(oracle)

    ok = (np.isclose(e_matrix, e_opt, rtol=1e-9)
          and higher and rel < 0.02)
    _verdict(6, "recursive terminal estimate within 2% of the brute-force "
                f"least-energy trajectory endpoint (rel {rel:.2e})",
             ok, time.perf_counter() - t0, 60.0)


def test_criterion_7_noisy_consensus_comparison():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n, d_ave in ((20, 0.475), (100, 0.495)):
        top = make_graph("complete", n)
        params = uniform_params(top)
        x0 = np.random.default_rng(123).uniform(-1, 1, n)
        profile = DisturbanceProfile(kind="white", sigma=1.0)
        config = ScenarioConfig(top, params, x0, None, profile, 0.002, 5.0)
        result = run_comparison(config, seeds=range(10))
        assert abs(analytical_coherence(top).analytical - d_ave) < 1e-12
        rel = abs(result.baseline.mean() - d_ave) / d_ave
        ok = ok and rel < 0.20 and result.ordering_holds
        # under persistent noise the filtered states drift instead of
        # averaging; the ordering claim is about the published estimates
        ok = ok and result.mef_states.mean() > result.baseline.mean()
        details.append(f"N={n}: baseline off by {rel:.1%}, "
                       f"estimates<baseline on all seeds: "
                       f"{result.ordering_holds}")
    _verdict(7, "white-noise deviation: baseline within 20% of analytical "
                "coherence and filter estimates below baseline on every "
                f"seed ({'; '.join(details)})",
             ok, time.perf_counter() - t0, 120.0)


def test_criterion_8_accuracy_robustness_tradeoff():
    t0 = time.perf_counter()
    top = NetworkTopology(3, ((0, 1, 1.0), (1, 2, 2.0), (2, 0, 1.0),
                              (0, 2, 1.5)))
    x0 = np.array([0.3, -0.7, 1.1])
    e0 = np.array([0.2, -0.1, 0.05])
    omega = left_null_vector_of(top)
    target = float(omega @ x0)
    gaps, phis = [], []
    for r in (1.0, 0.1, 0.01):
        params = uniform_params(top, B=1.0, R=r, S=1.0, G=1.0)
        system = assemble_global(top, params)
        gaps.append(abs(predict_equilibrium(system, omega, x0, e0).x_star
                        - target))
        phis.append(phi_max(params, top, 0.1, 0.1))
    ok = (gaps[0] > gaps[1] > gaps[2]) and (phis[0] < phis[1] < phis[2])
    _verdict(8, "shrinking R pulls the consensus point toward the "
                "undisturbed average while the disturbance gain grows",
             ok, time.perf_counter() - t0, 1.0)
