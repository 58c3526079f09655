import math

import numpy as np
import pytest
from scipy.linalg import expm

from mefcon import (ClosedLoop, ConfigError, DisturbanceProfile, FilterParams,
                    NetworkTopology, ScenarioConfig, analytical_coherence,
                    assemble_global,
                    basic_scenario, certify, check_envelope, deviation_series, disagreement_norms,
                    disagreement_state, empirical_deviation,
                    exp_bound_constants, iss_envelope, laplacian,
                    left_null_vector, left_null_vector_of, make_graph,
                    phi_max, predict_equilibrium, run_comparison,
                    simulate_classical, simulate_mef, spectral_report, steady_gains,
                    uniform_params)
from mefcon.analysis import _grid_overshoot, _second_half_mean

from conftest import weighted_digraph


def _two_ring():
    top = make_graph("undirected_ring", 2)
    params = uniform_params(top, B=1.0, R=1.0, S=1.0, G=1.0)
    return top, params, assemble_global(top, params)


def test_global_matrix_blocks_by_hand():
    top, params, system = _two_ring()
    q = 1 / math.sqrt(2)
    Lt = np.array([[-1.0, 1.0], [1.0, -1.0]])
    Dt = np.eye(2)
    F_hand = np.block([[Lt, -Dt], [q * Lt, -q * (np.eye(2) + Dt)]])
    assert system.F == pytest.approx(F_hand, abs=1e-15)
    assert system.R == 1.0 and system.S == 1.0


def test_global_matrix_scales_with_s():
    top = make_graph("complete", 3)
    params = uniform_params(top, S=2.0, G=1.0)
    system = assemble_global(top, params)
    assert system.L_tilde == pytest.approx(laplacian(top) / 2.0)
    assert system.Delta_tilde == pytest.approx(np.diag(top.in_degrees()) / 2.0)


def test_assemble_rejects_nonuniform_weights():
    top = make_graph("undirected_ring", 2)
    base = uniform_params(top)
    with pytest.raises(ConfigError):
        assemble_global(top, FilterParams(base.B, np.array([1.0, 2.0]),
                                          base.S_edge, base.G_edge, base.Xi))
    with pytest.raises(ConfigError):
        assemble_global(top, FilterParams(base.B, base.R_self,
                                          np.array([1.0, 2.0]), base.G_edge,
                                          base.Xi))
    with pytest.raises(ConfigError):
        assemble_global(top, uniform_params(top, S=2.0, G=0.5))
    # phi_max reads the same common R and S
    with pytest.raises(ConfigError, match="common R"):
        phi_max(FilterParams(base.B, np.array([1.0, 2.0]), base.S_edge,
                             base.G_edge, base.Xi), top, 0.1, 0.1)
    with pytest.raises(ConfigError, match="common S"):
        phi_max(FilterParams(base.B, base.R_self, np.array([1.0, 2.0]),
                             base.G_edge, base.Xi), top, 0.1, 0.1)


def test_spectral_counts_two_nodes():
    _, _, system = _two_ring()
    rep = spectral_report(system)
    assert rep.q == 1
    assert rep.stable_count == 3
    assert rep.spectral_abscissa_nonzero < 0


def test_spectral_counts_disconnected():
    top = NetworkTopology(4, ((0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)))
    system = assemble_global(top, uniform_params(top))
    rep = spectral_report(system)
    assert rep.q == 2
    assert rep.stable_count == 6


def test_spectral_tolerance_validation():
    _, _, system = _two_ring()
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="--tolerance"):
            spectral_report(system, zero_tolerance=tol)


def test_equilibrium_hand_values():
    top, params, system = _two_ring()
    omega = left_null_vector_of(top)
    x0 = np.array([0.0, 1.0])
    eq = predict_equilibrium(system, omega, x0, np.zeros(2))
    assert eq.x_star == pytest.approx(0.5, abs=1e-12)
    eq2 = predict_equilibrium(system, omega, x0, np.array([0.1, 0.1]))
    assert eq2.x_star == pytest.approx((2 - 0.2 * math.sqrt(2)) / 4, abs=1e-9)
    assert eq2.x_star == pytest.approx(0.42929, abs=1e-5)


def test_equilibrium_small_r_approaches_plain_average():
    top = make_graph("custom", 3,
                     edges=[(0, 1, 1.0), (1, 2, 2.0), (2, 0, 1.0), (0, 2, 1.5)])
    omega = left_null_vector_of(top)
    x0 = np.array([0.3, -0.7, 1.1])
    e0 = np.array([0.2, -0.1, 0.05])
    params = uniform_params(top, R=1e-10, S=1.0, G=1.0)
    eq = predict_equilibrium(assemble_global(top, params), omega, x0, e0)
    assert eq.x_star == pytest.approx(float(omega @ x0), abs=1e-5)


def test_balanced_network_specialization():
    # for balanced graphs the general formula collapses to the
    # uniform-average form within machine precision
    for top in (make_graph("directed_cycle", 5), make_graph("complete", 4),
                make_graph("undirected_ring", 6)):
        params = uniform_params(top, B=1.3, R=0.7, S=1.4, G=1.0)
        system = assemble_global(top, params)
        omega = left_null_vector_of(top)
        rng = np.random.default_rng(top.node_count)
        x0 = rng.uniform(-1, 1, top.node_count)
        e0 = rng.uniform(-0.3, 0.3, top.node_count)
        eq = predict_equilibrium(system, omega, x0, e0)
        n = top.node_count
        d = top.in_degrees()
        lead = 1.0 + system.R * d / system.S
        num = lead @ x0 - (system.R * params.Xi * d / system.S) @ e0
        den = n + (system.R / system.S) * d.sum()
        assert eq.x_star == pytest.approx(num / den, abs=1e-12)


def test_equilibrium_ratio_insensitive_to_omega_scaling():
    top, params, system = _two_ring()
    omega = left_null_vector_of(top)
    x0 = np.array([0.2, 0.9])
    e0 = np.array([0.05, -0.02])
    a = predict_equilibrium(system, omega, x0, e0)
    b = predict_equilibrium(system, 7.0 * omega, x0, e0)
    assert a.x_star == pytest.approx(b.x_star, rel=1e-12)


def test_exp_bound_constants_two_ring():
    _, _, system = _two_ring()
    a, b = exp_bound_constants(system, spectral_report(system))
    assert a == pytest.approx(0.48236190979495835, abs=1e-12)
    assert b == pytest.approx(1.183298941454881, abs=1e-12)
    assert b >= 1.0


def test_one_eigensolve_per_certificate(monkeypatch):
    calls = []

    def counted(name, solver):
        def solve(M):
            calls.append(name)
            return solver(M)
        return solve

    for name in ("eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    _, _, system = _two_ring()
    report = spectral_report(system)
    assert calls == ["eig"]
    calls.clear()
    exp_bound_constants(system, report)
    assert calls == []


def test_exp_bound_single_node_is_normal():
    top = NetworkTopology(1)
    system = assemble_global(top, uniform_params(top, B=1.0, R=1.0))
    a, b = exp_bound_constants(system, spectral_report(system))
    assert a == pytest.approx(1.0)  # Q*/R with Q* = 1
    assert b == pytest.approx(1.0)


def test_symmetric_graph_does_not_make_f_normal():
    # the coupling between x and e blocks skews the eigenbasis even on an
    # undirected graph, so b stays above 1
    _, _, system = _two_ring()
    FN = system.F @ system.F.T - system.F.T @ system.F
    assert np.abs(FN).max() > 0.1
    _, b = exp_bound_constants(system, spectral_report(system))
    assert b > 1.0


def test_grid_overshoot_fallback_is_valid_bound():
    _, _, system = _two_ring()
    a_eig, _ = exp_bound_constants(system, spectral_report(system))
    a, b = _grid_overshoot(system.F, a_eig, 1e-8)
    assert a == pytest.approx(0.99 * a_eig)
    assert b >= 1.0
    # the grid bound must dominate the actual propagator decay on the
    # stable subspace
    w, V = np.linalg.eig(system.F)
    stable = V[:, w.real < -1e-8]
    rng = np.random.default_rng(1)
    z = rng.normal(size=4)
    zs = (stable @ np.linalg.lstsq(stable, z, rcond=None)[0]).real
    norm0 = np.linalg.norm(zs)
    for t in np.linspace(0.0, 12.0, 40):
        prop = expm(system.F * t)
        assert np.linalg.norm(prop @ zs) <= b * norm0 * math.exp(-a * t) + 1e-9


def test_direct_grid_overshoot_call():
    _, _, system = _two_ring()
    a2, b2 = _grid_overshoot(system.F, 0.48236190979495835, 1e-8)
    assert a2 == pytest.approx(0.99 * 0.48236190979495835)
    assert 1.0 <= b2 < 10.0


def test_defective_basis_dispatches_to_the_grid():
    # the directed path's F is genuinely defective: its stable eigenbasis
    # has condition about 4e23, so b comes from the grid, not from cond
    top = make_graph("path", 8)
    system = assemble_global(top, uniform_params(top))
    report = spectral_report(system)
    a_eig = -report.spectral_abscissa_nonzero
    assert a_eig == pytest.approx(0.34106, abs=1e-5)
    a, b = exp_bound_constants(system, report)
    assert (a, b) == _grid_overshoot(system.F, a_eig, 1e-8)
    assert a == pytest.approx(0.33765, abs=1e-5)
    assert b == pytest.approx(8.34e8, rel=1e-2)


def test_phi_max_hand_value():
    top, params, _ = _two_ring()
    phi = phi_max(params, top, 0.1, 0.1)
    assert phi == pytest.approx(0.2 + 0.2 + 0.4 / math.sqrt(2), abs=1e-12)
    assert phi == pytest.approx(0.68284, abs=1e-5)


def test_phi_max_properties():
    top, params, _ = _two_ring()
    assert phi_max(params, top, 0.0, 0.0) == 0.0
    one = phi_max(params, top, 0.3, 0.2)
    two = phi_max(params, top, 0.6, 0.4)
    assert two == pytest.approx(2 * one, rel=1e-12)
    with pytest.raises(ConfigError):
        phi_max(params, top, -0.1, 0.0)


def test_iss_envelope_shape():
    a, b, z0, phi = 0.5, 1.2, 2.0, 0.3
    assert iss_envelope(a, b, z0, phi, 0.0) == pytest.approx(b * z0)
    assert iss_envelope(a, b, z0, phi, 1e3) == pytest.approx(b * phi / a)
    assert iss_envelope(a, b, z0, 0.0, 2.0) == pytest.approx(b * z0 * math.exp(-1.0))
    with pytest.raises(ConfigError):
        iss_envelope(-0.5, b, z0, phi, 1.0)


def test_check_envelope_refuses_white_noise(monkeypatch):
    # white noise has no amplitude bound: the certificate has no phi, and
    # the library refuses it before integrating, as the envelope verb does
    config = basic_scenario(2, "undirected_ring", profile=DisturbanceProfile(
        kind="white", sigma=1.0), h=0.01, T=30.0)
    cert = certify(config, spectral_report(config.loop))
    assert cert.phi is cert.phi_max is cert.asymptotic_ball is None
    assert cert.a > 0 and cert.b >= 1
    import mefcon.analysis as analysis_mod
    monkeypatch.setattr(analysis_mod, "simulate_mef", None)  # never reached
    with pytest.raises(ConfigError, match="not kind 'white'"):
        check_envelope(config, cert)


def test_certify_nonuniform_weights():
    # a, b, nu and phi are defined for any weights, the paper's closed-form
    # phi_max is not: the certificate records it as None
    top, params = weighted_digraph()
    config = ScenarioConfig(top, params, np.array([0.4, -0.3, 0.9, 0.1]),
                            profile=DisturbanceProfile("sinusoid", delta_max=0.1,
                                                       eps_max=0.1),
                            h=0.01, T=30.0)
    cert = certify(config, spectral_report(config.loop))
    assert cert.phi_max is None
    assert cert.a == pytest.approx(0.365, abs=1e-3)
    assert cert.b == pytest.approx(15.6, abs=0.1)
    assert cert.phi == pytest.approx(1.41, abs=0.01)
    assert check_envelope(config, cert).violations == 0
    # the uniform-weight check stays in phi_max itself
    with pytest.raises(ConfigError, match="one common R"):
        phi_max(params, top, 0.1, 0.1)


def test_disagreement_state():
    x = np.array([1.5, 1.5, 1.5])
    assert np.array_equal(disagreement_state(x, np.zeros(3), 1.5), np.zeros(6))
    rng = np.random.default_rng(0)
    xr, er = rng.normal(size=5), rng.normal(size=5)
    p = rng.permutation(5)  # any relabeling of a complete graph
    n1 = np.linalg.norm(disagreement_state(xr, er, 0.3))
    n2 = np.linalg.norm(disagreement_state(xr[p], er[p], 0.3))
    assert n1 == pytest.approx(n2, rel=1e-12)


def test_coherence_analytical_values():
    assert analytical_coherence(make_graph("complete", 100)).analytical \
        == pytest.approx(0.495, abs=1e-12)
    ring4 = analytical_coherence(make_graph("undirected_ring", 4))
    assert ring4.analytical == pytest.approx(0.625, abs=1e-12)
    assert sorted(np.round(ring4.eigenvalues, 9)) == [0.0, 2.0, 2.0, 4.0]
    assert analytical_coherence(NetworkTopology(1)).analytical == 0.0


def test_coherence_disconnected_is_infinite():
    top = NetworkTopology(4, ((0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)))
    rep = analytical_coherence(top)
    assert rep.analytical == math.inf


def test_coherence_requires_symmetry():
    with pytest.raises(ConfigError):
        analytical_coherence(make_graph("directed_cycle", 4))


def test_empirical_deviation_window():
    # two-node series with constant deviation 0.5 in the second half
    series = np.zeros((10, 2))
    series[5:, 1] = 1.0  # deviation sum = 2 * 0.25 = 0.5 per time point
    assert deviation_series(series)[-1] == pytest.approx(0.5)
    assert empirical_deviation(series) == pytest.approx(0.5)
    assert empirical_deviation(np.ones((8, 3))) == 0.0


def test_run_comparison_zero_noise_converges():
    cfg = basic_scenario(3, x0=[0.0, 1.0, 2.0],
                         profile=DisturbanceProfile(kind="zero"), T=40.0)
    res = run_comparison(cfg)
    assert res.baseline.max() < 1e-6
    assert res.mef_estimates.max() < 1e-6
    assert res.mef_states.max() < 1e-6
    assert res.ordering_holds in (True, False)


def test_run_comparison_rejects_sinusoid():
    cfg = basic_scenario(2, profile=DisturbanceProfile(kind="sinusoid",
                                                       delta_max=0.1))
    with pytest.raises(ConfigError):
        run_comparison(cfg)


def test_run_comparison_statistics_shape():
    cfg = basic_scenario(4, profile=DisturbanceProfile(kind="white", sigma=1.0),
                         h=0.01, T=1.0)
    res = run_comparison(cfg, seeds=[0, 1, 2])
    assert res.seeds == (0, 1, 2)
    assert res.baseline.shape == (3,)
    assert res.series_baseline.shape == res.t.shape
    assert res.d_ave == pytest.approx(0.5 * 3 / 4)
    assert np.all(res.baseline > 0)
    with pytest.raises(ConfigError, match="at least one seed"):
        run_comparison(cfg, seeds=[])


def test_run_comparison_draws_each_seed_once(monkeypatch):
    # the baseline reads the filter's delta columns, and its run is the one
    # simulate_classical gives with its own draw, byte for byte
    import mefcon.analysis as analysis_module
    draws, sample = [], analysis_module.sample_disturbances

    def counting(*args, **kwargs):
        draws.append(args[1])
        return sample(*args, **kwargs)

    monkeypatch.setattr(analysis_module, "sample_disturbances", counting)
    cfg = basic_scenario(12, profile=DisturbanceProfile(kind="white", sigma=1.0),
                         S=2.0, G=1.0, h=0.01, T=1.03, seed=4)
    res = run_comparison(cfg, seeds=[4, 5])
    assert draws == [(12, 12, 132)] * 2
    for k, seed in enumerate((4, 5)):
        base = simulate_classical(cfg.with_seed(seed))
        mef = simulate_mef(cfg.with_seed(seed))
        assert res.baseline[k] == _second_half_mean(deviation_series(base.x))
        assert res.mef_states[k] == _second_half_mean(deviation_series(mef.x))
        if k == 0:  # the series are kept for the first seed
            assert res.series_baseline.tobytes() == deviation_series(base.x).tobytes()


def test_run_comparison_builds_one_closed_loop(monkeypatch):
    built = []
    init = ClosedLoop.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ClosedLoop, "__init__", counting)
    cfg = basic_scenario(4, profile=DisturbanceProfile(kind="white"), T=0.2)
    run_comparison(cfg, seeds=range(3))
    assert len(built) == 1  # the seed changes neither topology nor params


def test_left_null_vector_of_accepts_both():
    top, _, _ = _two_ring()
    a = left_null_vector_of(top)
    assert a == pytest.approx(left_null_vector(laplacian(top)), abs=1e-12)


def test_gain_diagonal_in_global_system():
    top = make_graph("complete", 3)
    params = uniform_params(top, B=2.0, R=0.5, S=1.5, G=1.0)
    system = assemble_global(top, params)
    expect = steady_gains(top, params.B, params.R_self, params.S_edge)
    assert system.q_star == pytest.approx(expect)
    n = 3
    # lower-left block equals Q* L~ row by row
    assert system.F[n:, :n] == pytest.approx(np.diag(expect) @ system.L_tilde)
