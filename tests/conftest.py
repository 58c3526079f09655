import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from mefcon import (FilterParams, NetworkTopology, assemble_global,
                    spectral_report, steady_gains, uniform_params)

settings.register_profile("suite", deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


def random_case(seed: int):
    """One strongly connected random digraph with random tuning constants.

    A Hamiltonian cycle over a random node permutation guarantees strong
    connectivity; extra edges and all weights are drawn independently.
    R and S are shared across the network (the global-form requirement)
    while B varies per node; G is pinned to 1.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    perm = rng.permutation(n)
    pairs = {(int(perm[k]), int(perm[(k + 1) % n])) for k in range(n)}
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.35:
                pairs.add((i, j))
    edges = tuple((i, j, float(rng.uniform(0.5, 2.0))) for i, j in sorted(pairs))
    top = NetworkTopology(n, edges)
    R = float(rng.uniform(0.3, 1.5))
    S = float(rng.uniform(1.0, 2.0))
    B = rng.uniform(0.5, 2.0, n)
    params = uniform_params(top, B=B, R=R, S=S, G=1.0)
    return top, params


def weighted_digraph():
    """A strongly connected weighted digraph with non-uniform B, R, S and
    G < S (so edge measurements are noisy), and Xi = 1/Q*."""
    top = NetworkTopology(4, ((0, 1, 1.5), (1, 2, 0.7), (2, 3, 2.0),
                              (3, 0, 1.1), (0, 2, 0.6), (2, 1, 1.3)))
    B = np.array([1.0, 0.6, 1.7, 1.2])
    R = np.array([0.5, 1.0, 2.0, 0.8])
    S = np.array([1.0, 2.0, 1.5, 3.0, 1.2, 2.5])
    G = S * np.array([0.3, 0.9, 0.5, 0.7, 1.0, 0.4])
    return top, FilterParams(B, R, S, G, 1.0 / steady_gains(top, B, R, S))


@pytest.fixture(scope="session")
def admissible_sweep():
    """50 random cases whose F decays at rate >= 0.4 with a well-conditioned
    eigenbasis (condition <= 40), so fixed-tolerance terminal checks are
    meaningful at T = 50."""
    cases = []
    seed = 0
    while len(cases) < 50:
        top, params = random_case(seed)
        seed += 1
        system = assemble_global(top, params)
        report = spectral_report(system)
        if -report.spectral_abscissa_nonzero < 0.4:
            continue
        ev, V = np.linalg.eig(system.F)
        Vs = V[:, ev.real < -1e-8]
        if np.linalg.cond(Vs) > 40.0:
            continue
        cases.append((top, params, system, report))
    return cases
