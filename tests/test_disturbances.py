import numpy as np
import pytest

from mefcon import ConfigError, DisturbanceProfile, sample_disturbances


def _streams(real, t, k, n):
    """(delta, eps_self, eps_edge) out of the stacked w = real.at(t, k)."""
    w = real.at(t, k)
    return w[:n], w[n:2 * n], w[2 * n:]


def test_zero_profile():
    real = sample_disturbances(DisturbanceProfile(), (3, 3, 4), 10, 0.1)
    for t, k in ((0.0, 0), (0.55, 5), (1.0, 9)):
        d, es, ee = _streams(real, t, k, 3)
        assert not d.any() and not es.any() and not ee.any()
        assert d.shape == (3,) and ee.shape == (4,)


def test_sinusoid_amplitude_bound():
    prof = DisturbanceProfile(kind="sinusoid", delta_max=0.1, eps_max=0.25,
                              frequency=1.3, seed=3)
    real = sample_disturbances(prof, (4, 4, 6), 100, 0.01)
    for t in np.linspace(0, 5, 997):
        d, es, ee = _streams(real, t, 0, 4)
        assert np.abs(d).max() <= 0.1 + 1e-15
        assert np.abs(es).max() <= 0.25 + 1e-15
        assert np.abs(ee).max() <= 0.25 + 1e-15


def test_sinusoid_deterministic_and_smooth():
    prof = DisturbanceProfile(kind="sinusoid", delta_max=0.1, eps_max=0.1, seed=9)
    r1 = sample_disturbances(prof, (2, 2, 2), 10, 0.01)
    r2 = sample_disturbances(prof, (2, 2, 2), 10, 0.01)
    assert np.array_equal(_streams(r1, 0.37, 3, 2)[0], _streams(r2, 0.37, 3, 2)[0])
    # exact-time evaluation: value changes within a step (RK4 stage points)
    assert not np.array_equal(_streams(r1, 0.030, 3, 2)[0], _streams(r1, 0.035, 3, 2)[0])


def test_white_reproducible_and_frozen_per_step():
    prof = DisturbanceProfile(kind="white", sigma=1.0, seed=42)
    r1 = sample_disturbances(prof, (3, 3, 2), 50, 0.02)
    r2 = sample_disturbances(prof, (3, 3, 2), 50, 0.02)
    d1 = _streams(r1, 0.5, 25, 3)
    d2 = _streams(r2, 0.5, 25, 3)
    for a, b in zip(d1, d2):
        assert np.array_equal(a, b)
    # zero-order hold: any t inside step 25 sees the same draw
    assert np.array_equal(_streams(r1, 0.50, 25, 3)[0], _streams(r1, 0.51, 25, 3)[0])
    assert not np.array_equal(_streams(r1, 0.5, 25, 3)[0], _streams(r1, 0.5, 26, 3)[0])
    # endpoint clamp reuses the final step's draw
    assert np.array_equal(_streams(r1, 1.0, 50, 3)[0], _streams(r1, 1.0, 49, 3)[0])


def test_white_step_index_is_clamped_to_the_drawn_steps():
    real = sample_disturbances(DisturbanceProfile(kind="white", seed=4), (2, 2), 5, 0.1)
    rows = [real.at(0.0, k) for k in range(5)]
    assert all(not np.array_equal(a, b) for a, b in zip(rows, rows[1:]))
    assert np.array_equal(real.at(0.0, -1), rows[0])
    assert np.array_equal(real.at(0.5, 5), rows[4])
    assert np.array_equal(real.at(0.5, 9), rows[4])


def test_white_std_scaling():
    h = 0.004
    prof = DisturbanceProfile(kind="white", sigma=2.0, seed=0)
    real = sample_disturbances(prof, (1000, 1000, 0), 200, h)
    draws = np.concatenate([_streams(real, k * h, k, 1000)[0] for k in range(200)])
    assert draws.std() == pytest.approx(2.0 / np.sqrt(h), rel=0.02)


def test_white_edge_stream_independent():
    # dropping the edge stream must not change the node streams
    prof = DisturbanceProfile(kind="white", sigma=1.0, seed=7)
    with_e = sample_disturbances(prof, (4, 4, 5), 30, 0.01)
    without = sample_disturbances(prof, (4, 4), 30, 0.01)
    for k in (0, 10, 29):
        assert np.array_equal(_streams(with_e, 0, k, 4)[0], _streams(without, 0, k, 4)[0])
        assert np.array_equal(_streams(with_e, 0, k, 4)[1], _streams(without, 0, k, 4)[1])
        assert _streams(with_e, 0, k, 4)[2].any()
        assert not _streams(without, 0, k, 4)[2].any()


def test_streams_differ_from_each_other():
    prof = DisturbanceProfile(kind="white", sigma=1.0, seed=1)
    real = sample_disturbances(prof, (5, 5, 5), 10, 0.1)
    d, es, ee = _streams(real, 0.0, 0, 5)
    assert not np.array_equal(d, es)
    assert not np.array_equal(es, ee)


def test_profile_seed_wins_over_run_seed():
    prof = DisturbanceProfile(kind="white", sigma=1.0, seed=5)
    a = sample_disturbances(prof, (2, 2, 0), 10, 0.1, seed=100)
    b = sample_disturbances(prof, (2, 2, 0), 10, 0.1, seed=200)
    assert np.array_equal(_streams(a, 0, 0, 2)[0], _streams(b, 0, 0, 2)[0])
    unseeded = DisturbanceProfile(kind="white", sigma=1.0)
    c = sample_disturbances(unseeded, (2, 2, 0), 10, 0.1, seed=100)
    d = sample_disturbances(unseeded, (2, 2, 0), 10, 0.1, seed=200)
    assert not np.array_equal(_streams(c, 0, 0, 2)[0], _streams(d, 0, 0, 2)[0])


def test_profile_validation():
    with pytest.raises(ConfigError):
        DisturbanceProfile(kind="brownian")
    with pytest.raises(ConfigError):
        DisturbanceProfile(kind="sinusoid", delta_max=-0.1)
    with pytest.raises(ConfigError):
        DisturbanceProfile(kind="sinusoid", frequency=0.0)
    with pytest.raises(ConfigError):
        DisturbanceProfile(kind="white", sigma=-1.0)


def test_sampler_validation():
    with pytest.raises(ConfigError):
        sample_disturbances(DisturbanceProfile(), (2, 2, 2), 0, 0.1)
    with pytest.raises(ConfigError):
        sample_disturbances(DisturbanceProfile(), (2, 2, 2), 10, 0.0)
    with pytest.raises(ConfigError, match="at most three"):
        sample_disturbances(DisturbanceProfile(), (2, 2, 2, 2), 10, 0.1)
