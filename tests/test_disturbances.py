import math

import numpy as np
import pytest
from scipy import sparse

from mefcon import ConfigError, DisturbanceProfile, sample_disturbances
from mefcon import disturbances as disturbances_module
from mefcon.disturbances import CHUNK_ENTRIES


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
                              frequency=1.3)
    real = sample_disturbances(prof, (4, 4, 6), 100, 0.01, 3)
    for t in np.linspace(0, 5, 997):
        d, es, ee = _streams(real, t, 0, 4)
        assert np.abs(d).max() <= 0.1 + 1e-15
        assert np.abs(es).max() <= 0.25 + 1e-15
        assert np.abs(ee).max() <= 0.25 + 1e-15


def test_sinusoid_deterministic_and_smooth():
    prof = DisturbanceProfile(kind="sinusoid", delta_max=0.1, eps_max=0.1)
    r1 = sample_disturbances(prof, (2, 2, 2), 10, 0.01, 9)
    r2 = sample_disturbances(prof, (2, 2, 2), 10, 0.01, 9)
    assert np.array_equal(_streams(r1, 0.37, 3, 2)[0], _streams(r2, 0.37, 3, 2)[0])
    # exact-time evaluation: value changes within a step (RK4 stage points)
    assert not np.array_equal(_streams(r1, 0.030, 3, 2)[0], _streams(r1, 0.035, 3, 2)[0])


def test_white_reproducible_and_frozen_per_step():
    prof = DisturbanceProfile(kind="white", sigma=1.0)
    r1 = sample_disturbances(prof, (3, 3, 2), 50, 0.02, 42)
    r2 = sample_disturbances(prof, (3, 3, 2), 50, 0.02, 42)
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
    real = sample_disturbances(DisturbanceProfile(kind="white"), (2, 2), 5, 0.1, 4)
    rows = [real.at(0.0, k) for k in range(5)]
    assert all(not np.array_equal(a, b) for a, b in zip(rows, rows[1:]))
    assert np.array_equal(real.at(0.0, -1), rows[0])
    assert np.array_equal(real.at(0.5, 5), rows[4])
    assert np.array_equal(real.at(0.5, 9), rows[4])


def _one_shot(sizes, steps, h, seed, sigma=1.0):
    """Each stream's draws as one ``normal`` call for the whole run."""
    kids = np.random.SeedSequence(seed).spawn(3)
    return [np.random.default_rng(kid).normal(0.0, sigma / np.sqrt(h), (steps, size))
            for kid, size in zip(kids, sizes)]


def _pass_rows(real, count, whole=False):
    """The stacked w of steps 0..count-1, read by one pass in its blocks,
    each block by its steps or, ``whole``, as a block."""
    blocks = [read(None, None if whole else ks).T for ks, read in real.chunks(count)]
    return np.concatenate(blocks)


@pytest.mark.parametrize("sizes, steps, rows", [
    ((3, 3, 5), 10, 3),                    # 4 blocks, the last of one step
    ((4, 4), 37, 5),
    ((2, 2, CHUNK_ENTRIES + 3), 5, None),  # wider than a chunk: one step a block
])
def test_streamed_white_draws_are_the_one_shot_draws(sizes, steps, rows, monkeypatch):
    # a pass draws each block's rows as it reads them, from fresh generators;
    # every stream is bit for bit one normal call over the whole run
    h, seed = 0.01, 11
    if rows is None:
        rows = 1
    else:  # blocks of rows steps that do not divide the run
        monkeypatch.setattr(disturbances_module, "CHUNK_ENTRIES", rows * sum(sizes))
    real = sample_disturbances(DisturbanceProfile("white", sigma=1.0), sizes, steps, h, seed)
    assert real.rows == rows
    assert steps % rows or rows == 1
    first = _pass_rows(real, steps)
    assert first.tobytes() == np.hstack(_one_shot(sizes, steps, h, seed)).tobytes()
    second = _pass_rows(real, steps, whole=True)
    assert second.tobytes() == first.tobytes()
    # random access replays a pass, clamped to the drawn steps
    for k, want in ((-1, 0), (0, 0), (steps - 1, steps - 1), (steps, steps - 1),
                    (steps + 5, steps - 1)):
        assert real.at(0.0, k).tobytes() == first[want].tobytes(), k
    # a pass longer than the run repeats the last drawn step
    longer = _pass_rows(real, steps + 2)
    assert longer[:steps].tobytes() == first.tobytes()
    assert np.array_equal(longer[steps:], first[[-1, -1]])


def test_white_realization_keeps_no_draws():
    # a white realization holds its seed and std, no array
    real = sample_disturbances(DisturbanceProfile("white", sigma=1.0), (100, 100, 3000),
                               2000, 0.01, 1)
    assert not [k for k, v in vars(real).items() if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("kind", ["zero", "sinusoid", "white"])
def test_array_read_stacks_the_scalar_reads(kind):
    prof = DisturbanceProfile(kind=kind, delta_max=0.2, eps_max=0.1)
    real = sample_disturbances(prof, (3, 3, 5), 8, 0.1, 6)
    t, k = np.array([0.0, 0.05, 0.35, 0.8]), np.array([-1, 0, 3, 8])
    rows = real.at(t, k)
    assert rows.shape == (4, 11)
    assert np.array_equal(rows, [real.at(ti, int(ki)) for ti, ki in zip(t, k)])
    if kind == "sinusoid":
        # the read is amp sin(2 pi f t + phase), phases drawn per stream
        phase = np.concatenate([np.random.default_rng(kid).uniform(0, 2 * np.pi, size)
                                for kid, size in zip(np.random.SeedSequence(6).spawn(3),
                                                     (3, 3, 5))])
        amp = np.repeat([0.2, 0.1, 0.1], (3, 3, 5))
        t = np.linspace(0.0, 50.0, 2001)
        for f in (0.5, 7.3):
            prof = DisturbanceProfile(kind=kind, delta_max=0.2, eps_max=0.1,
                                      frequency=f)
            got = sample_disturbances(prof, (3, 3, 5), 8, 0.1, 6).at(t, np.zeros(t.size, int))
            wt = 2 * np.pi * f * t[:, None]
            want = amp * np.sin(wt + phase)
            assert np.all(np.abs(got - want) <= 1e-15 * amp * (1 + wt)), f


@pytest.mark.parametrize("kind", ["zero", "sinusoid", "white"])
def test_mapped_read_is_the_map_of_the_read(kind):
    # a block's read of M1 M2 w(t_k) builds no w: the sinusoid maps its
    # complex amplitude vector, white draws are mapped as read
    prof = DisturbanceProfile(kind=kind, delta_max=0.2, eps_max=0.1)
    real = sample_disturbances(prof, (3, 3, 5), 8, 0.1, 6)
    t, k = np.array([0.0, 0.05, 0.35, 0.8]), np.array([0, 0, 3, 7])
    rng = np.random.default_rng(1)
    M1, M2 = rng.normal(size=(2, 6)), sparse.csr_array(rng.normal(size=(6, 11)))
    [(_, read)] = real.chunks(8)  # one block
    got = read(t, k, M1, M2)
    assert got.shape == (2, 4)
    assert got == pytest.approx(M1 @ (M2 @ real.at(t, k).T), rel=1e-14, abs=1e-15)


def test_white_std_scaling():
    h = 0.004
    prof = DisturbanceProfile(kind="white", sigma=2.0)
    real = sample_disturbances(prof, (1000, 1000), 200, h, 0)
    k = np.arange(200)
    draws = real.at(k * h, k)[:, :1000]  # the delta stream of every step
    assert draws.std() == pytest.approx(2.0 / np.sqrt(h), rel=0.02)


def test_white_edge_stream_independent():
    # dropping the edge stream must not change the node streams
    prof = DisturbanceProfile(kind="white", sigma=1.0)
    with_e = sample_disturbances(prof, (4, 4, 5), 30, 0.01, 7)
    without = sample_disturbances(prof, (4, 4), 30, 0.01, 7)
    for k in (0, 10, 29):
        assert np.array_equal(_streams(with_e, 0, k, 4)[0], _streams(without, 0, k, 4)[0])
        assert np.array_equal(_streams(with_e, 0, k, 4)[1], _streams(without, 0, k, 4)[1])
        assert _streams(with_e, 0, k, 4)[2].any()
        assert not _streams(without, 0, k, 4)[2].any()


def test_streams_differ_from_each_other():
    prof = DisturbanceProfile(kind="white", sigma=1.0)
    real = sample_disturbances(prof, (5, 5, 5), 10, 0.1, 1)
    d, es, ee = _streams(real, 0.0, 0, 5)
    assert not np.array_equal(d, es)
    assert not np.array_equal(es, ee)


def test_run_seed_changes_the_draws():
    prof = DisturbanceProfile(kind="white", sigma=1.0)
    c = sample_disturbances(prof, (2, 2), 10, 0.1, seed=100)
    d = sample_disturbances(prof, (2, 2), 10, 0.1, seed=200)
    assert not np.array_equal(_streams(c, 0, 0, 2)[0], _streams(d, 0, 0, 2)[0])


def test_amplitudes_follow_the_kind():
    # a kind's bounds are the fields it reads: zero reads none, and white
    # noise has no amplitude bound
    sizes = (2, 2, 3)
    for kind, want in (("zero", [0.0] * 7),
                       ("sinusoid", [0.2, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1])):
        prof = DisturbanceProfile(kind=kind, delta_max=0.2, eps_max=0.1)
        assert prof.amplitudes(sizes).tolist() == want, kind
    assert DisturbanceProfile(kind="white", delta_max=0.2).amplitudes(sizes) is None
    assert DisturbanceProfile(kind="white").bounds() is None


def test_profile_validation():
    with pytest.raises(ConfigError):
        DisturbanceProfile(kind="brownian")
    with pytest.raises(ConfigError):
        DisturbanceProfile(kind="sinusoid", delta_max=-0.1)
    with pytest.raises(ConfigError):
        DisturbanceProfile(kind="sinusoid", frequency=0.0)
    with pytest.raises(ConfigError):
        DisturbanceProfile(kind="white", sigma=-1.0)


@pytest.mark.parametrize("kind, name, value", [
    ("sinusoid", "delta_max", math.nan), ("sinusoid", "eps_max", math.inf),
    ("sinusoid", "frequency", math.inf), ("white", "sigma", math.inf),
    ("white", "sigma", math.nan)])
def test_profile_refuses_non_finite_fields_by_name(kind, name, value):
    with pytest.raises(ConfigError, match=f"field 'disturbance.{name}' must be a finite"):
        DisturbanceProfile(kind=kind, **{name: value})


def test_sampler_validation():
    with pytest.raises(ConfigError):
        sample_disturbances(DisturbanceProfile(), (2, 2, 2), 0, 0.1)
    with pytest.raises(ConfigError):
        sample_disturbances(DisturbanceProfile(), (2, 2, 2), 10, 0.0)
    with pytest.raises(ConfigError, match="at most three"):
        sample_disturbances(DisturbanceProfile(), (2, 2, 2, 2), 10, 0.1)


@pytest.mark.parametrize("kind", ["zero", "sinusoid", "white"])
@pytest.mark.parametrize("sizes", [(), (3, -1), (2, 0), (2, 2.5), (2, 2, 2, 2)],
                         ids=["none", "negative", "empty-stream", "fraction", "four"])
def test_malformed_stream_sizes_are_refused(kind, sizes):
    # one to three streams of at least one signal each; a width-0 w would
    # leave no block length to read it in
    with pytest.raises(ConfigError, match="sizes"):
        sample_disturbances(DisturbanceProfile(kind=kind, delta_max=0.1, eps_max=0.1),
                            sizes, 10, 0.1)
