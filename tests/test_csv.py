"""The CSV writer gives the bytes of ``'%.17g' % v`` and of ``np.savetxt``.

``np.savetxt(fmt="%.17g")`` is the oracle here; the library itself no
longer calls it.
"""

import io
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mefcon import _csv, cli
from mefcon.cli import main

_SAVETXT = np.savetxt


def _python(values, ends_row) -> bytes:
    return "".join("%.17g" % v + ("\n" if end else ",")
                   for v, end in zip(values, ends_row)).encode()


def _savetxt(columns, arrays) -> bytes:
    buf = io.BytesIO()
    _SAVETXT(buf, np.column_stack(arrays), delimiter=",", header=",".join(columns),
             comments="", fmt="%.17g")
    return buf.getvalue()


def _assert_writes_savetxt(tmp_path, columns, arrays):
    path = tmp_path / "out.csv"
    _csv.write_csv(path, columns, arrays)
    assert path.read_bytes() == _savetxt(columns, arrays)


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308,
            1e-250, 1e250, np.nextafter(1e-250, 0), np.nextafter(1e250, np.inf),
            np.nan, np.inf, -np.inf]
_ANY_BITS = st.integers(0, 2 ** 64 - 1).map(
    lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])


@given(st.lists(st.tuples(st.one_of(st.floats(), _ANY_BITS, st.sampled_from(_SPECIAL)),
                          st.booleans()), min_size=1, max_size=60))
def test_format_is_python_percent_17g(pairs):
    values = np.array([v for v, _ in pairs])
    ends_row = np.array([e for _, e in pairs])
    assert _csv._format(values, ends_row) == _python(values, ends_row)


def _cases() -> dict:
    rng = np.random.default_rng(20261019)
    powers = 10.0 ** np.arange(-323, 309)
    m = rng.integers(1, 2 ** 53, 4000)
    k = rng.integers(0, 80, 4000)
    ints = np.arange(-2000, 2000, dtype=float)
    return {
        "powers of ten and neighbours": np.concatenate(
            [powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)]),
        "dyadic m / 2**k": np.ldexp(m.astype(float), -k),
        # 18 significant digits ending in 5: exact ties at 17 digits
        "exact ties": 1234567890123456.0 + np.arange(4000) + 0.75,
        "integers near 1e16": 1e16 + ints,
        "integers near 1e17": 1e17 + 16 * ints,
        "near 1e-5": rng.uniform(0.9e-5, 1.1e-5, 4000),
        "near 1e-4": rng.uniform(0.9e-4, 1.1e-4, 4000),
        "random bit patterns": rng.integers(0, 2 ** 64, 2 ** 15, dtype=np.uint64,
                                            endpoint=False).view(np.float64),
        "decimal values": np.round(rng.standard_normal(4000), 6),
    }


@pytest.mark.parametrize("name", sorted(_cases()))
def test_format_fixed_cases(name):
    values = _cases()[name]
    ends_row = np.arange(values.size) % 7 == 6
    assert _csv._format(values, ends_row) == _python(values, ends_row)


def test_scaled_product_error_is_far_below_the_tie_margin():
    """ph + pl is |v| 10**(16 - E) to within 1e-13 absolute, so a fraction
    outside 1e-6 of one half rounds as the exact product does."""
    rng = np.random.default_rng(7)
    values = np.concatenate([
        np.abs(rng.standard_normal(1500)) * 10.0 ** rng.integers(-250, 250, 1500),
        _cases()["powers of ten and neighbours"]])
    values = values[(values >= _csv._LOW) & (values <= _csv._HIGH)]
    E = np.floor(np.log10(values)).astype(np.int64)
    ph, pl = _csv._scaled(values, E)
    for v, e, hi, lo in zip(values.tolist(), E.tolist(), ph.tolist(), pl.tolist()):
        exact = Fraction(v) * Fraction(10) ** (16 - e)
        assert abs(Fraction(hi) + Fraction(lo) - exact) < Fraction(1, 10 ** 13)


def test_unsettled_exponent_goes_to_python(monkeypatch):
    log10 = np.log10
    # E two too high: the one correction step leaves it one off
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + 2.0)
    values = _cases()["dyadic m / 2**k"]
    ends_row = np.arange(values.size) % 5 == 4
    assert _csv._format(values, ends_row) == _python(values, ends_row)


def test_one_column_and_one_row(tmp_path):
    values = _cases()["powers of ten and neighbours"]
    _assert_writes_savetxt(tmp_path, ["v"], [values])
    _assert_writes_savetxt(tmp_path, ["t", "a", "b"],
                           [values[:1], values[None, 1:3]])
    _assert_writes_savetxt(tmp_path, ["t", "x"], [values[:0], np.empty((0, 1))])


def test_chunks_that_do_not_divide_the_rows(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    t = np.arange(5000) * 0.01
    x = rng.standard_normal((5000, 6)) * 10.0 ** rng.integers(-6, 20, (5000, 6))
    columns = ["t"] + [f"x_{i}" for i in range(6)]
    assert (_csv._CHUNK // 7) * 7 != _csv._CHUNK and 5000 % (_csv._CHUNK // 7)
    _assert_writes_savetxt(tmp_path, columns, [t, x])
    monkeypatch.setattr(_csv, "_CHUNK", 5)  # one row per chunk: the row is wider
    _assert_writes_savetxt(tmp_path, columns, [t[:40], x[:40]])


_WHITE = """
graph: {family: complete, n: 4}
params: {B: 1.0, R: 1.0, S: 2.0, G: 1.0}
initial: {x0: [0.1, -0.3, 0.7, 0.0]}
disturbance: {kind: white, sigma: 0.5}
integration: {h: 0.01, T: 2.0}
seed: 3
compare_seeds: [0, 1]
"""
_SINUSOID = """
graph: {family: undirected_ring, n: 3}
params: {B: 1.0, R: 1.0, S: 1.0, G: 1.0}
initial: {x0: [0.0, 1.0, -2.0]}
disturbance: {kind: sinusoid, delta_max: 0.1, eps_max: 0.1, frequency: 1.0}
integration: {h: 0.01, T: 5.0}
seed: 7
"""


@pytest.mark.parametrize("verb, text, csv_name", [
    ("simulate", _WHITE, "trajectory.csv"),
    ("simulate", _WHITE + "algorithm: baseline\n", "trajectory.csv"),
    ("compare", _WHITE, "comparison.csv"),
    ("envelope", _SINUSOID, "envelope.csv"),
])
def test_verb_csv_is_savetxt_of_its_arrays(tmp_path, monkeypatch, verb, text, csv_name):
    written = []

    def record(path, columns, arrays):
        written.append((columns, arrays))
        write_csv(path, columns, arrays)

    def refuse(*args, **kwargs):
        raise AssertionError("np.savetxt called")

    write_csv = cli.write_csv
    monkeypatch.setattr(cli, "write_csv", record)
    monkeypatch.setattr(np, "savetxt", refuse)
    config = tmp_path / "scenario.yaml"
    config.write_text(text)
    assert main([verb, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    (columns, arrays), = written
    assert (tmp_path / "out" / csv_name).read_bytes() == _savetxt(columns, arrays)
