import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mefcon import (ConfigError, NetworkTopology, SolverError, adjacency,
                    degree_matrix, is_balanced, is_strongly_connected,
                    laplacian, left_null_vector, make_graph,
                    standard_laplacian)
from conftest import random_case


def test_two_node_laplacian():
    top = NetworkTopology(2, ((0, 1, 1.0), (1, 0, 1.0)))
    assert np.array_equal(laplacian(top), [[-1.0, 1.0], [1.0, -1.0]])


def test_complete_three_laplacian():
    L = laplacian(make_graph("complete", 3))
    assert np.array_equal(L, [[-2, 1, 1], [1, -2, 1], [1, 1, -2]])


def test_weighted_asymmetric_laplacian():
    top = NetworkTopology(2, ((0, 1, 1.0), (1, 0, 2.0)))
    assert np.array_equal(laplacian(top), [[-1.0, 1.0], [2.0, -2.0]])


def test_standard_view_is_negation():
    top = make_graph("complete", 4)
    assert np.array_equal(standard_laplacian(top), -laplacian(top))


def test_adjacency_plus_degree_recovers_laplacian():
    top, _ = random_case(3)
    A = adjacency(top)
    assert np.array_equal(A - degree_matrix(top), laplacian(top))
    src, dst, w = top.edge_arrays()
    for i, j, wij in zip(src, dst, w):
        assert A[i, j] == wij
    assert A.sum() == pytest.approx(w.sum())


def test_edge_arrays_built_once_and_read_only():
    top, _ = random_case(5)
    src, dst, w = top.edge_arrays()
    assert top.edge_arrays()[0] is src
    edges = ((2, 0, 1.5), (0, 1, 0.25), (1, 2, 2.0), (0, 2, 1.0))  # not sorted
    for given in (edges, np.array(edges)):  # triples or an (E, 3) array
        a, b, c = NetworkTopology(3, given).edge_arrays()
        assert list(zip(a.tolist(), b.tolist(), c.tolist())) == list(edges)
        assert (a.dtype, b.dtype, c.dtype) == (np.dtype(int),) * 2 + (np.dtype(float),)
    with pytest.raises(ValueError):
        w[0] = 1.0
    assert all(a.size == 0 for a in NetworkTopology(1).edge_arrays())
    with pytest.raises(AttributeError):  # the arrays are the only edge list
        top.edges


@given(st.integers(min_value=0, max_value=2000))
def test_laplacian_rows_sum_to_zero(seed):
    top, _ = random_case(seed)
    L = laplacian(top)
    assert np.abs(L.sum(axis=1)).max() < 1e-12
    assert np.all(np.diag(L) <= 0)
    off = L - np.diag(np.diag(L))
    assert np.all(off >= 0)


@given(st.integers(min_value=0, max_value=2000))
def test_random_cases_strongly_connected(seed):
    top, _ = random_case(seed)
    assert is_strongly_connected(top)


def test_strong_connectivity_examples():
    assert is_strongly_connected(make_graph("directed_cycle", 3))
    assert not is_strongly_connected(make_graph("path", 3))
    assert is_strongly_connected(NetworkTopology(1))
    assert not is_strongly_connected(NetworkTopology(3))
    two_parts = NetworkTopology(4, ((0, 1, 1.0), (1, 0, 1.0),
                                    (2, 3, 1.0), (3, 2, 1.0)))
    assert not is_strongly_connected(two_parts)


def test_balanced_examples():
    assert is_balanced(make_graph("directed_cycle", 3))
    assert is_balanced(make_graph("undirected_ring", 5))
    assert is_balanced(make_graph("complete", 4))
    assert not is_balanced(NetworkTopology(2, ((0, 1, 1.0), (1, 0, 2.0))))
    assert not is_balanced(make_graph("path", 3))


def test_left_null_vector_hand_case():
    # omega L = 0 for L = [[-1,1],[2,-2]] solves to (2,1)/3
    top = NetworkTopology(2, ((0, 1, 1.0), (1, 0, 2.0)))
    omega = left_null_vector(laplacian(top))
    assert omega == pytest.approx([2 / 3, 1 / 3], abs=1e-12)


def test_left_null_vector_complete():
    omega = left_null_vector(laplacian(make_graph("complete", 3)))
    assert omega == pytest.approx([1 / 3] * 3, abs=1e-12)


@given(st.integers(min_value=0, max_value=500))
def test_left_null_vector_properties(seed):
    top, _ = random_case(seed)
    L = laplacian(top)
    omega = left_null_vector(L)
    assert omega.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(omega @ L).max() < 1e-9
    assert np.all(omega > 0)  # strong connectivity makes omega positive


def test_balanced_implies_uniform_null_vector():
    for top in (make_graph("directed_cycle", 5), make_graph("complete", 6),
                make_graph("undirected_ring", 4)):
        assert is_balanced(top)
        omega = left_null_vector(laplacian(top))
        n = top.node_count
        assert np.abs(omega - 1.0 / n).max() < 1e-10


def test_null_vector_rejects_disconnected():
    top = NetworkTopology(4, ((0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)))
    with pytest.raises(SolverError):
        left_null_vector(laplacian(top))


def test_make_graph_families():
    # the per-family builders make_graph used before it built arrays: the
    # order they give is the order of the eps_edge streams, per-edge S and G
    # and the y_edge columns
    def oracle(fam, n):
        if fam == "complete":
            return [(i, j) for i in range(n) for j in range(n) if i != j]
        if fam == "directed_cycle":
            return [(i, (i + 1) % n) for i in range(n)] if n > 1 else []
        if fam == "undirected_ring":
            return sorted({(i, j) for i in range(n)
                           for j in ((i + 1) % n, (i - 1) % n) if i != j})
        return [(i, i + 1) for i in range(n - 1)]

    for fam in ("complete", "directed_cycle", "undirected_ring", "path"):
        for n in range(1, 13):
            src, dst, w = make_graph(fam, n, weight=0.7).edge_arrays()
            assert list(zip(src.tolist(), dst.tolist())) == oracle(fam, n), (fam, n)
            assert np.array_equal(w, np.full(len(src), 0.7)), (fam, n)
    assert make_graph("complete", 3).edge_count == 6
    src, dst, _ = make_graph("directed_cycle", 3).edge_arrays()
    assert set(zip(src.tolist(), dst.tolist())) == {(0, 1), (1, 2), (2, 0)}
    assert make_graph("undirected_ring", 5).edge_count == 10
    assert make_graph("undirected_ring", 2).edge_count == 2
    assert make_graph("path", 4).edge_count == 3
    assert make_graph("complete", 100).edge_count == 9900
    custom = make_graph("custom", 3, edges=[(0, 1, 2.0), (1, 2, 1.0), (2, 0, 1.0)])
    assert tuple(a[0] for a in custom.edge_arrays()) == (0, 1, 2.0)
    # the duplicate check sorts the keys i N + j; a repeat at the end of a
    # million edges is found and named by its position
    big = np.column_stack(make_graph("complete", 1000).edge_arrays())
    with pytest.raises(ConfigError, match=r"edge #999000 \(999, 998, 1.0\): duplicate"):
        NetworkTopology(1000, np.vstack([big, big[-1]]))


def test_make_graph_rejects_bad_input():
    with pytest.raises(ConfigError):
        make_graph("torus", 3)
    with pytest.raises(ConfigError):
        make_graph("complete", 0)
    with pytest.raises(ConfigError):
        make_graph("complete", 3, weight=-1.0)
    with pytest.raises(ConfigError):
        make_graph("custom", 3)
    with pytest.raises(ConfigError, match="graph.edges"):
        make_graph("complete", 3, edges=[(0, 1, 5.0)])  # a named family's own
    with pytest.raises(ConfigError, match=r"edge #0 \(0.5, 1, 1.0\)"):
        make_graph("custom", 3, edges=[(0.5, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    with pytest.raises(ConfigError, match="graph.weight"):
        make_graph("complete", 3, weight=np.inf)
    with pytest.raises(ConfigError, match="graph.weight"):
        make_graph("complete", 3, weight=np.nan)
    for n in (True, 2.5, 0):
        with pytest.raises(ConfigError, match="graph.n"):
            make_graph("complete", n)
    with pytest.raises(ConfigError, match="graph.family"):
        make_graph("torus", 3)


def test_topology_validation():
    with pytest.raises(ConfigError):
        NetworkTopology(2, ((0, 0, 1.0),))  # self-loop
    with pytest.raises(ConfigError):
        NetworkTopology(2, ((0, 5, 1.0),))  # out of range
    with pytest.raises(ConfigError):
        NetworkTopology(2, ((0, 1, 0.0),))  # nonpositive weight
    with pytest.raises(ConfigError):
        NetworkTopology(2, ((0, 1, 1.0), (0, 1, 2.0)))  # duplicate
    with pytest.raises(ConfigError):
        NetworkTopology(0)
    # each refusal names the first offending edge and its position
    with pytest.raises(ConfigError, match=r"edge #1 \(0.5, 1, 1.0\): node indices"):
        NetworkTopology(3, ((1, 2, 1.0), (0.5, 1, 1.0)))
    with pytest.raises(ConfigError, match=r"edge #0 \(0, 1, inf\): weight must be finite"):
        NetworkTopology(3, ((0, 1, np.inf),))
    with pytest.raises(ConfigError, match=r"edge #1 \(1, 0, nan\): weight must be finite"):
        NetworkTopology(3, ((0, 1, 1.0), (1, 0, np.nan)))
    with pytest.raises(ConfigError, match=r"edge #0 \(nan, 1, 1.0\)"):
        NetworkTopology(3, ((np.nan, 1, 1.0),))
    with pytest.raises(ConfigError, match=r"edge #2 \(0, 1, 2.0\): duplicate edge"):
        NetworkTopology(3, ((0, 1, 1.0), (1, 0, 1.0), (0, 1, 2.0)))
    with pytest.raises(ConfigError, match=r"edge #1 \(2, 2, 1.0\): self-loop"):
        NetworkTopology(3, ((0, 1, 1.0), (2, 2, 1.0)))
    with pytest.raises(ConfigError, match=r"edge #0 \(-1, 1, 1.0\): out of range for N=3"):
        NetworkTopology(3, ((-1, 1, 1.0),))
    for n in (2.5, True, np.nan):
        with pytest.raises(ConfigError, match="node_count"):
            NetworkTopology(n)


def test_degree_helpers():
    top = NetworkTopology(3, ((0, 1, 2.0), (0, 2, 1.0), (1, 0, 1.0)))
    assert np.array_equal(top.in_degrees(), [3.0, 1.0, 0.0])
    assert np.array_equal(degree_matrix(top), np.diag([3.0, 1.0, 0.0]))


def _csgraph_strongly_connected(top: NetworkTopology) -> bool:
    """The oracle: one strong component by scipy's csgraph."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n = top.node_count
    src, dst, w = top.edge_arrays()
    m = csr_matrix((w, (src, dst)), shape=(n, n))
    return connected_components(m, directed=True, connection="strong")[0] == 1


def test_strong_connectivity_matches_csgraph():
    rng = np.random.default_rng(20261020)
    tops = [make_graph("directed_cycle", 3), make_graph("path", 3), NetworkTopology(1),
            NetworkTopology(3), make_graph("directed_cycle", 10_000),
            make_graph("path", 10_000), make_graph("complete", 60),
            NetworkTopology(4, ((0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)))]
    for _ in range(1500):
        n = int(rng.integers(1, 13))
        mask = (rng.random((n, n)) < rng.uniform(0.0, 0.5)) & ~np.eye(n, dtype=bool)
        src, dst = np.nonzero(mask)
        perm = rng.permutation(len(src))  # edges in no particular order
        tops.append(NetworkTopology(n, np.column_stack(
            [src[perm], dst[perm], rng.uniform(0.5, 2.0, len(src))])))
    verdicts = [is_strongly_connected(top) for top in tops]
    assert verdicts == [_csgraph_strongly_connected(top) for top in tops]
    assert verdicts[:6] == [True, False, True, False, True, False]
    assert 100 < sum(verdicts) < len(verdicts) - 100  # both answers are tested
