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
    for i, j, w in top.edges:
        assert A[i, j] == w
    assert A.sum() == pytest.approx(sum(w for _, _, w in top.edges))


def test_edge_arrays_built_once_and_read_only():
    top, _ = random_case(5)
    src, dst, w = top.edge_arrays()
    assert top.edge_arrays()[0] is src
    assert list(zip(src.tolist(), dst.tolist(), w.tolist())) == list(top.edges)
    with pytest.raises(ValueError):
        w[0] = 1.0
    assert all(a.size == 0 for a in NetworkTopology(1).edge_arrays())


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
    assert make_graph("complete", 3).edge_count == 6
    cyc = make_graph("directed_cycle", 3)
    assert set((i, j) for i, j, _ in cyc.edges) == {(0, 1), (1, 2), (2, 0)}
    assert make_graph("undirected_ring", 5).edge_count == 10
    assert make_graph("undirected_ring", 2).edge_count == 2
    assert make_graph("path", 4).edge_count == 3
    assert make_graph("complete", 100).edge_count == 9900
    custom = make_graph("custom", 3, edges=[(0, 1, 2.0), (1, 2, 1.0), (2, 0, 1.0)])
    assert custom.edges[0] == (0, 1, 2.0)


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


def test_degree_helpers():
    top = NetworkTopology(3, ((0, 1, 2.0), (0, 2, 1.0), (1, 0, 1.0)))
    assert np.array_equal(top.in_degrees(), [3.0, 1.0, 0.0])
    assert np.array_equal(degree_matrix(top), np.diag([3.0, 1.0, 0.0]))
