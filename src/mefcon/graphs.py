"""Directed weighted graphs and the spectral quantities built from them.

The Laplacian convention used throughout the library puts the negative
degree on the diagonal (``L_ii = -d_i``, ``L_ij = +a_ij``), so that
``xdot = L x`` is the stable consensus flow and every row sums to zero.
Coherence formulas use the negated matrix (``standard_laplacian``), whose
eigenvalues satisfy ``0 = lam_1 < lam_2 <= ... <= lam_N`` on connected
undirected graphs.  Keeping both views avoids silent sign errors between
the consensus dynamics and the spectral statistics.

Edges are directed: ``(i, j, w)`` means node ``i`` observes node ``j``
with weight ``w > 0``.  Node indices are 0-based internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, SolverError

_FAMILIES = ("complete", "directed_cycle", "undirected_ring", "path", "custom")


def _positive_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _refuse(edges: np.ndarray, bad: np.ndarray, reason: str) -> None:
    """Raise for the first edge flagged in ``bad``, named by its position;
    the error carries that position as ``edge`` and ``reason``."""
    if np.count_nonzero(bad):
        k = int(bad.argmax())
        i, j, w = edges[k].tolist()
        exc = ConfigError(f"edge #{k} ({i:g}, {j:g}, {w}): {reason}")
        exc.edge, exc.reason = k, reason
        raise exc


@dataclass(frozen=True, init=False, eq=False)
class NetworkTopology:
    """Immutable directed weighted graph, stored as its edge arrays only.

    Parameters
    ----------
    node_count : int
        Number of nodes N >= 1.
    edges : sequence of (i, j, w), or an (E, 3) array
        Directed edges: node i observes node j, weight w > 0 and finite;
        no self-loops or duplicates, 0-based indices.  Errors name ``edge #k``.
    """

    node_count: int
    _arrays: tuple = field(repr=False)

    def __init__(self, node_count: int, edges=()) -> None:
        n = _positive_int(node_count, "node_count")
        e = np.asarray(edges, dtype=float).reshape(len(edges), 3)
        _refuse(e, ~((e[:, :2] >= 0) & (e[:, :2] < n)).all(1), f"out of range for N={n}")
        src, dst, w = e[:, 0].astype(int), e[:, 1].astype(int), e[:, 2].copy()
        _refuse(e, (e[:, 0] != src) | (e[:, 1] != dst), "node indices must be integers")
        _refuse(e, src == dst, "self-loop is not allowed")
        _refuse(e, ~((w > 0) & np.isfinite(w)), "weight must be finite and positive")
        key = src * n + dst
        s = np.sort(key)  # sort and compare neighbours: np.unique is ~60x slower at E = 1e6
        if np.count_nonzero(s[1:] == s[:-1]):  # a repeat: flag all but each key's first
            first = np.unique(key, return_index=True)[1]
            _refuse(e, ~np.isin(np.arange(len(key)), first), "duplicate edge")
        src.flags.writeable = dst.flags.writeable = w.flags.writeable = False
        object.__setattr__(self, "node_count", n)
        object.__setattr__(self, "_arrays", (src, dst, w))

    @property
    def edge_count(self) -> int:
        return len(self._arrays[0])

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sources, targets, weights) as read-only numpy arrays, one entry
        per edge, built once at construction."""
        return self._arrays

    def in_degrees(self) -> np.ndarray:
        """Weighted degree d_i = sum of weights of edges leaving i (i observes)."""
        src, _, w = self.edge_arrays()
        return np.bincount(src, weights=w, minlength=self.node_count)

    @cached_property
    def _strongly_connected(self) -> bool:
        """``is_strongly_connected``'s answer, searched on first read; the
        edges never change, so it is kept."""
        src, dst, _ = self._arrays
        n = self.node_count
        return _reaches_all(n, src, dst) and _reaches_all(n, dst, src)


def adjacency(topology: NetworkTopology) -> np.ndarray:
    """Weight matrix A with A[i, j] = a_ij for each edge (i, j)."""
    src, dst, w = topology.edge_arrays()
    A = np.zeros((topology.node_count,) * 2)
    A[src, dst] = w  # exact: duplicate edges are refused at construction
    return A


def degree_matrix(topology: NetworkTopology) -> np.ndarray:
    """Diagonal matrix of weighted degrees, Delta = Diag(d_i)."""
    return np.diag(topology.in_degrees())


def laplacian(topology: NetworkTopology) -> np.ndarray:
    """Laplacian with L_ii = -d_i and L_ij = +a_ij (rows sum to zero)."""
    A = adjacency(topology)
    return A - np.diag(A.sum(axis=1))


def standard_laplacian(topology: NetworkTopology) -> np.ndarray:
    """Negated view: diagonal +d_i, off-diagonal -a_ij; PSD on undirected graphs."""
    return -laplacian(topology)


def _reaches_all(n: int, tails: np.ndarray, heads: np.ndarray) -> bool:
    """True iff node 0 reaches every node along the edges tails[k] ->
    heads[k]: an iterative depth-first search, O(N + E) Python steps."""
    order = np.argsort(tails, kind="stable")
    out = heads[order].tolist()
    start = np.concatenate([[0], np.cumsum(np.bincount(tails, minlength=n))]).tolist()
    seen = bytearray(n)
    seen[0] = 1
    todo, found = [0], 1
    while todo:
        i = todo.pop()
        for j in out[start[i]:start[i + 1]]:
            if not seen[j]:
                seen[j] = 1
                found += 1
                todo.append(j)
    return found == n


def is_strongly_connected(topology: NetworkTopology) -> bool:
    """True iff every node reaches every other along directed edges: node
    0 reaches every node, and every node reaches node 0 (node 0 reaches
    every node along the reversed edges).  Searched once per topology."""
    return topology._strongly_connected


def is_balanced(topology: NetworkTopology) -> bool:
    """True iff weighted in-degree equals weighted out-degree at every node,
    to a relative 1e-12."""
    _, dst, w = topology.edge_arrays()
    din = topology.in_degrees()
    dout = np.bincount(dst, weights=w, minlength=topology.node_count)
    return bool(np.all(np.abs(din - dout) <= 1e-12 * (1.0 + np.abs(din))))


def left_null_vector(L: np.ndarray) -> np.ndarray:
    """Left null vector of L, normalized so that omega @ ones = 1.

    Parameters
    ----------
    L : ndarray
        Square Laplacian (either sign convention; the null space agrees).
        Its singular values up to 1e-8 times the largest count as zero.

    Returns
    -------
    omega : ndarray
        Row vector with ``omega @ L = 0`` and ``omega.sum() == 1``.
        Entrywise positive when the graph is strongly connected.

    Raises
    ------
    SolverError
        If the zero singular value is not simple (graph not strongly
        connected), or the null vector has zero sum.
    """
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    if n == 1:
        return np.ones(1)
    try:
        _, svals, vh = np.linalg.svd(L.T)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise SolverError(f"SVD failed on Laplacian: {exc}") from exc
    smax = svals[0] if svals[0] > 0 else 1.0
    nzero = int(np.sum(svals <= 1e-8 * smax))
    if nzero != 1:
        raise SolverError(
            f"left null space is {nzero}-dimensional; expected a simple zero "
            "eigenvalue (graph must be strongly connected)"
        )
    omega = vh[-1]
    total = omega.sum()
    if abs(total) < 1e-12:
        raise SolverError("left null vector has zero sum; cannot normalize")
    omega = omega / total
    resid = np.linalg.norm(omega @ L)
    if resid > 1e-6 * max(1.0, np.abs(L).max()):
        raise SolverError(f"left null vector residual too large: {resid:.3e}")
    return omega


def make_graph(family: str, n: int, weight: float = 1.0,
               edges: list[tuple[int, int, float]] | None = None) -> NetworkTopology:
    """Construct a named graph family.

    Parameters
    ----------
    family : str
        One of ``complete``, ``directed_cycle``, ``undirected_ring``,
        ``path`` (directed 0 -> 1 -> ... -> n-1), ``custom``.
    n : int
        Node count, >= 1.
    weight : float
        Uniform edge weight for the named families.
    edges : sequence of (i, j, w) or an (E, 3) array, optional
        Explicit 0-based edge triples; required iff family is ``custom``,
        refused by the named families.
    """
    fam = family.replace("-", "_").lower()
    if fam not in _FAMILIES:
        raise ConfigError(f"field 'graph.family' must be one of {_FAMILIES}, got {family!r}")
    n = _positive_int(n, "field 'graph.n'")
    if (fam == "custom") != (edges is not None):
        raise ConfigError("field 'graph.edges' is required by family 'custom' and read "
                          f"by no other family, got family {family!r}")
    if fam == "custom":
        return NetworkTopology(n, edges)
    if not 0 < weight < np.inf:
        raise ConfigError(f"field 'graph.weight' must be finite and positive, got {weight!r}")

    # each family in ascending (i, j) order, except the cycle's closing edge
    if fam == "complete" or (fam == "undirected_ring" and n <= 2):
        src, dst = np.nonzero(~np.eye(n, dtype=bool))
    elif fam == "undirected_ring":  # neighbours i - 1 and i + 1, ascending
        src = np.repeat(np.arange(n), 2)
        dst = np.sort((src.reshape(n, 2) + [-1, 1]) % n, axis=1).ravel()
    else:  # directed_cycle and path: i -> i + 1, the cycle closing at n - 1 -> 0
        src = np.arange(n if fam == "directed_cycle" and n > 1 else n - 1)
        dst = (src + 1) % n
    return NetworkTopology(n, np.column_stack([src, dst, np.full(len(src), weight)]))
