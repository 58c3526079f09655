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

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import ConfigError, SolverError

_FAMILIES = ("complete", "directed_cycle", "undirected_ring", "path", "custom")


@dataclass(frozen=True)
class NetworkTopology:
    """Immutable directed weighted graph.

    Parameters
    ----------
    node_count : int
        Number of nodes N >= 1.
    edges : tuple of (int, int, float)
        Directed edges ``(i, j, w)``: node i observes node j, weight w > 0.
        No self-loops, 0-based indices.
    """

    node_count: int
    edges: tuple[tuple[int, int, float], ...] = field(default_factory=tuple)
    _arrays: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ConfigError("node_count must be a positive integer")
        seen = set()
        for i, j, w in self.edges:
            if i == j:
                raise ConfigError(f"self-loop ({i},{i}) is not allowed")
            if not (0 <= i < self.node_count and 0 <= j < self.node_count):
                raise ConfigError(f"edge ({i},{j}) out of range for N={self.node_count}")
            if not w > 0:
                raise ConfigError(f"edge ({i},{j}) has nonpositive weight {w}")
            if (i, j) in seen:
                raise ConfigError(f"duplicate edge ({i},{j})")
            seen.add((i, j))
        src, dst, w = zip(*self.edges) if self.edges else ((), (), ())
        arrays = (np.array(src, dtype=int), np.array(dst, dtype=int),
                  np.array(w, dtype=float))
        for a in arrays:
            a.flags.writeable = False
        object.__setattr__(self, "_arrays", arrays)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sources, targets, weights) as read-only numpy arrays, one entry
        per edge, built once at construction."""
        return self._arrays

    def in_degrees(self) -> np.ndarray:
        """Weighted degree d_i = sum of weights of edges leaving i (i observes)."""
        src, _, w = self.edge_arrays()
        return np.bincount(src, weights=w, minlength=self.node_count)


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


def is_strongly_connected(topology: NetworkTopology) -> bool:
    """True iff every node reaches every other along directed edges."""
    n = topology.node_count
    src, dst, w = topology.edge_arrays()
    m = sp.csr_matrix((w, (src, dst)), shape=(n, n))
    ncomp, _ = connected_components(m, directed=True, connection="strong")
    return ncomp == 1


def is_balanced(topology: NetworkTopology) -> bool:
    """True iff weighted in-degree equals weighted out-degree at every node,
    to a relative 1e-12."""
    src, dst, w = topology.edge_arrays()
    n = topology.node_count
    din = np.bincount(src, weights=w, minlength=n)
    dout = np.bincount(dst, weights=w, minlength=n)
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
    edges : list of (i, j, w), optional
        Explicit 0-based edge triples; required iff family is ``custom``,
        refused by the named families.
    """
    fam = family.replace("-", "_").lower()
    if fam not in _FAMILIES:
        raise ConfigError(f"unknown graph family {family!r}; choose from {_FAMILIES}")
    if n < 1:
        raise ConfigError("graph size n must be >= 1")
    if fam != "custom" and not weight > 0:
        raise ConfigError("edge weight must be positive")
    if fam != "custom" and edges is not None:
        raise ConfigError("field 'graph.edges' is read only by family 'custom', "
                          f"not {family!r}")

    if fam == "custom":
        if edges is None:
            raise ConfigError("custom family requires an explicit edge list")
        return NetworkTopology(n, tuple((int(i), int(j), float(w)) for i, j, w in edges))

    built: list[tuple[int, int, float]] = []
    if fam == "complete":
        built = [(i, j, weight) for i in range(n) for j in range(n) if i != j]
    elif fam == "directed_cycle":
        built = [(i, (i + 1) % n, weight) for i in range(n)] if n > 1 else []
    elif fam == "undirected_ring":
        pairs = set()
        for i in range(n):
            for j in ((i + 1) % n, (i - 1) % n):
                if i != j:
                    pairs.add((i, j))
        built = [(i, j, weight) for i, j in sorted(pairs)]
    elif fam == "path":
        built = [(i, i + 1, weight) for i in range(n - 1)]
    return NetworkTopology(n, tuple(built))
