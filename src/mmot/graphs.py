"""Synthetic graph corpus: generation, perturbation, spectral signatures.

Graphs are small undirected structures with integer weights in {0,1,2};
signatures are truncated spectra of the non-backtracking walk matrix,
which (unlike adjacency spectra) separate the families used here.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

from .linalg import eig_general

__all__ = [
    "Graph",
    "DEFAULT_FAMILIES",
    "generate",
    "perturb",
    "prune_min_degree",
    "nonbacktracking_matrix",
    "signature",
    "load_graph",
    "save_graph",
]


class Graph:
    """Undirected weighted graph; weights limited to {0, 1, 2}."""

    def __init__(self, adj: np.ndarray) -> None:
        adj = np.asarray(adj)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got {adj.shape}")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(adj) != 0):
            raise ValueError("self-loops are not allowed")
        if not np.isin(adj, (0, 1, 2)).all():
            raise ValueError("edge weights must be 0, 1 or 2")
        a = adj.astype(int).copy()
        a.setflags(write=False)
        self.adj = a

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    @property
    def num_edges(self) -> int:
        return int(np.count_nonzero(np.triu(self.adj)))

    def degrees(self) -> np.ndarray:
        # edge-count degree: weights carry no multiplicity here
        return (self.adj > 0).sum(axis=1)

    def edges(self):
        for u, v in zip(*np.nonzero(np.triu(self.adj))):
            yield int(u), int(v), int(self.adj[u, v])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self.adj, other.adj)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.num_edges})"


def _from_pairs(n: int, pairs) -> Graph:
    adj = np.zeros((n, n), dtype=int)
    for u, v in pairs:
        adj[u, v] = adj[v, u] = 1
    return Graph(adj)


def complete(n: int = 10) -> Graph:
    if n < 2:
        raise ValueError(f"complete graph needs n >= 2, got {n}")
    return _from_pairs(n, combinations(range(n), 2))


def complete_bipartite(a: int = 5, b: int = 5) -> Graph:
    if a < 1 or b < 1:
        raise ValueError(f"both sides must be nonempty, got ({a}, {b})")
    return _from_pairs(a + b, ((u, a + v) for u in range(a) for v in range(b)))


def cycle(n: int = 12) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return _from_pairs(n, ((i, (i + 1) % n) for i in range(n)))


def hypercube(dim: int = 3) -> Graph:
    if dim < 1:
        raise ValueError(f"hypercube needs dim >= 1, got {dim}")
    n = 1 << dim
    pairs = [(u, u ^ (1 << b)) for u in range(n) for b in range(dim) if u < u ^ (1 << b)]
    return _from_pairs(n, pairs)


def khop_lattice(n: int = 12, k: int = 2) -> Graph:
    # ring where every node reaches k hops in both directions
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if n < 2 * k + 1:
        raise ValueError(f"khop lattice needs n >= 2k+1, got n={n}, k={k}")
    pairs = [(i, (i + h) % n) for i in range(n) for h in range(1, k + 1)]
    return _from_pairs(n, ((min(u, v), max(u, v)) for u, v in pairs))


def grid2d_periodic(rows: int = 3, cols: int = 4) -> Graph:
    if rows < 3 or cols < 3:
        raise ValueError(f"periodic grid needs both sides >= 3, got ({rows}, {cols})")
    def nid(r: int, c: int) -> int:
        return (r % rows) * cols + (c % cols)
    pairs = []
    for r in range(rows):
        for c in range(cols):
            pairs.append((nid(r, c), nid(r + 1, c)))
            pairs.append((nid(r, c), nid(r, c + 1)))
    return _from_pairs(rows * cols, ((min(u, v), max(u, v)) for u, v in pairs))


def erdos_renyi(n: int = 10, p: float = 0.4, *, rng: np.random.Generator) -> Graph:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    pairs = list(combinations(range(n), 2))
    draws = rng.random(len(pairs))
    g = _from_pairs(n, (pq for pq, u in zip(pairs, draws) if u < p))
    # isolated nodes would break the walk matrix downstream
    return prune_min_degree(g)


_FAMILIES = {
    "complete": complete,
    "complete_bipartite": complete_bipartite,
    "cycle": cycle,
    "hypercube": hypercube,
    "khop_lattice": khop_lattice,
    "grid2d_periodic": grid2d_periodic,
    "erdos_renyi": erdos_renyi,
}

# default corpus recipe: small enough for millisecond spectra, distinct
# enough that signatures separate the families
DEFAULT_FAMILIES: tuple[tuple[str, dict], ...] = (
    ("complete", {"n": 10}),
    ("complete_bipartite", {"a": 5, "b": 5}),
    ("cycle", {"n": 12}),
    ("hypercube", {"dim": 3}),
    ("khop_lattice", {"n": 12, "k": 2}),
    ("grid2d_periodic", {"rows": 3, "cols": 4}),
    ("erdos_renyi", {"n": 10, "p": 0.4}),
)


def generate(family: str, params: dict, rng: np.random.Generator | None) -> Graph:
    """Build one named graph; only erdos_renyi consumes the rng, and needs one."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; "
                         f"choose from {sorted(_FAMILIES)}")
    params = dict(params)
    if family == "erdos_renyi":
        if rng is None:
            raise ValueError("erdos_renyi needs a random generator")
        params["rng"] = rng
    return _FAMILIES[family](**params)


def perturb(g: Graph, p: float = 0.05, *, rng: np.random.Generator) -> Graph:
    """Flip each node pair's edge presence with probability p, then prune.

    New edges come in with weight 1.  When nothing flips the input is
    returned as-is, so p=0 is exactly the identity.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    pairs = list(combinations(range(g.n), 2))
    draws = rng.random(len(pairs))
    flips = [pq for pq, u in zip(pairs, draws) if u < p]
    if not flips:
        return g
    adj = np.array(g.adj)
    for u, v in flips:
        w = 0 if adj[u, v] else 1
        adj[u, v] = adj[v, u] = w
    return prune_min_degree(Graph(adj))


def prune_min_degree(g: Graph) -> Graph:
    """Drop the isolated nodes; that leaves every other degree unchanged."""
    keep = (g.adj > 0).any(axis=1)
    if not keep.any():
        raise ValueError("every node is isolated")
    return Graph(g.adj[np.ix_(keep, keep)])


def nonbacktracking_matrix(g: Graph) -> np.ndarray:
    """0/1 matrix over directed edges; step (u->v) to (v->y) unless y=u.

    Weights do not enter the incidence: a double edge walks like a
    single one.
    """
    directed = [(u, v) for u in range(g.n) for v in range(g.n) if g.adj[u, v] > 0]
    if not directed:
        raise ValueError("graph has no edges")
    index = {e: i for i, e in enumerate(directed)}
    m = np.zeros((len(directed), len(directed)))
    for (u, v), row in index.items():
        for y in np.nonzero(g.adj[v])[0]:
            if y != u:
                m[row, index[(v, int(y))]] = 1.0
    return m


def signature(g: Graph, top_k: int = 16) -> np.ndarray:
    """Leading top_k non-backtracking eigenvalues in canonical order, read-only."""
    if top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    vals = eig_general(nonbacktracking_matrix(g))
    vals = vals[:top_k].copy()
    vals.setflags(write=False)
    return vals


def load_graph(path: str) -> Graph:
    """Read an edge list of `u,v,weight` rows; absence of a row = no edge."""
    edges: dict[tuple[int, int], int] = {}
    lines_seen = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            lines_seen += 1
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected u,v,weight")
            try:
                u, v, w = (int(p) for p in parts)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer field") from None
            if u == v:
                raise ValueError(f"{path}:{lineno}: self-loop on node {u}")
            if u < 0 or v < 0:
                raise ValueError(f"{path}:{lineno}: negative node id")
            if w not in (1, 2):
                raise ValueError(f"{path}:{lineno}: weight must be 1 or 2, got {w}")
            key = (min(u, v), max(u, v))
            if key in edges:
                raise ValueError(f"{path}:{lineno}: duplicate edge {key}")
            edges[key] = w
    if not lines_seen:
        raise ValueError(f"{path}: no edges in file")
    n = 1 + max(max(u, v) for u, v in edges)
    adj = np.zeros((n, n), dtype=int)
    for (u, v), w in edges.items():
        adj[u, v] = adj[v, u] = w
    return Graph(adj)


def save_graph(g: Graph, path: str) -> None:
    with open(path, "w") as fh:
        for u, v, w in g.edges():
            fh.write(f"{u},{v},{w}\n")
