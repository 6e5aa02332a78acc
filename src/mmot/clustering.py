"""Clustering from pairwise and triple-wise distance tensors.

Pairwise distances feed a random-walk spectral clusterer; triple-wise
distances feed two hypergraph methods: TTM's tensor contraction and the
normalized hypergraph Laplacian behind NH-Cut.  Distances become
affinities through exp(-w/sigma) with sigma the median surviving
weight, so no per-dataset scale knob exists.  All randomness flows
through an explicit generator and runs repeat bit for bit.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import connected_components

from .linalg import eig_symmetric
from .metric_props import SENTINEL, DistanceTensor

__all__ = [
    "Hypergraph3",
    "ClusteringSolution",
    "build_hypergraph",
    "ttm",
    "nhcut",
    "spectral_cluster",
    "kmeans",
    "clustering_error",
    "tune_threshold",
]

KMEANS_MAX_ITER = 300
KMEANS_RESTARTS = 10


@dataclass(frozen=True, eq=False)
class Hypergraph3:
    """3-uniform hypergraph; each hyperedge carries a distance weight.

    `edges` is an (m, 3) integer array of vertex indices, one increasing
    row per hyperedge, and `weights` the (m,) array of their distances.
    """

    n: int
    edges: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one node, got {self.n}")
        idx = np.asarray(self.edges)
        w = np.asarray(self.weights, dtype=float)
        if idx.ndim != 2 or idx.shape[1] != 3:
            raise ValueError("every hyperedge needs exactly three vertices")
        if w.shape != (len(idx),):
            raise ValueError(f"need one weight per hyperedge, got {w.shape} for {len(idx)}")
        object.__setattr__(self, "edges", idx)
        object.__setattr__(self, "weights", w)
        bad_range = ~((0 <= idx[:, 0]) & (idx[:, 0] < idx[:, 1])
                      & (idx[:, 1] < idx[:, 2]) & (idx[:, 2] < self.n))
        # codes are unique among in-range triples; a clash with an
        # out-of-range triple flags only edges after that failing one
        code = (idx[:, 0] * self.n + idx[:, 1]) * self.n + idx[:, 2]
        duplicate = np.ones(len(code), dtype=bool)
        duplicate[np.unique(code, return_index=True)[1]] = False
        bad_weight = ~(np.isfinite(w) & (w >= 0.0))
        bad = np.nonzero(bad_range | duplicate | bad_weight)[0]
        if bad.size:
            # name the first bad hyperedge, testing range, then duplicate,
            # then weight, as an edge-by-edge scan would
            e = bad[0]
            edge, wt = tuple(idx[e].tolist()), float(w[e])
            if bad_range[e]:
                raise ValueError(f"hyperedge {edge} not strictly increasing in range")
            if duplicate[e]:
                raise ValueError(f"duplicate hyperedge {edge}")
            raise ValueError(f"hyperedge {edge} has invalid weight {wt}")

    @property
    def num_edges(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class ClusteringSolution:
    labels: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        for lab in self.labels:
            if not 0 <= lab < self.k:
                raise ValueError(f"label {lab} outside [0, {self.k})")

    def as_array(self) -> np.ndarray:
        return np.array(self.labels, dtype=int)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def build_hypergraph(T: DistanceTensor, threshold: float) -> Hypergraph3:
    """Keep sampled triples whose distance is at most the threshold."""
    if T.order != 3:
        raise ValueError(f"need an order-3 tensor, got order {T.order}")
    keys, weights = T.sampled_entries()
    keep = weights <= threshold
    if not keep.any():
        raise ValueError(f"no hyperedges survive threshold {threshold}")
    return Hypergraph3(T.size, keys[keep], weights[keep])


def _affinities(weights: np.ndarray) -> np.ndarray:
    sigma = float(np.median(weights))
    if sigma <= 0.0:
        # limit of exp(-w/sigma): mass only where the distance vanishes
        return (weights <= 0.0).astype(float)
    return np.exp(-weights / sigma)


def _spectral_labels(M: np.ndarray, d: np.ndarray, support: np.ndarray, k: int,
                     rng: np.random.Generator,
                     random_walk: bool) -> ClusteringSolution:
    """k-means on the k smallest eigenvectors of L = I - D^-1/2 M D^-1/2.

    The support graph must reach every vertex and split into at most k
    components.  Pairwise clustering maps the symmetric eigenvectors
    back to the random-walk ones; the hypergraph methods row-normalize.
    """
    isolated = np.nonzero(d <= 0.0)[0]
    if isolated.size:
        raise ValueError(f"isolated vertices: {isolated.tolist()}")
    c, _ = connected_components(support, directed=False)
    if c > k:
        raise ValueError(f"affinity graph splits into {c} components, more than k={k}")
    dinv = 1.0 / np.sqrt(d)
    L = np.eye(len(d)) - dinv[:, None] * M * dinv[None, :]
    _, vecs = eig_symmetric(L, k)
    if random_walk:
        return kmeans(dinv[:, None] * vecs, k, rng)
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    return kmeans(vecs / np.maximum(norms, 1e-300), k, rng)


def ttm(h: Hypergraph3, k: int, rng: np.random.Generator) -> ClusteringSolution:
    """Tensor-trace maximization: contract the affinity tensor, then spectral."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    idx, weights = h.edges, h.weights
    aff = _affinities(weights)
    # per hyperedge the cells (i,j), (j,i), (i,k), (k,i), (j,k), (k,j);
    # bincount adds in input order, so each cell sums edge by edge
    u = idx[:, [0, 0, 1]]
    v = idx[:, [1, 2, 2]]
    cells = np.stack([u * h.n + v, v * h.n + u], axis=2).ravel()
    A = np.bincount(cells, weights=np.repeat(aff, 6),
                    minlength=h.n * h.n).reshape(h.n, h.n)
    return _spectral_labels(A, A.sum(axis=1), A > 0.0, k, rng, random_walk=False)


def nhcut(h: Hypergraph3, k: int, rng: np.random.Generator) -> ClusteringSolution:
    """Normalized hypergraph cut via the incidence-based Laplacian."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    idx, weights = h.edges, h.weights
    H = np.zeros((h.n, h.num_edges))
    H[idx, np.arange(h.num_edges)[:, None]] = 1.0
    w = _affinities(weights)
    # every hyperedge has degree 3
    inner = (H * (w / 3.0)[None, :]) @ H.T
    return _spectral_labels(inner, H @ w, (H @ H.T) > 0.0, k, rng, random_walk=False)


def spectral_cluster(D: DistanceTensor, k: int, rng: np.random.Generator) -> ClusteringSolution:
    """Random-walk spectral clustering on a sampled pairwise tensor.

    Unsampled or sentinel-valued pairs contribute zero affinity.
    """
    if D.order != 2:
        raise ValueError(f"need an order-2 tensor, got order {D.order}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    keys, weights = D.sampled_entries()
    finite = weights < SENTINEL
    A = np.zeros((D.size, D.size))
    if finite.any():
        i, j = keys[finite].T
        aff = _affinities(weights[finite])
        A[i, j] = aff
        A[j, i] = aff
    return _spectral_labels(A, A.sum(axis=1), A > 0.0, k, rng, random_walk=True)


def _kmeanspp_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centers = [points[int(rng.integers(n))]]
    for _ in range(k - 1):
        d2 = np.min(
            ((points[:, None, :] - np.array(centers)[None, :, :]) ** 2).sum(axis=2),
            axis=1,
        )
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers.append(points[idx])
    return np.array(centers)


def _lloyd(points: np.ndarray, centers: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    n = len(points)
    labels = np.full(n, -1)
    for _ in range(KMEANS_MAX_ITER):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        dist_own = d2[np.arange(n), new_labels].copy()
        while True:
            counts = np.bincount(new_labels, minlength=k)
            empty = np.nonzero(counts == 0)[0]
            if empty.size == 0:
                break
            # hand the emptiest cluster the worst-fit point from a
            # cluster that can spare one
            donors = counts[new_labels] >= 2
            far = int(np.nonzero(donors)[0][dist_own[donors].argmax()])
            new_labels[far] = int(empty[0])
            dist_own[far] = 0.0
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        centers = np.array([points[labels == c].mean(axis=0) for c in range(k)])
    inertia = float(((points - centers[labels]) ** 2).sum())
    return labels, inertia


def kmeans(points: np.ndarray, k: int, rng: np.random.Generator) -> ClusteringSolution:
    """Lloyd iterations from k-means++ seeds, best of KMEANS_RESTARTS by inertia."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or not np.all(np.isfinite(points)):
        raise ValueError("points must be a finite 2-d array")
    n = len(points)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of points {n}")
    best: tuple[float, np.ndarray] | None = None
    for _ in range(KMEANS_RESTARTS):
        labels, inertia = _lloyd(points, _kmeanspp_seed(points, k, rng), k)
        if best is None or inertia < best[0]:
            best = (inertia, labels)
    return ClusteringSolution(labels=tuple(int(c) for c in best[1]), k=k)


def _as_labels(sol) -> tuple[np.ndarray, int]:
    if isinstance(sol, ClusteringSolution):
        return sol.as_array(), sol.k
    arr = np.asarray(sol, dtype=int)
    if arr.ndim != 1:
        raise ValueError("labels must be one-dimensional")
    return arr, int(arr.max()) + 1 if arr.size else 1


def _confusion(pred: np.ndarray, truth: np.ndarray, k: int) -> np.ndarray:
    c = np.zeros((k, k), dtype=int)
    np.add.at(c, (pred, truth), 1)
    return c


def clustering_error(pred, truth) -> float:
    """Mismatch fraction minimized over relabelings of the prediction."""
    p, kp = _as_labels(pred)
    t, kt = _as_labels(truth)
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise ValueError("empty labelings")
    k = max(kp, kt)
    conf = _confusion(p, t, k)
    rows, cols = linear_sum_assignment(-conf)
    return 1.0 - int(conf[rows, cols].sum()) / p.size


def tune_threshold(
    T: DistanceTensor,
    truth,
    clusterer: Callable[[DistanceTensor, float], ClusteringSolution],
    grid: Sequence[float] | None = None,
) -> tuple[float, float]:
    """Pick the threshold in the grid that minimizes the clustering error.

    The clusterer is called as clusterer(T, threshold).  Gridpoints where
    it raises (nothing survives, isolated vertices, too few clusters
    reachable) are skipped; if every gridpoint fails the last error
    propagates.  Ties keep the earliest gridpoint.
    """
    if grid is None:
        sampled = T.sampled_entries()[1]
        if sampled.size == 0:
            raise ValueError("tensor has no sampled entries to build a grid from")
        grid = np.quantile(sampled, np.linspace(0.1, 1.0, 10)).tolist()
    grid = list(grid)
    if not grid:
        raise ValueError("empty threshold grid")
    best: tuple[float, float] | None = None
    last_exc: Exception | None = None
    for th in grid:
        try:
            sol = clusterer(T, float(th))
            err = clustering_error(sol, truth)
        except ValueError as exc:
            last_exc = exc
            continue
        if best is None or err < best[1]:
            best = (float(th), float(err))
    if best is None:
        raise ValueError(f"no feasible threshold in grid: {last_exc}") from last_exc
    return best
