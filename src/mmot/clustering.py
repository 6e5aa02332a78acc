"""Clustering from pairwise and triple-wise distance tensors.

Pairwise distances feed a random-walk spectral clusterer; triple-wise
distances feed two hypergraph methods: TTM's tensor contraction and the
normalized hypergraph Laplacian behind NH-Cut.  One clique expansion
builds the affinity matrix of all three.  Distances become
affinities through exp(-w/sigma) with sigma the median surviving
weight, so no per-dataset scale knob exists.  Each clusterer is a
deterministic embedding followed by k-means, so threshold tuning embeds
each gridpoint once for all trials.  All randomness flows through an
explicit generator and runs repeat bit for bit.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import connected_components

from .linalg import eig_symmetric
from .metric_props import DistanceTensor

__all__ = [
    "Hypergraph3",
    "ClusteringSolution",
    "build_hypergraph",
    "ThresholdTuning",
    "ttm_embedding",
    "nhcut_embedding",
    "spectral_embedding",
    "ttm",
    "nhcut",
    "spectral_cluster",
    "kmeans",
    "clustering_error",
    "trial_errors",
    "tune_threshold",
]

KMEANS_MAX_ITER = 300
KMEANS_RESTARTS = 10


class Hypergraph3:
    """The 3-uniform hypergraph of an order-3 tensor at a distance threshold.

    `edges` is the (m, 3) integer array of the sampled keys whose distance
    is at most the threshold, increasing rows in lexicographic order, and
    `weights` the (m,) array of those distances.  Every key and value has
    passed the tensor's own checks, so the view adds none.
    """

    def __init__(self, T: DistanceTensor, threshold: float) -> None:
        if T.order != 3:
            raise ValueError(f"need an order-3 tensor, got order {T.order}")
        keys, weights = T.sampled_entries()
        keep = weights <= threshold
        self.n = T.size
        self.edges = keys[keep]
        self.weights = weights[keep]

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
    """The hypergraph of T at the threshold; at least one hyperedge must survive."""
    h = Hypergraph3(T, threshold)
    if h.num_edges == 0:
        raise ValueError(f"no hyperedges survive threshold {threshold}")
    return h


def _affinities(weights: np.ndarray) -> np.ndarray:
    sigma = float(np.median(weights))
    if sigma <= 0.0:
        # limit of exp(-w/sigma): mass only where the distance vanishes
        return (weights <= 0.0).astype(float)
    return np.exp(-weights / sigma)


def _clique(n: int, edges: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Clique expansion of (m, r) edges: each adds its affinity to every pair it joins."""
    if len(weights) == 0:
        return np.zeros((n, n))
    # per edge the cells (u,v), (v,u) of each column pair in turn;
    # bincount adds in input order, so each cell sums edge by edge
    u, v = (edges[:, c] for c in np.triu_indices(edges.shape[1], 1))
    cells = np.stack([u * n + v, v * n + u], axis=2).ravel()
    return np.bincount(cells, weights=np.repeat(_affinities(weights), 2 * u.shape[1]),
                       minlength=n * n).reshape(n, n)


def _embedding(M: np.ndarray, d: np.ndarray, support: np.ndarray, k: int,
               random_walk: bool) -> np.ndarray:
    """The k smallest eigenvectors of L = I - D^-1/2 M D^-1/2, one row per vertex.

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
        return dinv[:, None] * vecs
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs / np.maximum(norms, 1e-300)


def ttm_embedding(h: Hypergraph3, k: int) -> np.ndarray:
    """Tensor-trace maximization's embedding: contract the affinity tensor, then spectral."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    A = _clique(h.n, h.edges, h.weights)
    return _embedding(A, A.sum(axis=1), A > 0.0, k, random_walk=False)


def nhcut_embedding(h: Hypergraph3, k: int) -> np.ndarray:
    """Normalized hypergraph cut's embedding via the incidence-based Laplacian."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    # 3-uniform incidence H: H diag(w/3) H^T = (A + diag(Hw))/3, Hw = A's row sums / 2
    A = _clique(h.n, h.edges, h.weights)
    d = A.sum(axis=1) / 2.0
    return _embedding(A / 3.0 + np.diag(d / 3.0), d, A > 0.0, k, random_walk=False)


def spectral_embedding(D: DistanceTensor, k: int) -> np.ndarray:
    """The random-walk spectral embedding of a sampled pairwise tensor.

    Unsampled pairs contribute zero affinity.
    """
    if D.order != 2:
        raise ValueError(f"need an order-2 tensor, got order {D.order}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    A = _clique(D.size, *D.sampled_entries())
    return _embedding(A, A.sum(axis=1), A > 0.0, k, random_walk=True)


def ttm(h: Hypergraph3, k: int, rng: np.random.Generator) -> ClusteringSolution:
    """Tensor-trace maximization: k-means on `ttm_embedding`."""
    return kmeans(ttm_embedding(h, k), k, rng)


def nhcut(h: Hypergraph3, k: int, rng: np.random.Generator) -> ClusteringSolution:
    """Normalized hypergraph cut: k-means on `nhcut_embedding`."""
    return kmeans(nhcut_embedding(h, k), k, rng)


def spectral_cluster(D: DistanceTensor, k: int, rng: np.random.Generator) -> ClusteringSolution:
    """Random-walk spectral clustering: k-means on `spectral_embedding`."""
    return kmeans(spectral_embedding(D, k), k, rng)


def _kmeanspp_seeds(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """The (KMEANS_RESTARTS, k) k-means++ seed indices, drawn restart by restart."""
    n = len(points)
    # row i: squared distances to point i, summed as ((points - points[i])**2).sum(1) is
    sqdist = ((points[None, :, :] - points[:, None, :]) ** 2).sum(axis=2)
    seeds = np.empty((KMEANS_RESTARTS, k), dtype=np.intp)
    for r in range(KMEANS_RESTARTS):
        seeds[r, 0] = int(rng.integers(n))
        # squared distance to the nearest center so far
        d2 = np.full(n, np.inf)
        for s in range(1, k):
            d2 = np.minimum(d2, sqdist[seeds[r, s - 1]])
            total = float(d2.sum())
            if total <= 0.0:
                seeds[r, s] = int(rng.integers(n))
            else:
                # rng.choice(n, p=d2 / total)'s own arithmetic: the same
                # index and the same generator state, without its checks
                cdf = (d2 / total).cumsum()
                cdf /= cdf[-1]
                seeds[r, s] = int(cdf.searchsorted(rng.random(), side="right"))
    return seeds


def _fill_empty(labels: np.ndarray, d2: np.ndarray, k: int) -> None:
    """Give every empty cluster a point, in place, lowest cluster index first."""
    dist_own = d2[np.arange(len(labels)), labels]
    while True:
        counts = np.bincount(labels, minlength=k)
        empty = np.nonzero(counts == 0)[0]
        if empty.size == 0:
            return
        # hand the emptiest cluster the worst-fit point from a
        # cluster that can spare one
        donors = counts[labels] >= 2
        far = int(np.nonzero(donors)[0][dist_own[donors].argmax()])
        labels[far] = int(empty[0])
        dist_own[far] = 0.0


def _means(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """The (restarts, k, d) cluster means of each row of labels, none empty."""
    restarts, n = labels.shape
    dim = points.shape[1]
    if dim == 1:
        # numpy sums one column pairwise, not point by point
        return np.array([[points[lab == c].mean(axis=0) for c in range(k)] for lab in labels])
    group = labels + k * np.arange(restarts)[:, None]
    counts = np.bincount(group.ravel(), minlength=restarts * k)
    # bincount adds in input order, so each center sums its points in
    # index order, as a masked mean of two or more columns does
    cells = (group[:, :, None] * dim + np.arange(dim)).ravel()
    sums = np.bincount(cells, weights=np.broadcast_to(points, (restarts, n, dim)).ravel(),
                       minlength=restarts * k * dim)
    return sums.reshape(restarts, k, dim) / counts.reshape(restarts, k, 1)


def _lloyd(points: np.ndarray, seeds: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations of every restart at once; a restart stops when its labels do.

    Returns the (restarts, n) labels and the (restarts,) inertias.
    """
    restarts, n = len(seeds), len(points)
    centers = points[seeds]
    labels = np.full((restarts, n), -1)
    live = np.arange(restarts)
    for _ in range(KMEANS_MAX_ITER):
        d2 = ((points[None, :, None, :] - centers[live][:, None, :, :]) ** 2).sum(axis=3)
        new_labels = d2.argmin(axis=2)
        group = new_labels + k * np.arange(len(live))[:, None]
        counts = np.bincount(group.ravel(), minlength=len(live) * k).reshape(-1, k)
        for a in np.nonzero((counts == 0).any(axis=1))[0]:
            _fill_empty(new_labels[a], d2[a], k)
        moved = (new_labels != labels[live]).any(axis=1)
        live, new_labels = live[moved], new_labels[moved]
        if live.size == 0:
            break
        labels[live] = new_labels
        centers[live] = _means(points, new_labels, k)
    inertia = np.array([float(((points - centers[r][labels[r]]) ** 2).sum())
                        for r in range(restarts)])
    return labels, inertia


def _kmeans_points(points: np.ndarray, k: int) -> np.ndarray:
    """points as the finite (n, d) float array k-means takes, 1 <= k <= n.

    These are all of k-means' refusals, and they come before any draw.
    """
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
    return points


def kmeans(points: np.ndarray, k: int, rng: np.random.Generator) -> ClusteringSolution:
    """Lloyd iterations from k-means++ seeds, best of KMEANS_RESTARTS by inertia.

    All seeds are drawn first, in restart order, and Lloyd runs on the
    stacked restarts; the first restart of least inertia wins.
    """
    points = _kmeans_points(points, k)
    labels, inertia = _lloyd(points, _kmeanspp_seeds(points, k, rng), k)
    return ClusteringSolution(labels=tuple(labels[int(inertia.argmin())].tolist()), k=k)


def _as_labels(sol) -> np.ndarray:
    if isinstance(sol, ClusteringSolution):
        return sol.as_array()
    arr = np.asarray(sol)
    if arr.ndim != 1:
        raise ValueError("labels must be one-dimensional")
    if (bad := np.flatnonzero(~(np.isfinite(arr) & (arr >= 0) & (arr == np.round(arr))))).size:
        raise ValueError(f"labels must be nonnegative integers, got {arr[bad[0]].item()} "
                         f"at position {bad[0]}")
    return arr


def _confusion(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Counts of each (predicted, true) pair, one row and column per distinct label.

    Sizing by distinct labels, not by the largest one, drops only zero rows and
    columns, which never change the optimal matching.
    """
    p_ids, p = np.unique(pred, return_inverse=True)
    t_ids, t = np.unique(truth, return_inverse=True)
    c = np.zeros((p_ids.size, t_ids.size), dtype=int)
    np.add.at(c, (p, t), 1)
    return c


def clustering_error(pred, truth) -> float:
    """Mismatch fraction minimized over relabelings of the prediction."""
    p = _as_labels(pred)
    t = _as_labels(truth)
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise ValueError("empty labelings")
    conf = _confusion(p, t)
    rows, cols = linear_sum_assignment(-conf)
    return 1.0 - int(conf[rows, cols].sum()) / p.size


def trial_errors(points: np.ndarray, truth, k: int,
                 rngs: Sequence[np.random.Generator]) -> list[float]:
    """The clustering error of k-means on one embedding with each generator in turn."""
    return [clustering_error(kmeans(points, k, rng), truth) for rng in rngs]


@dataclass(frozen=True)
class ThresholdTuning:
    """The outcome of one pass over a threshold grid.

    `best[t]` is the (threshold, error) chosen for generator t, and
    `gridpoints` holds each gridpoint's threshold, in grid order, with
    the reason it was refused, or None where it was usable.
    """
    best: tuple[tuple[float, float], ...]
    gridpoints: tuple[tuple[float, str | None], ...]


def tune_threshold(
    T: DistanceTensor,
    truth,
    embed: Callable[[DistanceTensor, float], np.ndarray],
    k: int,
    rngs: Sequence[np.random.Generator],
    grid: Sequence[float] | None = None,
) -> ThresholdTuning:
    """Pick, per generator, the threshold in the grid that minimizes the clustering error.

    The grid is walked once.  At each gridpoint embed(T, threshold)
    builds the embedding, which draws nothing; then every generator in
    turn runs k-means on it and its labels are scored.  A gridpoint
    whose embedding is refused (nothing survives, isolated vertices,
    too many components) or that k-means refuses is skipped and draws
    from no generator, so each generator sees the draws it would see if
    tuned alone.  If every gridpoint is refused the last refusal
    propagates.  Ties keep the earliest gridpoint.
    """
    if grid is None:
        sampled = T.sampled_entries()[1]
        if sampled.size == 0:
            raise ValueError("tensor has no sampled entries to build a grid from")
        grid = np.quantile(sampled, np.linspace(0.1, 1.0, 10)).tolist()
    grid = [float(th) for th in grid]
    if not grid:
        raise ValueError("empty threshold grid")
    best: list[tuple[float, float] | None] = [None] * len(rngs)
    gridpoints: list[tuple[float, str | None]] = []
    last_exc: Exception | None = None
    for th in grid:
        try:
            points = _kmeans_points(embed(T, th), k)
        except ValueError as exc:
            gridpoints.append((th, str(exc)))
            last_exc = exc
            continue
        gridpoints.append((th, None))
        for t, err in enumerate(trial_errors(points, truth, k, rngs)):
            if best[t] is None or err < best[t][1]:
                best[t] = (th, err)
    if all(why is not None for _, why in gridpoints):
        raise ValueError(f"no feasible threshold in grid: {last_exc}") from last_exc
    return ThresholdTuning(best=tuple(best), gridpoints=tuple(gridpoints))
