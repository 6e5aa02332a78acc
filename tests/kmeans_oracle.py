"""k-means as a loop over restarts: seed one, run Lloyd on it, keep the best.

`mmot.clustering.kmeans` must equal this loop exactly: the same
generator draws, and the same labels and inertia for every restart.
The caps are read from `mmot.clustering` at call time, so a test can
lower them for both.
"""
import numpy as np

from mmot import clustering


def kmeanspp_seed(points, k, rng):
    n = len(points)
    centers = [points[int(rng.integers(n))]]
    # squared distance to the nearest center so far
    d2 = np.full(n, np.inf)
    for _ in range(k - 1):
        d2 = np.minimum(d2, ((points - centers[-1]) ** 2).sum(axis=1))
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers.append(points[idx])
    return np.array(centers)


def lloyd(points, centers, k):
    n = len(points)
    labels = np.full(n, -1)
    for _ in range(clustering.KMEANS_MAX_ITER):
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


def kmeans_restarts(points, k, rng):
    """Every restart's (labels, inertia), and the index of the first best."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    runs = [lloyd(points, kmeanspp_seed(points, k, rng), k)
            for _ in range(clustering.KMEANS_RESTARTS)]
    best = 0
    for r, (_, inertia) in enumerate(runs):
        if inertia < runs[best][1]:
            best = r
    return runs, best
