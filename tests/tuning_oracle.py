"""Threshold tuning as one trial at a time: walk the grid, cluster, keep the best.

`mmot.clustering.tune_threshold` walks the grid once for all trials.
For every trial it must equal this loop run alone with that trial's
generator: the same (threshold, error), the same message when no
gridpoint is usable, and the same generator state afterwards.
"""
import numpy as np

from mmot.clustering import clustering_error


def tune_threshold(T, truth, clusterer, grid=None):
    """The threshold in the grid that minimizes the error of clusterer(T, threshold).

    Gridpoints where the clusterer raises are skipped; if every gridpoint
    fails the last error propagates.  Ties keep the earliest gridpoint.
    """
    if grid is None:
        sampled = T.sampled_entries()[1]
        if sampled.size == 0:
            raise ValueError("tensor has no sampled entries to build a grid from")
        grid = np.quantile(sampled, np.linspace(0.1, 1.0, 10)).tolist()
    grid = list(grid)
    if not grid:
        raise ValueError("empty threshold grid")
    best = None
    last_exc = None
    for th in grid:
        try:
            sol = clusterer(T, float(th))
        except ValueError as exc:
            last_exc = exc
            continue
        err = clustering_error(sol, truth)
        if best is None or err < best[1]:
            best = (float(th), float(err))
    if best is None:
        raise ValueError(f"no feasible threshold in grid: {last_exc}") from last_exc
    return best
