"""The four-way backend switch the `experiments._BACKENDS` table replaced.

`tuple_distance` solves one index tuple's distributions the way each
backend did when a backend was a string branch: order-3 pairwise costs
over the three pairs of `range(3)`, and only the value kept.  `order` is
the tensor order each backend had.  Tests require `compute_tensor` to
give exactly these orders and values.
"""
from itertools import combinations

import numpy as np

from mmot.constructions import triangle_area_cost
from mmot.core import distinct_atoms
from mmot.transport import (
    PairwiseCost,
    barycenter_mmot,
    euclidean_cost,
    mmot,
    pairwise_mmot,
    wasserstein,
)


def order(backend):
    return 2 if backend == "wd_pairwise" else 3


def tuple_distance(backend, ps, ell):
    if backend == "wd_pairwise":
        p, q = ps
        return wasserstein(p, q, euclidean_cost(p, q), ell=ell).value
    if backend == "mmot_pairwise":
        cost = PairwiseCost({
            (s, t): euclidean_cost(ps[s], ps[t]) for s, t in combinations(range(3), 2)
        })
        return pairwise_mmot(list(ps), cost, ell=ell).value
    if backend == "mmot_barycenter":
        omega, _ = distinct_atoms(np.concatenate([p.atoms for p in ps]))
        base = np.linalg.norm(omega[:, None, :] - omega[None, :, :], axis=2)
        return barycenter_mmot(list(ps), omega, base).value
    if backend == "mmot_nonmetric":
        return mmot(list(ps), triangle_area_cost([p.atoms for p in ps], None),
                    ell=ell).value
    raise ValueError(f"unknown backend {backend!r}")
