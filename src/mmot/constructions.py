"""Reference instances with closed-form transport values.

Two families: a planar four-distribution instance whose triangle-area
cost is a (3,1)-metric yet whose transport values break the generalized
triangle inequality, and a collinear instance whose leave-one-out ratio
attains the extreme value n-1.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .core import Atom, DiscreteDistribution
from .transport import SENTINEL_COST, PairwiseCost, mmot

__all__ = [
    "PlanarInstance",
    "triangle_area_cost",
    "planar_counterexample",
    "collinear_instance",
]

VALIDATE_TOL = 1e-8


def _areas(c0: np.ndarray, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Triangle areas over the grid of three (m, 2) coordinate arrays."""
    # half the cross product of the two edges leaving the first vertex
    u = c1[None, :, None, :] - c0[:, None, None, :]
    v = c2[None, None, :, :] - c0[:, None, None, :]
    return 0.5 * np.abs(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])


def triangle_area_cost(supports: Sequence[Sequence[Atom]],
                       gamma: float | None) -> np.ndarray:
    """Cost over three atom lists: 0 if all three atoms are equal, gamma if
    exactly two are, else the area of their triangle.

    gamma None takes half the smallest positive area (1e-9 when no
    triangle has one), so coincidence penalties never dominate real
    triangles.
    """
    if gamma is not None and gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    a0, a1, a2 = supports
    areas = _areas(*(np.array([a.coords() for a in atoms]) for atoms in supports))
    eq01 = np.array([[x == y for y in a1] for x in a0])
    eq02 = np.array([[x == y for y in a2] for x in a0])
    eq12 = np.array([[x == y for y in a2] for x in a1])
    n_eq = (eq01[:, :, None].astype(int)
            + eq02[:, None, :].astype(int)
            + eq12[None, :, :].astype(int))
    if gamma is None:
        positive = areas[areas > 1e-12]
        gamma = 0.5 * float(positive.min()) if positive.size else 1e-9
    cost = np.where(n_eq >= 1, gamma, areas)
    return np.where(n_eq == 3, 0.0, cost)


@dataclass(frozen=True, eq=False)
class PlanarInstance:
    """Six planar points and four distributions over them.

    Two singletons and two uniform pairs, plus the epsilon-scaled cost
    floor gamma; w_values holds the four validated transport values and
    margin the (positive) amount by which the generalized triangle
    inequality fails.
    """

    epsilon: float
    gamma: float
    points: tuple[Atom, ...]
    distributions: tuple[DiscreteDistribution, ...]
    atom_indices: tuple[tuple[int, ...], ...]
    w_values: dict[tuple[int, ...], float]
    margin: float

    def cost(self) -> np.ndarray:
        return triangle_area_cost([self.points] * 3, self.gamma)


def _check_geometry(coords: list[tuple], gamma: float) -> None:
    for a, b in combinations(range(len(coords)), 2):
        if np.hypot(coords[a][0] - coords[b][0], coords[a][1] - coords[b][1]) < 1e-12:
            raise RuntimeError(f"points {a} and {b} coincide")
    c = np.array(coords)
    areas = _areas(c, c, c)
    min_area = min(areas[t] for t in combinations(range(len(coords)), 3))
    if min_area < 1e-12:
        raise RuntimeError("three of the points are collinear")
    if gamma > min_area + 1e-12:
        raise RuntimeError(f"gamma {gamma} exceeds the smallest area {min_area}")


def planar_counterexample(epsilon: float) -> PlanarInstance:
    """Planar instance whose transport values violate the C=1 bound.

    The first two distributions are opposite singletons, the third and
    fourth are uniform pairs straddling them; the layout is chosen so the
    four three-way values come out at 1/2, 1/8, 1/8+eps/4, 1/8+eps/4.
    Build-time validation recomputes all four by LP and refuses to return
    a geometry that misses any closed form.
    """
    if not 0.0 < epsilon <= 0.1:
        raise ValueError(f"epsilon must be in (0, 0.1], got {epsilon}")
    e = float(epsilon)
    gamma = e / 4.0
    pts = [
        (0.0, 0.0),
        (1.0, 1.0),
        (0.0, 1.5),
        (0.5, 0.0),
        (e, e - 0.25),
        (0.75 - e, 1.0 - e),
    ]
    _check_geometry(pts, gamma)
    points = tuple(Atom.point(x, y) for x, y in pts)
    idx = ((0,), (1,), (2, 3), (4, 5))
    dists = tuple(
        DiscreteDistribution(tuple(points[i] for i in ix), np.ones(len(ix)) / len(ix))
        for ix in idx
    )
    expected = {
        (0, 1, 2): 0.5,
        (0, 1, 3): 0.125,
        (0, 2, 3): 0.125 + e / 4.0,
        (1, 2, 3): 0.125 + e / 4.0,
    }
    cost = triangle_area_cost([points] * 3, gamma)
    w_values: dict[tuple[int, ...], float] = {}
    for trip, want in expected.items():
        sub = cost[np.ix_(*(idx[t] for t in trip))]
        got = mmot([dists[t] for t in trip], sub, ell=1).value
        if abs(got - want) > VALIDATE_TOL:
            raise RuntimeError(
                f"layout validation failed for spaces {trip}: "
                f"solved {got!r}, wanted {want!r}")
        w_values[trip] = got
    margin = w_values[(0, 1, 2)] - (
        w_values[(0, 1, 3)] + w_values[(0, 2, 3)] + w_values[(1, 2, 3)])
    if margin <= 0:
        raise RuntimeError(f"expected a strict violation, margin {margin!r}")
    return PlanarInstance(
        epsilon=e,
        gamma=gamma,
        points=points,
        distributions=dists,
        atom_indices=idx,
        w_values=w_values,
        margin=margin,
    )


def collinear_instance(
    n: int, m: int, spacing: float = 1.0, far: float = 100.0
) -> tuple[list[DiscreteDistribution], PairwiseCost]:
    """n+1 spaces of m equally spaced collinear atoms, one space far away.

    The cost is |x - y| for equal atom ranks and a huge sentinel
    otherwise, which pins every optimal coupling to the diagonal; the
    leave-one-out ratio of the resulting transport values is exactly n-1.
    """
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    if spacing <= 0 or far <= 0:
        raise ValueError("spacing and far offset must be positive")
    offsets = [0.0] * n + [float(far)]
    supports = [
        [t + s * spacing for s in range(m)]
        for t in offsets
    ]
    dists = [
        DiscreteDistribution(tuple(Atom.real(x) for x in xs), np.ones(m) / m)
        for xs in supports
    ]
    mats = {}
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            d = np.full((m, m), SENTINEL_COST)
            for s in range(m):
                d[s, s] = abs(supports[i][s] - supports[j][s])
            mats[(i, j)] = d
    return dists, PairwiseCost(mats)
