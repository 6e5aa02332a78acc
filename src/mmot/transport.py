"""Exact transport distances on finite spaces: OT, MMOT, pairwise, barycenter.

All four reduce to one sparse LP over a coupling tensor with univariate
marginal constraints.  ell enters through the cost (power trick); the
pairwise variant is ell=1 only, where the bracket sum stays linear.

One blocked-cell rule serves all four: a coupling cell is blocked when
its powered cost d^ell reaches EFFECTIVELY_INFINITE (so at ell=2 any
cost >= 1e6 is blocked), and the LP runs over the open cells only.  If
no coupling fits on them, the value is SENTINEL_COST and the coupling
is the product of the marginals.

Every constraint matrix comes from `marginal_constraints` in `lp`'s
HiGHS form, so `lp.LpProblem` takes it without a copy.  An LP with every
cell open reads it from a cache keyed by shape, which keeps the 64 most
recently used shapes of at most 16,384 nonzeros (cells times axes).  A
matrix holds 12 bytes per nonzero and 4 per cell (float64 values, int32
indices), so one entry retains at most 230 KB and the cache at most
15 MB; a 14 x 14 x 14 coupling takes 110 KB.  Larger systems and LPs
with blocked cells build their matrix per call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from . import lp
from .core import MAX_ENTRIES, DiscreteDistribution, JointMass, check_ell, marginal, same_atoms

__all__ = [
    "SENTINEL_COST",
    "EFFECTIVELY_INFINITE",
    "PairwiseCost",
    "TransportResult",
    "wasserstein",
    "mmot",
    "pairwise_mmot",
    "barycenter_mmot",
    "euclidean_cost",
    "marginal_constraints",
]

SENTINEL_COST = 1e15
# A cell whose powered cost d^ell reaches this is blocked and never enters
# the LP; a result whose value exceeds it (only SENTINEL_COST) is blocked.
EFFECTIVELY_INFINITE = 1e12

MARGINAL_TOL = 1e-8


class PairwiseCost:
    """Cost matrices d^{i,j} keyed by unordered pair, transposed on lookup."""

    def __init__(self, matrices: Mapping[tuple, np.ndarray]):
        self._mats = {}
        for (i, j), d in matrices.items():
            if i == j:
                raise ValueError(f"pair ({i},{j}) is not a pair of distinct spaces")
            d = np.asarray(d, dtype=float)
            if d.ndim != 2:
                raise ValueError(f"cost for pair ({i},{j}) must be a matrix")
            if np.any(d < 0) or np.any(np.isnan(d)):
                raise ValueError(f"cost for pair ({i},{j}) must be nonnegative and not NaN")
            key = (i, j) if i < j else (j, i)
            self._mats[key] = d if i < j else d.T
        self.pairs = set(self._mats)

    def get(self, i: int, j: int) -> np.ndarray:
        key = (i, j) if i < j else (j, i)
        if key not in self._mats:
            raise ValueError(f"no cost matrix for pair {key}")
        d = self._mats[key]
        return d if i < j else d.T


@dataclass(frozen=True, eq=False)
class TransportResult:
    value: float
    coupling: JointMass
    per_pair_terms: dict | None = None
    iterations: int = 0  # simplex iterations of the LP; 0 for a blocked instance

    @property
    def effectively_infinite(self) -> bool:
        return self.value > EFFECTIVELY_INFINITE


def euclidean_cost(p1: DiscreteDistribution, p2: DiscreteDistribution) -> np.ndarray:
    """Pairwise Euclidean distances between two supports of coordinate atoms."""
    a, b = p1.atoms, p2.atoms
    if a.shape[1] != b.shape[1]:
        raise ValueError("atom dimensions differ between the two distributions")
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))


def marginal_constraints(shape: Sequence[int], cells: np.ndarray,
                         blocks: Sequence[Sequence[int]] | None = None) -> sp.csc_array:
    """Equality system forcing the coupling's marginals over blocks of axes (default: each axis).

    One row per cell of each block's marginal, row-major, stacked block by
    block; column j is the flat coupling cell cells[j], with a 1 in every block.
    Rows rise within each column, so it is canonical; it comes in `lp`'s HiGHS form.
    """
    shape = tuple(int(m) for m in shape)
    if blocks is None:
        blocks = [(axis,) for axis in range(len(shape))]
    coords = np.unravel_index(cells, shape)
    n, k = len(blocks), cells.size
    rows = np.empty((k, n), dtype=np.intp)
    offset = 0
    for b, block in enumerate(blocks):
        idx, size = 0, 1
        for a in block:
            idx, size = idx * shape[a] + coords[a], size * shape[a]
        rows[:, b] = offset + idx
        offset += size
    return lp._to_highs_form(sp.csc_array(
        (np.ones(n * k), rows.ravel(), np.arange(0, n * k + 1, n)), shape=(offset, k)))


_CACHED_NONZEROS = 1 << 14


@lru_cache(maxsize=64)
def _full_constraints(shape: tuple[int, ...]) -> sp.csc_array:
    """marginal_constraints over every cell of `shape`, built once per shape."""
    return marginal_constraints(shape, np.arange(math.prod(shape)))


def _constraints(shape: tuple[int, ...], cells: np.ndarray) -> sp.csc_array:
    """The marginal system over the open cells; from the cache when all are open and it is small."""
    if cells.size == math.prod(shape) and cells.size * len(shape) <= _CACHED_NONZEROS:
        return _full_constraints(shape)
    return marginal_constraints(shape, cells)


def mmot(dists: Sequence[DiscreteDistribution], d: np.ndarray, ell: int = 1) -> TransportResult:
    """General MMOT: min over couplings r of <d^ell, r>, rooted; the one transport LP.

    A cell is blocked when d^ell >= EFFECTIVELY_INFINITE and never
    enters the LP, so its magnitude cannot drown the finite costs.  When
    no coupling fits on the open cells the instance is blocked: the value
    is SENTINEL_COST and the coupling is the product of the marginals.
    """
    if len(dists) < 2:
        raise ValueError("mmot needs at least two distributions")
    dists = list(dists)
    ell = check_ell(ell)
    cost = np.asarray(d, dtype=float)
    shape = tuple(p.size for p in dists)
    if cost.shape != shape:
        raise ValueError(f"cost tensor shape {cost.shape} does not match supports {shape}")
    if cost.size > MAX_ENTRIES:
        raise ValueError(
            f"coupling tensor would have {cost.size} entries, over the cap {MAX_ENTRIES}; "
            "use fewer marginals or smaller supports"
        )
    if np.any(np.isnan(cost)) or np.any(cost < 0):
        raise ValueError("costs must be nonnegative and not NaN")
    c = cost.ravel() ** ell
    cells = np.flatnonzero(c < EFFECTIVELY_INFINITE)
    b = np.concatenate([p.masses for p in dists])
    sol = (lp.solve(lp.LpProblem(c[cells], _constraints(shape, cells), b))
           if cells.size else None)
    if sol is not None and sol.status == lp.OPTIMAL:
        value = max(float(sol.value), 0.0) ** (1.0 / ell)
        x = np.zeros(c.shape)
        x[cells] = sol.x
        iterations = sol.iterations
    elif sol is None or sol.status == lp.INFEASIBLE:
        value, iterations = SENTINEL_COST, 0
        x = reduce(np.multiply.outer, [p.masses for p in dists]).ravel()
    else:
        raise RuntimeError(f"transport LP unexpectedly {sol.status}")
    r = np.clip(x, 0.0, None).reshape(shape)
    r = r / r.sum()
    for axis, p in enumerate(dists):
        got = r.sum(axis=tuple(a for a in range(r.ndim) if a != axis))
        if np.max(np.abs(got - p.masses)) > MARGINAL_TOL:
            raise RuntimeError(f"coupling marginal {axis} off by more than {MARGINAL_TOL}")
    return TransportResult(value, JointMass(r), iterations=iterations)


def wasserstein(
    p1: DiscreteDistribution, p2: DiscreteDistribution, d: np.ndarray, ell: int = 1
) -> TransportResult:
    """Classical OT: min over couplings of <d, r>_ell^(1/ell)."""
    return mmot([p1, p2], d, ell)


def _summed_cost(dists: Sequence[DiscreteDistribution], d: PairwiseCost) -> np.ndarray:
    shape = tuple(p.size for p in dists)
    n = len(dists)
    total = np.zeros(shape)
    for s, t in combinations(range(n), 2):
        mat = d.get(s, t)
        if mat.shape != (shape[s], shape[t]):
            raise ValueError(
                f"cost for pair ({s},{t}) has shape {mat.shape}, expected {(shape[s], shape[t])}"
            )
        total = total + np.expand_dims(mat, [a for a in range(n) if a not in (s, t)])
    return total


def pairwise_mmot(
    dists: Sequence[DiscreteDistribution], d: PairwiseCost, ell: int = 1
) -> TransportResult:
    """Pairwise MMOT: min over couplings of the summed bivariate transport costs."""
    if ell != 1:
        raise ValueError("pairwise MMOT supports ell=1 only; the ell>1 objective is not an LP")
    if len(dists) < 2:
        raise ValueError("pairwise_mmot needs at least two distributions")
    res = mmot(dists, _summed_cost(dists, d), 1)
    if res.effectively_infinite:
        return res
    terms = {}
    for s, t in combinations(range(len(dists)), 2):
        pair_marg = marginal(res.coupling, [s, t]).entries
        terms[(s, t)] = float(np.sum(d.get(s, t) * pair_marg))
    return TransportResult(float(sum(terms.values())), res.coupling, per_pair_terms=terms,
                           iterations=res.iterations)


def _omega_index(atoms: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Position of each atom in Omega: the first Omega atom it coincides with."""
    same = same_atoms(atoms, omega)
    missing = np.flatnonzero(~same.any(axis=1))
    if missing.size:
        raise ValueError(f"atom {atoms[missing[0]].tolist()} is not in Omega")
    return same.argmax(axis=1)


def barycenter_mmot(
    dists: Sequence[DiscreteDistribution], omega: np.ndarray, base: np.ndarray
) -> TransportResult:
    """Barycenter MMOT over a shared support Omega with base cost on Omega.

    Cost of a support combination is min_w sum_s base(w^s, w), the cheapest
    single meeting point in Omega.
    """
    base = np.asarray(base, dtype=float)
    n_omega = len(omega)
    if base.shape != (n_omega, n_omega):
        raise ValueError(f"base cost shape {base.shape} does not match |Omega|={n_omega}")
    if np.any(base < 0):
        raise ValueError("base cost must be nonnegative")
    index_maps = [_omega_index(p.atoms, omega) for p in dists]
    shape = tuple(p.size for p in dists)
    if int(np.prod(shape)) * n_omega > MAX_ENTRIES:
        raise ValueError("barycenter cost tensor would exceed the entry cap")
    # stack base rows per axis and minimize over the meeting point w
    cost = np.zeros(shape + (n_omega,))
    for axis, idx in enumerate(index_maps):
        cost = cost + np.expand_dims(base[idx], [a for a in range(len(shape)) if a != axis])
    tensor = cost.min(axis=-1)
    return mmot(list(dists), tensor, ell=1)
