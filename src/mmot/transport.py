"""Exact transport distances on finite spaces: OT, MMOT, pairwise, barycenter.

All four reduce to one sparse LP over a coupling tensor with univariate
marginal constraints.  ell enters through the cost (power trick); the
pairwise variant is ell=1 only, where the bracket sum stays linear.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from . import lp
from .core import MAX_ENTRIES, DiscreteDistribution, JointMass, marginal

__all__ = [
    "SENTINEL_COST",
    "EFFECTIVELY_INFINITE",
    "PairwiseCost",
    "TransportResult",
    "wasserstein",
    "mmot",
    "pairwise_mmot",
    "barycenter_mmot",
    "lower_bound_pairwise",
    "euclidean_cost",
]

SENTINEL_COST = 1e15
# LP optima above this are reported as effectively infinite.
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

    @property
    def effectively_infinite(self) -> bool:
        return self.value > EFFECTIVELY_INFINITE


def euclidean_cost(p1: DiscreteDistribution, p2: DiscreteDistribution) -> np.ndarray:
    """Pairwise Euclidean distances between two supports of coordinate atoms."""
    a = np.array([atom.coords() for atom in p1.atoms])
    b = np.array([atom.coords() for atom in p2.atoms])
    if a.shape[1] != b.shape[1]:
        raise ValueError("atom dimensions differ between the two distributions")
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))


def _marginal_constraints(shape: Sequence[int]) -> sp.csc_array:
    """Equality system forcing every univariate marginal of the flat coupling.

    One row per atom of each marginal, stacked axis by axis; each cell
    of the coupling has a single 1 in every axis block.
    """
    shape = tuple(int(m) for m in shape)
    n_cells = int(np.prod(shape))
    coords = np.unravel_index(np.arange(n_cells), shape)
    offsets = np.cumsum((0,) + shape[:-1])
    rows = np.concatenate([off + idx for off, idx in zip(offsets, coords)])
    cols = np.tile(np.arange(n_cells), len(shape))
    return sp.csc_array((np.ones(rows.size), (rows, cols)), shape=(sum(shape), n_cells))


def _powered_cost(d: np.ndarray, ell: int) -> np.ndarray:
    """Elementwise d^ell with sentinel cells kept at the sentinel magnitude."""
    d = np.asarray(d, dtype=float)
    if np.any(np.isnan(d)) or np.any(d < 0):
        raise ValueError("costs must be nonnegative and not NaN")
    out = d.astype(float) ** int(ell)
    big = d >= EFFECTIVELY_INFINITE
    out[big] = SENTINEL_COST
    return out


def _solve_coupling(dists: Sequence[DiscreteDistribution], powered: np.ndarray):
    shape = tuple(p.size for p in dists)
    if powered.shape != shape:
        raise ValueError(f"cost tensor shape {powered.shape} does not match supports {shape}")
    if powered.size > MAX_ENTRIES:
        raise ValueError(
            f"coupling tensor would have {powered.size} entries, over the cap {MAX_ENTRIES}; "
            "use fewer marginals or smaller supports"
        )
    A = _marginal_constraints(shape)
    b = np.concatenate([p.masses for p in dists])
    c = powered.ravel()
    # sentinel cells never enter the LP: their magnitude would drown the
    # finite costs, so they are excluded and only reinstated as an
    # effectively-infinite verdict when nothing finite is feasible
    allowed = c < EFFECTIVELY_INFINITE
    sol = lp.solve(lp.LpProblem(c[allowed], A[:, allowed], b)) if allowed.any() else None
    if sol is not None and sol.status == lp.OPTIMAL:
        value = float(sol.value)
        x = np.zeros(c.shape)
        x[allowed] = sol.x
    elif sol is None or sol.status == lp.INFEASIBLE:
        # every coupling must load a sentinel cell; report the
        # sentinel itself and hand back the product coupling
        value = SENTINEL_COST
        x = reduce(np.multiply.outer, [p.masses for p in dists]).ravel()
    else:
        raise RuntimeError(f"transport LP unexpectedly {sol.status}")
    r = np.clip(x, 0.0, None).reshape(shape)
    r = r / r.sum()
    for axis, p in enumerate(dists):
        got = marginal(JointMass(r), [axis]).entries
        if np.max(np.abs(got - p.masses)) > MARGINAL_TOL:
            raise RuntimeError(f"coupling marginal {axis} off by more than {MARGINAL_TOL}")
    return value, JointMass(r)


def _root_value(bracket: float, ell: int) -> float:
    # past the sentinel threshold the magnitude is an artifact; keep it big
    if bracket > EFFECTIVELY_INFINITE:
        return float(bracket)
    return max(bracket, 0.0) ** (1.0 / ell)


def wasserstein(
    p1: DiscreteDistribution, p2: DiscreteDistribution, d: np.ndarray, ell: int = 1
) -> TransportResult:
    """Classical OT: min over couplings of <d, r>_ell^(1/ell)."""
    d = np.asarray(d, dtype=float)
    if d.shape != (p1.size, p2.size):
        raise ValueError(f"cost shape {d.shape} does not match supports ({p1.size}, {p2.size})")
    bracket, coupling = _solve_coupling([p1, p2], _powered_cost(d, ell))
    return TransportResult(_root_value(bracket, ell), coupling)


def mmot(dists: Sequence[DiscreteDistribution], d: np.ndarray, ell: int = 1) -> TransportResult:
    """General MMOT: one LP over the n-way coupling with cost d^ell."""
    if len(dists) < 2:
        raise ValueError("mmot needs at least two distributions")
    bracket, coupling = _solve_coupling(list(dists), _powered_cost(d, ell))
    return TransportResult(_root_value(bracket, ell), coupling)


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
        expand = [None] * n
        expand[s] = slice(None)
        expand[t] = slice(None)
        total = total + mat[tuple(expand)]
    return total


def pairwise_mmot(
    dists: Sequence[DiscreteDistribution], d: PairwiseCost, ell: int = 1
) -> TransportResult:
    """Pairwise MMOT: min over couplings of the summed bivariate transport costs."""
    if ell != 1:
        raise ValueError("pairwise MMOT supports ell=1 only; the ell>1 objective is not an LP")
    if len(dists) < 2:
        raise ValueError("pairwise_mmot needs at least two distributions")
    total = _summed_cost(dists, d)
    _, coupling = _solve_coupling(list(dists), _powered_cost(total, 1))
    terms = {}
    n = len(dists)
    for s, t in combinations(range(n), 2):
        pair_marg = marginal(coupling, [s, t]).entries
        terms[(s, t)] = float(np.sum(d.get(s, t) * pair_marg))
    value = float(sum(terms.values()))
    return TransportResult(value, coupling, per_pair_terms=terms)


def barycenter_mmot(
    dists: Sequence[DiscreteDistribution], omega: Sequence, base: np.ndarray
) -> TransportResult:
    """Barycenter MMOT over a shared atom list Omega with base cost on Omega.

    Cost of a support combination is min_w sum_s base(w^s, w), the cheapest
    single meeting point in Omega.
    """
    base = np.asarray(base, dtype=float)
    n_omega = len(omega)
    if base.shape != (n_omega, n_omega):
        raise ValueError(f"base cost shape {base.shape} does not match |Omega|={n_omega}")
    if np.any(base < 0):
        raise ValueError("base cost must be nonnegative")
    index_maps = []
    for p in dists:
        idx = []
        for atom in p.atoms:
            for w, om in enumerate(omega):
                if atom == om:
                    idx.append(w)
                    break
            else:
                raise ValueError(f"atom {atom!r} is not in Omega")
        index_maps.append(np.asarray(idx))
    shape = tuple(p.size for p in dists)
    if int(np.prod(shape)) * n_omega > MAX_ENTRIES:
        raise ValueError("barycenter cost tensor would exceed the entry cap")
    # stack base rows per axis and minimize over the meeting point w
    cost = np.zeros(shape + (n_omega,))
    for axis, idx in enumerate(index_maps):
        expand = [None] * (len(shape) + 1)
        expand[axis] = slice(None)
        expand[-1] = slice(None)
        cost = cost + base[idx][tuple(expand)]
    tensor = cost.min(axis=-1)
    return mmot(list(dists), tensor, ell=1)


def lower_bound_pairwise(dists: Sequence[DiscreteDistribution], d: PairwiseCost) -> float:
    """Sum of pairwise Wasserstein distances; a lower bound for pairwise_mmot."""
    total = 0.0
    for s, t in combinations(range(len(dists)), 2):
        total += wasserstein(dists[s], dists[t], d.get(s, t), ell=1).value
    return float(total)
