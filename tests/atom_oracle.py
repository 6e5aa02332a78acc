"""Exact oracle for the atom-identity rule: the `Atom` object and its loops.

`Atom` compares numeric payloads within ATOM_TOL per coordinate, kind
first, and has no hash.  Every function below is the pairwise Python
loop that `mmot` replaced with masks over `same_atoms`; array supports
go in, are turned into `Atom` lists row by row, and the loops run on
those.  `n_metric_triangle` is the scalar loop behind the vectorized
triangle scan of `check_n_metric_cost`, kept here beside its identity
loop.  Outputs are plain lists and arrays so tests can compare them
with `==`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mmot.constructions import _areas
from mmot.core import ATOM_TOL
from mmot.metric_props import TRIANGLE_SLACK, ZERO_TOL, MetricReport
from mmot.transport import PairwiseCost


@dataclass(frozen=True)
class Atom:
    """A point of a finite sample space: real scalar, planar point, or label."""

    kind: str
    value: tuple

    @staticmethod
    def real(x: float) -> "Atom":
        return Atom("real", (float(x),))

    @staticmethod
    def point(x: float, y: float) -> "Atom":
        return Atom("point", (float(x), float(y)))

    @staticmethod
    def label(name: str) -> "Atom":
        return Atom("label", (str(name),))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Atom):
            return NotImplemented
        if self.kind != other.kind:
            return False
        if self.kind == "label":
            return self.value == other.value
        return all(abs(a - b) <= ATOM_TOL for a, b in zip(self.value, other.value))

    __hash__ = None  # tolerance-based equality is not hashable

    def coords(self) -> np.ndarray:
        if self.kind == "label":
            raise ValueError("label atoms have no coordinates; resolve through a cost lookup")
        return np.asarray(self.value, dtype=float)


def as_atoms(support) -> list[Atom]:
    """Rows of a 1-d (real) or (m, 2) (planar) support as `Atom`s."""
    pts = np.asarray(support, dtype=float)
    if pts.ndim == 1:
        return [Atom.real(x) for x in pts]
    if pts.shape[1] == 1:
        return [Atom.real(x) for (x,) in pts]
    return [Atom.point(x, y) for x, y in pts]


def coords(atoms: list[Atom]) -> np.ndarray:
    return np.array([a.coords() for a in atoms])


def first_clash(support) -> tuple[int, int] | None:
    """The distinctness loop of the distribution constructor."""
    atoms = as_atoms(support)
    for s in range(len(atoms)):
        for t in range(s + 1, len(atoms)):
            if atoms[s] == atoms[t]:
                return s, t
    return None


def dedupe(support) -> tuple[list[Atom], list[int]]:
    """First-match dedupe: kept atoms and the owner of every row."""
    kept: list[Atom] = []
    owners: list[int] = []
    for a in as_atoms(support):
        for idx, existing in enumerate(kept):
            if existing == a:
                owners.append(idx)
                break
        else:
            owners.append(len(kept))
            kept.append(a)
    return kept, owners


def signature_distribution(values) -> tuple[np.ndarray, np.ndarray]:
    """Atom coordinates and masses of the uniform eigenvalue distribution."""
    atoms: list[Atom] = []
    counts: list[int] = []
    for z in values:
        a = Atom.point(float(z.real), float(z.imag))
        for idx, existing in enumerate(atoms):
            if existing == a:
                counts[idx] += 1
                break
        else:
            atoms.append(a)
            counts.append(1)
    masses = np.array(counts, dtype=float) / float(len(values))
    return coords(atoms), masses / masses.sum()


def omega_union(supports) -> np.ndarray:
    """The barycenter backend's shared support: union in first-seen order."""
    omega: list[Atom] = []
    for support in supports:
        for a in as_atoms(support):
            if not any(o == a for o in omega):
                omega.append(a)
    return coords(omega)


def index_maps(supports, omega) -> list[list[int]]:
    """Position in Omega of every atom of every support; ValueError if absent."""
    om = as_atoms(omega)
    maps = []
    for support in supports:
        idx = []
        for atom in as_atoms(support):
            for w, o in enumerate(om):
                if atom == o:
                    idx.append(w)
                    break
            else:
                raise ValueError(f"atom {atom!r} is not in Omega")
        maps.append(idx)
    return maps


def triangle_area_cost(supports, gamma: float | None) -> np.ndarray:
    """The three-way cost with its equality matrices built pair by pair."""
    if gamma is not None and gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    a0, a1, a2 = (as_atoms(s) for s in supports)
    areas = _areas(coords(a0), coords(a1), coords(a2))
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


class PairView:
    """Pair lookup over a PairwiseCost or a raw pair->matrix dict, kept apart
    from the lookup `check_metric` builds so the oracle shares none of it."""

    def __init__(self, d):
        if isinstance(d, PairwiseCost):
            self._raw = {key: d.get(*key) for key in d.pairs}
        else:
            self._raw = {tuple(k): np.asarray(v, dtype=float) for k, v in d.items()}
        self.pairs = {tuple(sorted(k)) for k in self._raw}

    def get(self, i: int, j: int) -> np.ndarray:
        if (i, j) in self._raw:
            return self._raw[(i, j)]
        return self._raw[(j, i)].T

    def stored_both_ways(self, i: int, j: int) -> bool:
        return (i, j) in self._raw and (j, i) in self._raw


def check_metric(d, supports) -> MetricReport:
    """The pairwise metric audit with its cell-by-cell identity loop."""
    atoms = [as_atoms(s) for s in supports]
    rep = MetricReport(nonnegative=True, identity=True, symmetric=True, triangle=True)
    view = PairView(d)
    for (i, j) in sorted(view.pairs):
        m = view.get(i, j)
        rep.n_checked += m.size
        for s, t in np.argwhere(m < 0):
            rep.nonnegative = False
            rep.violations.append({"kind": "nonnegativity",
                                   "where": [i, j, int(s), int(t)],
                                   "margin": float(m[s, t])})
        if i == j and not np.allclose(m, m.T, rtol=0.0, atol=ZERO_TOL):
            rep.symmetric = False
            rep.violations.append({"kind": "symmetry", "where": [i, j], "margin": 0.0})
        if i != j and view.stored_both_ways(i, j):
            if not np.allclose(view.get(i, j), view.get(j, i).T,
                               rtol=0.0, atol=ZERO_TOL):
                rep.symmetric = False
                rep.violations.append({"kind": "symmetry", "where": [i, j],
                                       "margin": 0.0})
        for s in range(m.shape[0]):
            for t in range(m.shape[1]):
                same = atoms[i][s] == atoms[j][t]
                zero = abs(m[s, t]) <= ZERO_TOL
                if same != zero:
                    rep.identity = False
                    rep.violations.append({"kind": "identity",
                                           "where": [i, j, s, t],
                                           "margin": float(m[s, t])})
    present = view.pairs
    n_spaces = len(atoms)
    for i in range(n_spaces):
        for j in range(n_spaces):
            if tuple(sorted((i, j))) not in present or i == j:
                continue
            for k in range(n_spaces):
                if k in (i, j):
                    continue
                if (tuple(sorted((i, k))) not in present
                        or tuple(sorted((k, j))) not in present):
                    continue
                a = view.get(i, j)
                b = view.get(i, k)
                c = view.get(k, j)
                detour = (b[:, :, None] + c[None, :, :]).min(axis=1)
                rep.n_checked += a.size
                for s, t in np.argwhere(a > detour + TRIANGLE_SLACK):
                    rep.triangle = False
                    rep.violations.append({"kind": "triangle",
                                           "where": [i, j, k, int(s), int(t)],
                                           "margin": float(a[s, t] - detour[s, t])})
    return rep


def n_metric_identity(cost: np.ndarray, support, tol: float = ZERO_TOL) -> list[dict]:
    """Identity violations of a shared cost tensor, one cell at a time."""
    atoms = as_atoms(support)
    out = []
    for idx in np.ndindex(*cost.shape):
        all_equal = all(atoms[t] == atoms[idx[0]] for t in idx[1:])
        zero = abs(cost[idx]) <= tol
        if all_equal != zero:
            out.append({"kind": "identity", "where": list(idx),
                        "margin": float(cost[idx])})
    return out


def n_metric_triangle(cost: np.ndarray, C: float = 1.0, tol: float = ZERO_TOL) -> list[dict]:
    """Triangle violations of a shared cost tensor, one (n+1)-tuple at a time.

    A tuple's left side is C times the cell of its first n indices; its
    right side sums, in position order, the cells leaving out each of them.
    """
    n = cost.ndim
    out = []
    for idx in np.ndindex(*(cost.shape[0],) * (n + 1)):
        rhs = 0.0
        for p in range(n):
            rhs = rhs + cost[idx[:p] + idx[p + 1:]]
        gap = rhs - C * cost[idx[:n]]
        if gap < -tol:
            out.append({"kind": "triangle", "where": list(idx), "margin": float(gap)})
    return out
