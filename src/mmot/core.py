"""Finite probability spaces: supports, distributions, joint masses, gluing.

Everything here is dense and desk-scale.  A support is an (m, d) array
of coordinate rows, and `same_atoms` holds the one rule for when two
rows are the same atom.  Joint masses are plain numpy tensors wrapped
with validation; the gluing map assembles a full joint from a pivot
marginal and per-axis conditionals.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "ATOM_TOL",
    "MASS_TOL",
    "MAX_ENTRIES",
    "check_cells",
    "same_atoms",
    "distinct_atoms",
    "DiscreteDistribution",
    "JointMass",
    "ConditionalMass",
    "check_ell",
    "braket",
    "marginal",
    "conditional",
    "glue",
]

ATOM_TOL = 1e-12
MASS_TOL = 1e-9
# Dense joint tensors only; anything bigger than this is a usage error.
MAX_ENTRIES = 10_000_000


def check_cells(cells: int, what: str) -> None:
    """Refuse a dense array of more than MAX_ENTRIES cells, before it is built."""
    if cells > MAX_ENTRIES:
        raise ValueError(f"{what} needs {cells} cells, over the cap {MAX_ENTRIES}")


def _points(atoms) -> np.ndarray:
    """A support as an (m, d) float array; a 1-d input is m real atoms."""
    pts = np.asarray(atoms, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError(f"a support must be a 1-d or (m, d) array, got shape {pts.shape}")
    return pts


def same_atoms(a, b) -> np.ndarray:
    """(len a, len b) mask of coinciding atoms: every coordinate within ATOM_TOL.

    Supports of different dimension never share an atom; comparing them
    is a usage error rather than a broadcast.
    """
    a, b = _points(a), _points(b)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"atom dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    return np.all(np.abs(a[:, None, :] - b[None, :, :]) <= ATOM_TOL, axis=2)


def distinct_atoms(points) -> tuple[np.ndarray, np.ndarray]:
    """First-match dedupe: (kept rows, owner of each row among the kept).

    A row joins the first kept atom it coincides with and is kept when
    there is none.  Tolerance equality is not transitive, so rows are
    matched against kept atoms only, never against other joined rows.
    """
    pts = _points(points)
    same = same_atoms(pts, pts)
    owners = np.full(len(pts), -1)
    kept: list[int] = []
    # the first unowned row matches no kept atom, so it is the next one kept
    while (free := np.flatnonzero(owners < 0)).size:
        r = free[0]
        owners[free[same[free, r]]] = len(kept)
        owners[r] = len(kept)
        kept.append(r)
    return pts[kept], owners


def _mass(entries: np.ndarray, what: str, axis: int | None = None) -> np.ndarray:
    """The one mass rule: entries nonnegative and each sum over `axis` within
    MASS_TOL of 1 (so a NaN or inf sum fails), then rescaled and read-only."""
    if (entries < 0).any():
        raise ValueError(f"{what} must be nonnegative")
    sums = entries.sum(axis=axis)
    if not (ok := abs(sums - 1.0) <= MASS_TOL).all():
        off = np.flatnonzero(~ok)[0]
        where = "" if axis is None else f" for sum {off} over axis {axis}"
        raise ValueError(f"{what} must sum to 1 within {MASS_TOL}, got "
                         f"{float(np.ravel(sums)[off])!r}{where}")
    entries = entries / sums
    entries.setflags(write=False)
    return entries


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Pairwise distinct atoms, rows of an (m, d) array of finite
    coordinates, with strictly positive masses summing to one."""

    atoms: np.ndarray
    masses: np.ndarray = field(repr=False)

    def __init__(self, atoms, masses: Iterable[float]):
        atoms = np.array(_points(atoms))
        masses = np.asarray(list(masses), dtype=float)
        if masses.ndim != 1 or len(atoms) != masses.shape[0] or len(atoms) == 0:
            raise ValueError("atoms and masses must be equal-length nonempty sequences")
        if not np.isfinite(atoms).all():
            raise ValueError("atom coordinates must be finite")
        if np.any(masses <= 0):
            raise ValueError("masses must be strictly positive")
        masses = _mass(masses, "masses")
        clash = np.argwhere(np.triu(same_atoms(atoms, atoms), 1))
        if clash.size:
            s, t = clash[0]
            raise ValueError(f"atoms {s} and {t} coincide; atoms must be pairwise distinct")
        atoms.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "masses", masses)

    @property
    def size(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True, eq=False)
class JointMass:
    """Dense nonnegative tensor summing to one."""

    entries: np.ndarray

    def __init__(self, entries: np.ndarray):
        entries = np.asarray(entries, dtype=float)
        check_cells(entries.size, "a joint mass")
        object.__setattr__(self, "entries", _mass(entries, "joint mass entries"))

    @property
    def shape(self) -> tuple:
        return self.entries.shape


@dataclass(frozen=True, eq=False)
class ConditionalMass:
    """Columns q^{i|k}_{s|t} over s, one per conditioning index t; columns sum to one."""

    entries: np.ndarray

    def __init__(self, entries: np.ndarray):
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 2:
            raise ValueError("conditional mass must be a 2-d array (m_i, m_k)")
        object.__setattr__(self, "entries", _mass(entries, "conditional mass columns", axis=0))

    @property
    def shape(self) -> tuple:
        return self.entries.shape


def check_ell(ell: int) -> int:
    """The transport power as an int; anything but a positive integer raises."""
    if not (float(ell).is_integer() and ell >= 1):
        raise ValueError(f"ell must be a positive integer, got {ell!r}")
    return int(ell)


def braket(A: np.ndarray, B: np.ndarray, ell: int) -> float:
    """Evaluate <A, B>_ell = sum_s (A_s)^ell B_s; a power that overflows is
    inf, and a cell where B is 0 adds nothing."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    if np.isnan(A).any() or np.isnan(B).any():
        raise ValueError("A and B must not hold NaN")
    if np.any(B < 0):
        raise ValueError("B must be nonnegative")
    with np.errstate(over="ignore"):
        powered = A ** check_ell(ell)
    return float(np.sum(np.where(B > 0, powered, 0.0) * B))


def marginal(j: JointMass, keep_axes: Iterable[int]) -> JointMass:
    """Sum out every axis not in keep_axes, preserving their original order."""
    keep = sorted(set(int(a) for a in keep_axes))
    nd = j.entries.ndim
    if not keep:
        raise ValueError("keep_axes must be nonempty")
    if keep[0] < 0 or keep[-1] >= nd:
        raise ValueError(f"keep_axes {keep} out of range for a {nd}-axis joint mass")
    drop = tuple(a for a in range(nd) if a not in keep)
    return JointMass(j.entries.sum(axis=drop)) if drop else JointMass(j.entries)


def conditional(j: JointMass) -> ConditionalMass:
    """Condition a bivariate joint on its second axis: q_{s|t} = j_{s,t} / p^k_t."""
    if j.entries.ndim != 2:
        raise ValueError("conditional expects a bivariate joint mass")
    col = j.entries.sum(axis=0)
    zero = np.nonzero(col <= 0.0)[0]
    if zero.size:
        raise ValueError(f"conditioning marginal is zero at index {int(zero[0])}")
    return ConditionalMass(j.entries / col)


def glue(q_k: np.ndarray, conditionals: Mapping[int, ConditionalMass], k: int) -> JointMass:
    """Glue a pivot marginal and per-axis conditionals into a joint mass.

    p_{s_1..s_n} = q^k_{s_k} * prod_{i != k} q^{i|k}_{s_i | s_k}, with axes
    keyed by the integer positions in `conditionals` plus the pivot k.
    """
    q_k = np.asarray(q_k, dtype=float)
    if q_k.ndim != 1:
        raise ValueError("pivot marginal must be 1-d")
    axes = sorted(conditionals) + [k]
    if len(set(axes)) != len(axes):
        raise ValueError(f"pivot axis {k} also appears among the conditionals")
    if sorted(axes) != list(range(len(axes))):
        raise ValueError(f"axes {sorted(axes)} must form a contiguous range starting at 0")
    total = m_k = q_k.shape[0]
    for i, q in conditionals.items():
        if q.shape[1] != m_k:
            raise ValueError(f"conditional for axis {i} conditions on {q.shape[1]} atoms, pivot has {m_k}")
        total *= q.shape[0]
        check_cells(total, "the glued joint")
    # the non-pivot columns multiplied in increasing axis order, then the pivot
    # marginal; contiguous, so JointMass sums the joint in row-major order
    out = np.ones(m_k)
    for i in sorted(conditionals):
        out = out[..., None, :] * conditionals[i].entries
    return JointMass(np.ascontiguousarray(np.moveaxis(out * q_k, -1, k)))
