"""Finite probability spaces: atoms, distributions, joint masses, gluing.

Everything here is dense and desk-scale.  Joint masses are plain numpy
tensors wrapped with validation; the gluing map assembles a full joint
from a pivot marginal and per-axis conditionals.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "ATOM_TOL",
    "MASS_TOL",
    "MAX_ENTRIES",
    "Atom",
    "DiscreteDistribution",
    "JointMass",
    "ConditionalMass",
    "braket",
    "marginal",
    "conditional",
    "glue",
]

ATOM_TOL = 1e-12
MASS_TOL = 1e-9
# Dense joint tensors only; anything bigger than this is a usage error.
MAX_ENTRIES = 10_000_000


@dataclass(frozen=True)
class Atom:
    """A point of a finite sample space: real scalar, planar point, or label.

    Planar points double as complex numbers (eigenvalue supports).  Numeric
    payloads compare equal within ATOM_TOL per coordinate; labels exactly.
    """

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


def _check_total_mass(total: float, what: str) -> None:
    if abs(total - 1.0) > MASS_TOL:
        raise ValueError(f"{what} must sum to 1 within {MASS_TOL}, got {total!r}")


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Atoms with strictly positive masses summing to one."""

    atoms: tuple
    masses: np.ndarray = field(repr=False)

    def __init__(self, atoms: Sequence[Atom], masses: Iterable[float]):
        atoms = tuple(atoms)
        masses = np.asarray(list(masses), dtype=float)
        if len(atoms) != masses.shape[0] or masses.ndim != 1 or len(atoms) == 0:
            raise ValueError("atoms and masses must be equal-length nonempty sequences")
        if np.any(masses <= 0):
            raise ValueError("masses must be strictly positive")
        _check_total_mass(float(masses.sum()), "masses")
        masses = masses / masses.sum()
        for s in range(len(atoms)):
            for t in range(s + 1, len(atoms)):
                if atoms[s] == atoms[t]:
                    raise ValueError(f"atoms {s} and {t} coincide; atoms must be pairwise distinct")
        masses.setflags(write=False)
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
        if entries.size == 0:
            raise ValueError("joint mass must be nonempty")
        if entries.size > MAX_ENTRIES:
            raise ValueError(
                f"joint mass has {entries.size} entries, over the cap {MAX_ENTRIES}; "
                "reduce the number of marginals or atoms"
            )
        if np.any(entries < 0):
            raise ValueError("joint mass entries must be nonnegative")
        _check_total_mass(float(entries.sum()), "joint mass entries")
        entries = entries / entries.sum()
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

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
        if np.any(entries < 0):
            raise ValueError("conditional mass entries must be nonnegative")
        sums = entries.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > MASS_TOL):
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise ValueError(f"column {bad} sums to {sums[bad]!r}, expected 1 within {MASS_TOL}")
        entries = entries / sums
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def shape(self) -> tuple:
        return self.entries.shape


def braket(A: np.ndarray, B: np.ndarray, ell: int) -> float:
    """Evaluate <A, B>_ell = sum_s (A_s)^ell B_s."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    if np.any(B < 0):
        raise ValueError("B must be nonnegative")
    if int(ell) != ell or ell < 1:
        raise ValueError("ell must be a positive integer")
    return float(np.sum(A ** int(ell) * B))


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
    m_k = q_k.shape[0]
    shape = [0] * len(axes)
    shape[k] = m_k
    total = m_k
    for i, q in conditionals.items():
        if q.shape[1] != m_k:
            raise ValueError(f"conditional for axis {i} conditions on {q.shape[1]} atoms, pivot has {m_k}")
        shape[i] = q.shape[0]
        total *= q.shape[0]
        if total > MAX_ENTRIES:
            raise ValueError(f"glued joint would exceed the {MAX_ENTRIES}-entry cap")
    # Build along the pivot slices: for fixed s_k the joint is an outer product.
    out = np.zeros(shape, dtype=float)
    n = len(axes)
    for t in range(m_k):
        block = np.array(q_k[t], dtype=float)
        # outer product over non-pivot axes in increasing axis order
        factors = [conditionals[i].entries[:, t] for i in range(n) if i != k]
        if factors:
            prod = factors[0]
            for f in factors[1:]:
                prod = np.multiply.outer(prod, f)
            block = block * prod
        index = [slice(None)] * n
        index[k] = t
        out[tuple(index)] = block
    return JointMass(out)
