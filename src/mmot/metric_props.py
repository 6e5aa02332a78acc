"""Metric property audits, empirical C estimation, violation injection.

Covers four jobs: exhaustive metric checks on pairwise costs, the
generalized (n, C)-metric check on a shared cost tensor, the same check
on a sampled tensor of transport values of any order, and the
feasibility probe for reconstructing a joint from three bivariate
masses.
"""
from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from itertools import combinations, permutations
from typing import Callable, Iterator, NoReturn, Sequence

import numpy as np
import scipy.sparse as sp

from . import lp
from .core import MAX_ENTRIES, JointMass, same_atoms
from .transport import PairwiseCost

__all__ = [
    "SENTINEL",
    "DistanceTensor",
    "MetricReport",
    "GluingResult",
    "check_metric",
    "check_n_metric_cost",
    "check_W_tensor",
    "inject_violations",
    "no_gluing_check",
]

# unsampled entries carry this exact value so downstream consumers that
# cannot skip entries see something very large instead of garbage
SENTINEL = 1e9

ZERO_TOL = 1e-12
TRIANGLE_SLACK = 1e-8
COMPAT_TOL = 1e-9


class DistanceTensor:
    """Symmetric tensor of any order >= 2 with explicit sampling mask.

    One dense (size,)*order float64 array, `dense`, is the only storage:
    each entry sits at its strictly increasing index tuple, NaN marks an
    unsampled entry, and the positions of non-increasing tuples stay NaN.
    The array may hold at most `core.MAX_ENTRIES` cells.  `modified`
    tracks entries rewritten by inject_violations so later passes can
    avoid them.
    """

    def __init__(self, order: int, size: int) -> None:
        if order < 2:
            raise ValueError(f"order must be at least 2, got {order}")
        if size < order:
            raise ValueError(f"size {size} is too small for order {order}")
        cells = int(size) ** order
        if cells > MAX_ENTRIES:
            raise ValueError(f"a tensor of order {order} over {size} objects has "
                             f"{cells} cells, over the cap {MAX_ENTRIES}")
        self.order = order
        self.size = size
        self.dense = np.full((size,) * order, np.nan)
        self.modified: set[tuple[int, ...]] = set()

    def _key(self, idx: Sequence[int]) -> tuple[int, ...]:
        if len(idx) != self.order:
            raise ValueError(f"expected {self.order} indices, got {len(idx)}")
        key = tuple(sorted(int(i) for i in idx))
        if len(set(key)) != self.order:
            raise ValueError(f"indices must be distinct, got {tuple(idx)}")
        if key[0] < 0 or key[-1] >= self.size:
            raise ValueError(f"index out of range for size {self.size}: {tuple(idx)}")
        return key

    def set(self, idx: Sequence[int], value: float) -> None:
        v = float(value)
        if not math.isfinite(v) or v < 0:
            raise ValueError(f"value must be finite and nonnegative, got {value}")
        self.dense[self._key(idx)] = v

    def sampled_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """The sampled keys as an (m, order) array in lexicographic order, and their values."""
        # flat C-order positions are lexicographic in the key
        flat = np.flatnonzero(~np.isnan(self.dense))
        keys = np.column_stack(np.unravel_index(flat, self.dense.shape))
        return keys, self.dense.take(flat)

    @property
    def values(self) -> Mapping[tuple[int, ...], float]:
        """The sampled entries by increasing key, read-only."""
        return _SampledValues(self)

    @property
    def n_sampled(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.dense)))

    def copy(self) -> "DistanceTensor":
        out = DistanceTensor(self.order, self.size)
        out.dense[...] = self.dense
        out.modified = set(self.modified)
        return out

    def to_csv(self, path: str) -> None:
        # every increasing tuple is written, unsampled ones as sentinel,
        # so the file fully determines (order, size)
        keys = list(combinations(range(self.size), self.order))
        vals = self.dense[tuple(np.array(keys).T)]
        flags = ~np.isnan(vals)
        vals[~flags] = SENTINEL
        # tolist() gives Python floats, whose repr round-trips exactly
        with open(path, "w") as fh:
            fh.writelines(f"{','.join(map(str, key))},{v!r},{f:d}\n"
                          for key, v, f in zip(keys, vals.tolist(), flags.tolist()))

    @classmethod
    def from_csv(cls, path: str) -> "DistanceTensor":
        with open(path) as fh:
            lines = fh.read().splitlines()
        # 1-based numbers of the non-blank lines, one per parsed row
        numbers = [n for n, line in enumerate(lines, start=1) if line.strip()]
        if not numbers:
            raise ValueError(f"{path}: empty tensor file")
        text = [lines[n - 1] for n in numbers]
        try:
            rows = np.loadtxt(text, delimiter=",", ndmin=2, comments=None)
        except ValueError as exc:
            _raise_bad_field(path, numbers, text, exc)

        def fail(bad: np.ndarray, message: Callable[[int], str]) -> None:
            # name the first offending row by its line
            if bad.any():
                r = int(np.argmax(bad))
                raise ValueError(f"{path}:{numbers[r]}: {message(r)}")

        if rows.shape[1] < 4:
            raise ValueError(f"{path}:{numbers[0]}: expected at least 4 fields")
        idx, value, flag = rows[:, :-2], rows[:, -2], rows[:, -1]
        fail((flag != 0) & (flag != 1), lambda r: "sampled flag must be 0 or 1")
        # loadtxt reads every field as a float, so 1.5 or -1 gets this far
        not_int = ~(np.isfinite(idx) & (idx >= 0) & (idx == np.floor(idx)))
        fail(not_int.any(axis=1),
             lambda r: f"index {idx[r][not_int[r]][0]:g} is not a nonnegative integer")
        raw = idx
        idx = np.sort(raw, axis=1)
        fail((np.diff(idx, axis=1) == 0).any(axis=1),
             lambda r: f"indices must be distinct, got {tuple(map(int, raw[r]))}")
        sampled = flag == 1
        fail(sampled & ~(np.isfinite(value) & (value >= 0)),
             lambda r: f"value must be finite and nonnegative, got {float(value[r])}")
        order, size = idx.shape[1], int(idx.max()) + 1
        # the cell cap is checked before any allocation, and bounds every
        # index, so the integer cast below is exact
        try:
            out = cls(order, size)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        idx = idx.astype(np.intp)
        codes = np.ravel_multi_index(tuple(idx.T), (size,) * order)
        unique, first = np.unique(codes, return_index=True)
        repeat = np.ones(len(codes), dtype=bool)
        repeat[first] = False
        fail(repeat, lambda r: f"index tuple {tuple(idx[r].tolist())} repeats line "
                               f"{numbers[first[np.searchsorted(unique, codes[r])]]}")
        out.dense[tuple(idx[sampled].T)] = value[sampled]
        return out


class _SampledValues(Mapping):
    """A DistanceTensor's sampled entries as a mapping over increasing keys."""

    def __init__(self, T: DistanceTensor) -> None:
        self._T = T

    def _cell(self, key) -> tuple[int, ...]:
        # only an increasing in-range tuple names a stored entry
        try:
            cell = self._T._key(key)
        except (TypeError, ValueError):
            raise KeyError(key) from None
        if cell != tuple(key):
            raise KeyError(key)
        return cell

    def __getitem__(self, key) -> float:
        v = float(self._T.dense[self._cell(key)])
        if math.isnan(v):
            raise KeyError(key)
        return v

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return map(tuple, self._T.sampled_entries()[0].tolist())

    def __len__(self) -> int:
        return self._T.n_sampled


def _raise_bad_field(path: str, numbers: list[int], text: list[str],
                     exc: ValueError) -> NoReturn:
    """Name the first line np.loadtxt could not read: field count, arity or a number."""
    arity = None
    for n, line in zip(numbers, text):
        parts = line.split(",")
        if len(parts) < 4:
            raise ValueError(f"{path}:{n}: expected at least 4 fields")
        if arity is not None and len(parts) != arity:
            raise ValueError(f"{path}:{n}: inconsistent index arity")
        arity = len(parts)
        for part in parts:
            try:
                float(part)
            except ValueError as bad:
                raise ValueError(f"{path}:{n}: {bad}") from None
    raise ValueError(f"{path}: {exc}") from exc


@dataclass
class MetricReport:
    """Outcome of a property audit; None means the item was not assessed."""

    nonnegative: bool | None = None
    identity: bool | None = None
    symmetric: bool | None = None
    triangle: bool | None = None
    violations: list[dict] = field(default_factory=list)
    empirical_C: float | None = None
    n_checked: int = 0

    @property
    def ok(self) -> bool:
        return all(f is not False for f in
                   (self.nonnegative, self.identity, self.symmetric, self.triangle))

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def summary(self) -> str:
        status = "ok" if self.ok else f"FAILED ({len(self.violations)} violations)"
        c = "" if self.empirical_C is None else f", empirical_C={self.empirical_C:.6g}"
        return f"{self.n_checked} checks, {status}{c}"


class _PairView:
    """Uniform pair lookup over a PairwiseCost or a raw pair->matrix dict.

    Raw dicts are accepted so the audit can run on data the strict
    container would reject (that rejection is itself what gets audited).
    """

    def __init__(self, d: PairwiseCost | Mapping[tuple, np.ndarray]):
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


def check_metric(
    d: PairwiseCost | Mapping[tuple, np.ndarray],
    atoms: Sequence[np.ndarray],
) -> MetricReport:
    """Exhaustively audit nonnegativity, symmetry, identity, triangle.

    `atoms[i]` is the support of space i; the matrix of pair (i, j) is
    over the atoms of space i by those of space j.
    """
    rep = MetricReport(nonnegative=True, identity=True, symmetric=True, triangle=True)
    view = _PairView(d)
    for (i, j) in sorted(view.pairs):
        m = view.get(i, j)
        rep.n_checked += m.size
        neg = np.argwhere(m < 0)
        for s, t in neg:
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
        same = same_atoms(atoms[i], atoms[j])
        if same.shape != m.shape:
            raise ValueError(f"cost for pair ({i},{j}) has shape {m.shape}, "
                             f"supports have {same.shape}")
        for s, t in np.argwhere(same != (np.abs(m) <= ZERO_TOL)):
            rep.identity = False
            rep.violations.append({"kind": "identity",
                                   "where": [i, j, int(s), int(t)],
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
                # min-plus product: cheapest detour through space k
                detour = (b[:, :, None] + c[None, :, :]).min(axis=1)
                rep.n_checked += a.size
                bad = np.argwhere(a > detour + TRIANGLE_SLACK)
                for s, t in bad:
                    rep.triangle = False
                    rep.violations.append({"kind": "triangle",
                                           "where": [i, j, k, int(s), int(t)],
                                           "margin": float(a[s, t] - detour[s, t])})
    return rep


def check_n_metric_cost(
    cost: np.ndarray,
    atoms: np.ndarray,
    C: float = 1.0,
) -> MetricReport:
    """Audit the four generalized-metric properties of a shared cost tensor.

    `cost` is an n-way array over one common support; the generalized
    triangle inequality is scanned over every (n+1)-tuple of indices.
    """
    cost = np.asarray(cost, dtype=float)
    n = cost.ndim
    m = len(atoms)
    if cost.shape != (m,) * n:
        raise ValueError(f"cost shape {cost.shape} does not match {m} atoms")
    rep = MetricReport(nonnegative=True, identity=True, symmetric=True, triangle=True)
    rep.n_checked += cost.size
    if np.any(cost < 0):
        rep.nonnegative = False
        s = tuple(int(v) for v in np.argwhere(cost < 0)[0])
        rep.violations.append({"kind": "nonnegativity", "where": list(s),
                               "margin": float(cost[s])})
    for perm in permutations(range(n)):
        if not np.allclose(cost, np.transpose(cost, perm), rtol=0.0, atol=ZERO_TOL):
            rep.symmetric = False
            rep.violations.append({"kind": "symmetry", "where": list(perm),
                                   "margin": 0.0})
    # a cell's atoms are "all equal" when each coincides with the first
    same = same_atoms(atoms, atoms)
    all_equal = np.ones(cost.shape, dtype=bool)
    for t in range(1, n):
        all_equal &= np.expand_dims(same, [a for a in range(n) if a not in (0, t)])
    for idx in np.argwhere(all_equal != (np.abs(cost) <= ZERO_TOL)):
        idx = tuple(int(v) for v in idx)
        rep.identity = False
        rep.violations.append({"kind": "identity", "where": list(idx),
                               "margin": float(cost[idx])})
    lhs = C * np.expand_dims(cost, n)
    rhs = np.zeros((m,) * (n + 1))
    for r in range(1, n + 1):
        rhs = rhs + np.expand_dims(cost, r - 1)
    rep.n_checked += rhs.size
    gap = rhs - lhs
    bad = np.argwhere(gap < -ZERO_TOL)
    for row in bad:
        rep.triangle = False
        rep.violations.append({"kind": "triangle",
                               "where": [int(v) for v in row],
                               "margin": float(gap[tuple(row)])})
    denom_ok = np.expand_dims(cost, n) > ZERO_TOL
    if np.any(denom_ok):
        ratios = np.where(denom_ok, rhs / np.maximum(np.expand_dims(cost, n), ZERO_TOL),
                          np.inf)
        rep.empirical_C = float(ratios.min())
    return rep


def check_W_tensor(T: DistanceTensor, C: float = 1.0) -> MetricReport:
    """Scan every fully sampled (order+1)-subset for generalized triangle failures.

    Each entry of a subset is checked against the sum of the others: the
    classical triangle inequality for order 2, the generalized one from
    order 3 up.  empirical_C is the smallest ratio seen over roles with
    nonzero left side, the leave-one-out ratio; n-way pairwise MMOT
    on the collinear family attains n - 1.  Subsets are scanned in lexicographic order
    straight from the tensor's dense array, one block per smallest index,
    so the scan holds one block at a time.
    """
    rep = MetricReport(nonnegative=True, symmetric=True, triangle=True)
    dense = T.dense
    # NaN (unsampled) compares false
    if (dense < 0).any():
        rep.nonnegative = False
    order = T.order
    # the tails of every block: increasing order-tuples over 1..size-1,
    # lexicographic, so the tails above index i form a suffix
    tails = np.array(list(combinations(range(1, T.size), order)),
                     dtype=np.intp).reshape(-1, order)
    # role r leaves out subset position order - r, matching the order
    # of combinations(subset, order)
    roles = [[p for p in range(order + 1) if p != order - r] for r in range(order + 1)]
    best: float | None = None
    for first in range(T.size - order):
        block = tails[np.searchsorted(tails[:, 0], first, side="right"):]
        subsets = np.column_stack([np.full(len(block), first, dtype=np.intp), block])
        vals = np.column_stack([dense[tuple(subsets[:, p] for p in cols)]
                                for cols in roles])
        full = ~np.isnan(vals).any(axis=1)
        subsets, vals = subsets[full], vals[full]
        rep.n_checked += vals.size
        # left to right, as a scalar sum over the roles would add them
        total = vals[:, 0]
        for r in range(1, order + 1):
            total = total + vals[:, r]
        rhs = total[:, None] - vals
        lhs = C * vals
        for s, r in zip(*np.nonzero(lhs > rhs + TRIANGLE_SLACK)):
            rep.triangle = False
            subset = subsets[s].tolist()
            rep.violations.append({"kind": "triangle", "where": subset,
                                   "lhs": [subset[p] for p in roles[r]],
                                   "margin": float(rhs[s, r] - lhs[s, r])})
        nonzero = vals > ZERO_TOL
        if nonzero.any():
            ratio = float((rhs[nonzero] / vals[nonzero]).min())
            if best is None or ratio < best:
                best = ratio
    rep.empirical_C = best
    return rep


def inject_violations(
    T: DistanceTensor,
    rng: np.random.Generator,
    fraction: float = 0.20,
    factor: float = 1.3,
) -> DistanceTensor:
    """Rewrite sampled entries until `fraction` of them break the C=1 bound.

    Each step draws a fully sampled 4-subset, picks the unlocked triple
    needing the smallest raise to dominate the other three, and raises it
    by factor*delta.  All four triples of a targeted subset are then
    locked against later rewrites: raising a triple that sits on the
    right-hand side of an earlier violation would shrink that violation's
    margin, possibly erasing it.  Raises too small to clear the audit
    slack are skipped.  The fraction counts sampled entries.
    """
    if T.order != 3:
        raise ValueError("inject_violations needs an order-3 tensor")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if not (math.isfinite(factor) and factor > 1.0):
        raise ValueError(f"factor must be finite and exceed 1, got {factor}")
    out = T.copy()
    target = math.ceil(fraction * T.n_sampled)
    if target == 0:
        return out
    # rewrites keep every entry sampled, so one set serves the whole loop
    sampled = set(map(tuple, out.sampled_entries()[0].tolist()))
    locked: set[tuple[int, ...]] = set(out.modified)
    done = 0
    attempts = 0
    max_attempts = 10_000 * max(target, 1)
    while done < target:
        attempts += 1
        if attempts > max_attempts:
            raise ValueError(
                f"could not find enough fully sampled 4-subsets "
                f"(modified {done} of {target})")
        subset = tuple(sorted(rng.choice(T.size, size=4, replace=False).tolist()))
        triples = list(combinations(subset, 3))
        if not all(t in sampled for t in triples):
            continue
        vals = {t: float(out.dense[t]) for t in triples}
        total = sum(vals.values())
        # delta is the raise putting this triple level with the other three;
        # the post-raise margin is (factor-1)*delta, which must beat the
        # slack check_W_tensor grants
        deltas = {t: (total - vals[t]) - vals[t] for t in triples}
        free = [t for t in triples
                if t not in locked
                and (factor - 1.0) * deltas[t] > 10.0 * TRIANGLE_SLACK]
        if not free:
            continue
        t_min = min(free, key=lambda t: (deltas[t], t))
        out.dense[t_min] = vals[t_min] + factor * deltas[t_min]
        out.modified.add(t_min)
        locked.update(triples)
        done += 1
    return out


@dataclass
class GluingResult:
    feasible: bool
    witness: JointMass | None = None


def no_gluing_check(p12: JointMass, p13: JointMass, p23: JointMass) -> GluingResult:
    """Probe for a trivariate mass with the three given bivariate marginals.

    Incompatible univariate marginals raise; a clean Infeasible therefore
    always means the obstruction is genuinely three-dimensional.
    """
    for j, name in ((p12, "p12"), (p13, "p13"), (p23, "p23")):
        if j.entries.ndim != 2:
            raise ValueError(f"{name} must be bivariate")
    m1, m2 = p12.entries.shape
    m1b, m3 = p13.entries.shape
    m2b, m3b = p23.entries.shape
    if m1 != m1b or m2 != m2b or m3 != m3b:
        raise ValueError("bivariate shapes disagree on a shared axis")
    checks = [
        ("axis 1", p12.entries.sum(axis=1), p13.entries.sum(axis=1)),
        ("axis 2", p12.entries.sum(axis=0), p23.entries.sum(axis=1)),
        ("axis 3", p13.entries.sum(axis=0), p23.entries.sum(axis=0)),
    ]
    for name, a, b in checks:
        err = float(np.abs(a - b).max())
        if err > COMPAT_TOL:
            raise ValueError(f"incompatible univariate marginals on {name} "
                             f"(max deviation {err:.3g})")
    # unknowns r[i,j,k] flattened row-major; one row per cell of each
    # bivariate marginal, in the blocks p23, p13, p12
    n = m1 * m2 * m3
    i, j, k = np.unravel_index(np.arange(n), (m1, m2, m3))
    rows = np.concatenate([j * m3 + k, m2 * m3 + i * m3 + k,
                           (m2 + m1) * m3 + i * m2 + j])
    A = sp.csc_array((np.ones(3 * n), (rows, np.tile(np.arange(n), 3))),
                     shape=(m2 * m3 + m1 * m3 + m1 * m2, n))
    b = np.concatenate([p23.entries.ravel(), p13.entries.ravel(),
                        p12.entries.ravel()])
    status, x = lp.feasible(A, b)
    if status != lp.FEASIBLE:
        return GluingResult(False)
    r = np.clip(x, 0.0, None).reshape(m1, m2, m3)
    return GluingResult(True, JointMass(r / r.sum()))
