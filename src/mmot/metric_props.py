"""Metric property audits, empirical C estimation, violation injection.

Covers four jobs: exhaustive metric checks on pairwise costs, the
generalized (n, C)-metric check on a shared cost tensor, the same check
on a sampled tensor of transport values of any order, and the
feasibility probe for reconstructing a joint from three bivariate
masses.

A `DistanceTensor`'s `sampled_entries()` lists its sampled keys and values
as arrays, and its csv reader parses with one `np.loadtxt`.  The audits
build their violation records through one owner, `MetricReport.fail`, one
record per row in row order.  `check_W_tensor` holds one block of subsets
at a time.  `_full_draws` is the one function that draws 4-subsets.
"""
from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from itertools import combinations, permutations
from typing import Callable, Iterator, NoReturn, Sequence

import numpy as np

from . import lp
from .core import JointMass, check_cells, same_atoms
from .transport import SENTINEL_COST, PairwiseCost, marginal_constraints

__all__ = [
    "DistanceTensor",
    "MetricReport",
    "GluingResult",
    "check_metric",
    "check_n_metric_cost",
    "check_W_tensor",
    "inject_violations",
    "no_gluing_check",
]

ZERO_TOL = 1e-12
TRIANGLE_SLACK = 1e-8
COMPAT_TOL = 1e-9
# the violation kind a failure of each MetricReport property is recorded under
_KIND = {"nonnegative": "nonnegativity", "identity": "identity",
         "symmetric": "symmetry", "triangle": "triangle"}


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
        check_cells(int(size) ** order, f"a tensor of order {order} over {size} objects")
        self.order = order
        self.size = size
        self.dense = np.full((size,) * order, np.nan)
        self.modified: set[tuple[int, ...]] = set()

    def _key(self, idx: Sequence[int]) -> tuple[int, ...]:
        if len(idx) != self.order:
            raise ValueError(f"expected {self.order} indices, got {len(idx)}")
        # int() would truncate 1.5 and overflow on inf; both are refused here
        key = sorted(map(int, filter(math.isfinite, idx)))
        if key != sorted(idx):
            raise ValueError(f"indices must be integers, got {tuple(idx)}")
        if len(set(key)) != self.order:
            raise ValueError(f"indices must be distinct, got {tuple(idx)}")
        if key[0] < 0 or key[-1] >= self.size:
            raise ValueError(f"index out of range for size {self.size}: {tuple(idx)}")
        return tuple(key)

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
        # every increasing tuple is written, unsampled ones with flag 0 and
        # value SENTINEL_COST, so the file fully determines (order, size)
        keys = list(combinations(range(self.size), self.order))
        vals = self.dense[tuple(np.array(keys).T)]
        flags = ~np.isnan(vals)
        vals[~flags] = SENTINEL_COST
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

    def fail(self, prop: str, where: np.ndarray, margin: np.ndarray,
             lhs: np.ndarray | None = None, lead: tuple[int, ...] = ()) -> None:
        """Record a violation of `prop` per row of `where`, led by `lead`, in row order.

        The one writer of violation records; any row clears `prop`.  A dict
        literal per row builds twice as fast as dict(zip(...)) on scans
        with tens of thousands of violations.
        """
        if len(where):
            setattr(self, prop, False)
        if lead:
            where = np.hstack([np.tile(lead, (len(where), 1)), where])
        kind, rows, margins = _KIND[prop], where.tolist(), margin.tolist()
        if lhs is None:
            self.violations.extend({"kind": kind, "where": w, "margin": m}
                                   for w, m in zip(rows, margins))
        else:
            self.violations.extend({"kind": kind, "where": w, "lhs": left, "margin": m}
                                   for w, left, m in zip(rows, lhs.tolist(), margins))


def check_metric(
    d: PairwiseCost | Mapping[tuple, np.ndarray],
    atoms: Sequence[np.ndarray],
) -> MetricReport:
    """Exhaustively audit nonnegativity, symmetry, identity, triangle.

    `atoms[i]` is the support of space i; the matrix of pair (i, j) is
    over the atoms of space i by those of space j.  A raw pair->matrix
    dict is accepted so the audit can run on data the strict container
    would reject (that rejection is itself what gets audited), NaN and inf aside.
    """
    pairs = ((k, d.get(*k)) for k in d.pairs) if isinstance(d, PairwiseCost) else d.items()
    raw = {tuple(k): np.asarray(v, dtype=float) for k, v in pairs}
    for (i, j), m in raw.items():
        # NaN compares false, so every check below would pass over it; inf - inf is NaN
        if not np.isfinite(m).all():
            what = "a NaN" if np.isnan(m).any() else "an infinite"
            raise ValueError(f"cost for pair ({i},{j}) has {what} cell")

    def get(i: int, j: int) -> np.ndarray:
        return raw[(i, j)] if (i, j) in raw else raw[(j, i)].T

    present = {tuple(sorted(k)) for k in raw}
    rep = MetricReport(nonnegative=True, identity=True, symmetric=True, triangle=True)
    for (i, j) in sorted(present):
        m = get(i, j)
        rep.n_checked += m.size
        neg = m < 0
        rep.fail("nonnegative", np.argwhere(neg), m[neg], lead=(i, j))
        # a matrix stored both ways, a self-pair included, must equal its own transpose
        if ((i, j) in raw and (j, i) in raw
                and not np.allclose(m, raw[(j, i)].T, rtol=0.0, atol=ZERO_TOL)):
            rep.fail("symmetric", np.array([[i, j]]), np.zeros(1))
        same = same_atoms(atoms[i], atoms[j])
        if same.shape != m.shape:
            raise ValueError(f"cost for pair ({i},{j}) has shape {m.shape}, "
                             f"supports have {same.shape}")
        bad = same != (np.abs(m) <= ZERO_TOL)
        rep.fail("identity", np.argwhere(bad), m[bad], lead=(i, j))
    for i, j, k in permutations(range(len(atoms)), 3):
        if not all(tuple(sorted(p)) in present for p in ((i, j), (i, k), (k, j))):
            continue
        a, kj = get(i, j), get(k, j)
        # min-plus product: cheapest detour through space k, one row of space i
        # at a time, so no m_i x m_k x m_j temporary is ever built
        detour = np.empty(a.shape)
        for row, ik in enumerate(get(i, k)):
            np.min(ik[:, None] + kj, axis=0, out=detour[row])
        rep.n_checked += a.size
        bad = a > detour + TRIANGLE_SLACK
        rep.fail("triangle", np.argwhere(bad), (a - detour)[bad], lead=(i, j, k))
    return rep


def _check_bound(C: float) -> None:
    # NaN compares false and a bound with C <= 0 always holds: either passes every audit
    if not (math.isfinite(C) and C > 0):
        raise ValueError(f"C must be finite and positive, got {C}")


def check_n_metric_cost(
    cost: np.ndarray,
    atoms: np.ndarray,
    C: float = 1.0,
) -> MetricReport:
    """Audit the four generalized-metric properties of a shared cost tensor.

    `cost` is an n-way array over one common support; the generalized
    triangle inequality is scanned over every (n+1)-tuple of indices.
    """
    _check_bound(C)
    cost = np.asarray(cost, dtype=float)
    n = cost.ndim
    m = len(atoms)
    if cost.shape != (m,) * n:
        raise ValueError(f"cost shape {cost.shape} does not match {m} atoms")
    check_cells(m ** (n + 1), f"a triangle scan over {m} ** {n + 1} indices")
    bad = np.argwhere(~np.isfinite(cost))
    if len(bad):
        cell = tuple(bad[0].tolist())
        raise ValueError(f"cost is {'NaN' if np.isnan(cost[cell]) else cost[cell]} at cell {cell}")
    rep = MetricReport(nonnegative=True, identity=True, symmetric=True, triangle=True)
    rep.n_checked += cost.size
    neg = cost < 0
    rep.fail("nonnegative", np.argwhere(neg), cost[neg])
    # the n - 1 adjacent transpositions generate every permutation, so exact
    # equality under them is exact symmetry; allclose is not transitive, so
    # any other cost takes the per-permutation scan
    if not all(np.array_equal(cost, np.swapaxes(cost, t, t + 1)) for t in range(n - 1)):
        perms = np.array(list(permutations(range(n))))
        asym = [not np.allclose(cost, cost.transpose(p), rtol=0.0, atol=ZERO_TOL)
                for p in perms]
        rep.fail("symmetric", perms[asym], np.zeros(sum(asym)))
    # a cell's atoms are "all equal" when each coincides with the first
    same = same_atoms(atoms, atoms)
    all_equal = np.ones(cost.shape, dtype=bool)
    for t in range(1, n):
        all_equal &= np.expand_dims(same, [a for a in range(n) if a not in (0, t)])
    bad = all_equal != (np.abs(cost) <= ZERO_TOL)
    rep.fail("identity", np.argwhere(bad), cost[bad])
    lhs = C * np.expand_dims(cost, n)
    rhs = np.zeros((m,) * (n + 1))
    for r in range(1, n + 1):
        rhs = rhs + np.expand_dims(cost, r - 1)
    rep.n_checked += rhs.size
    gap = rhs - lhs
    bad = gap < -ZERO_TOL
    rep.fail("triangle", np.argwhere(bad), gap[bad])
    denom_ok = np.expand_dims(cost, n) > ZERO_TOL
    if np.any(denom_ok):
        ratios = np.where(denom_ok, rhs / np.maximum(np.expand_dims(cost, n), ZERO_TOL),
                          np.inf)
        rep.empirical_C = float(ratios.min())
    return rep


def _face_rhs(vals: np.ndarray) -> np.ndarray:
    """Per subset row, each face column's right-hand side: the others summed left to right."""
    total = vals[:, 0]
    for r in range(1, vals.shape[1]):
        total = total + vals[:, r]
    return total[:, None] - vals


def _roles(order: int) -> np.ndarray:
    """Per role r, the subset positions of its entry: all but position order - r.

    This matches the order of combinations(subset, order).
    """
    return np.array([[p for p in range(order + 1) if p != order - r]
                     for r in range(order + 1)], dtype=np.intp)


def _faces(dense: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Per subset row, the entries of its faces in `_roles` order, one column per face."""
    return np.column_stack([dense[tuple(subsets[:, p] for p in cols)]
                            for cols in _roles(dense.ndim)])


def _full_subsets(T: DistanceTensor) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each fully sampled (order+1)-subset and its entries by role, one block per smallest index.

    Subsets come in lexicographic order straight from the tensor's dense
    array, so a scan holds one block at a time.
    """
    order = T.order
    # the tails of every block: increasing order-tuples over 1..size-1,
    # lexicographic, so the tails above index i form a suffix
    tails = np.array(list(combinations(range(1, T.size), order)),
                     dtype=np.intp).reshape(-1, order)
    for first in range(T.size - order):
        block = tails[np.searchsorted(tails[:, 0], first, side="right"):]
        subsets = np.column_stack([np.full(len(block), first, dtype=np.intp), block])
        vals = _faces(T.dense, subsets)
        full = ~np.isnan(vals).any(axis=1)
        yield subsets[full], vals[full]


def check_W_tensor(T: DistanceTensor, C: float = 1.0) -> MetricReport:
    """Scan every fully sampled (order+1)-subset for generalized triangle failures.

    Each entry of a subset is checked against the sum of the others: the
    classical triangle inequality for order 2, the generalized one from
    order 3 up.  empirical_C is the smallest ratio seen over roles with
    nonzero left side, the leave-one-out ratio; n-way pairwise MMOT
    on the collinear family attains n - 1.  Subsets are scanned in lexicographic order
    by `_full_subsets`, so the scan holds one block at a time.
    """
    _check_bound(C)
    rep = MetricReport(nonnegative=True, symmetric=True, triangle=True)
    # NaN (unsampled) compares false
    if (T.dense < 0).any():
        rep.nonnegative = False
    roles = _roles(T.order)
    best: float | None = None
    for subsets, vals in _full_subsets(T):
        rep.n_checked += vals.size
        rhs = _face_rhs(vals)
        lhs = C * vals
        # one record per violation, in subset then role order
        s, r = np.nonzero(lhs > rhs + TRIANGLE_SLACK)
        where = subsets[s]
        rep.fail("triangle", where, rhs[s, r] - lhs[s, r],
                 lhs=np.take_along_axis(where, roles[r], axis=1))
        nonzero = vals > ZERO_TOL
        if nonzero.any():
            ratio = float((rhs[nonzero] / vals[nonzero]).min())
            if best is None or ratio < best:
                best = ratio
    rep.empirical_C = best
    return rep


# rejection draws per batch in _full_draws: 2048 rows of 7 int64 draws,
# about 0.25 MB of scratch arrays at a time
_DRAW_BATCH = 2048


def _full_draws(rng: np.random.Generator, dense: np.ndarray,
                limit: int) -> Iterator[tuple[int, ...]]:
    """The fully sampled rows among `limit` sorted `rng.choice(n, 4, replace=False)` draws.

    numpy draws a sample this small by Floyd's algorithm: one bounded draw
    on [0, j] for each j = n-4 .. n-1, a value already picked replaced by
    j, then a shuffle drawing on [0, 3], [0, 2] and [0, 1].  One
    `rng.integers` call per `_DRAW_BATCH` draws makes the same seven draws
    from the same stream; sorting makes the shuffle's order irrelevant.
    Rows with every face sampled are yielded in draw order as int tuples.
    A batch is drawn only once the previous one is used up, so a consumer
    that stops leaves the generator at the end of its last row's batch,
    and one that reads all `limit` draws leaves it where the scalar loop does.
    """
    n = dense.shape[0]
    bounds = np.array([n - 3, n - 2, n - 1, n, 4, 3, 2])
    for start in range(0, limit, _DRAW_BATCH):
        picks = rng.integers(0, bounds, size=(min(_DRAW_BATCH, limit - start), 7))[:, :4]
        for c in range(1, 4):
            seen = (picks[:, :c] == picks[:, c:c + 1]).any(axis=1)
            picks[:, c] = np.where(seen, n - 4 + c, picks[:, c])
        subsets = np.sort(picks, axis=1)
        full = ~np.isnan(_faces(dense, subsets)).any(axis=1)
        yield from map(tuple, subsets[full].tolist())


def inject_violations(
    T: DistanceTensor,
    rng: np.random.Generator,
    fraction: float,
    factor: float,
) -> DistanceTensor:
    """Rewrite sampled entries until `fraction` of them break the C=1 bound.

    Each step draws a fully sampled 4-subset, picks the unlocked triple
    needing the smallest raise to dominate the other three, and raises it
    by factor*delta.  All four triples of a targeted subset are then
    locked against later rewrites: raising a triple that sits on the
    right-hand side of an earlier violation would shrink that violation's
    margin, possibly erasing it.  Raises too small to clear the audit
    slack are skipped.  The fraction counts sampled entries.  It gives up
    after 10,000 draws per target rewrite.

    The 4-subsets come from `_full_draws`, so they and the output are those
    of one `rng.choice(T.size, 4, replace=False)` per draw.  The generator
    is left at the end of the `_DRAW_BATCH`-draw batch holding the draw
    that met the target or raised, or after all the draws on a give-up.
    """
    if T.order != 3:
        raise ValueError("inject_violations needs an order-3 tensor")
    if T.size < 4:
        raise ValueError(f"inject_violations needs at least 4 objects to draw "
                         f"4-subsets from, got {T.size}")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if not (math.isfinite(factor) and factor > 1.0):
        raise ValueError(f"factor must be finite and exceed 1, got {factor}")
    out = T.copy()
    target = math.ceil(fraction * T.n_sampled)
    if target == 0:
        return out
    locked: set[tuple[int, ...]] = set(out.modified)
    done = 0
    max_attempts = 10_000 * target
    for subset in _full_draws(rng, out.dense, max_attempts):
        triples = list(combinations(subset, 3))
        vals = out.dense[tuple(np.array(triples).T)]
        # delta is the raise putting this triple level with the other three;
        # the post-raise margin is (factor-1)*delta, which must beat the
        # slack check_W_tensor grants
        deltas = dict(zip(triples, (_face_rhs(vals[None])[0] - vals).tolist()))
        free = [t for t in triples
                if t not in locked
                and (factor - 1.0) * deltas[t] > 10.0 * TRIANGLE_SLACK]
        if not free:
            continue
        t_min = min(free, key=lambda t: (deltas[t], t))
        raised = out.dense[t_min] + factor * deltas[t_min]
        if not math.isfinite(raised):
            raise ValueError(f"raising triple {t_min} by factor {factor} "
                             f"gives {raised}, not a finite value")
        out.dense[t_min] = raised
        out.modified.add(t_min)
        locked.update(triples)
        done += 1
        if done == target:
            return out
    n_full = sum(len(subsets) for subsets, _ in _full_subsets(out))
    n_subsets = math.comb(T.size, 4)
    hint = ("sample the tensor with --sampling blocks" if n_full < n_subsets else
            "every 4-subset is fully sampled, so too few unlocked triples have a "
            "raise that clears the audit slack; ask for a lower --fraction")
    raise ValueError(
        f"could not find enough fully sampled 4-subsets in {max_attempts} draws; "
        f"{n_full} of the tensor's {n_subsets} 4-subsets are fully sampled "
        f"(modified {done} of {target}); {hint}")


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
    check_cells(cells := m1 * m2 * m3, "a trivariate mass")
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
    A = marginal_constraints((m1, m2, m3), np.arange(cells),
                             blocks=[(1, 2), (0, 2), (0, 1)])
    b = np.concatenate([p23.entries.ravel(), p13.entries.ravel(),
                        p12.entries.ravel()])
    status, x = lp.feasible(A, b)
    if status != lp.FEASIBLE:
        return GluingResult(False)
    r = np.clip(x, 0.0, None).reshape(m1, m2, m3)
    return GluingResult(True, JointMass(r))
