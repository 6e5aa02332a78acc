"""Exact oracles for the dense DistanceTensor: the same jobs over a dict and a set.

`DictTensor` keeps the values in a dict and the sampled keys in a set,
and writes and reads the same csv format.  `build_hypergraph_oracle`,
`default_grid_oracle` and `inject_oracle` are build_hypergraph,
tune_threshold's default grid and inject_violations written against it.
The tests require the array code in `mmot` to give exactly their
results.  `leave_one_out_ratios` is the ratio check_W_tensor minimizes,
over one (order+1)-subset held in a dict.
"""
import math
from itertools import combinations

import numpy as np

from mmot.metric_props import TRIANGLE_SLACK, ZERO_TOL, DistanceTensor
from mmot.transport import SENTINEL_COST


class DictTensor:
    """Values in a dict keyed by increasing index tuples, the sampled keys in a set."""

    def __init__(self, order, size):
        if order < 2:
            raise ValueError(f"order must be at least 2, got {order}")
        if size < order:
            raise ValueError(f"size {size} is too small for order {order}")
        self.order = order
        self.size = size
        self.values = {}
        self.sampled = set()
        self.modified = set()

    def _key(self, idx):
        if len(idx) != self.order:
            raise ValueError(f"expected {self.order} indices, got {len(idx)}")
        key = tuple(sorted(int(i) for i in idx))
        if len(set(key)) != self.order:
            raise ValueError(f"indices must be distinct, got {tuple(idx)}")
        if key[0] < 0 or key[-1] >= self.size:
            raise ValueError(f"index out of range for size {self.size}: {tuple(idx)}")
        return key

    def set(self, idx, value):
        v = float(value)
        if not math.isfinite(v) or v < 0:
            raise ValueError(f"value must be finite and nonnegative, got {value}")
        key = self._key(idx)
        self.values[key] = v
        self.sampled.add(key)

    def all_keys(self):
        return combinations(range(self.size), self.order)

    def copy(self):
        out = DictTensor(self.order, self.size)
        out.values = dict(self.values)
        out.sampled = set(self.sampled)
        out.modified = set(self.modified)
        return out

    def to_csv(self, path):
        with open(path, "w") as fh:
            for key in self.all_keys():
                value = self.values.get(key, SENTINEL_COST)
                flag = 1 if key in self.sampled else 0
                fh.write(",".join(str(i) for i in key) + f",{value!r},{flag}\n")

    @classmethod
    def from_csv(cls, path):
        rows = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) < 4:
                    raise ValueError(f"{path}:{lineno}: expected at least 4 fields")
                try:
                    idx = tuple(int(p) for p in parts[:-2])
                    value = float(parts[-2])
                    flag = int(parts[-1])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                if flag not in (0, 1):
                    raise ValueError(f"{path}:{lineno}: sampled flag must be 0 or 1")
                rows.append((idx, value, flag))
        if not rows:
            raise ValueError(f"{path}: empty tensor file")
        order = len(rows[0][0])
        size = 1 + max(max(idx) for idx, _, _ in rows)
        out = cls(order, size)
        for idx, value, flag in rows:
            if len(idx) != order:
                raise ValueError(f"{path}: inconsistent index arity")
            if flag:
                out.set(idx, value)
        return out


def build_hypergraph_oracle(T, threshold):
    """The surviving hyperedges as a tuple of (key, weight), keys sorted."""
    if T.order != 3:
        raise ValueError(f"need an order-3 tensor, got order {T.order}")
    edges = tuple(
        (key, T.values[key]) for key in sorted(T.sampled) if T.values[key] <= threshold
    )
    if not edges:
        raise ValueError(f"no hyperedges survive threshold {threshold}")
    return edges


def default_grid_oracle(T):
    """tune_threshold's grid when none is given: deciles 0.1 to 1.0 of the sampled values."""
    sampled = np.array([T.values[key] for key in sorted(T.sampled)])
    if sampled.size == 0:
        raise ValueError("tensor has no sampled entries to build a grid from")
    return np.quantile(sampled, np.linspace(0.1, 1.0, 10)).tolist()


def inject_oracle(T, rng, fraction=0.20, factor=1.3):
    """inject_violations over a DictTensor, one rejection draw at a time."""
    if T.order != 3:
        raise ValueError("inject_violations needs an order-3 tensor")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if factor <= 1.0:
        raise ValueError(f"factor must exceed 1, got {factor}")
    out = T.copy()
    target = math.ceil(fraction * len(T.sampled))
    if target == 0:
        return out
    locked = set(out.modified)
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
        if not all(t in out.sampled for t in triples):
            continue
        vals = {t: out.values[t] for t in triples}
        total = sum(vals.values())
        deltas = {t: (total - vals[t]) - vals[t] for t in triples}
        free = [t for t in triples
                if t not in locked
                and (factor - 1.0) * deltas[t] > 10.0 * TRIANGLE_SLACK]
        if not free:
            continue
        t_min = min(free, key=lambda t: (deltas[t], t))
        out.values[t_min] = vals[t_min] + factor * deltas[t_min]
        out.modified.add(t_min)
        locked.update(triples)
        done += 1
    return out


def leave_one_out_ratios(values, universe):
    """Ratios (sum of the other leave-one-outs) / (this leave-one-out).

    `values` maps each size-(k-1) subset of `universe` (sorted tuples) to
    its transport value; near-zero denominators are skipped.
    """
    uni = sorted(universe)
    ratios = {}
    for x in uni:
        denom_key = tuple(v for v in uni if v != x)
        denom = values[denom_key]
        if denom <= ZERO_TOL:
            continue
        num = 0.0
        for y in uni:
            if y == x:
                continue
            num += values[tuple(v for v in uni if v != y)]
        ratios[denom_key] = num / denom
    return ratios


# values whose shortest round-trip repr needs all 17 significant digits
SEVENTEEN_DIGITS = (0.30000000000000004, 2.0000000000000004, 1.0000000000000002)


def random_pair(order, size, rng, p_sampled):
    """The same random tensor as (DistanceTensor, DictTensor).

    Some entries are unsampled, some exactly 0, some SENTINEL_COST, some
    need 17 digits to print, and the rest are full-mantissa uniforms.
    """
    dense, ref = DistanceTensor(order, size), DictTensor(order, size)
    for key in combinations(range(size), order):
        if rng.random() >= p_sampled:
            continue
        kind = rng.random()
        if kind < 0.1:
            v = 0.0
        elif kind < 0.15:
            v = SENTINEL_COST
        elif kind < 0.25:
            v = SEVENTEEN_DIGITS[int(rng.integers(len(SEVENTEEN_DIGITS)))]
        else:
            v = float(rng.uniform(0.0, 3.0))
        dense.set(key, v)
        ref.set(key, v)
    return dense, ref


def random_pairs():
    """Order-2 and order-3 cases, fully and partly sampled."""
    rng = np.random.default_rng(31)
    return [random_pair(order, size, rng, p)
            for order, size in ((2, 8), (2, 15), (3, 7), (3, 11))
            for p in (1.0, 0.85, 0.5)]
