"""Combinatorial index maps h, h', H^n, H'^n and their exhaustive audits.

The maps route pair/triple index terms into shared buckets; the audits
certify the two properties everything downstream leans on: H^n never
produces the same bucket twice, and H'^n produces at most 5 copies.

Each map is defined once, as a numpy kernel over index arrays. The public
`h`, `h_prime`, `H_n` and `H_prime_n` check their domain and call the
kernel on length-1 arrays, so the audits certify the very map they
return. A routing kernel fills a fixed 4-slot layout per input plus a
keep-mask; the kept slots, read in row-major order, are the routed
triples in emission order. An audit checks every emitted triple with
boolean masks and encodes it as (a*N + b)*N + c, N = n + 2. H^n is
routed in one call; H'^n one r at a time, which bounds memory, keeping
each r's codes (and their maximum multiplicity). The kept codes are
counted with one `np.bincount`, and offending codes are read in
first-emission order with `np.unique`.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "AUDIT_CAP",
    "Triple",
    "h",
    "h_prime",
    "H_n",
    "H_prime_n",
    "audit_H",
    "audit_H_prime",
    "HashAuditReport",
]

AUDIT_CAP = 60


class Triple(NamedTuple):
    a: int
    b: int
    c: int


def _h(i: np.ndarray, n: int) -> np.ndarray:
    # numpy % gives the nonnegative residue like Python's, so h(1) wraps to n
    return 1 + (i - 2) % n


def _h_prime(i: np.ndarray, r: np.ndarray | int, n: int) -> np.ndarray:
    return np.where(i < n, 1 + (i + r - 1) % n, 1 + r % (n - 1))


def _slots(*triples: tuple) -> np.ndarray:
    # each argument is one slot's (a, b, c) columns; result is (m, slots, 3)
    return np.stack([np.stack(t, axis=-1) for t in triples], axis=1)


def _pair_routes(i: np.ndarray, j: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """H^n over index arrays: (m, 4, 3) triples and their (m, 4) keep-mask."""
    hi, hj = _h(i, n), _h(j, n)
    top = np.full_like(i, n + 1)
    # (1, n) sends one triple for h(i); adjacent i, j send one for h(j)
    wrap = (i == 1) & (j == n)
    adjacent = i == j - 1
    slots = _slots(
        (i, np.where(wrap, top, j), hi),
        (j, top, hi),
        (np.where(adjacent, j, i), np.where(adjacent, top, j), hj),
        (i, top, hj),
    )
    kept = np.ones_like(wrap)
    return slots, np.stack([kept, ~wrap, kept, ~adjacent], axis=1)


def _route_half(a: np.ndarray, b: np.ndarray, r: np.ndarray, n: int) -> tuple:
    # one-sided routing; the second triple is skipped when b is already
    # the bucket of (a, r), otherwise both (a,b) and (b,r) get a copy
    c = _h_prime(a, r, n)
    single = b == c
    x = np.where(single, r, b)
    first = (np.minimum(a, x), np.maximum(a, x), c)
    second = (np.minimum(b, r), np.maximum(b, r), c)
    return first, second, ~single


def _triple_routes(i: np.ndarray, j: np.ndarray, r: np.ndarray | int,
                   n: int) -> tuple[np.ndarray, np.ndarray]:
    """H'^n over index arrays: (m, 4, 3) triples and their (m, 4) keep-mask.

    First two components of every triple come out sorted.
    """
    i, j, r = np.broadcast_arrays(i, j, r)
    first_i, second_i, keep_i = _route_half(i, j, r, n)
    first_j, second_j, keep_j = _route_half(j, i, r, n)
    kept = np.ones_like(keep_i)
    return (_slots(first_i, second_i, first_j, second_j),
            np.stack([kept, keep_i, kept, keep_j], axis=1))


def _triples(rows: np.ndarray) -> list[Triple]:
    return [Triple(*t) for t in rows.tolist()]


def _check_n(n: int) -> None:
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")


def _one(i: int) -> np.ndarray:
    return np.array([i], dtype=np.int64)


def h(i: int, n: int) -> int:
    """Bucket index for i in [n]; lands in [n] and never equals i."""
    _check_n(n)
    if not 1 <= i <= n:
        raise ValueError(f"i must be in [1, {n}], got {i}")
    return int(_h(_one(i), n)[0])


def h_prime(i: int, r: int, n: int) -> int:
    """Bucket index for (i, r); lands in [n] and avoids {i, r} for n >= 3."""
    _check_n(n)
    if not 1 <= i <= n:
        raise ValueError(f"i must be in [1, {n}], got {i}")
    if not 1 <= r <= n - 1:
        raise ValueError(f"r must be in [1, {n - 1}], got {r}")
    return int(_h_prime(_one(i), _one(r), n)[0])


def H_n(i: int, j: int, n: int) -> list[Triple]:
    """Route the pair (i, j), i < j <= n, to 2-4 triples over [n+1]."""
    _check_n(n)
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    slots, keep = _pair_routes(_one(i), _one(j), n)
    return _triples(slots[keep])


def H_prime_n(i: int, j: int, r: int, n: int) -> list[Triple]:
    """Route the triple (i, j, r), i < j <= n, r <= n-1, to 2-4 triples.

    First two components of every output triple come out sorted.
    """
    _check_n(n)
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    if not 1 <= r <= n - 1:
        raise ValueError(f"r must be in [1, {n - 1}], got {r}")
    slots, keep = _triple_routes(_one(i), _one(j), _one(r), n)
    return _triples(slots[keep])


@dataclass
class HashAuditReport:
    """Outcome of an exhaustive audit over all admissible inputs."""

    n: int
    total: int
    max_multiplicity: int
    histogram: dict[int, int]
    violations: list[str] = field(default_factory=list)
    # only audit_H_prime fills these: per-r maxima and the pooled witnesses
    per_r_max: dict[int, int] | None = None
    worst_triples: list[Triple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "ok" if self.ok else f"FAILED ({len(self.violations)} violations)"
        return (
            f"n={self.n}: {self.total} triples, "
            f"max multiplicity {self.max_multiplicity}, {status}"
        )


def _audit_cap(n: int) -> None:
    _check_n(n)
    if n > AUDIT_CAP:
        raise ValueError(f"audit cap is n <= {AUDIT_CAP}, got {n}")


def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    # every 1 <= i < j <= n, i-major like the nested loop
    i, j = np.triu_indices(n, k=1)
    return i + 1, j + 1


def _emit(slots: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kept triples as an (m, 3) array in emission order, with each one's input row."""
    return slots[keep], np.nonzero(keep)[0]


def _flag(tri: np.ndarray, checks: list[tuple[np.ndarray, str]],
          source: Callable[[int], str]) -> list[str]:
    """One message per failed check, by emitted row, then by check order."""
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    out = []
    for k in np.flatnonzero(bad).tolist():
        t = Triple(*tri[k].tolist())
        out.extend(f"{t} from {source(k)}: {label}"
                   for mask, label in checks if mask[k])
    return out


def _codes(tri: np.ndarray, n: int) -> np.ndarray:
    size = n + 2
    if tri.size and (tri.min() < 0 or tri.max() >= size):
        k = int(np.flatnonzero(((tri < 0) | (tri >= size)).any(axis=1))[0])
        raise ValueError(f"routed triple {Triple(*tri[k].tolist())} has a component "
                         f"outside [0, {n + 1}] and cannot be counted")
    return (tri[:, 0] * size + tri[:, 1]) * size + tri[:, 2]


def _decode(codes: np.ndarray, n: int) -> list[Triple]:
    size = n + 2
    ab, c = np.divmod(codes, size)
    a, b = np.divmod(ab, size)
    return _triples(np.column_stack([a, b, c]))


def _first_emitted(codes: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Codes with `wanted[code]` set, in the order `codes` first emits them."""
    hit = codes[wanted[codes]]
    _, first = np.unique(hit, return_index=True)
    return hit[np.sort(first)]


def _histogram(counts: np.ndarray) -> dict[int, int]:
    return {k: v for k, v in enumerate(np.bincount(counts).tolist()) if k and v}


def audit_H(n: int) -> HashAuditReport:
    """Exhaustively audit H^n: no duplicate triples, components in range."""
    _audit_cap(n)
    i, j = _pairs(n)
    tri, row = _emit(*_pair_routes(i, j, n))
    a, b, c = tri.T
    violations = _flag(tri, [
        (~((1 <= a) & (a < b) & (b <= n + 1)), "first two out of range"),
        (~((1 <= c) & (c <= n)), "third out of range"),
        ((c == a) | (c == b), "bucket collides"),
    ], lambda k: f"({i[row[k]]},{j[row[k]]})")
    codes = _codes(tri, n)
    counts = np.bincount(codes, minlength=(n + 2) ** 3)
    max_mult = int(counts.max())
    if max_mult > 1:
        dups = _first_emitted(codes, counts > 1)
        violations += [f"duplicate triple {t} appears {counts[d]} times"
                       for d, t in zip(dups.tolist(), _decode(dups, n))]
    return HashAuditReport(
        n=n,
        total=len(codes),
        max_multiplicity=max_mult,
        histogram=_histogram(counts),
        violations=violations,
    )


def audit_H_prime(n: int) -> HashAuditReport:
    """Exhaustively audit H'^n: at most 5 copies of any triple.

    Multiplicities are pooled over r (the bound is about the full
    collation); the report also carries the per-r maxima.
    """
    _audit_cap(n)
    i, j = _pairs(n)
    per_r_max: dict[int, int] = {}
    violations: list[str] = []
    codes = []
    # one r at a time bounds the routing working set to C(n, 2) inputs
    for r in range(1, n):
        tri, row = _emit(*_triple_routes(i, j, r, n))
        a, b, c = tri.T
        violations += _flag(tri, [
            (~((1 <= a) & (a <= b) & (b <= n)), "out of range"),
            (~((1 <= c) & (c <= n)), "bucket out of range"),
            # at n=2 the wrap h'(2,1)=1 collides with r and the
            # exclusion is vacuous; it holds for every n >= 3
            (((c == a) | (c == b)) & (n >= 3), "bucket collides"),
        ], lambda k: f"({i[row[k]]},{j[row[k]]},{r})")
        codes.append(_codes(tri, n))
        per_r_max[r] = int(np.bincount(codes[-1]).max())
    codes = np.concatenate(codes)
    pooled = np.bincount(codes, minlength=(n + 2) ** 3)
    max_mult = int(pooled.max())
    if max_mult > 5:
        offenders = _first_emitted(codes, pooled > 5)
        violations.append(f"multiplicity {max_mult} > 5 for {_decode(offenders[:5], n)}")
    worst = np.flatnonzero(pooled == max_mult)[:10]
    return HashAuditReport(
        n=n,
        total=len(codes),
        max_multiplicity=max_mult,
        histogram=_histogram(pooled),
        violations=violations,
        per_r_max=per_r_max,
        worst_triples=_decode(worst, n),
    )
