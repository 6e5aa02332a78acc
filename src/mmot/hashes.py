"""Combinatorial index maps h, h', H^n, H'^n and their exhaustive audits.

The maps route pair/triple index terms into shared buckets; the audits
certify the two properties everything downstream leans on: H^n never
produces the same bucket twice, and H'^n produces at most 5 copies.

Each map is defined once, as a numpy kernel over index arrays. The
public `h`, `h_prime`, `H_n` and `H_prime_n` check their domain
(integers, not `bool`, in range) and call the kernel on length-1 int64
arrays, so the audits certify the very map they return. A routing kernel
returns per-slot columns a, b, c and a keep-mask, each (m, 4); the kept
slots, read in row-major order, are the routed triples in emission
order. An audit checks the kept slots with boolean masks and encodes
each as (a*N + b)*N + c, N = n + 2, in int32, which is exact for n <=
AUDIT_CAP. H^n is routed in one call; H'^n in chunks of whole r, at most
`_ROUTE_BATCH` routed inputs per call, which bounds memory. The kept
codes are counted with `np.bincount`, H'^n's chunk by chunk into one
pooled count, and offending codes are read in first-emission order with
`np.unique`.
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
# routed inputs per H'^n kernel call (at least one whole r): each call
# holds a few (m, 4) int32 columns of 128 KB each at 8,192 rows
_ROUTE_BATCH = 8192


class Triple(NamedTuple):
    a: int
    b: int
    c: int


def _h(i: np.ndarray, n: int) -> np.ndarray:
    # numpy % gives the nonnegative residue like Python's, so h(1) wraps to n
    return 1 + (i - 2) % n


def _h_prime(i: np.ndarray, r: np.ndarray | int, n: int) -> np.ndarray:
    return np.where(i < n, 1 + (i + r - 1) % n, 1 + r % (n - 1))


def _pair_routes(i: np.ndarray, j: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """H^n over index arrays: per-slot columns a, b, c and keep-mask, each (m, 4)."""
    hi, hj = _h(i, n), _h(j, n)
    top = np.full_like(i, n + 1)
    # (1, n) sends one triple for h(i); adjacent i, j send one for h(j)
    wrap = (i == 1) & (j == n)
    adjacent = i == j - 1
    kept = np.ones_like(wrap)
    return (np.stack([i, j, np.where(adjacent, j, i), i], axis=1),
            np.stack([np.where(wrap, top, j), top, np.where(adjacent, top, j), top], axis=1),
            np.stack([hi, hi, hj, hj], axis=1),
            np.stack([kept, ~wrap, kept, ~adjacent], axis=1))


def _triple_routes(i: np.ndarray, j: np.ndarray, r: np.ndarray | int,
                   n: int) -> tuple[np.ndarray, ...]:
    """H'^n over index arrays: per-slot columns a, b, c and keep-mask, each (m, 4).

    Slots 0-1 are routed to the bucket h'(i, r), slots 2-3 to h'(j, r).
    First two components of every triple come out sorted.
    """
    i, j, r = np.broadcast_arrays(i, j, r)
    # (m, 2) halves: column 0 routes i's bucket, column 1 routes j's
    a, b, r = np.stack([i, j], axis=1), np.stack([j, i], axis=1), r[:, None]
    c = _h_prime(a, r, n)
    # the second triple is skipped when b is already the bucket of (a, r),
    # otherwise both (a, b) and (b, r) get a copy
    single = b == c
    x = np.where(single, r, b)

    def slots(first, second):
        return np.stack([first, second], axis=2).reshape(len(i), 4)

    return (slots(np.minimum(a, x), np.minimum(b, r)),
            slots(np.maximum(a, x), np.maximum(b, r)),
            slots(c, c),
            slots(np.ones_like(single), ~single))


def _triples(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> list[Triple]:
    return [Triple(*t) for t in zip(a.tolist(), b.tolist(), c.tolist())]


def _kept(a: np.ndarray, b: np.ndarray, c: np.ndarray, keep: np.ndarray) -> list[Triple]:
    return _triples(a[keep], b[keep], c[keep])


def _check_n(n: int, **indices: int) -> None:
    for name, v in {"n": n, **indices}.items():
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {v!r}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")


def _one(i: int) -> np.ndarray:
    return np.array([i], dtype=np.int64)


def h(i: int, n: int) -> int:
    """Bucket index for i in [n]; lands in [n] and never equals i."""
    _check_n(n, i=i)
    if not 1 <= i <= n:
        raise ValueError(f"i must be in [1, {n}], got {i}")
    return int(_h(_one(i), n)[0])


def h_prime(i: int, r: int, n: int) -> int:
    """Bucket index for (i, r); lands in [n] and avoids {i, r} for n >= 3."""
    _check_n(n, i=i, r=r)
    if not 1 <= i <= n:
        raise ValueError(f"i must be in [1, {n}], got {i}")
    if not 1 <= r <= n - 1:
        raise ValueError(f"r must be in [1, {n - 1}], got {r}")
    return int(_h_prime(_one(i), _one(r), n)[0])


def H_n(i: int, j: int, n: int) -> list[Triple]:
    """Route the pair (i, j), i < j <= n, to 2-4 triples over [n+1]."""
    _check_n(n, i=i, j=j)
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    return _kept(*_pair_routes(_one(i), _one(j), n))


def H_prime_n(i: int, j: int, r: int, n: int) -> list[Triple]:
    """Route the triple (i, j, r), i < j <= n, r <= n-1, to 2-4 triples.

    First two components of every output triple come out sorted.
    """
    _check_n(n, i=i, j=j, r=r)
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    if not 1 <= r <= n - 1:
        raise ValueError(f"r must be in [1, {n - 1}], got {r}")
    return _kept(*_triple_routes(_one(i), _one(j), _one(r), n))


@dataclass
class HashAuditReport:
    """Outcome of an exhaustive audit over all admissible inputs."""

    n: int
    total: int
    max_multiplicity: int
    violations: list[str] = field(default_factory=list)
    # only audit_H_prime fills this: the pooled witnesses
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
    # every 1 <= i < j <= n, i-major like the nested loop; int32 keeps the
    # audit's codes exact, since they stay below (AUDIT_CAP + 2) ** 3
    i, j = np.triu_indices(n, k=1)
    return (i + 1).astype(np.int32), (j + 1).astype(np.int32)


def _slot(a: np.ndarray, b: np.ndarray, c: np.ndarray, k: int) -> Triple:
    return Triple(*(int(x.flat[k]) for x in (a, b, c)))


def _flag(a: np.ndarray, b: np.ndarray, c: np.ndarray, keep: np.ndarray,
          checks: list[tuple[np.ndarray, str]], source: Callable[[int], str]) -> list[str]:
    """One message per failed check on a kept slot, by emission, then by check order."""
    bad = keep & np.logical_or.reduce([mask for mask, _ in checks])
    out = []
    for k in np.flatnonzero(bad).tolist():
        t = _slot(a, b, c, k)
        out.extend(f"{t} from {source(k // keep.shape[1])}: {label}"
                   for mask, label in checks if mask.flat[k])
    return out


def _codes(a: np.ndarray, b: np.ndarray, c: np.ndarray, keep: np.ndarray,
           n: int) -> np.ndarray:
    """Kept slots' codes (a*N + b)*N + c, N = n + 2, in emission order."""
    size = n + 2
    outside = keep & ((a < 0) | (a >= size) | (b < 0) | (b >= size) | (c < 0) | (c >= size))
    if outside.any():
        k = int(np.flatnonzero(outside)[0])
        raise ValueError(f"routed triple {_slot(a, b, c, k)} has a "
                         f"component outside [0, {n + 1}] and cannot be counted")
    return ((a * size + b) * size + c)[keep]


def _decode(codes: np.ndarray, n: int) -> list[Triple]:
    size = n + 2
    ab, c = np.divmod(codes, size)
    return _triples(*np.divmod(ab, size), c)


def _first_emitted(codes: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Codes with `wanted[code]` set, in the order `codes` first emits them."""
    hit = codes[wanted[codes]]
    _, first = np.unique(hit, return_index=True)
    return hit[np.sort(first)]


def audit_H(n: int) -> HashAuditReport:
    """Exhaustively audit H^n: no duplicate triples, components in range."""
    _audit_cap(n)
    i, j = _pairs(n)
    a, b, c, keep = routes = _pair_routes(i, j, n)
    violations = _flag(*routes, [
        (~((1 <= a) & (a < b) & (b <= n + 1)), "first two out of range"),
        (~((1 <= c) & (c <= n)), "third out of range"),
        ((c == a) | (c == b), "bucket collides"),
    ], lambda k: f"({i[k]},{j[k]})")
    codes = _codes(*routes, n)
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
        violations=violations,
    )


def audit_H_prime(n: int) -> HashAuditReport:
    """Exhaustively audit H'^n: at most 5 copies of any triple.

    Multiplicities are pooled over r (the bound is about the full
    collation).
    """
    _audit_cap(n)
    i, j = _pairs(n)
    pairs = len(i)
    per_call = max(1, _ROUTE_BATCH // pairs)
    violations: list[str] = []
    codes = []
    pooled = np.zeros((n + 2) ** 3, dtype=np.intp)
    for r0 in range(1, n, per_call):
        # r-major rows, so row-major slots are emission order across the chunk
        rs = np.arange(r0, min(r0 + per_call, n), dtype=np.int32)
        ii, jj, rr = np.tile(i, len(rs)), np.tile(j, len(rs)), np.repeat(rs, pairs)
        a, b, c, _ = routes = _triple_routes(ii, jj, rr, n)
        violations += _flag(*routes, [
            (~((1 <= a) & (a <= b) & (b <= n)), "out of range"),
            (~((1 <= c) & (c <= n)), "bucket out of range"),
            # at n=2 the wrap h'(2,1)=1 collides with r and the
            # exclusion is vacuous; it holds for every n >= 3
            (((c == a) | (c == b)) & (n >= 3), "bucket collides"),
        ], lambda k: f"({ii[k]},{jj[k]},{rr[k]})")
        codes.append(_codes(*routes, n))
        # chunk by chunk, so no more than one chunk's codes is copied to intp
        pooled += np.bincount(codes[-1], minlength=len(pooled))
    max_mult = int(pooled.max())
    if max_mult > 5:
        offenders = _first_emitted(np.concatenate(codes), pooled > 5)
        violations.append(f"multiplicity {max_mult} > 5 for {_decode(offenders[:5], n)}")
    worst = np.flatnonzero(pooled == max_mult)[:10]
    return HashAuditReport(
        n=n,
        total=sum(map(len, codes)),
        max_multiplicity=max_mult,
        violations=violations,
        worst_triples=_decode(worst, n),
    )
