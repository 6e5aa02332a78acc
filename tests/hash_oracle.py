"""Scalar index maps and loop audits: the exact oracle for `mmot.hashes`.

These are the one-call-at-a-time definitions of h, h', H^n and H'^n and
the Counter-based exhaustive audits. `mmot.hashes` computes the same maps
as numpy kernels over index arrays; its tests require equal triples and
`==` audit reports against these.
"""
from __future__ import annotations

from collections import Counter

from mmot.hashes import AUDIT_CAP, HashAuditReport, Triple


def _check_n(n: int) -> None:
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")


def h(i: int, n: int) -> int:
    _check_n(n)
    if not 1 <= i <= n:
        raise ValueError(f"i must be in [1, {n}], got {i}")
    # Python % already gives the nonnegative residue, so h(1) wraps to n
    return 1 + ((i - 2) % n)


def h_prime(i: int, r: int, n: int) -> int:
    _check_n(n)
    if not 1 <= i <= n:
        raise ValueError(f"i must be in [1, {n}], got {i}")
    if not 1 <= r <= n - 1:
        raise ValueError(f"r must be in [1, {n - 1}], got {r}")
    if i < n:
        return 1 + ((i + r - 1) % n)
    return 1 + (r % (n - 1))


def H_n(i: int, j: int, n: int) -> list[Triple]:
    _check_n(n)
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    out: list[Triple] = []
    hi = h(i, n)
    if j == n and i == 1:
        out.append(Triple(i, n + 1, hi))
    else:
        out.append(Triple(i, j, hi))
        out.append(Triple(j, n + 1, hi))
    hj = h(j, n)
    if i == j - 1:
        out.append(Triple(j, n + 1, hj))
    else:
        out.append(Triple(i, j, hj))
        out.append(Triple(i, n + 1, hj))
    return out


def _route_half(a: int, b: int, r: int, n: int) -> list[Triple]:
    c = h_prime(a, r, n)
    if b == c:
        raw = [(a, r, c)]
    else:
        raw = [(a, b, c), (b, r, c)]
    return [Triple(min(x, y), max(x, y), z) for x, y, z in raw]


def H_prime_n(i: int, j: int, r: int, n: int) -> list[Triple]:
    _check_n(n)
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    if not 1 <= r <= n - 1:
        raise ValueError(f"r must be in [1, {n - 1}], got {r}")
    return _route_half(i, j, r, n) + _route_half(j, i, r, n)


def _audit_cap(n: int) -> None:
    _check_n(n)
    if n > AUDIT_CAP:
        raise ValueError(f"audit cap is n <= {AUDIT_CAP}, got {n}")


def audit_H(n: int) -> HashAuditReport:
    _audit_cap(n)
    counts: Counter[Triple] = Counter()
    violations: list[str] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for t in H_n(i, j, n):
                counts[t] += 1
                if not (1 <= t.a < t.b <= n + 1):
                    violations.append(f"{t} from ({i},{j}): first two out of range")
                if not 1 <= t.c <= n:
                    violations.append(f"{t} from ({i},{j}): third out of range")
                if t.c in (t.a, t.b):
                    violations.append(f"{t} from ({i},{j}): bucket collides")
    for t, c in counts.items():
        if c > 1:
            violations.append(f"duplicate triple {t} appears {c} times")
    hist = Counter(counts.values())
    max_mult = max(counts.values()) if counts else 0
    return HashAuditReport(
        n=n,
        total=sum(counts.values()),
        max_multiplicity=max_mult,
        histogram=dict(sorted(hist.items())),
        violations=violations,
    )


def audit_H_prime(n: int) -> HashAuditReport:
    _audit_cap(n)
    pooled: Counter[Triple] = Counter()
    per_r_max: dict[int, int] = {}
    violations: list[str] = []
    for r in range(1, n):
        counts_r: Counter[Triple] = Counter()
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for t in H_prime_n(i, j, r, n):
                    counts_r[t] += 1
                    if not (1 <= t.a <= t.b <= n):
                        violations.append(f"{t} from ({i},{j},{r}): out of range")
                    if not 1 <= t.c <= n:
                        violations.append(f"{t} from ({i},{j},{r}): bucket out of range")
                    if n >= 3 and t.c in (t.a, t.b):
                        violations.append(f"{t} from ({i},{j},{r}): bucket collides")
        per_r_max[r] = max(counts_r.values()) if counts_r else 0
        pooled.update(counts_r)
    max_mult = max(pooled.values()) if pooled else 0
    if max_mult > 5:
        offenders = [t for t, c in pooled.items() if c > 5]
        violations.append(f"multiplicity {max_mult} > 5 for {offenders[:5]}")
    hist = Counter(pooled.values())
    worst = sorted(t for t, c in pooled.items() if c == max_mult)
    return HashAuditReport(
        n=n,
        total=sum(pooled.values()),
        max_multiplicity=max_mult,
        histogram=dict(sorted(hist.items())),
        violations=violations,
        per_r_max=per_r_max,
        worst_triples=worst[:10],
    )
