"""Index maps and their exhaustive audits."""

import tracemalloc

import numpy as np
import pytest

import hash_oracle as oracle
from mmot import hashes
from mmot.cli import main
from mmot.hashes import (
    AUDIT_CAP,
    H_n,
    H_prime_n,
    Triple,
    audit_H,
    audit_H_prime,
    h,
    h_prime,
)

ORACLE_NS = [*range(2, 25), 40, AUDIT_CAP]


class TestH:
    def test_hand_values(self):
        # wrap-around: 1 maps to n, everything else shifts down by one
        assert h(1, 5) == 5
        assert h(2, 5) == 1
        assert h(5, 5) == 4
        assert h(1, 2) == 2
        assert h(2, 2) == 1

    def test_never_fixed_point(self):
        for n in range(2, 30):
            for i in range(1, n + 1):
                assert h(i, n) != i
                assert 1 <= h(i, n) <= n

    def test_domain_validated(self):
        with pytest.raises(ValueError):
            h(0, 5)
        with pytest.raises(ValueError):
            h(6, 5)
        with pytest.raises(ValueError):
            h(1, 1)
        # a non-integral or bool argument is refused, not truncated
        for args in [(1.5, 3), (1, 3.0), (True, 2), (1, np.float64(3)), (np.bool_(1), 2)]:
            with pytest.raises(ValueError, match="must be an integer"):
                h(*args)
        assert h(np.int64(1), np.int32(3)) == h(1, 3) == 3


class TestHPrime:
    def test_hand_values(self):
        assert h_prime(1, 1, 4) == 2
        assert h_prime(3, 2, 4) == 1
        assert h_prime(4, 1, 4) == 2
        assert h_prime(4, 3, 4) == 1

    def test_avoids_i_and_r_for_n_at_least_3(self):
        for n in range(3, 25):
            for i in range(1, n + 1):
                for r in range(1, n):
                    b = h_prime(i, r, n)
                    assert 1 <= b <= n
                    assert b != i
                    assert b != r

    def test_n2_exemption(self):
        # with n=2 the only admissible r is 1 and the bucket may equal it
        assert h_prime(2, 1, 2) == 1

    def test_domain_validated(self):
        with pytest.raises(ValueError):
            h_prime(1, 0, 4)
        with pytest.raises(ValueError):
            h_prime(1, 4, 4)
        with pytest.raises(ValueError):
            h_prime(5, 1, 4)
        for args in [(1.5, 1, 4), (1, 1.9, 4), (1, 1, 4.0), (1, True, 4)]:
            with pytest.raises(ValueError, match="must be an integer"):
                h_prime(*args)
        assert h_prime(np.int64(3), np.uint8(2), 4) == h_prime(3, 2, 4)


class TestRouting:
    def test_pair_routing_counts(self):
        for n in range(2, 12):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    out = H_n(i, j, n)
                    assert 2 <= len(out) <= 4
                    for t in out:
                        assert t.a < t.b <= n + 1

    def test_triple_routing_counts(self):
        for n in range(2, 10):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    for r in range(1, n):
                        out = H_prime_n(i, j, r, n)
                        assert 2 <= len(out) <= 4
                        for t in out:
                            assert t.a <= t.b

    def test_domain_validated(self):
        with pytest.raises(ValueError):
            H_n(2, 2, 4)
        with pytest.raises(ValueError):
            H_prime_n(1, 2, 4, 4)
        for args in [(1, 2.5, 4), (1.0, 2, 4), (True, 2, 4), (1, 2, 4.0)]:
            with pytest.raises(ValueError, match="must be an integer"):
                H_n(*args)
        for args in [(1, 2, 1.9, 4), (1.5, 2, 1, 4), (1, 2, True, 4), (1, 2, 1, 4.0)]:
            with pytest.raises(ValueError, match="must be an integer"):
                H_prime_n(*args)
        assert H_n(np.int64(1), 2, np.int64(4)) == H_n(1, 2, 4)
        assert H_prime_n(1, np.int16(2), 1, 4) == H_prime_n(1, 2, 1, 4)


class TestAudits:
    @pytest.mark.parametrize("n", range(2, AUDIT_CAP + 1))
    def test_pair_audit_collision_free(self, n):
        rep = audit_H(n)
        assert rep.ok, rep.violations
        assert rep.max_multiplicity == 1

    @pytest.mark.parametrize("n", range(2, AUDIT_CAP + 1))
    def test_triple_audit_bounded_by_five(self, n):
        rep = audit_H_prime(n)
        assert rep.ok, rep.violations
        assert rep.max_multiplicity <= 5

    def test_bound_is_tight_at_n4(self):
        rep = audit_H_prime(4)
        assert rep.max_multiplicity == 5
        assert Triple(2, 3, 1) in rep.worst_triples

    def test_cap_enforced(self):
        for audit in (audit_H, audit_H_prime):
            with pytest.raises(ValueError, match=f"audit cap is n <= {AUDIT_CAP}"):
                audit(AUDIT_CAP + 1)
            for n in (5.5, 5.0, True):
                with pytest.raises(ValueError, match=f"n must be an integer, got {n}"):
                    audit(n)

    def test_n2_collision_is_exempt(self):
        # h'(2,1) = 1 = r at n = 2, so a routed bucket meets its own pair
        tri = [t for t in H_prime_n(1, 2, 1, 2) if t.c in (t.a, t.b)]
        assert tri
        assert audit_H_prime(2).ok


def _emitted(a, b, c, keep):
    return [Triple(*t) for t in zip(a[keep].tolist(), b[keep].tolist(), c[keep].tolist())]


def _loop_pairs(n):
    return [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]


class TestKernelsMatchOracle:
    """The array kernels against the scalar maps and loop audits in hash_oracle."""

    @pytest.mark.parametrize("n", ORACLE_NS)
    def test_pair_routes_in_emission_order(self, n):
        i, j = hashes._pairs(n)
        assert list(zip(i.tolist(), j.tolist())) == _loop_pairs(n)
        expected = [t for a, b in _loop_pairs(n) for t in oracle.H_n(a, b, n)]
        assert _emitted(*hashes._pair_routes(i, j, n)) == expected

    @pytest.mark.parametrize("n", ORACLE_NS)
    def test_triple_routes_in_emission_order(self, n):
        i, j = hashes._pairs(n)
        for r in range(1, n):
            expected = [t for a, b in _loop_pairs(n) for t in oracle.H_prime_n(a, b, r, n)]
            assert _emitted(*hashes._triple_routes(i, j, r, n)) == expected

    @pytest.mark.parametrize("n", ORACLE_NS)
    def test_audit_reports_equal(self, n):
        assert audit_H(n) == oracle.audit_H(n)
        assert audit_H_prime(n) == oracle.audit_H_prime(n)

    def test_scalar_wrappers_equal(self):
        for n in range(2, 13):
            for i in range(1, n + 1):
                assert h(i, n) == oracle.h(i, n)
                assert type(h(i, n)) is int
                for r in range(1, n):
                    assert h_prime(i, r, n) == oracle.h_prime(i, r, n)
                for j in range(i + 1, n + 1):
                    assert H_n(i, j, n) == oracle.H_n(i, j, n)
                    for r in range(1, n):
                        assert H_prime_n(i, j, r, n) == oracle.H_prime_n(i, j, r, n)
        assert all(type(x) is int for t in H_prime_n(1, 3, 2, 5) for x in t)


def _plant(monkeypatch, kernel, route, faults):
    """Overwrite emitted triple 0 of each listed input in kernel and oracle alike.

    `faults` maps an input ((i, j) or (i, j, r)) to its planted triple; slot
    0 of both layouts is always kept, so it is emission position 0 in both.
    """
    array_kernel = getattr(hashes, kernel)
    scalar_route = getattr(oracle, route)

    def planted_kernel(*args):
        *columns, keep = array_kernel(*args)
        inputs = np.broadcast_arrays(*args[:-1])
        for src, value in faults.items():
            hit = np.logical_and.reduce([x == v for x, v in zip(inputs, src)])
            for column, v in zip(columns, value):
                column[hit, 0] = v
        return (*columns, keep)

    def planted_route(*args):
        out = scalar_route(*args)
        if args[:-1] in faults:
            out[0] = Triple(*faults[args[:-1]])
        return out

    monkeypatch.setattr(hashes, kernel, planted_kernel)
    monkeypatch.setattr(oracle, route, planted_route)


class TestPlantedFaults:
    """Each audit check fires on a planted fault, with the oracle's message."""

    @pytest.mark.parametrize("faults, wording", [
        ({(2, 3): (0, 3, 1)}, "Triple(a=0, b=3, c=1) from (2,3): first two out of range"),
        ({(2, 3): (3, 3, 1)}, "Triple(a=3, b=3, c=1) from (2,3): first two out of range"),
        ({(2, 3): (2, 3, 6)}, "Triple(a=2, b=3, c=6) from (2,3): third out of range"),
        ({(2, 3): (2, 3, 3)}, "Triple(a=2, b=3, c=3) from (2,3): bucket collides"),
        # (2,6,5) is first emitted before (1,3,5), though it sorts after it
        ({(3, 5): (1, 3, 5), (2, 4): (2, 6, 5)},
         "duplicate triple Triple(a=2, b=6, c=5) appears 2 times"),
    ])
    def test_pair_audit(self, monkeypatch, faults, wording):
        _plant(monkeypatch, "_pair_routes", "H_n", faults)
        rep = audit_H(5)
        assert not rep.ok
        assert wording in rep.violations
        assert rep == oracle.audit_H(5)

    @pytest.mark.parametrize("faults, wording", [
        ({(2, 3, 1): (0, 3, 1)}, "Triple(a=0, b=3, c=1) from (2,3,1): out of range"),
        ({(2, 3, 1): (3, 2, 1)}, "Triple(a=3, b=2, c=1) from (2,3,1): out of range"),
        ({(2, 3, 1): (2, 3, 5)}, "Triple(a=2, b=3, c=5) from (2,3,1): bucket out of range"),
        ({(2, 3, 1): (2, 3, 3)}, "Triple(a=2, b=3, c=3) from (2,3,1): bucket collides"),
        ({(1, 2, 1): (2, 3, 1)},
         "multiplicity 6 > 5 for [Triple(a=2, b=3, c=1)]"),
        ({(2, 3, 2): (2, 5, 1)}, "Triple(a=2, b=5, c=1) from (2,3,2): out of range"),
        # planted at r = 3 only, so 6 is reached by pooling over r
        ({(2, 4, 3): (2, 3, 1)},
         "multiplicity 6 > 5 for [Triple(a=2, b=3, c=1)]"),
    ])
    def test_triple_audit(self, monkeypatch, faults, wording):
        _plant(monkeypatch, "_triple_routes", "H_prime_n", faults)
        rep = audit_H_prime(4)
        assert not rep.ok
        assert wording in rep.violations
        assert rep == oracle.audit_H_prime(4)

    def test_cli_audit_exits_1_on_a_failed_audit(self, monkeypatch, capsys):
        _plant(monkeypatch, "_pair_routes", "H_n", {(2, 3): (2, 3, 3)})
        assert main(["hash", "audit", "--n", "5"]) == 1
        out = capsys.readouterr().out
        assert out == f"{audit_H(5).summary()}\n{audit_H_prime(5).summary()}\n"
        assert out.splitlines()[0].endswith("FAILED (1 violations)")
        assert out.splitlines()[1].endswith(", ok")

    def test_offenders_in_first_emission_order(self, monkeypatch):
        # (1,4,2) goes from 4 to 6 and is now the very first triple emitted;
        # (1,2,3) goes from 5 to 6 and sorts before it
        faults = {(1, 2, 1): (1, 4, 2), (2, 4, 3): (1, 4, 2), (3, 4, 3): (1, 2, 3)}
        _plant(monkeypatch, "_triple_routes", "H_prime_n", faults)
        rep = audit_H_prime(4)
        assert rep.violations == [
            "multiplicity 6 > 5 for [Triple(a=1, b=4, c=2), Triple(a=1, b=2, c=3)]"]
        assert rep == oracle.audit_H_prime(4)

    def test_each_r_routed_once(self, monkeypatch):
        routed = []
        kernel = hashes._triple_routes

        def counted(i, j, r, n):
            assert len(i) <= hashes._ROUTE_BATCH
            routed.extend(zip(i.tolist(), j.tolist(), r.tolist()))
            return kernel(i, j, r, n)

        monkeypatch.setattr(hashes, "_triple_routes", counted)
        # n = 40 and 60 route several r per call, with a shorter last call
        for n in (2, 4, 7, 40, AUDIT_CAP):
            routed.clear()
            assert audit_H_prime(n).ok
            assert routed == [(a, b, r) for r in range(1, n) for a, b in _loop_pairs(n)]
        # a failing audit reads its offenders from the codes it already has
        _plant(monkeypatch, "_triple_routes", "H_prime_n", {(1, 2, 1): (2, 3, 1)})
        routed.clear()
        assert not audit_H_prime(4).ok
        assert routed == [(a, b, r) for r in range(1, 4) for a, b in _loop_pairs(4)]

    def test_uncountable_component_raises(self, monkeypatch):
        _plant(monkeypatch, "_pair_routes", "H_n", {(2, 3): (2, 3, 7)})
        with pytest.raises(ValueError, match="outside \\[0, 6\\] and cannot be counted"):
            audit_H(5)


# at n = 40 one kernel call routes r = 1..LAST, the next LAST+1..2*LAST
LAST = hashes._ROUTE_BATCH // len(_loop_pairs(40))


class TestChunkBoundary:
    """Faults planted on the last r of one kernel call and the first r of the next."""

    def test_wording_names_each_r(self, monkeypatch):
        _plant(monkeypatch, "_triple_routes", "H_prime_n",
               {(2, 3, LAST): (0, 3, 1), (2, 3, LAST + 1): (2, 3, 3)})
        rep = audit_H_prime(40)
        assert rep.violations == [
            f"Triple(a=0, b=3, c=1) from (2,3,{LAST}): out of range",
            f"Triple(a=2, b=3, c=3) from (2,3,{LAST + 1}): bucket collides",
        ]
        assert rep == oracle.audit_H_prime(40)

    def test_first_emission_order_across_calls(self, monkeypatch):
        # (40,40,c) is never routed at n = 40; (40,40,2) is first emitted
        # on the last r of one call, (40,40,1) on the first r of the next
        late, early = (40, 40, 2), (40, 40, 1)
        faults = {
            **{(1, j, LAST): late for j in range(2, 6)},
            **{(1, j, LAST + 1): late for j in (2, 3)},
            **{(2, j, LAST + 1): early for j in range(3, 9)},
        }
        _plant(monkeypatch, "_triple_routes", "H_prime_n", faults)
        rep = audit_H_prime(40)
        assert rep.violations == [
            "multiplicity 6 > 5 for [Triple(a=40, b=40, c=2), Triple(a=40, b=40, c=1)]"]
        assert rep == oracle.audit_H_prime(40)


def test_audit_at_cap_stays_small():
    # the chunked audit, counting chunk by chunk, peaks near 5.8 MB; one
    # pooled count over all codes, copied to intp, peaks near 7 MB, and
    # routing every r of n = 60 in one kernel call near 15 MB
    audit_H_prime(AUDIT_CAP)
    tracemalloc.start()
    try:
        audit_H_prime(AUDIT_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * 2**20
