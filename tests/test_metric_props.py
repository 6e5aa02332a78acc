"""Distance tensors, metric audits, ratio scans, and violation injection."""

import math
from itertools import combinations

import numpy as np
import pytest

from mmot.core import DiscreteDistribution, JointMass
from mmot.metric_props import (
    TRIANGLE_SLACK,
    ZERO_TOL,
    DistanceTensor,
    MetricReport,
    check_metric,
    check_n_metric_cost,
    check_W_tensor,
    inject_violations,
    no_gluing_check,
)
from mmot import metric_props
from mmot.cli import main
from mmot.constructions import collinear_instance
from mmot.experiments import _blocked_triples
from mmot.transport import SENTINEL_COST, PairwiseCost, euclidean_cost, pairwise_mmot

import atom_oracle
from dict_tensor import (
    DictTensor,
    SEVENTEEN_DIGITS,
    inject_oracle,
    leave_one_out_ratios,
    random_pair,
    random_pairs,
)


class TestDistanceTensor:
    def test_symmetric_index_resolution(self):
        T = DistanceTensor(3, 5)
        T.set((2, 0, 4), 1.5)
        assert T.dense[0, 2, 4] == 1.5
        assert dict(T.values) == {(0, 2, 4): 1.5}
        # any permutation names the same entry
        T.set((4, 0, 2), 2.5)
        assert dict(T.values) == {(0, 2, 4): 2.5}
        # the mapping is keyed by increasing tuples only
        assert (4, 2, 0) not in T.values

    def test_unsampled_reads_sentinel(self, tmp_path):
        T = DistanceTensor(2, 3)
        T.set((1, 2), 0.5)
        assert (0, 1) not in T.values
        p = tmp_path / "t.csv"
        T.to_csv(str(p))
        assert p.read_text() == (f"0,1,{SENTINEL_COST!r},0\n0,2,{SENTINEL_COST!r},0\n"
                                 "1,2,0.5,1\n")

    def test_values_are_read_only(self):
        T = DistanceTensor(2, 3)
        T.set((0, 1), 1.0)
        with pytest.raises(TypeError):
            T.values[(0, 1)] = 2.0
        with pytest.raises(TypeError):
            del T.values[(0, 1)]
        assert dict(T.values) == {(0, 1): 1.0}

    def test_validation(self):
        T = DistanceTensor(3, 4)
        with pytest.raises(ValueError):
            T.set((0, 0, 1), 1.0)
        with pytest.raises(ValueError):
            T.set((0, 1, 4), 1.0)
        with pytest.raises(ValueError):
            T.set((0, 1, 2), -1.0)
        with pytest.raises(ValueError):
            T.set((0, 1, 2), float("nan"))
        with pytest.raises(ValueError, match="order must be at least 2"):
            DistanceTensor(1, 5)

    def test_any_order_from_two(self):
        T = DistanceTensor(5, 6)
        T.set((5, 3, 1, 0, 2), 0.25)
        assert T.dense.shape == (6,) * 5
        assert dict(T.values) == {(0, 1, 2, 3, 5): 0.25}

    def test_cell_cap(self, monkeypatch):
        monkeypatch.setattr(metric_props, "MAX_ENTRIES", 64)
        assert DistanceTensor(2, 8).dense.size == 64
        assert DistanceTensor(3, 4).dense.size == 64
        for order, size in ((2, 9), (3, 5), (4, 4)):
            with pytest.raises(ValueError, match="over the cap 64"):
                DistanceTensor(order, size)

    def test_csv_round_trip(self, tmp_path):
        T = DistanceTensor(3, 5)
        rng = np.random.default_rng(2)
        for key in list(combinations(range(5), 3))[::2]:
            T.set(key, float(rng.uniform(0.1, 2.0)))
        p = tmp_path / "t.csv"
        T.to_csv(str(p))
        back = DistanceTensor.from_csv(str(p))
        assert back.order == 3 and back.size == 5
        assert back.values == T.values
        # a second write is byte-identical
        p2 = tmp_path / "t2.csv"
        back.to_csv(str(p2))
        assert p.read_bytes() == p2.read_bytes()

    def test_order_four_csv_round_trip(self, tmp_path):
        T, ref = random_pair(4, 7, np.random.default_rng(4), 0.7)
        got, want = tmp_path / "dense.csv", tmp_path / "dict.csv"
        T.to_csv(str(got))
        ref.to_csv(str(want))
        assert got.read_bytes() == want.read_bytes()
        lines = got.read_text().splitlines()
        assert len(lines) == math.comb(7, 4)
        assert all(len(line.split(",")) == 6 for line in lines)
        back = DistanceTensor.from_csv(str(got))
        assert (back.order, back.size) == (4, 7)
        assert back.values == ref.values
        back.to_csv(str(got))
        assert got.read_bytes() == want.read_bytes()


class TestCsvErrors:
    """A malformed tensor file raises ValueError naming the file and the line."""

    @pytest.mark.parametrize("text,line,reason", [
        ("0,1,2,1.0,1\n0,1,2,3,1.0,1\n", 2, "arity"),
        ("0,1.0,1\n", 1, "expected at least 4 fields"),
        ("0,1,2,1.0,1\n0,1.0,1\n", 2, "expected at least 4 fields"),
        ("0,1,2,1.0,1\n0,1,3,1.0,2\n", 2, "flag must be 0 or 1"),
        # blank lines are skipped but still counted
        ("0,1,2,1.0,1\n\n0,1,3,1.0,-1\n", 3, "flag must be 0 or 1"),
        ("0,1,2,1.0,1\n0,1,1.0,1\n", 2, "arity"),
        ("0,1,2,1.0,1\n0,1.5,3,1.0,1\n", 2, "1.5"),
        ("0,1,2,1.0,1\n-1,1,2,1.0,1\n", 2, "-1"),
        ("0,1,2,1.0,1\n0,3,3,1.0,1\n", 2, "distinct"),
        ("0,1,2,1.0,1\n0,1,3,-0.5,1\n", 2, "finite and nonnegative"),
        ("0,1,2,1.0,1\n0,1,3,inf,1\n", 2, "finite and nonnegative"),
        ("0,1,3,nan,1\n", 1, "finite and nonnegative"),
    ])
    def test_bad_line_is_named(self, tmp_path, text, line, reason):
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(ValueError) as err:
            DistanceTensor.from_csv(str(p))
        assert str(err.value).startswith(f"{p}:{line}: ")
        assert reason in str(err.value)

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_empty_file(self, tmp_path, text):
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match="empty tensor file") as err:
            DistanceTensor.from_csv(str(p))
        assert str(err.value).startswith(str(p))

    def test_repeated_index_tuple_names_both_lines(self, tmp_path):
        p = tmp_path / "t.csv"
        # the same triple, written in another index order
        p.write_text("0,1,2,1.0,1\n0,1,3,1.0,1\n2,1,0,5.0,1\n")
        with pytest.raises(ValueError, match="line 1") as err:
            DistanceTensor.from_csv(str(p))
        assert str(err.value).startswith(f"{p}:3: ")

    def test_unsampled_rows_keep_any_value(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("2,0,1,-1.0,0\n0,1,3,nan,0\n1,2,3,0.5,1\n")
        T = DistanceTensor.from_csv(str(p))
        assert (T.order, T.size, T.n_sampled) == (3, 4, 1)
        assert dict(T.values) == {(1, 2, 3): 0.5}

    def test_over_the_cell_cap_names_the_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0,1,100000,1.0,1\n")
        with pytest.raises(ValueError, match="over the cap") as err:
            DistanceTensor.from_csv(str(p))
        assert str(err.value).startswith(f"{p}: ")

    @pytest.mark.parametrize("command", ["inject", "cluster"])
    def test_over_the_cell_cap_exits_two(self, tmp_path, capsys, command):
        p = tmp_path / "t.csv"
        p.write_text("0,1,100000,1.0,1\n")
        args = {
            "inject": ["inject", "--seed", "1", "--tensor", str(p),
                       "--out", str(tmp_path / "out.csv")],
            "cluster": ["cluster", "--seed", "1", "--tensor", str(p),
                        "--out-dir", str(tmp_path / "out")],
        }[command]
        assert main(args) == 2
        assert "over the cap" in capsys.readouterr().err


class TestDenseMatchesDictOracle:
    """The dense tensor gives exactly the dict-and-set tensor's results."""

    def test_csv_bytes_and_round_trip(self, tmp_path):
        seventeen = 0
        for n, (T, ref) in enumerate(random_pairs()):
            got, want = tmp_path / f"dense{n}.csv", tmp_path / f"dict{n}.csv"
            T.to_csv(str(got))
            ref.to_csv(str(want))
            assert got.read_bytes() == want.read_bytes()
            back, ref_back = DistanceTensor.from_csv(str(want)), DictTensor.from_csv(str(got))
            assert (back.order, back.size) == (ref_back.order, ref_back.size)
            assert set(back.values) == ref_back.sampled == ref.sampled
            assert back.values == ref_back.values == ref.values
            back.to_csv(str(got))
            assert got.read_bytes() == want.read_bytes()
            seventeen += sum(v in SEVENTEEN_DIGITS for v in ref.values.values())
        assert seventeen > 0

    @pytest.mark.parametrize("C", [1.0, 0.5])
    def test_check_W_report(self, C):
        violated = 0
        for T, ref in random_pairs():
            got, want = check_W_tensor(T, C=C), check_W_oracle(ref, C=C)
            assert got == want
            assert got.to_json() == want.to_json()
            violated += len(got.violations)
        assert violated > 0

    def test_inject_values_and_modified(self):
        injected = 0
        for T, ref in random_pairs():
            if T.order != 3:
                continue
            for seed in range(3):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                want = inject_oracle(ref, ref_rng, fraction=0.2, factor=1.3)
                got = inject_violations(T, rng, fraction=0.2, factor=1.3)
                assert got.values == want.values
                assert got.modified == want.modified
                # the same draws were made
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                injected += len(got.modified)
        assert injected > 0


class TestCheckMetric:
    def metric_inputs(self, seed=0):
        rng = np.random.default_rng(seed)
        supports = []
        for _ in range(3):
            pts = rng.uniform(-1, 1, size=(3, 2))
            supports.append(pts)
        dists = [DiscreteDistribution(s, np.full(len(s), 1 / len(s))) for s in supports]
        d = {}
        for i, j in combinations(range(3), 2):
            d[(i, j)] = euclidean_cost(dists[i], dists[j])
        for i in range(3):
            d[(i, i)] = euclidean_cost(dists[i], dists[i])
        return d, supports

    def test_euclidean_costs_pass(self):
        d, supports = self.metric_inputs()
        rep = check_metric(d, supports)
        assert rep.nonnegative and rep.identity and rep.symmetric and rep.triangle
        assert not rep.violations

    def test_negative_entry_flagged(self):
        d, supports = self.metric_inputs()
        d[(0, 1)] = d[(0, 1)].copy()
        d[(0, 1)][0, 0] = -0.5
        rep = check_metric(d, supports)
        assert not rep.nonnegative
        assert any(v["kind"] == "nonnegativity" for v in rep.violations)

    def test_triangle_violation_flagged(self):
        d, supports = self.metric_inputs()
        d[(0, 1)] = d[(0, 1)].copy()
        d[(0, 1)][0, 0] = 100.0
        rep = check_metric(d, supports)
        assert not rep.triangle

    def test_pair_stored_both_ways_must_agree(self):
        d, supports = self.metric_inputs()
        d[(1, 0)] = d[(0, 1)].T.copy()
        assert check_metric(d, supports).ok
        d[(1, 0)][0, 1] += 0.5
        rep = check_metric(d, supports)
        assert rep == atom_oracle.check_metric(d, supports)
        assert rep.symmetric is False
        assert {"kind": "symmetry", "where": [0, 1], "margin": 0.0} in rep.violations

    def test_records_match_the_loop_in_order(self):
        # several failures of each kind within one call, so a reordering shows
        d, supports = self.metric_inputs(seed=3)
        d = {key: m.copy() for key, m in d.items()}
        d[(0, 1)][0, 0], d[(0, 1)][1, 2] = -0.5, -0.25
        d[(0, 1)][2, 0], d[(1, 2)][0, 1] = 0.0, 0.0
        d[(0, 2)][1, 1], d[(0, 2)][2, 0] = 50.0, 40.0
        rep = check_metric(d, supports)
        assert rep == atom_oracle.check_metric(d, supports)
        kinds = [v["kind"] for v in rep.violations]
        assert all(kinds.count(k) >= 2 for k in ("nonnegativity", "identity", "triangle"))

    def test_nan_cell_is_refused(self):
        # NaN compares false: the identity check read it as a violation with
        # margin nan, and the triangle check passed over it
        d, supports = self.metric_inputs()
        d[(1, 2)] = d[(1, 2)].copy()
        d[(1, 2)][0, 1] = np.nan
        with pytest.raises(ValueError, match=r"cost for pair \(1,2\) has a NaN cell"):
            check_metric(d, supports)

    def test_inf_cell_is_refused(self):
        # an inf cost and an all-inf detour row met as inf - inf in the triangle gap
        d, supports = self.metric_inputs()
        d[(0, 1)] = d[(0, 1)].copy()
        d[(0, 1)][0, 1] = np.inf
        d[(0, 2)] = d[(0, 2)].copy()
        d[(0, 2)][0, :] = np.inf
        with pytest.raises(ValueError, match=r"cost for pair \(0,1\) has an infinite cell"):
            check_metric(d, supports)


class TestCheckNMetricCost:
    def test_area_like_cost_passes_symmetry(self):
        atoms = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        cost = np.zeros((3, 3, 3))
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    # symmetric in all arguments, zero on the diagonal
                    cost[i, j, k] = len({i, j, k}) - 1
        rep = check_n_metric_cost(cost, atoms)
        assert rep.symmetric
        assert rep.nonnegative

    def test_asymmetric_cost_flagged(self):
        atoms = np.array([0.0, 1.0])
        cost = np.zeros((2, 2))
        cost[0, 1] = 1.0
        rep = check_n_metric_cost(cost, atoms)
        assert not rep.symmetric

    def test_every_negative_cell_is_recorded(self):
        cost = np.array([[0.0, -1.0], [-1.0, 0.0]])
        rep = check_n_metric_cost(cost, np.array([0.0, 1.0]))
        assert rep.nonnegative is False
        assert [v for v in rep.violations if v["kind"] == "nonnegativity"] == [
            {"kind": "nonnegativity", "where": [0, 1], "margin": -1.0},
            {"kind": "nonnegativity", "where": [1, 0], "margin": -1.0},
        ]

    def test_nan_cell_is_refused(self):
        cost = np.ones((3, 3, 3))
        cost[1, 0, 2] = np.nan
        # without the refusal: six symmetry records, the identity permutation among
        # them, and empirical_C = nan
        with pytest.raises(ValueError, match=r"cost is NaN at cell \(1, 0, 2\)"):
            check_n_metric_cost(cost, np.array([0.0, 1.0, 2.0]))

    def test_inf_cell_is_refused(self):
        cost = np.ones((3, 3, 3))
        cost[np.arange(3), np.arange(3), np.arange(3)] = 0.0
        cost[0, 1, 2] = np.inf
        # without the refusal: inf - inf in the triangle gap, and empirical_C = nan
        with pytest.raises(ValueError, match=r"cost is inf at cell \(0, 1, 2\)"):
            check_n_metric_cost(cost, np.array([0.0, 1.0, 2.0]))

    def test_scan_over_the_cap_is_refused(self):
        # 57 ** 4 = 10,556,001 scan cells is past core.MAX_ENTRIES, refused before any scan
        cost = np.ones((57, 57, 57))
        with pytest.raises(ValueError, match=r"57 \*\* 4 cells, over the cap 10000000"):
            check_n_metric_cost(cost, np.arange(57.0))

    @pytest.mark.parametrize("n", [2, 3])
    def test_records_match_the_loops_in_order(self, n):
        rng = np.random.default_rng(40 + n)
        several = 0
        for C in (1.0, 2.0):
            for _ in range(5):
                pts = rng.uniform(-1, 1, size=(5, 2))
                cost = rng.uniform(-0.3, 1.0, size=(5,) * n)
                cost[rng.random(cost.shape) < 0.2] = 0.0
                rep = check_n_metric_cost(cost, pts, C=C)
                got = {k: [v for v in rep.violations if v["kind"] == k]
                       for k in ("nonnegativity", "identity", "triangle")}
                assert got["nonnegativity"] == [
                    {"kind": "nonnegativity", "where": list(idx), "margin": float(cost[idx])}
                    for idx in np.ndindex(*cost.shape) if cost[idx] < 0]
                assert got["identity"] == atom_oracle.n_metric_identity(cost, pts)
                assert got["triangle"] == atom_oracle.n_metric_triangle(cost, C)
                assert rep.triangle == (not got["triangle"])
                several += all(len(records) >= 2 for records in got.values())
        # most seeded costs fail each check several times, so a reordering shows
        assert several >= 8


def collinear_tensor(n):
    """The order-n tensor of pairwise MMOT values over collinear_instance(n, 3)."""
    dists, cost = collinear_instance(n, 3)
    values, T = {}, DistanceTensor(n, n + 1)
    for sub in combinations(range(n + 1), n):
        local = PairwiseCost({(a, b): cost.get(sub[a], sub[b])
                              for a, b in combinations(range(n), 2)})
        values[sub] = pairwise_mmot([dists[s] for s in sub], local).value
        T.set(sub, values[sub])
    return T, values


def min_leave_one_out_ratio(T):
    """The smallest oracle ratio over every fully sampled (order+1)-subset."""
    best = None
    for subset in combinations(range(T.size), T.order + 1):
        if all(key in T.values for key in combinations(subset, T.order)):
            for r in leave_one_out_ratios(T.values, subset).values():
                best = r if best is None else min(best, r)
    return best


class TestLeaveOneOutRatios:
    def test_hand_case(self):
        # universe {0,1,2}; leaving out x costs: 0->1.0, 1->2.0, 2->3.0
        values = {(1, 2): 1.0, (0, 2): 2.0, (0, 1): 3.0}
        ratios = leave_one_out_ratios(values, [0, 1, 2])
        assert ratios[(1, 2)] == pytest.approx(5.0, abs=1e-15)
        assert ratios[(0, 2)] == pytest.approx(2.0, abs=1e-15)
        assert ratios[(0, 1)] == pytest.approx(1.0, abs=1e-15)

    def test_zero_denominator_skipped(self):
        values = {(1, 2): 0.0, (0, 2): 2.0, (0, 1): 3.0}
        ratios = leave_one_out_ratios(values, [0, 1, 2])
        assert (1, 2) not in ratios
        assert set(ratios) == {(0, 2), (0, 1)}

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_check_W_agrees_on_collinear_family(self, n):
        T, values = collinear_tensor(n)
        want = min(leave_one_out_ratios(values, range(n + 1)).values())
        rep = check_W_tensor(T)
        # the oracle sums the other entries directly, check_W_tensor
        # subtracts from the subset total: the two may differ in the last bits
        assert rep.empirical_C == pytest.approx(want, rel=1e-12)
        assert rep.empirical_C == pytest.approx(n - 1, rel=1e-9)
        assert rep.triangle
        # the sharp constant n - 1 holds too
        assert check_W_tensor(T, C=n - 1).triangle

    def test_check_W_agrees_on_random_order_four(self):
        rng = np.random.default_rng(44)
        checked = 0
        for size, p_sampled in ((5, 1.0), (6, 1.0), (7, 0.9), (8, 0.8)):
            T = random_tensor(4, size, rng, p_sampled)
            want = min_leave_one_out_ratio(T)
            assert want is not None
            assert check_W_tensor(T).empirical_C == pytest.approx(want, rel=1e-12)
            checked += 1
        assert checked == 4


def metric_tensor(size, seed=0):
    """Fully sampled order-3 tensor from a Euclidean point configuration.

    The summed pairwise perimeter of a triple is a valid 3-argument
    distance, so the C=1 bound holds with strict slack generically.
    """
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, size=(size, 2))
    T = DistanceTensor(3, size)
    for i, j, k in combinations(range(size), 3):
        per = (
            np.linalg.norm(pts[i] - pts[j])
            + np.linalg.norm(pts[i] - pts[k])
            + np.linalg.norm(pts[j] - pts[k])
        )
        T.set((i, j, k), float(per))
    return T


def check_W_oracle(T, C=1.0, slack=TRIANGLE_SLACK):
    """check_W_tensor as a scalar scan, one subset and one role at a time."""
    rep = MetricReport(nonnegative=True, symmetric=True, triangle=True)
    if any(v < 0 for v in T.values.values()):
        rep.nonnegative = False
    best = None
    sampled = set(T.values)
    for subset in combinations(range(T.size), T.order + 1):
        keys = list(combinations(subset, T.order))
        if not all(t in sampled for t in keys):
            continue
        vals = {t: T.values[t] for t in keys}
        total = sum(vals.values())
        for t in keys:
            rep.n_checked += 1
            lhs = vals[t]
            rhs = total - lhs
            if C * lhs > rhs + slack:
                rep.triangle = False
                rep.violations.append({"kind": "triangle",
                                       "where": list(subset), "lhs": list(t),
                                       "margin": float(rhs - C * lhs)})
            if lhs > ZERO_TOL:
                ratio = rhs / lhs
                if best is None or ratio < best:
                    best = ratio
    rep.empirical_C = best
    return rep


def random_tensor(order, size, rng, p_sampled, p_zero=0.1):
    """Random full-mantissa values; some entries unsampled, some exactly 0."""
    T = DistanceTensor(order, size)
    for key in combinations(range(size), order):
        if rng.random() < p_sampled:
            T.set(key, 0.0 if rng.random() < p_zero else float(rng.uniform(0.0, 3.0)))
    return T


def oracle_cases():
    rng = np.random.default_rng(20)
    cases = []
    for order, size in ((2, 9), (2, 13), (3, 7), (3, 10)):
        for p_sampled in (1.0, 0.8, 0.5):
            cases.append(random_tensor(order, size, rng, p_sampled))
    for seed in (3, 4):
        cases.append(inject_violations(metric_tensor(9, seed=seed),
                                       np.random.default_rng(seed), fraction=0.2, factor=1.3))
    negative = random_tensor(3, 6, rng, 1.0)
    negative.dense[0, 1, 2] = -0.25
    cases.append(negative)
    for size, p_sampled in ((6, 1.0), (7, 0.8)):
        cases.append(random_tensor(4, size, rng, p_sampled))
    return cases


class TestCheckWTensor:
    @pytest.mark.parametrize("C", [1.0, 0.5, 2.0])
    def test_matches_scalar_oracle_exactly(self, C):
        checked = violated = 0
        for T in oracle_cases():
            got, want = check_W_tensor(T, C=C), check_W_oracle(T, C=C)
            assert got == want
            assert got.to_json() == want.to_json()
            checked += got.n_checked
            violated += len(got.violations)
        # the comparison covers real scans with violations to report
        assert checked > 0 and violated > 0

    def test_perimeter_tensor_passes(self):
        T = metric_tensor(6)
        rep = check_W_tensor(T)
        assert rep.triangle
        assert rep.empirical_C is not None
        assert rep.empirical_C >= 1.0
        # every 4-subset is fully sampled: 4 roles per subset
        assert rep.n_checked == 4 * math.comb(6, 4)

    def test_violation_detected(self):
        T = metric_tensor(5)
        key = next(iter(T.values))
        T.set(key, 1000.0)
        rep = check_W_tensor(T)
        assert not rep.triangle
        assert any(tuple(v["lhs"]) == key for v in rep.violations)

    def test_order_two_strict_triangle_violation(self):
        T = DistanceTensor(2, 3)
        T.set((0, 1), 1.0)
        T.set((1, 2), 1.0)
        T.set((0, 2), 2.5)
        rep = check_W_tensor(T)
        assert not rep.triangle
        assert [v["lhs"] for v in rep.violations] == [[0, 2]]
        assert rep.violations[0]["margin"] == pytest.approx(-0.5, abs=1e-12)
        # three roles of the one sampled triangle
        assert rep.n_checked == 3
        assert rep.empirical_C == pytest.approx(0.8, abs=1e-12)

    def test_partial_sampling_skips_incomplete_subsets(self):
        T = DistanceTensor(3, 5)
        T.set((0, 1, 2), 1.0)
        rep = check_W_tensor(T)
        assert rep.n_checked == 0
        assert rep.empirical_C is None

    def test_order_two_partial_sampling_skips_incomplete_triangles(self):
        T = DistanceTensor(2, 5)
        # two sides of every triangle at most: a star around vertex 0
        for j in range(1, 5):
            T.set((0, j), 1.0)
        rep = check_W_tensor(T)
        assert rep.n_checked == 0
        assert rep.empirical_C is None
        assert rep.triangle and not rep.violations

    @pytest.mark.parametrize("C", [math.nan, math.inf, 0.0, -1.0])
    def test_vacuous_bound_is_refused(self, C):
        # a bound with C NaN or C <= 0 holds on every tensor, violations included
        T = metric_tensor(5)
        T.dense[0, 1, 2] = 100.0
        with pytest.raises(ValueError, match="C must be finite and positive"):
            check_W_tensor(T, C=C)
        with pytest.raises(ValueError, match="C must be finite and positive"):
            check_n_metric_cost(np.zeros((2, 2)), np.array([0.0, 1.0]), C=C)

    def test_negative_sampled_value_flagged(self):
        T = metric_tensor(5)
        assert check_W_tensor(T).nonnegative
        # set() refuses negatives, so write one into the array
        T.dense[0, 1, 2] = -0.5
        assert check_W_tensor(T).nonnegative is False


class TestInjectViolations:
    def test_exact_count_and_every_target_violates(self):
        T = metric_tensor(10, seed=3)
        rng = np.random.default_rng(111)
        out = inject_violations(T, rng, fraction=0.2, factor=1.3)
        want = math.ceil(0.2 * T.n_sampled)
        assert len(out.modified) == want
        # the source tensor is untouched
        assert not T.modified
        assert check_W_tensor(T).triangle
        rep = check_W_tensor(out)
        assert not rep.triangle
        violated = {tuple(v["lhs"]) for v in rep.violations}
        assert out.modified <= violated
        assert rep.empirical_C < 1.0

    def test_source_tensor_is_untouched(self, tmp_path):
        T = metric_tensor(9, seed=2)
        before, after = tmp_path / "before.csv", tmp_path / "after.csv"
        T.to_csv(str(before))
        out = inject_violations(T, np.random.default_rng(3), 0.2, 1.3)
        assert out.modified
        T.to_csv(str(after))
        assert after.read_bytes() == before.read_bytes()

    def test_deterministic_under_seed(self):
        T = metric_tensor(8, seed=5)
        a = inject_violations(T, np.random.default_rng(9), fraction=0.1, factor=1.5)
        b = inject_violations(T, np.random.default_rng(9), fraction=0.1, factor=1.5)
        assert a.values == b.values
        assert a.modified == b.modified

    def test_parameter_validation(self):
        T = metric_tensor(5)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            inject_violations(T, rng, fraction=1.5, factor=1.3)
        with pytest.raises(ValueError):
            inject_violations(T, rng, fraction=0.2, factor=1.0)

    @pytest.mark.parametrize("factor", [math.inf, math.nan])
    def test_non_finite_factor_rejected(self, factor):
        with pytest.raises(ValueError, match="factor must be finite"):
            inject_violations(metric_tensor(5), np.random.default_rng(0), fraction=0.2,
                              factor=factor)

    def test_raise_to_a_non_finite_value_is_refused(self):
        T = metric_tensor(6)
        with pytest.raises(ValueError, match=r"^raising triple \(\d+, \d+, \d+\) by "
                                             r"factor 1e\+308 gives inf, not a finite value$"):
            inject_violations(T, np.random.default_rng(0), fraction=0.2, factor=1e308)

    def test_no_full_subset_gives_up_with_hint(self):
        # one sampled triple: no 4-subset is fully sampled
        T = DistanceTensor(3, 5)
        T.set((0, 1, 2), 1.0)
        with pytest.raises(ValueError, match=r"\(modified 0 of 1\); "
                                             r"sample the tensor with --sampling blocks$"):
            inject_violations(T, np.random.default_rng(0), fraction=0.2, factor=1.3)

    def test_zero_fraction_is_identity(self):
        T = metric_tensor(5)
        out = inject_violations(T, np.random.default_rng(1), fraction=0.0, factor=1.3)
        assert out.values == T.values
        assert not out.modified

    def test_fewer_than_four_objects_refused_before_any_draw(self):
        T = DistanceTensor(3, 3)
        T.set((0, 1, 2), 1.0)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"needs at least 4 objects to draw "
                                             r"4-subsets from, got 3$"):
            inject_violations(T, rng, fraction=0.2, factor=1.3)
        assert rng.bit_generator.state == before

    def test_give_up_counts_the_fully_sampled_subsets(self):
        # {0, 1, 2, 3} and {0, 1, 2, 4} are full; {0, 1, 3, 4} lacks (1, 3, 4)
        T = DistanceTensor(3, 6)
        for key in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
                    (0, 1, 4), (0, 2, 4), (1, 2, 4), (0, 3, 4)]:
            T.set(key, 0.0)
        with pytest.raises(ValueError, match=r"^could not find enough fully sampled 4-subsets "
                                             r"in 20000 draws; 2 of the tensor's 15 4-subsets "
                                             r"are fully sampled "
                                             r"\(modified 0 of 2\); "):
            # every entry is 0, so no raise clears the audit slack
            inject_violations(T, np.random.default_rng(0), fraction=0.2, factor=1.3)

    def test_a_full_tensor_gives_up_with_a_lower_fraction_hint(self):
        # every 4-subset is full, so blocks sampling could add none; the
        # locks leave too few raisable triples for 10 rewrites
        T = metric_tensor(5)
        with pytest.raises(ValueError) as err:
            inject_violations(T, np.random.default_rng(0), fraction=1.0, factor=1.3)
        assert str(err.value) == (
            "could not find enough fully sampled 4-subsets in 100000 draws; "
            "5 of the tensor's 5 4-subsets are fully sampled (modified 4 of 10); "
            "every 4-subset is fully sampled, so too few unlocked triples have a raise "
            "that clears the audit slack; ask for a lower --fraction")

    def test_a_refused_raise_leaves_the_generator_after_its_draw(self):
        # every subset is full and strictly metric, so the first draw raises
        T = metric_tensor(6)
        rng, ref = np.random.default_rng(0), np.random.default_rng(0)
        with pytest.raises(ValueError, match="not a finite value"):
            inject_violations(T, rng, fraction=0.2, factor=1e308)
        ref.choice(6, size=4, replace=False)
        assert rng.bit_generator.state == ref.bit_generator.state


class CountingRng:
    """A Generator's `choice`, the oracle's one draw, counting its calls."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = 0

    def choice(self, *args, **kwargs):
        self.draws += 1
        return self.rng.choice(*args, **kwargs)


def perimeter_pair(keys, pts):
    """The order-3 tensor over `keys` as (DistanceTensor, DictTensor).

    Each triple holds the perimeter of its points in the plane, so every
    fully sampled 4-subset meets the C=1 bound with slack.
    """
    T, ref = DistanceTensor(3, len(pts)), DictTensor(3, len(pts))
    for key in keys:
        per = float(sum(np.linalg.norm(pts[a] - pts[b]) for a, b in combinations(key, 2)))
        T.set(key, per)
        ref.set(key, per)
    return T, ref


def blocked_pair(n, budget, seed):
    """A `--sampling blocks` sparse tensor of perimeters as (DistanceTensor, DictTensor)."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, size=(n, 2))
    return perimeter_pair(_blocked_triples(n, budget, rng), pts)


def inject_both(T, ref, seed, **kwargs):
    """Run inject_violations and inject_oracle from one seed and require equal results.

    Results, modified sets and final generator states must match, a give-up
    included; returns both results (None on a give-up) and the oracle's draws.
    """
    rng, ref_rng = np.random.default_rng(seed), CountingRng(seed)
    outcomes = []
    for inject, tensor, gen in ((inject_violations, T, rng), (inject_oracle, ref, ref_rng)):
        try:
            outcomes.append(inject(tensor, gen, **kwargs))
        except ValueError as exc:
            assert str(exc).startswith("could not find enough fully sampled 4-subsets")
            outcomes.append(None)
    got, want = outcomes
    assert (got is None) == (want is None)
    if got is not None:
        assert got.values == want.values
        assert got.modified == want.modified
    assert rng.bit_generator.state == ref_rng.rng.bit_generator.state
    return got, want, ref_rng.draws


class TestBatchedDraws:
    """The batched rejection draws are the scalar rng.choice loop's, draw for draw."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 11, 35, 64, 199, 215])
    def test_draw_4subsets_matches_choice(self, n):
        for seed in range(20):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            # successive calls of several sizes continue one stream
            for count in (1, 3, 50, 1, 200):
                got = metric_props._draw_4subsets(rng, n, count)
                want = [sorted(ref.choice(n, size=4, replace=False).tolist())
                        for _ in range(count)]
                assert got.tolist() == want
                assert rng.bit_generator.state == ref.bit_generator.state

    def test_inject_matches_oracle_on_blocked_tensors(self):
        draws = []
        for n, budget, seed in [(20, 40, 0), (20, 40, 1), (27, 48, 2), (35, 60, 3)]:
            T, ref = blocked_pair(n, budget, seed)
            got, _, n_draws = inject_both(T, ref, seed, fraction=0.2, factor=1.3)
            assert got is not None and got.modified
            draws.append(n_draws)
        # the draws span several batches, and the last one is rewound
        assert max(draws) > 3 * metric_props._DRAW_BATCH
        assert all(d % metric_props._DRAW_BATCH for d in draws)

    def test_give_up_leaves_the_oracles_state(self):
        # one full 4-subset against a target of 2: once it is rewritten the
        # draws find nothing, and the give-up comes after exactly 20,000 draws
        keys = list(combinations(range(4), 3)) + [(3 * i + 4, 3 * i + 5, 3 * i + 6)
                                                  for i in range(6)]
        T, ref = perimeter_pair(keys, np.random.default_rng(5).uniform(-1, 1, size=(25, 2)))
        assert math.ceil(0.2 * T.n_sampled) == 2
        got, _, n_draws = inject_both(T, ref, 5, fraction=0.2, factor=1.3)
        assert got is None
        assert n_draws == 20_000

    def test_second_injection_keeps_prior_rewrites_locked(self):
        T, ref = blocked_pair(24, 60, 6)
        first, first_ref, _ = inject_both(T, ref, 6, fraction=0.1, factor=1.3)
        second, _, _ = inject_both(first, first_ref, 7, fraction=0.2, factor=1.3)
        assert first.modified < second.modified
        assert all(second.values[t] == first.values[t] for t in first.modified)


class TestNoGluingCheck:
    def test_obstructed_system_infeasible(self):
        e = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]) / 3.0
        p12 = JointMass(e)
        p13 = JointMass(e)
        p23 = JointMass(np.ones((3, 3)) / 9.0)
        res = no_gluing_check(p12, p13, p23)
        assert not res.feasible
        assert res.witness is None

    def test_marginals_of_a_joint_are_feasible(self):
        rng = np.random.default_rng(77)
        raw = rng.uniform(0.05, 1.0, size=(3, 3, 3))
        j = JointMass(raw / raw.sum())
        from mmot.core import marginal

        p12 = marginal(j, [0, 1])
        p13 = marginal(j, [0, 2])
        p23 = marginal(j, [1, 2])
        res = no_gluing_check(p12, p13, p23)
        assert res.feasible
        w = res.witness
        np.testing.assert_allclose(marginal(w, [0, 1]).entries, p12.entries, atol=1e-8)
        np.testing.assert_allclose(marginal(w, [0, 2]).entries, p13.entries, atol=1e-8)
        np.testing.assert_allclose(marginal(w, [1, 2]).entries, p23.entries, atol=1e-8)

    @pytest.mark.parametrize("shape", [(2, 2, 2), (2, 3, 4), (4, 1, 3), (3, 2, 1)])
    def test_system_matches_dense_build(self, monkeypatch, shape):
        from mmot import lp
        from mmot.core import marginal

        m1, m2, m3 = shape
        raw = np.random.default_rng(5).uniform(0.05, 1.0, size=shape)
        j = JointMass(raw / raw.sum())
        seen = []
        feasible = lp.feasible
        monkeypatch.setattr(lp, "feasible", lambda A, b: seen.append(A) or feasible(A, b))
        assert no_gluing_check(marginal(j, [0, 1]), marginal(j, [0, 2]),
                               marginal(j, [1, 2])).feasible
        dense = np.vstack([
            np.tile(np.eye(m2 * m3), (1, m1)),
            np.kron(np.eye(m1), np.tile(np.eye(m3), (1, m2))),
            np.kron(np.eye(m1 * m2), np.ones((1, m3))),
        ])
        np.testing.assert_array_equal(seen[0].toarray(), dense)

    def test_mass_over_the_cap_is_refused(self, monkeypatch):
        from mmot import lp

        # 300 x 300 x 200 = 1.8e7 cells is past core.MAX_ENTRIES; no LP is built
        monkeypatch.setattr(lp, "feasible", lambda A, b: pytest.fail("reached the LP"))
        p12 = JointMass(np.full((300, 300), 1.0 / 90_000))
        p13 = p23 = JointMass(np.full((300, 200), 1.0 / 60_000))
        with pytest.raises(ValueError, match="18000000 cells, over the cap 10000000"):
            no_gluing_check(p12, p13, p23)

    def test_incompatible_marginals_rejected_early(self):
        p12 = JointMass(np.array([[0.5, 0.0], [0.0, 0.5]]))
        p13 = JointMass(np.array([[0.1, 0.4], [0.4, 0.1]]))
        p23 = JointMass(np.array([[0.25, 0.25], [0.25, 0.25]]))
        # p12 and p13 agree on axis-1 marginal (0.5, 0.5) so this must get
        # to the LP; a deliberately clashing univariate must raise instead
        bad = JointMass(np.array([[0.9, 0.0], [0.0, 0.1]]))
        with pytest.raises(ValueError):
            no_gluing_check(bad, p13, p23)
