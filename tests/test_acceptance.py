"""End-to-end checklist of the package's headline guarantees.

Each test re-derives its expected numbers through an independent route
(hand values, exhaustive enumeration, or a frozen closed form) and
appends one PASS/FAIL line to the terminal summary, so a full run reads
as a checklist.  Stated runtime budgets are asserted, not aspirational.

Five tests run `mmot verify`'s own checks (`experiments._verify_*`) with
seeds and case counts of their own, so each check and its bound have one
owner: gluing feasibility (seed 777), the planar counterexample, the
index-map audits, glue marginals (seed 515, 100 cases) with the pair
triangle (seed 616, 100 cases), and the collinear ratio.  The asserts
each keeps on top of its call are independent routes: the planar hand
values, duplicate-free pair maps, the collinear tensor meeting C = 3,
and the timing budgets.
"""

import hashlib
import math
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from conftest import record_acceptance
from test_lp import bfs_enumerate, random_feasible_lp
from test_transport import random_1d, w1d_oracle

from mmot import lp
from mmot.constructions import collinear_instance, planar_counterexample
from mmot.core import DiscreteDistribution
from mmot.experiments import (
    ExperimentConfig,
    _collinear_tensor,
    _verify_collinear,
    _verify_glue,
    _verify_gluing,
    _verify_hashes,
    _verify_planar,
    _verify_triangle,
    build_corpus,
    cmd_cluster,
    cmd_distances,
    cmd_inject,
    compute_tensor,
    signature_distribution,
)
from mmot.graphs import signature
from mmot.hashes import audit_H
from mmot.metric_props import check_W_tensor, inject_violations
from mmot.transport import PairwiseCost, euclidean_cost, pairwise_mmot, wasserstein


@contextmanager
def checklist(name):
    note = {}
    try:
        yield note
    except BaseException as exc:
        msg = f"{type(exc).__name__}: {exc}"
        record_acceptance(f"FAIL {name}: {msg[:160]}")
        raise
    record_acceptance(f"PASS {name}: {note.get('detail', 'ok')}")


def _random_planar(rng, m):
    pts = rng.uniform(-1, 1, size=(int(m), 2))
    mass = rng.uniform(0.1, 1.0, size=int(m))
    mass /= mass.sum()
    return DiscreteDistribution(pts, mass)


def _euclidean_pairs(ps):
    return PairwiseCost({
        (s, t): euclidean_cost(ps[s], ps[t])
        for s, t in combinations(range(len(ps)), 2)
    })


def test_planar_violation_exact_values():
    with checklist("planar-violation-exact-values") as note:
        started = time.monotonic()
        inst = planar_counterexample(0.01)
        want = {
            (0, 1, 2): 0.5,
            (0, 1, 3): 0.125,
            (0, 2, 3): 0.1275,
            (1, 2, 3): 0.1275,
        }
        for key, val in want.items():
            assert inst.w_values[key] == pytest.approx(val, abs=1e-8)
        margin = inst.w_values[(0, 1, 2)] - sum(
            v for k, v in inst.w_values.items() if k != (0, 1, 2))
        # verify's check: the (3,1)-metric premise, the closed forms, a margin > 0
        assert _verify_planar().worst == pytest.approx(margin, abs=1e-12)
        elapsed = time.monotonic() - started
        assert elapsed < 1.0
        note["detail"] = (
            "values (0.5, 0.125, 0.1275, 0.1275) within 1e-8, "
            f"violation margin {margin:.4f} > 0, triangle-area cost a (3,1)-metric, "
            f"{elapsed:.2f}s")


def test_gluing_feasibility_split():
    with checklist("gluing-feasibility-split") as note:
        started = time.monotonic()
        resid = _verify_gluing(seed=777).worst
        elapsed = time.monotonic() - started
        assert elapsed < 1.0
        note["detail"] = (
            "obstructed pair system infeasible; marginals of a random joint "
            f"feasible with witness residual {resid:.1e} <= 1e-9, {elapsed:.2f}s")


def test_index_map_audits():
    with checklist("index-map-audits") as note:
        started = time.monotonic()
        # verify's check: clean audits for n = 2..40, multiplicity 5 at n=4 for (2,3,1)
        assert _verify_hashes().worst == 5
        for n in range(2, 41):
            assert audit_H(n).max_multiplicity == 1, f"n={n} has duplicates"
        elapsed = time.monotonic() - started
        assert elapsed < 30.0
        note["detail"] = (
            "n=2..40: pair maps duplicate-free, pooled triple multiplicity <= 5, "
            f"exactly 5 at n=4 for (2,3,1), {elapsed:.1f}s")


def test_three_way_metric_axioms():
    with checklist("three-way-metric-axioms") as note:
        started = time.monotonic()
        rng = np.random.default_rng(424242)
        worst = math.inf
        for trial in range(200):
            sizes = [int(v) for v in rng.integers(2, 5, size=3)]
            ps = [_random_planar(rng, m) for m in sizes]
            base = pairwise_mmot(ps, _euclidean_pairs(ps)).value
            assert base >= 0.0, f"trial {trial}: negative value"
            for _ in range(2):
                perm = [ps[i] for i in rng.permutation(3)]
                pv = pairwise_mmot(perm, _euclidean_pairs(perm)).value
                assert abs(pv - base) <= 1e-8, f"trial {trial}: not symmetric"
            same = [ps[0]] * 3
            assert abs(pairwise_mmot(same, _euclidean_pairs(same)).value) <= 1e-8
            assert base > 0.0, f"trial {trial}: distinct inputs scored zero"
            extra = _random_planar(rng, int(rng.integers(2, 5)))
            rhs = 0.0
            for s in range(3):
                repl = list(ps)
                repl[s] = extra
                rhs += pairwise_mmot(repl, _euclidean_pairs(repl)).value
            assert base <= rhs + 1e-8, f"trial {trial}: four-point bound broken"
            # the sharp constant n - 1 = 2 for three-way pairwise MMOT
            assert 2 * base <= rhs + 1e-8, f"trial {trial}: sharp bound broken"
            worst = min(worst, rhs / base)
        elapsed = time.monotonic() - started
        note["detail"] = (
            "200 seeded instances: nonnegative, permutation-symmetric (1e-8), "
            f"identity both ways, four-point bound at C=1 and C=2 (1e-8), "
            f"min ratio {worst:.3f}, 0 violations, {elapsed:.1f}s")


def test_leave_one_out_ratio_bound():
    with checklist("leave-one-out-ratio-bound") as note:
        # verify's check: a metric premise, a ratio within 1e-3 of 3 and at most 3 + 1e-6
        emp = _verify_collinear().worst
        # attained and never broken: the order-4 tensor meets C = 3
        T = _collinear_tensor(*collinear_instance(4, 3))
        assert check_W_tensor(T, C=3.0).triangle
        note["detail"] = (
            f"equally spaced collinear atoms (4 roles, 3 ranks): min ratio "
            f"{emp:.6f}, within 1e-3 of the bound 3, which the order-4 tensor meets")


def test_solver_oracle_equivalence():
    with checklist("solver-oracle-equivalence") as note:
        rng = np.random.default_rng(101)
        checked = 0
        for _ in range(60):
            c, A, b = random_feasible_lp(rng)
            res = lp.solve(lp.LpProblem(c, A, b))
            oracle_val, _ = bfs_enumerate(c, A, b)
            if res.status == lp.UNBOUNDED:
                continue
            assert res.status == lp.OPTIMAL
            assert oracle_val is not None
            assert abs(res.value - oracle_val) <= 1e-8 * (1 + abs(oracle_val))
            checked += 1
        assert checked >= 30

        rng = np.random.default_rng(707)
        for _ in range(50):
            xs, mus, p = random_1d(rng)
            ys, nus, q = random_1d(rng)
            d = np.abs(xs[:, None] - ys[None, :])
            ell = int(rng.integers(1, 4))
            got = wasserstein(p, q, d, ell=ell).value
            assert abs(got - w1d_oracle(xs, mus, ys, nus, ell)) <= 1e-9
        note["detail"] = (
            f"{checked} seeded LPs (<= 8 vars) match exhaustive enumeration "
            "(1e-8); 50 seeded 1D instances match monotone rearrangement (1e-9)")


def test_glue_reconstruction_and_pair_triangle():
    with checklist("glue-reconstruction-and-pair-triangle") as note:
        glued = _verify_glue(seed=515, cases=100)
        triangle = _verify_triangle(seed=616, cases=100)
        note["detail"] = (
            "100 seeded glues reproduce pivot, univariate, and pair-with-pivot "
            f"marginals (max {max(glued.worst, glued.univariate):.1e} <= 1e-12); "
            "100 joints obey the pair triangle bound for powers 1..3 "
            f"(max excess {triangle.worst:.2f} <= 1e-9)")


def test_violation_injection_marks_targets():
    with checklist("violation-injection-marks-targets") as note:
        started = time.monotonic()
        cfg = ExperimentConfig(
            seed=11,
            families=("cycle", "complete"),
            graphs_per_family=5,
            top_k=6,
            backend="mmot_pairwise",
            triples_budget=120,
        )
        corpus = build_corpus(cfg)
        dists = [
            signature_distribution(signature(g.graph, top_k=cfg.top_k))
            for g in corpus
        ]
        T, _, _ = compute_tensor(cfg, dists)
        assert T.n_sampled == 120
        assert check_W_tensor(T).empirical_C >= 1.0
        # pairwise MMOT meets the sharp constant n - 1 = 2 as well
        assert check_W_tensor(T, C=2.0).triangle

        rng = np.random.Generator(np.random.PCG64(11))
        injected = inject_violations(T, rng, fraction=0.20, factor=1.3)
        want = math.ceil(0.20 * T.n_sampled)
        assert len(injected.modified) == want == 24
        rep = check_W_tensor(injected)
        violated = {tuple(v["lhs"]) for v in rep.violations}
        assert injected.modified <= violated, "a rewritten entry does not violate"
        assert rep.empirical_C < 1.0
        elapsed = time.monotonic() - started
        note["detail"] = (
            f"24/120 entries rewritten on a 10-object tensor, every rewrite "
            f"violates its subset bound, empirical C {rep.empirical_C:.3f} < 1, "
            f"{elapsed:.1f}s")


def test_desk_scale_clustering(tmp_path):
    with checklist("desk-scale-clustering") as note:
        started = time.monotonic()
        seed = 20260819
        base = dict(seed=seed, graphs_per_family=5, top_k=16,
                    triples_budget=60, trials=20, sampling="blocks")

        cfg_pw = ExperimentConfig(backend="mmot_pairwise", clusterer="ttm",
                                  out_dir=str(tmp_path / "pw"), **base)
        paths_pw = cmd_distances(cfg_pw)
        cfg_nm = ExperimentConfig(backend="mmot_nonmetric", clusterer="ttm",
                                  out_dir=str(tmp_path / "nm"), **base)
        paths_nm = cmd_distances(cfg_nm)

        rep_ttm_pw, _ = cmd_cluster(cfg_pw, paths_pw["tensor"])
        cfg_nh = ExperimentConfig(backend="mmot_pairwise", clusterer="nhcut",
                                  out_dir=str(tmp_path / "pw"), **base)
        rep_nh_pw, _ = cmd_cluster(cfg_nh, paths_pw["tensor"])
        rep_ttm_nm, _ = cmd_cluster(cfg_nm, paths_nm["tensor"])

        injected_path = str(tmp_path / "pw" / "tensor_injected.csv")
        summary = cmd_inject(paths_pw["tensor"], 0.20, 1.3, seed, injected_path)
        assert summary["empirical_C_after"] < 1.0
        cfg_inj = ExperimentConfig(backend="mmot_pairwise", clusterer="ttm",
                                   out_dir=str(tmp_path / "inj"), **base)
        rep_inj, _ = cmd_cluster(cfg_inj, injected_path)

        baseline = 0.857
        assert rep_ttm_pw.median_error < baseline
        assert rep_nh_pw.median_error < baseline
        assert rep_ttm_pw.median_error <= rep_ttm_nm.median_error
        assert rep_inj.median_error >= rep_ttm_pw.median_error
        elapsed = time.monotonic() - started
        assert elapsed < 900.0
        note["detail"] = (
            f"35 graphs / 60 triples / 20 trials: ttm {rep_ttm_pw.median_error:.3f} "
            f"and nhcut {rep_nh_pw.median_error:.3f} < 0.857; pairwise "
            f"{rep_ttm_pw.median_error:.3f} <= plain {rep_ttm_nm.median_error:.3f}; "
            f"injected {rep_inj.median_error:.3f} >= baseline; {elapsed:.0f}s < 900s")


def test_byte_identical_reruns(tmp_path):
    with checklist("byte-identical-reruns") as note:
        run_dir = tmp_path / "run"
        cfg = ExperimentConfig(
            seed=21,
            families=("cycle", "complete"),
            graphs_per_family=3,
            top_k=6,
            backend="mmot_pairwise",
            triples_budget=20,
            clusterer="ttm",
            trials=3,
            out_dir=str(run_dir),
        )

        def run_once():
            paths = cmd_distances(cfg)
            cmd_cluster(cfg, paths["tensor"])
            cmd_inject(paths["tensor"], 0.20, 1.3, 21,
                       str(run_dir / "injected.csv"),
                       str(run_dir / "inject.json"))
            files = sorted(p for p in run_dir.iterdir() if p.is_file())
            return (
                [p.name for p in files],
                [hashlib.sha256(p.read_bytes()).hexdigest() for p in files],
            )

        names_a, digests_a = run_once()
        names_b, digests_b = run_once()
        assert names_a == names_b
        assert len(names_a) >= 7
        assert digests_a == digests_b
        note["detail"] = (
            f"{len(names_a)} output files (tensor, corpus, reports, histogram, "
            "injection) byte-identical when the same commands repeat")
