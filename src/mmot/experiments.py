"""Experiment orchestration: corpora, signatures, tensors, clustering runs.

The pipeline turns a family-labeled graph corpus into spectral-signature
distributions, fills a distance tensor under one of four backends, and
scores clusterers against the known labels.  `_BACKENDS` is the one table
of backends: name -> (tensor order, solve of one index tuple returning its
`TransportResult`).  The pipeline's random streams derive from the
master seed through one documented scheme:

    seed(t, u) = master XOR splitmix64(t * GAMMA + u)

with GAMMA the splitmix64 increment.  Stream ids: t=0 corpus graph u,
t=1 tuple sampling (u=0 pairs, u=1 triples), t=2+j clustering trial j.
Outside it: `cmd_inject` seeds PCG64 with its own --seed directly, and
`verify`'s checks take the fixed seeds and case counts that `_VERIFY_CHECKS`
binds them to.
Tuple solves are deterministic LPs, each solved in its thread's cleared
HiGHS solver, so any evaluation order (including a parallel one)
produces the same tensors: `tests/test_lp.py` pins this with one thread
solving a mixed list forward, reversed and shuffled, and with two
threads solving it at once, each against a fresh solver per LP.  Files
are emitted with sorted keys and repr floats and rerun byte for byte.
"""
from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from . import hashes
# perfbench/spans.py traces `build_hypergraph`, `tune_threshold` and
# `clustering_error` where this module looks them up; it also patches
# `ttm`, `nhcut` and `spectral_cluster` here, so they stay importable
from .clustering import (
    build_hypergraph,
    clustering_error,
    nhcut,
    nhcut_embedding,
    spectral_cluster,
    spectral_embedding,
    trial_errors,
    ttm,
    ttm_embedding,
    tune_threshold,
)
from .constructions import collinear_instance, planar_counterexample, triangle_area_cost
from .core import (
    DiscreteDistribution,
    JointMass,
    braket,
    conditional,
    distinct_atoms,
    glue,
    marginal,
)
from .graphs import DEFAULT_FAMILIES, Graph, generate, load_graph, perturb, signature
from .metric_props import (
    DistanceTensor,
    check_metric,
    check_W_tensor,
    inject_violations,
    no_gluing_check,
)
from .transport import (
    PairwiseCost,
    TransportResult,
    barycenter_mmot,
    euclidean_cost,
    mmot,
    pairwise_mmot,
    wasserstein,
)

__all__ = [
    "BACKENDS",
    "CLUSTERERS",
    "ExperimentConfig",
    "ExperimentReport",
    "CorpusGraph",
    "CONFIG_PARSERS",
    "splitmix64",
    "derive_seed",
    "parse_config_value",
    "parse_config_text",
    "load_config_file",
    "build_corpus",
    "signature_distribution",
    "compute_tensor",
    "cmd_distances",
    "cmd_cluster",
    "cmd_inject",
    "cmd_verify",
]


# Each solve looks its transport function up in this module at call time, so
# a wrapper installed on that name sees every tuple solve.
def _solve_wd_pairwise(ps: Sequence[DiscreteDistribution], ell: int) -> TransportResult:
    return wasserstein(*ps, euclidean_cost(*ps), ell=ell)


def _solve_mmot_pairwise(ps: Sequence[DiscreteDistribution], ell: int) -> TransportResult:
    pairs = combinations(range(len(ps)), 2)
    cost = PairwiseCost({(s, t): euclidean_cost(ps[s], ps[t]) for s, t in pairs})
    return pairwise_mmot(list(ps), cost, ell=ell)


def _solve_mmot_barycenter(ps: Sequence[DiscreteDistribution], ell: int) -> TransportResult:
    omega, _ = distinct_atoms(np.concatenate([p.atoms for p in ps]))
    base = np.linalg.norm(omega[:, None, :] - omega[None, :, :], axis=2)
    return barycenter_mmot(list(ps), omega, base)


def _solve_mmot_nonmetric(ps: Sequence[DiscreteDistribution], ell: int) -> TransportResult:
    return mmot(list(ps), triangle_area_cost([p.atoms for p in ps], None), ell=ell)


# backend name -> (tensor order, solve(distributions of one tuple, ell))
_BACKENDS: dict[str, tuple[int, Callable[..., TransportResult]]] = {
    "wd_pairwise": (2, _solve_wd_pairwise),
    "mmot_pairwise": (3, _solve_mmot_pairwise),
    "mmot_barycenter": (3, _solve_mmot_barycenter),
    "mmot_nonmetric": (3, _solve_mmot_nonmetric),
}
BACKENDS = tuple(_BACKENDS)
CLUSTERERS = ("spectral", "ttm", "nhcut")

_MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """The splitmix64 output scrambler as a pure function."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def derive_seed(master: int, t: int, u: int) -> int:
    return (master ^ splitmix64((t * GAMMA + u) & _MASK)) & _MASK


def _stream(master: int, t: int, u: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(derive_seed(master, t, u)))


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, fully serializable description of one experiment run."""

    seed: int
    families: tuple[str, ...] = tuple(DEFAULT_FAMILIES)
    graphs_per_family: int = 10
    perturb_p: float = 0.05
    input_dir: str | None = None
    top_k: int = 16
    backend: str = "mmot_pairwise"
    ell: int = 1
    pairs_budget: int = 150
    triples_budget: int = 100
    sampling: str = "triples"
    threshold_grid: tuple[float, ...] | None = None
    clusterer: str = "ttm"
    trials: int = 20
    out_dir: str = "results"

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int):
            raise ValueError("config key 'seed': must be an integer")
        for fam in self.families:
            if fam not in DEFAULT_FAMILIES:
                raise ValueError(f"config key 'families': unknown family {fam!r}")
        if not self.families and self.input_dir is None:
            raise ValueError("config key 'families': need at least one family")
        if self.backend not in BACKENDS:
            raise ValueError(f"config key 'backend': {self.backend!r} not in {BACKENDS}")
        if self.clusterer not in CLUSTERERS:
            raise ValueError(f"config key 'clusterer': {self.clusterer!r} not in {CLUSTERERS}")
        for key in ("graphs_per_family", "top_k", "ell", "pairs_budget",
                    "triples_budget", "trials"):
            val = getattr(self, key)
            if not isinstance(val, int) or val < 1:
                raise ValueError(f"config key {key!r}: must be a positive integer, got {val!r}")
        if not 0.0 <= self.perturb_p <= 1.0:
            raise ValueError(f"config key 'perturb_p': must be in [0, 1], got {self.perturb_p}")
        if self.threshold_grid is not None and not self.threshold_grid:
            raise ValueError("config key 'threshold_grid': must be nonempty when given")
        if self.threshold_grid is not None and not all(map(math.isfinite, self.threshold_grid)):
            raise ValueError(
                f"config key 'threshold_grid': thresholds must be finite, got {self.threshold_grid}")
        if self.sampling not in ("triples", "blocks"):
            raise ValueError(
                f"config key 'sampling': must be 'triples' or 'blocks', got {self.sampling!r}")
        if self.ell != 1 and self.backend != "mmot_nonmetric":
            raise ValueError(
                f"config key 'ell': backend {self.backend!r} supports ell=1 only")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _parse_names(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _parse_floats(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(",") if part.strip())


# one parser per ExperimentConfig annotation, so the dataclass fields are
# the one schema of the config keys: a config-file line and a CLI flag
# both go through these parsers, then ExperimentConfig validates
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "str | None": str,
    "tuple[str, ...]": _parse_names,
    "tuple[float, ...] | None": _parse_floats,
}
CONFIG_PARSERS: dict[str, Callable[[str], object]] = {
    f.name: _PARSERS[f.type] for f in fields(ExperimentConfig)
}


def parse_config_value(key: str, raw: str) -> object:
    """Parse one raw value of a config key; errors name the key."""
    try:
        return CONFIG_PARSERS[key](raw)
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: cannot parse {raw!r}: {exc}") from None


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines; '#' starts a comment."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in CONFIG_PARSERS:
            raise ValueError(f"config line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"config line {lineno}: duplicate config key {key!r}")
        values[key] = parse_config_value(key, raw)
    return values


def load_config_file(path: str) -> dict:
    with open(path) as fh:
        return parse_config_text(fh.read())


@dataclass(frozen=True)
class CorpusGraph:
    graph_id: str
    family: str
    label: int
    graph: Graph


def _corpus_from_dir(input_dir: str) -> list[CorpusGraph]:
    stems = [f[:-4] for f in sorted(os.listdir(input_dir))
             if f.endswith(".csv") and f != "labels.csv"]
    if not stems:
        raise ValueError(f"no graph csv files in {input_dir}")
    raw: dict[str, int] = {}
    labels_path = os.path.join(input_dir, "labels.csv")
    if os.path.exists(labels_path):
        with open(labels_path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                name, _, lab = line.partition(",")
                name, where = name.strip(), f"{labels_path}:{lineno}"
                if name in raw:
                    raise ValueError(f"{where}: graph {name!r} labeled twice")
                if name not in stems:
                    raise ValueError(f"{where}: no graph file {name}.csv")
                try:
                    raw[name] = int(lab)
                except ValueError:
                    raise ValueError(f"{where}: bad label {lab!r}") from None
    remap = {lab: i for i, lab in enumerate(sorted(set(raw.values())))}
    return [CorpusGraph(graph_id=stem, family=stem,
                        label=remap[raw[stem]] if stem in raw else -1,
                        graph=load_graph(os.path.join(input_dir, stem + ".csv")))
            for stem in stems]


def build_corpus(config: ExperimentConfig) -> list[CorpusGraph]:
    """Labeled graphs: perturbed family copies, or csv files from a directory."""
    if config.input_dir is not None:
        return _corpus_from_dir(config.input_dir)
    out = []
    gi = 0
    for label, fam in enumerate(config.families):
        for copy in range(config.graphs_per_family):
            rng = _stream(config.seed, 0, gi)
            base = generate(fam, {}, rng)
            g = perturb(base, config.perturb_p, rng=rng)
            out.append(CorpusGraph(f"{fam}-{copy:02d}", fam, label, g))
            gi += 1
    return out


def signature_distribution(values: np.ndarray) -> DiscreteDistribution:
    """Uniform distribution over an eigenvalue multiset, as planar atoms.

    Coincident eigenvalues merge into one atom carrying the multiplicity,
    since support atoms must be pairwise distinct.
    """
    values = np.asarray(values, dtype=complex)
    atoms, owners = distinct_atoms(np.column_stack([values.real, values.imag]))
    return DiscreteDistribution(atoms, np.bincount(owners) / len(values))


def _blocked_triples(n: int, budget: int, rng: np.random.Generator) -> list[tuple[int, ...]]:
    """Triples grouped into complete 4-subsets, covering every object first.

    Violation injection needs fully sampled 4-subsets and the clusterers
    need every object in at least one sampled triple; uniform triple
    sampling provides neither at realistic budgets.  A shuffled first
    pass covers all objects in chunks of four (a short last chunk is
    topped up with already-covered objects), further random 4-subsets
    spend the remaining budget, and leftover capacity goes to uniform
    triples so exactly `budget` triples come back.
    """
    if n < 4:
        raise ValueError(f"blocked sampling needs at least 4 objects, got {n}")
    seen: set[tuple[int, ...]] = set()
    triples: set[tuple[int, ...]] = set()
    perm = [int(v) for v in rng.permutation(n)]
    for start in range(0, n, 4):
        chunk = perm[start:start + 4]
        while len(chunk) < 4:
            extra = int(rng.integers(n))
            if extra not in chunk:
                chunk.append(extra)
        sub = tuple(sorted(chunk))
        seen.add(sub)
        triples.update(combinations(sub, 3))
    if len(triples) > budget:
        raise ValueError(
            f"triples_budget {budget} cannot cover {n} objects in blocks "
            f"mode, need at least {len(triples)}")
    total_subsets = math.comb(n, 4)
    while len(triples) + 4 <= budget and len(seen) < total_subsets:
        pick = tuple(sorted(int(v) for v in rng.choice(n, size=4, replace=False)))
        if pick not in seen:
            seen.add(pick)
            triples.update(combinations(pick, 3))
    while len(triples) < budget:
        pick = tuple(sorted(int(v) for v in rng.choice(n, size=3, replace=False)))
        triples.add(pick)
    return sorted(triples)


def compute_tensor(config: ExperimentConfig,
                   dists: Sequence[DiscreteDistribution]) -> tuple[DistanceTensor, int, int]:
    """Fill a distance tensor over seeded sampled index tuples; also count solves and iterations.

    Each tuple is stored through `DistanceTensor.set` once solved; a blocked one is not.
    """
    order, solve = _BACKENDS[config.backend]
    budget = config.pairs_budget if order == 2 else config.triples_budget
    n = len(dists)
    if n < order:
        raise ValueError(f"need at least {order} graphs, got {n}")
    universe = list(combinations(range(n), order))
    rng = _stream(config.seed, 1, 0 if order == 2 else 1)
    if budget >= len(universe):
        chosen = universe
    elif order == 3 and config.sampling == "blocks":
        chosen = _blocked_triples(n, budget, rng)
    else:
        picks = rng.choice(len(universe), size=budget, replace=False)
        chosen = [universe[i] for i in sorted(picks.tolist())]
    T = DistanceTensor(order=order, size=n)
    iterations = 0
    for tup in chosen:
        res = solve([dists[i] for i in tup], config.ell)
        iterations += res.iterations
        if not res.effectively_infinite:
            T.set(tup, res.value)
    return T, len(chosen), iterations


def _write_json(path: str, data: object) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
        fh.write("\n")


def cmd_distances(config: ExperimentConfig) -> dict:
    """Build the corpus, compute signatures, and write one distance tensor."""
    started = time.monotonic()
    corpus = build_corpus(config)
    dists = [signature_distribution(signature(cg.graph, config.top_k)) for cg in corpus]
    T, solves, iterations = compute_tensor(config, dists)
    os.makedirs(config.out_dir, exist_ok=True)
    manifest = {
        "config": json.loads(config.to_json()),
        "graphs": [
            {
                "graph_id": cg.graph_id,
                "family": cg.family,
                "label": cg.label,
                "nodes": cg.graph.n,
                "edges": cg.graph.num_edges,
                "support": dists[i].size,
            }
            for i, cg in enumerate(corpus)
        ],
    }
    corpus_path = os.path.join(config.out_dir, "corpus.json")
    _write_json(corpus_path, manifest)
    tensor_path = os.path.join(config.out_dir, f"tensor_{config.backend}.csv")
    T.to_csv(tensor_path)
    meta = {
        "backend": config.backend,
        "ell": config.ell,
        "order": T.order,
        "n_graphs": len(corpus),
        "n_sampled": T.n_sampled,
        "transport_solves": solves,
        "lp_iterations": iterations,
    }
    meta_path = os.path.join(config.out_dir, f"distances_{config.backend}.json")
    _write_json(meta_path, meta)
    elapsed = time.monotonic() - started
    print(f"{config.backend}: {T.n_sampled} tuples over {len(corpus)} graphs "
          f"-> {tensor_path} ({elapsed:.1f}s)")
    return {"tensor": tensor_path, "corpus": corpus_path, "meta": meta_path}


@dataclass(frozen=True)
class ExperimentReport:
    backend: str
    clusterer: str
    trials: int
    k: int
    n_graphs: int
    errors: tuple[float, ...]
    thresholds: tuple[float | None, ...]
    median_error: float
    histogram_edges: tuple[float, ...]
    histogram_counts: tuple[int, ...]
    empirical_C: float | None
    work: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.errors) != self.trials:
            raise ValueError(f"{len(self.errors)} errors for {self.trials} trials")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _truth_labels(corpus: list[CorpusGraph]) -> tuple[int, ...]:
    missing = [cg.graph_id for cg in corpus if cg.label < 0]
    if missing:
        raise ValueError(f"no truth label for {len(missing)} of {len(corpus)} graphs "
                         f"({', '.join(missing)}); labels.csv missing or incomplete")
    return tuple(cg.label for cg in corpus)


def cmd_cluster(config: ExperimentConfig, tensor_path: str) -> tuple[ExperimentReport, str]:
    """Score the configured clusterer on a tensor file, tuning thresholds per trial.

    Every trial has its own k-means generator.  The embedding is built
    once per threshold gridpoint (once in all for spectral clustering,
    which has no threshold), so trials differ only in their k-means draws.
    """
    started = time.monotonic()
    T = DistanceTensor.from_csv(tensor_path)
    needs = 2 if config.clusterer == "spectral" else 3
    if T.order != needs:
        raise ValueError(f"clusterer {config.clusterer!r} needs an order-{needs} "
                         f"tensor, got order {T.order}")
    if config.clusterer == "spectral" and config.threshold_grid is not None:
        raise ValueError("config key 'threshold_grid' (--threshold-grid): "
                         "spectral clustering has no threshold to tune")
    corpus = build_corpus(config)
    if len(corpus) != T.size:
        raise ValueError(f"tensor is over {T.size} objects, corpus has {len(corpus)}")
    truth = _truth_labels(corpus)
    k = len(set(truth))
    rngs = [_stream(config.seed, 2 + trial, 0) for trial in range(config.trials)]
    work: dict = {"clusterings": config.trials}
    if config.clusterer == "spectral":
        errors = trial_errors(spectral_embedding(T, k), truth, k, rngs)
        thresholds: list[float | None] = [None] * config.trials
    else:
        embedding = ttm_embedding if config.clusterer == "ttm" else nhcut_embedding

        def embed(tensor: DistanceTensor, th: float) -> np.ndarray:
            return embedding(build_hypergraph(tensor, th), k)

        tuning = tune_threshold(T, truth, embed, k, rngs, config.threshold_grid)
        thresholds = [th for th, _ in tuning.best]
        errors = [err for _, err in tuning.best]
        work["gridpoints"] = [{"threshold": th, "refused": why}
                              for th, why in tuning.gridpoints]
    counts, edges = np.histogram(np.array(errors), bins=10, range=(0.0, 1.0))
    report = ExperimentReport(
        backend=config.backend,
        clusterer=config.clusterer,
        trials=config.trials,
        k=k,
        n_graphs=len(corpus),
        errors=tuple(float(e) for e in errors),
        thresholds=tuple(thresholds),
        median_error=float(np.median(np.array(errors))),
        histogram_edges=tuple(float(e) for e in edges),
        histogram_counts=tuple(int(c) for c in counts),
        empirical_C=check_W_tensor(T).empirical_C,
        work=work,
    )
    os.makedirs(config.out_dir, exist_ok=True)
    report_path = os.path.join(
        config.out_dir, f"report_{config.clusterer}_{config.backend}.json")
    with open(report_path, "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    hist_path = os.path.join(
        config.out_dir, f"hist_{config.clusterer}_{config.backend}.dat")
    with open(hist_path, "w") as fh:
        fh.write("# bin_left bin_right count\n")
        for left, right, count in zip(edges[:-1], edges[1:], counts):
            fh.write(f"{left!r} {right!r} {int(count)}\n")
    elapsed = time.monotonic() - started
    print(f"{config.clusterer} on {config.backend}: median error "
          f"{report.median_error:.3f} over {config.trials} trials ({elapsed:.1f}s)")
    return report, report_path


def cmd_inject(tensor_path: str, fraction: float, factor: float, seed: int,
               out_tensor: str, out_report: str | None = None) -> dict:
    """Corrupt a tensor with targeted triangle violations; report the C drop."""
    T = DistanceTensor.from_csv(tensor_path)
    rng = np.random.Generator(np.random.PCG64(seed))
    injected = inject_violations(T, rng, fraction=fraction, factor=factor)
    before = check_W_tensor(T).empirical_C
    after = check_W_tensor(injected).empirical_C
    summary = {
        "fraction": fraction,
        "factor": factor,
        "seed": seed,
        "n_sampled": injected.n_sampled,
        "n_modified": len(injected.modified),
        "empirical_C_before": before,
        "empirical_C_after": after,
    }
    # the report goes first, so an unwritable report path fails before
    # the tensor is written; a failed tensor write takes the report back
    if out_report is not None:
        _write_json(out_report, summary)
    try:
        injected.to_csv(out_tensor)
    except OSError:
        if out_report is not None:
            os.remove(out_report)
        raise
    print(f"injected {summary['n_modified']} of {summary['n_sampled']} entries; "
          f"empirical_C {before} -> {after}")
    return summary


@dataclass(frozen=True)
class Checked:
    """One `verify` check's outcome: the line it prints and the worst value it measured.

    `worst` is a residual, a margin, a multiplicity or a ratio, as the check
    names it.  `univariate` is the glue check's univariate-marginal residual,
    held apart so its printed maximum stays the pivot and pair one.
    """

    detail: str
    worst: float
    univariate: float | None = None


def _verify_gluing(seed: int) -> Checked:
    third = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]) / 3.0
    res = no_gluing_check(JointMass(third), JointMass(third),
                          JointMass(np.ones((3, 3)) / 9.0))
    if res.feasible:
        raise AssertionError("obstructed marginal system reported feasible")
    rng = np.random.default_rng(seed)
    r = rng.random((3, 3, 3))
    joint = JointMass(r / r.sum())
    p12 = marginal(joint, [0, 1])
    p13 = marginal(joint, [0, 2])
    p23 = marginal(joint, [1, 2])
    res2 = no_gluing_check(p12, p13, p23)
    if not res2.feasible or res2.witness is None:
        raise AssertionError("marginals of a genuine joint reported infeasible")
    w = res2.witness.entries
    worst = max(
        float(np.abs(w.sum(axis=2) - p12.entries).max()),
        float(np.abs(w.sum(axis=1) - p13.entries).max()),
        float(np.abs(w.sum(axis=0) - p23.entries).max()),
    )
    if worst > 1e-9:
        raise AssertionError(f"witness marginals off by {worst:.3g}")
    return Checked("obstructed system infeasible; random joint feasible with clean witness",
                   worst)


def _verify_planar() -> Checked:
    # the builder audits its cost as a (3,1)-metric, solves all four values
    # and raises on a failed audit, a miss of a closed form or a margin not
    # strictly positive; its passed audit comes back as inst.premise
    inst = planar_counterexample(0.01)
    return Checked(f"all four transport values exact; violation margin {inst.margin:.4f}; "
                   f"cost a (3,1)-metric, ratio {inst.premise.empirical_C:.6f}", inst.margin)


def _verify_hashes() -> Checked:
    worst = 0
    for n in range(2, 41):
        rep = hashes.audit_H(n)
        if not rep.ok:
            raise AssertionError(f"pair-map audit failed at n={n}: {rep.summary()}")
        rep2 = hashes.audit_H_prime(n)
        if not rep2.ok:
            raise AssertionError(f"triple-map audit failed at n={n}: {rep2.summary()}")
        worst = max(worst, rep2.max_multiplicity)
        if n == 4:
            rep4 = rep2
    if rep4.max_multiplicity != 5 or hashes.Triple(2, 3, 1) not in rep4.worst_triples:
        raise AssertionError("expected multiplicity 5 at (2,3,1) for n=4")
    return Checked("index maps collision-free and within multiplicity 5 for n = 2..40", worst)


def _verify_glue(seed: int, cases: int) -> Checked:
    rng = np.random.default_rng(seed)
    worst = univariate = 0.0
    for _ in range(cases):
        n = int(rng.integers(3, 5))
        sizes = [int(rng.integers(2, 5)) for _ in range(n)]
        k = int(rng.integers(0, n))
        q_k = rng.random(sizes[k]) + 0.1
        q_k /= q_k.sum()
        conds = {}
        for i in range(n):
            if i == k:
                continue
            m = rng.random((sizes[i], sizes[k])) + 0.1
            conds[i] = conditional(JointMass((m / m.sum(axis=0)) * q_k))
        joint = glue(q_k, conds, k)
        worst = max(worst, float(np.abs(marginal(joint, [k]).entries - q_k).max()))
        for i, q in conds.items():
            pair = marginal(joint, [i, k]).entries
            if i > k:
                pair = pair.T
            worst = max(worst, float(np.abs(pair - q.entries * q_k).max()))
            univariate = max(univariate, float(
                np.abs(marginal(joint, [i]).entries - q.entries @ q_k).max()))
    if (off := max(worst, univariate)) > 1e-12:
        raise AssertionError(f"glued marginals off by {off:.3g}")
    return Checked(f"{cases} glued joints reproduce pivot and pair marginals (max {worst:.1e})",
                   worst, univariate)


def _verify_triangle(seed: int, cases: int) -> Checked:
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(cases):
        sizes = [int(rng.integers(2, 5)) for _ in range(3)]
        pts = [rng.random((m, 2)) * 4.0 for m in sizes]
        r = rng.random(tuple(sizes)) + 1e-3
        joint = JointMass(r / r.sum())
        cost = {}
        for a, b in combinations(range(3), 2):
            cost[(a, b)] = np.linalg.norm(
                pts[a][:, None, :] - pts[b][None, :, :], axis=2)
        for ell in (1, 2, 3):
            w = {}
            for a, b in combinations(range(3), 2):
                pair = marginal(joint, [a, b]).entries
                w[(a, b)] = braket(cost[(a, b)], pair, ell) ** (1.0 / ell)
            for (i, j, k) in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
                lhs = w[tuple(sorted((i, j)))]
                rhs = w[tuple(sorted((i, k)))] + w[tuple(sorted((k, j)))]
                worst = max(worst, lhs - rhs)
    if worst > 1e-9:
        raise AssertionError(f"pair-value triangle inequality violated by {worst:.3g}")
    return Checked(f"{cases} joints satisfy the pair-value triangle bound for ell=1,2,3", worst)


def _collinear_tensor(dists: Sequence[DiscreteDistribution],
                      cost: PairwiseCost) -> DistanceTensor:
    """The order-4 tensor of pairwise MMOT values over every 4 of 5 collinear spaces."""
    T = DistanceTensor(4, 5)
    for subset in combinations(range(5), 4):
        sub_cost = PairwiseCost({
            (a, b): cost.get(subset[a], subset[b])
            for a, b in combinations(range(4), 2)
        })
        T.set(subset, pairwise_mmot([dists[i] for i in subset], sub_cost).value)
    return T


def _verify_collinear() -> Checked:
    dists, cost = collinear_instance(4, 3)
    premise = check_metric(cost, [p.atoms for p in dists])  # the theorem's premise
    if not premise.ok:
        raise AssertionError(f"collinear pair costs are not a metric: {premise.summary()}")
    emp_c = check_W_tensor(_collinear_tensor(dists, cost)).empirical_C
    if emp_c > 3.0 + 1e-6 or abs(emp_c - 3.0) > 1e-3:
        raise AssertionError(f"collinear ratio {emp_c}, expected 3")
    return Checked(f"pair costs a metric ({premise.n_checked} checks); collinear family "
                   f"attains the leave-one-out ratio bound ({emp_c:g})", emp_c)


# the one binding of verify's fixed seeds and case counts to its checks;
# the acceptance suite calls the same checks with seeds of its own
_VERIFY_CHECKS: tuple[tuple[str, Callable[[], Checked]], ...] = (
    ("gluing-infeasibility", lambda: _verify_gluing(seed=20260819)),
    ("planar-counterexample", _verify_planar),
    ("index-map-audits", _verify_hashes),
    ("glue-marginals", lambda: _verify_glue(seed=31337, cases=20)),
    ("pair-triangle", lambda: _verify_triangle(seed=90210, cases=20)),
    ("collinear-ratio", _verify_collinear),
)


def cmd_verify() -> int:
    """Run the reproduction suite; return 0 when every check passes."""
    failures = 0
    for name, check in _VERIFY_CHECKS:
        try:
            checked = check()
        except Exception as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}: {checked.detail}")
    total = len(_VERIFY_CHECKS)
    print(f"{total - failures} of {total} checks passed")
    return 0 if failures == 0 else 1
