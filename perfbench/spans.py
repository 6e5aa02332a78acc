"""In-memory span tracing around the public functions of `mmot`.

A `Tracer` patches functions where the pipeline looks them up (the
module namespace of the caller), records one span per call (name,
start, end, parent) and restores every attribute on exit.  Nothing in
`mmot` is edited; an untraced run never constructs a Tracer, so no
attribute is touched.
"""
from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

# (module, attribute, span name): each entry wraps the object the caller
# actually resolves at call time.  Class attributes are given as
# "Class.method".
PATCHES: tuple[tuple[str, str, str], ...] = (
    # root spans: one per CLI command
    ("mmot.cli", "cmd_distances", "experiments.cmd"),
    ("mmot.cli", "cmd_cluster", "experiments.cmd"),
    ("mmot.cli", "cmd_inject", "experiments.cmd"),
    ("mmot.cli", "cmd_verify", "experiments.cmd"),
    ("mmot.experiments", "build_corpus", "experiments.corpus"),
    # lp: transport calls lp.solve, metric_props calls lp.feasible
    ("mmot.lp", "solve", "lp.solve"),
    ("mmot.lp", "feasible", "lp.feasible"),
    # transport entry points as experiments and constructions import them
    ("mmot.experiments", "wasserstein", "transport.solve"),
    ("mmot.experiments", "pairwise_mmot", "transport.solve"),
    ("mmot.experiments", "mmot", "transport.solve"),
    ("mmot.constructions", "mmot", "transport.solve"),
    ("mmot.experiments", "euclidean_cost", "transport.cost"),
    # clustering
    ("mmot.experiments", "build_hypergraph", "clustering.build_hypergraph"),
    ("mmot.experiments", "ttm", "clustering.hypergraph"),
    ("mmot.experiments", "nhcut", "clustering.hypergraph"),
    ("mmot.experiments", "spectral_cluster", "clustering.spectral"),
    ("mmot.experiments", "tune_threshold", "clustering.tune_threshold"),
    ("mmot.experiments", "clustering_error", "clustering.error"),
    ("mmot.clustering", "clustering_error", "clustering.error"),
    ("mmot.clustering", "kmeans", "clustering.kmeans"),
    # linalg and graphs
    ("mmot.clustering", "eig_symmetric", "linalg.eig_symmetric"),
    ("mmot.graphs", "eig_general", "linalg.eig_general"),
    ("mmot.experiments", "signature", "graphs.signature"),
    # metric_props
    ("mmot.metric_props", "DistanceTensor.from_csv", "metric_props.csv_read"),
    ("mmot.metric_props", "DistanceTensor.to_csv", "metric_props.csv_write"),
    ("mmot.experiments", "check_W_tensor", "metric_props.check_W"),
    ("mmot.experiments", "inject_violations", "metric_props.inject"),
    # verify-only layers
    ("mmot.hashes", "audit_H", "hashes.audit"),
    ("mmot.hashes", "audit_H_prime", "hashes.audit"),
    ("mmot.experiments", "planar_counterexample", "constructions.build"),
    ("mmot.experiments", "collinear_instance", "constructions.build"),
    ("mmot.experiments", "glue", "core.glue"),
)


# Counts taken from a call's arguments and result, per span name.
def _lp_shape(args, kwargs, out):
    p = args[0]
    return {"rows": p.A.shape[0], "columns": p.A.shape[1],
            "nonoptimal": int(out.status != "optimal")}


def _sentinel(args, kwargs, out):
    return {"sentinel": int(out.effectively_infinite)}


COUNTERS: dict[str, Callable] = {
    "lp.solve": _lp_shape,
    "transport.solve": _sentinel,
    "clustering.build_hypergraph": lambda a, k, out: {"hyperedges": out.num_edges},
    "metric_props.check_W": lambda a, k, out: {"checked": out.n_checked},
    "metric_props.inject": lambda a, k, out: {"modified": len(out.modified)},
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    label: str = ""
    ok: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans kept in memory; `installed()` patches and always restores."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def span(self, name: str, fn: Callable) -> Callable:
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            rec = Span(name, time.perf_counter(), parent=parent)
            self.spans.append(rec)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
                rec.ok = True
                if count is not None:
                    rec.counts = count(args, kwargs, out)
                return out
            finally:
                rec.end = time.perf_counter()
                self._stack.pop()
        return wrapper

    @contextmanager
    def region(self, name: str, label: str = ""):
        """A span opened by the harness itself, e.g. one CLI command."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = Span(name, time.perf_counter(), parent=parent, label=label)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
            rec.ok = True
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name in PATCHES:
                owner = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                if isinstance(original, classmethod):
                    wrapped = classmethod(self.span(name, original.__func__))
                else:
                    wrapped = self.span(name, original)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        Calls nest and run on one thread, so children never overlap and
        the covered time is the sum of their durations.
        """
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def ancestors(self, idx: int):
        parent = self.spans[idx].parent
        while parent >= 0:
            yield self.spans[parent]
            parent = self.spans[parent].parent

    def root_of(self, idx: int) -> Span:
        """The outermost span enclosing span idx (itself when it is a root)."""
        while self.spans[idx].parent >= 0:
            idx = self.spans[idx].parent
        return self.spans[idx]
