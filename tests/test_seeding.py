"""Every random draw in `mmot` comes from a generator the caller passes in."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import mmot
from mmot.graphs import erdos_renyi, generate, perturb

MODULES = [importlib.import_module(f"mmot.{m.name}")
           for m in pkgutil.iter_modules(mmot.__path__)]


def public_callables():
    """Public functions and methods defined in each module (not imported there)."""
    for module in MODULES:
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_every_rng_parameter_is_required():
    takes_rng = {name: fn for name, fn in public_callables()
                 if "rng" in inspect.signature(fn).parameters}
    # the pipeline's random entry points must all be covered by the scan
    assert {"mmot.clustering.kmeans", "mmot.clustering.ttm", "mmot.clustering.nhcut",
            "mmot.clustering.spectral_cluster", "mmot.graphs.erdos_renyi",
            "mmot.graphs.perturb", "mmot.graphs.generate",
            "mmot.metric_props.inject_violations"} <= set(takes_rng)
    defaulted = sorted(name for name, fn in takes_rng.items()
                       if inspect.signature(fn).parameters["rng"].default
                       is not inspect.Parameter.empty)
    assert defaulted == []


def test_no_module_draws_from_an_unseeded_generator():
    for module in MODULES:
        assert "default_rng()" not in inspect.getsource(module), module.__name__


def test_random_graphs_take_the_generator_by_keyword():
    with pytest.raises(TypeError):
        erdos_renyi(10, 0.4, np.random.default_rng(0))
    with pytest.raises(TypeError):
        perturb(erdos_renyi(10, 0.4, rng=np.random.default_rng(0)), 0.1,
                np.random.default_rng(0))


def test_generate_refuses_erdos_renyi_without_a_generator():
    with pytest.raises(ValueError, match="erdos_renyi needs a random generator"):
        generate("erdos_renyi", {"n": 10, "p": 0.4}, None)
    # a deterministic family needs none
    assert generate("cycle", {"n": 5}, None).n == 5
