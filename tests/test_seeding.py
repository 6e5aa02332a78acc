"""Every random draw in `mmot` comes from a generator the caller passes in,
and `experiments.generator` makes every generator under one seed rule."""

import importlib
import inspect
import pkgutil
import re

import numpy as np
import pytest

import mmot
from mmot import cli
from mmot.experiments import GAMMA, ExperimentConfig, derive_seed, generator, splitmix64
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


def test_one_function_makes_every_generator():
    maker = inspect.getsource(generator)
    assert "PCG64" in maker
    for module in MODULES:
        source = inspect.getsource(module).replace(maker, "")
        for name in ("PCG64", "default_rng", "Generator("):
            assert name not in source, (module.__name__, name)
    assert "numpy" not in inspect.getsource(cli)


@pytest.mark.parametrize("seed", [0, 1, 7, 20260819, 2**63, 2**64 - 1])
def test_generator_is_default_rng(seed):
    got, want = generator(seed), np.random.default_rng(seed)
    assert got.bit_generator.state == want.bit_generator.state
    assert (got.random(8) == want.random(8)).all()


RULE = r": must be an integer in \[0, 2\*\*64\), got "


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70, 1.0, "7", None, True])
def test_one_rule_refuses_every_seed_outside_the_range(seed):
    with pytest.raises(ValueError, match=f"^seed{RULE}{re.escape(repr(seed))}$"):
        generator(seed)
    with pytest.raises(ValueError, match=f"^config key 'seed'{RULE}"):
        ExperimentConfig(seed=seed)
    assert ExperimentConfig(seed=2**64 - 1).seed == 2**64 - 1


def test_derive_seed_keeps_every_stream_of_a_valid_master():
    # the fully masked formula as the oracle: splitmix64 masks its own
    # input, so the two agree on every master in [0, 2**64)
    mask = 2**64 - 1
    for master in (0, 1, 20260819, 2**63 + 5, mask):
        for t, u in ((0, 0), (0, 34), (1, 1), (21, 0), (2**70, 3)):
            old = (master ^ splitmix64((t * GAMMA + u) & mask)) & mask
            assert derive_seed(master, t, u) == old
            assert generator(derive_seed(master, t, u)).bit_generator.state == \
                np.random.default_rng(old).bit_generator.state
