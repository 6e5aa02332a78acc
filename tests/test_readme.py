"""README's python blocks run as written, so the quick start cannot go stale."""

import re
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from mmot.metric_props import DistanceTensor

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def write_small_tensor(path):
    """A full order-3 tensor over 8 planar points: perimeters of their triangles."""
    pts = np.random.default_rng(0).uniform(-1, 1, size=(8, 2))
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    T = DistanceTensor(3, len(pts))
    for i, j, k in combinations(range(len(pts)), 3):
        T.set((i, j, k), dist[i, j] + dist[i, k] + dist[j, k])
    T.to_csv(str(path))


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_block_runs(index, tmp_path, monkeypatch, capsys):
    # the tensor block reads a csv from the working directory
    monkeypatch.chdir(tmp_path)
    write_small_tensor(tmp_path / "tensor_mmot_pairwise.csv")
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().out
