"""The code that README.md shows runs as written, on the names the package exports."""
from __future__ import annotations

import numpy as np

import gazelidar
from gazelidar.lidar import PointCloud
from helpers import REPO_ROOT


def _python_block(heading: str) -> str:
    """The first ```python block of the README section under `## heading`."""
    text = (REPO_ROOT / "README.md").read_text()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_use_scans_box_1():
    namespace = {}
    exec(compile(_python_block("Library use"), "README.md", "exec"), namespace)
    cloud = namespace["cloud"]
    assert isinstance(cloud, PointCloud)
    assert len(cloud.returns) > 0 and np.all(cloud.returns["hit_id"] == 1)


def test_every_exported_name_resolves():
    exported = gazelidar.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(gazelidar, name)] == []
