"""The traced benchmark's names still exist in the package.

bench/tracing.py times each layer by replacing a function under the name
its caller looks it up by; a name that disappears makes the traced bench
report it as absent. This runs that check without running the bench.
"""
from __future__ import annotations

import importlib
import importlib.util

from helpers import REPO_ROOT


def _bench_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  REPO_ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def test_every_traced_name_resolves_to_a_callable():
    targets = _bench_targets()
    missing = [f"{module}.{attr}" for module, attr, _, _ in targets
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert len(targets) > 0 and missing == []
