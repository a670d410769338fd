"""The benchmark tracer's patch points must name callables that exist in tlfsim.

``bench/tracing.py`` skips a missing name and the benchmark then reports it
as "not traced"; this test turns such a rename into a tier-1 failure.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_patch_point_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracing.PATCH_POINTS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracing.PATCH_POINTS and missing == []
