"""Every name the benchmark's tracer wraps still exists in pliersim.

The benchmark tests patch each name in ``bench/tracing.py`` ``TARGETS``
and fail on one that is gone; this catches the removal in the package's
own test suite. The bench module is loaded from its file without writing
bytecode next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, class_name, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(f"pliersim.{module_name}")
        if class_name is not None:
            owner = getattr(owner, class_name, None)
        if not hasattr(owner, attr):
            missing.append(".".join(filter(None, (module_name, class_name, attr))))
    assert missing == []
