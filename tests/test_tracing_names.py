"""The benchmark's tracer (``perfbench/tracing.py``) patches the package's
functions by name, so every name in its ``TRACED`` table must resolve: a
removed or renamed function would otherwise surface only when the traced
benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_its_module():
    tracing = _load_tracing()
    missing, seen = [], 0
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"{tracing.PACKAGE}.{layer}")
        for name in names:
            # "Class.method" is patched on the class, as the tracer does
            owner, _, attr = name.rpartition(".")
            holder = vars(getattr(module, owner)) if owner else vars(module)
            if not callable(holder.get(attr)):
                missing.append(f"{layer}.{name}")
            seen += 1
    assert seen > 0
    assert missing == []
