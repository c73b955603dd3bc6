"""The benchmark's span tracer names only functions the package defines."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def traced_names() -> list[tuple[str, str]]:
    """(layer, function) of every ``SPANNED`` and ``COUNTED`` entry of the
    tracer, read from its source without importing it."""
    names = []
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("SPANNED", "COUNTED") for t in node.targets
        ):
            for layer, functions in ast.literal_eval(node.value).items():
                names += [(layer, fn) for fn in functions]
    return names


def test_every_traced_name_exists():
    # the tracer looks each name up only under --trace 1, so a renamed or
    # deleted function broke traced runs and nothing else
    names = traced_names()
    assert {layer for layer, _ in names} >= {"moments", "regional", "gev"}
    missing = [
        f"regflood.{layer}.{fn}" for layer, fn in names
        if not callable(getattr(importlib.import_module(f"regflood.{layer}"), fn, None))
    ]
    assert not missing, missing
