"""Every package name the benchmark scripts import exists."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def package_imports() -> list[tuple[str, str, str | None]]:
    """(script, module, name) of every ``from regflood... import name`` and, with
    name None, every ``import regflood...`` in the benchmark scripts, at any depth."""
    found = []
    for script in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module.split(".")[0] == "regflood"
            ):
                found += [(script.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (script.name, alias.name, None) for alias in node.names
                    if alias.name.split(".")[0] == "regflood"
                ]
    return found


def test_every_benchmark_import_resolves():
    # the workloads import inside functions, so a removed or renamed name
    # broke the benchmark run and nothing else
    imports = package_imports()
    assert {module for _, module, _ in imports} >= {"regflood", "regflood.regional"}
    missing = []
    for script, module, name in imports:
        try:
            target = importlib.import_module(module)
        except ImportError:
            missing.append(f"{script}: {module}")
            continue
        if name is not None and not hasattr(target, name):
            missing.append(f"{script}: {module}.{name}")
    assert not missing, missing
