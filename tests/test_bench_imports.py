"""Every package name the benchmark scripts import or read exists."""

import ast
import importlib
from pathlib import Path
from types import ModuleType

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


def _dotted(node) -> str | None:
    """``a.b.c`` for a chain of attribute reads on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return None if head is None else f"{head}.{node.attr}"
    return None


def attribute_reads() -> list[tuple[str, str, str]]:
    """(script, module, name) of every ``module.name`` read in the benchmark scripts,
    where ``module`` is a package module reached as ``regflood.<module>`` or through
    a name or attribute assigned one, such as ``self._gev = regflood.gev`` followed
    by ``self._gev.TwoComponentGev`` or ``gev = self._gev``."""
    found = []
    for script in sorted(BENCH.glob("*.py")):
        tree = ast.parse(script.read_text())
        aliases = {"regflood": "regflood"}

        def module_of(node):
            text = _dotted(node)
            if text in aliases:
                return aliases[text]
            if isinstance(node, ast.Attribute) and (parent := module_of(node.value)):
                value = getattr(importlib.import_module(parent), node.attr, None)
                if isinstance(value, ModuleType) and value.__name__.startswith("regflood."):
                    return value.__name__
            return None

        # an alias may be bound from another alias written later in the file
        while True:
            before = dict(aliases)
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and (module := module_of(node.value)):
                    aliases.update({_dotted(t): module for t in node.targets if _dotted(t)})
            if aliases == before:
                break
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and (module := module_of(node.value)):
                found.append((script.name, module, node.attr))
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


def test_every_benchmark_attribute_read_resolves():
    # the workloads keep modules on the instance and read names off them per
    # call, which no import statement shows
    reads = attribute_reads()
    assert {
        ("workloads.py", "regflood.simlab", "run_scenario"),
        ("workloads.py", "regflood.gev", "TwoComponentGev"),
        ("workloads.py", "regflood.gev", "twocomp_quantile"),
    } <= set(reads)
    missing = [
        f"{script}: {module}.{name}" for script, module, name in reads
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, missing
