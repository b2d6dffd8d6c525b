"""The layers of ``relaycache.schemes``, read from the source: the log
imports nothing from the package, the shared plumbing imports the log but
no plan or scheme, and the plan imports neither the log nor a scheme.

The source is parsed, not ``sys.modules`` read: importing any submodule
runs the package's ``__init__``, which loads every module."""

import ast
from pathlib import Path

import pytest

import relaycache

SCHEMES_DIR = Path(relaycache.__file__).parent / "schemes"
SCHEMES = ("proposed", "cmcnc", "routing", "broadcast")


def imported(name: str) -> set[str]:
    """Every dotted name from the package that ``schemes/<name>.py``
    imports: each module, and each module with each name taken from it."""
    tree = ast.parse((SCHEMES_DIR / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # Level 1 is relaycache.schemes, level 2 relaycache.
            base = ["relaycache", "schemes"][: 3 - node.level] if node.level else []
            module = ".".join(base + (node.module.split(".") if node.module else []))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return {m for m in found if m == "relaycache" or m.startswith("relaycache.")}


def reaches(found: set[str], module: str) -> bool:
    """Whether ``found`` imports ``relaycache.schemes.<module>`` or a name from it."""
    dotted = f"relaycache.schemes.{module}"
    return any(m == dotted or m.startswith(dotted + ".") for m in found)


def test_the_log_imports_nothing_from_the_package():
    assert imported("log") == set()


def test_common_imports_the_log():
    assert reaches(imported("common"), "log")


@pytest.mark.parametrize("name,banned", [("common", ("plan", *SCHEMES)), ("plan", ("log", *SCHEMES))])
def test_a_layer_imports_nothing_above_it(name, banned):
    found = imported(name)
    assert [m for m in banned if reaches(found, m)] == [], sorted(found)


def test_the_reader_resolves_relative_imports():
    # The checks above pass vacuously if relative imports are misread.
    found = imported("plan")
    assert {"relaycache.schemes.common.gather", "relaycache.topology.Network"} <= found
