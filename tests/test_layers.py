"""Layering: modules import only from their own tier or the tiers below.

The tiers, lowest first: the case model and the AHP weights (which import
nothing from the package; the case model checks its judgment matrix with the
AHP's rule); device, demand-response, power-flow and reliability models; the
objectives; the optimizer; the CLI.
The package ``__init__`` re-exports the public API and is exempt.
"""

import ast
from pathlib import Path

import mgopt

PACKAGE = Path(mgopt.__file__).parent

TIERS = {
    "netmodel": 0,
    "devices": 1,
    "dr": 1,
    "ahp": 0,
    "powerflow": 1,
    "reliability": 1,
    "objectives": 2,
    "optimizer": 3,
    "cli": 4,
}


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE).with_suffix("").parts
        if parts == ("__init__",):
            continue
        yield path, parts


def _imported_units(path, parts):
    """Top-level package members a module imports, at any nesting depth."""
    package = parts[:-1]
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - (node.level - 1)]
                target = base + tuple(node.module.split(".")) if node.module else base
                if target:
                    yield target[0], node.lineno
                else:
                    # ``from . import x`` at the package root names members.
                    for alias in node.names:
                        yield alias.name, node.lineno
            elif node.module and node.module.split(".")[0] == "mgopt":
                names = node.module.split(".")[1:]
                if names:
                    yield names[0], node.lineno
                else:
                    for alias in node.names:
                        yield alias.name, node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names = alias.name.split(".")
                if names[0] == "mgopt" and len(names) > 1:
                    yield names[1], node.lineno


def test_every_module_has_a_tier():
    for _, parts in _modules():
        assert parts[0] in TIERS, parts


def test_imports_point_down():
    upward = []
    for path, parts in _modules():
        own = TIERS[parts[0]]
        for unit, line in _imported_units(path, parts):
            if unit in TIERS and TIERS[unit] > own:
                upward.append(f"{'.'.join(parts)}:{line} imports {unit}")
    assert not upward, upward
