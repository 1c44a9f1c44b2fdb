"""Architecture rules, read from the source with the standard library's ast.

Each rule is stated once, in a table, and nothing here imports the package:

- Reachability: every name in descent_forge.__all__ is reached by a
  pipeline. The roots are bench/, scripts/, tests/test_acceptance.py and
  ``python -m descent_forge``. A definition is reached when a root refers
  to it, or when a reached definition does, so a record class counts
  through the functions that build it. Unit tests are not roots: a helper
  that only its own unit tests call is code no pipeline needs.
- Layering (LAYERS): each module imports only the package modules below it.
- Banned imports (BANNED_IMPORTS): standard modules the package dropped.
- One home (ONE_HOME): a rule owned by one module appears in no other.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "descent_forge"
PACKAGE = "descent_forge"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))
ROOT_FILES = sorted(
    [*ROOT.glob("bench/*.py"), *ROOT.glob("scripts/*.py"), ROOT / "tests" / "test_acceptance.py"]
)

# Each module and the package modules it may import, lowest layer first.
# Only __main__ imports cli.
_ARITH = frozenset({"_value", "errors", "core_arith"})
_EQUATIONS = _ARITH | {"equations"}
_ENGINES = _EQUATIONS | {"reduction", "descent", "search"}
LAYERS = {
    "_value": frozenset(),
    "errors": frozenset(),
    "core_arith": frozenset({"_value", "errors"}),
    "equations": _ARITH,
    "reduction": _EQUATIONS,
    # A descent step is an R1 -> R1 reduction trace, built and replayed by
    # reduction's one engine.
    "descent": _EQUATIONS | {"reduction"},
    "search": _EQUATIONS | {"reduction"},
    "cli": _ENGINES,
    "__init__": _ENGINES,
    "__main__": frozenset({"cli"}),
}

# dataclasses and typing were slow to import, so records are _value.Frozen
# classes; every scan runs on the calling thread, so there is no pool.
BANNED_IMPORTS = ("dataclasses", "typing", "threading", "concurrent")


@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _module_tree(module: str) -> ast.Module:
    return _tree(SRC / f"{module}.py")


def _called_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _calls(tree: ast.Module, name: str, keyword: str | None = None) -> list[int]:
    """Lines of the calls of name, with keyword among their arguments if given."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _called_name(node.func) == name
        and (keyword is None or any(kw.arg == keyword for kw in node.keywords))
    ]


# Rule id: (the lines in a module's tree that the rule is about, the one
# module they may appear in, how many times they appear there or None).
ONE_HOME = {
    # Each map returns its trace already replayed, so nothing else replays.
    "replay_trace_called_only_in_reduction": (
        lambda tree: _calls(tree, "replay_trace"), "reduction", None,
    ),
    # A point off its equation or system is refused where its record is
    # built, by quartic_solution and resolvent_solution; descent validates
    # by building the record rather than by a second hand-written check.
    "not_a_solution_raised_only_in_equations": (
        lambda tree: _calls(tree, "NotASolution"), "equations", 2,
    ),
    # _add_command_arguments sets every command's handler, for the full
    # tree and a command's own parser alike.
    "handler_default_set_once_in_cli": (
        lambda tree: _calls(tree, "set_defaults", keyword="handler"), "cli", 1,
    ),
}


def _imports(tree: ast.Module) -> dict[str, tuple[str, str | None]]:
    """Each local name an import binds to the package: (module, None) for a
    package module, (module, name) for a name imported from one. Relative
    imports count in src, absolute ones anywhere; __init__ is the package."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == PACKAGE:
                    module = parts[1] if alias.asname and len(parts) > 1 else "__init__"
                    bound[alias.asname or PACKAGE] = (module, None)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:
                base = node.module
            elif node.level == 0 and (node.module or "").split(".")[0] == PACKAGE:
                base = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                if base is None and alias.name in MODULES:
                    bound[alias.asname or alias.name] = (alias.name, None)
                else:
                    bound[alias.asname or alias.name] = (base or "__init__", alias.name)
    return bound


def _definitions(tree: ast.Module) -> tuple[dict[str, ast.stmt], list[ast.stmt]]:
    """A module's top-level definitions by name, and its other statements
    that run on import (imports aside)."""
    named, loose = {}, []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            named[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        named[name.id] = node
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            loose.append(node)
    return named, loose


class _Program:
    """The package's top-level definitions and what each refers to."""

    def __init__(self) -> None:
        self.imports = {module: _imports(_module_tree(module)) for module in MODULES}
        self.definitions, self.loose = {}, {}
        for module in MODULES:
            self.definitions[module], self.loose[module] = _definitions(_module_tree(module))

    def resolve(self, module: str, name: str) -> tuple[str, str] | None:
        """The (module, name) that defines name as seen from module."""
        while name not in self.definitions.get(module, {}):
            module, name = self.imports.get(module, {}).get(name, (None, None))
            if name is None:
                return None
        return module, name

    def references(self, node: ast.AST, module: str | None) -> set[tuple[str, str]]:
        """The definitions node refers to; module is the one node sits in,
        or None for a file outside the package."""
        bound = self.imports[module] if module else _imports(node)
        found = set()

        def target(expr: ast.expr) -> tuple[str, str | None] | None:
            if isinstance(expr, ast.Name):
                if module and expr.id in self.definitions[module]:
                    return module, expr.id
                return bound.get(expr.id)
            if isinstance(expr, ast.Attribute):
                base = target(expr.value)
                if base and base[1] is None:
                    if base[0] == "__init__" and expr.attr in MODULES:
                        return expr.attr, None
                    return base[0], expr.attr
            return None

        for expr in ast.walk(node):
            candidate = target(expr) if isinstance(expr, (ast.Name, ast.Attribute)) else None
            if candidate and candidate[1] is not None:
                resolved = self.resolve(*candidate)
                if resolved:
                    found.add(resolved)
        return found

    def reached(self) -> set[tuple[str, str]]:
        pending = [ref for path in ROOT_FILES for ref in self.references(_tree(path), None)]
        pending += [
            ref for module in MODULES for node in self.loose[module] for ref in self.references(node, module)
        ]
        reached = set()
        while pending:
            key = pending.pop()
            if key not in reached:
                reached.add(key)
                module, name = key
                pending.extend(self.references(self.definitions[module][name], module))
        return reached


def _exports() -> list[str]:
    for node in _module_tree("__init__").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("descent_forge/__init__.py assigns no __all__")


def test_every_export_is_reached_by_a_pipeline():
    program = _Program()
    reached = program.reached()
    unreached = []
    for name in _exports():
        home = program.resolve("__init__", name)
        if home is None:
            unreached.append(f"descent_forge.{name} is exported but defined nowhere in the package")
        elif home not in reached:
            unreached.append(
                f"descent_forge.{name} (defined in {home[0]}.py) is exported, but no pipeline "
                "reaches it: bench/, scripts/, tests/test_acceptance.py and the CLI use it "
                "neither directly nor through code they reach"
            )
    assert not unreached, "\n".join(unreached)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_lower_layers(module):
    assert module in LAYERS, f"{module}.py has no row in LAYERS: place it in the layering"
    imported = {target for target, _ in _imports(_module_tree(module)).values()}
    above = sorted(imported - LAYERS[module])
    assert not above, f"{module}.py imports {above}; its layer allows only {sorted(LAYERS[module])}"


@pytest.mark.parametrize("module", MODULES)
def test_no_banned_standard_import(module):
    banned = []
    for node in ast.walk(_module_tree(module)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        banned += [f"{name} (line {node.lineno})" for name in names if name.split(".")[0] in BANNED_IMPORTS]
    assert not banned, f"{module}.py imports {', '.join(banned)}, banned by BANNED_IMPORTS"


@pytest.mark.parametrize("rule", ONE_HOME)
def test_one_home(rule):
    find, home, count = ONE_HOME[rule]
    lines = {module: find(_module_tree(module)) for module in MODULES}
    strays = [f"{module}.py line {line}" for module in MODULES if module != home for line in lines[module]]
    assert not strays, f"{rule}: also in {', '.join(strays)}"
    if count is not None:
        assert len(lines[home]) == count, f"{rule}: {len(lines[home])} times in {home}.py, not {count}"
