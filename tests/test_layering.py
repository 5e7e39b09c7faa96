"""Import-graph rules, checked on the AST alone (nothing is imported or run).

* ``repro.sim`` is the bottom of the run stack — configs, results and
  the plant primitives.  It never imports the engine, the service or
  the CLI, at any nesting level (a function-level import is still an
  upward dependency; it only hides the cycle).
* Every module under ``src/repro`` has a caller that runs: it is
  reachable from the roots — ``repro.cli``, the module of the one
  ``repro`` command, and the scripts in ``examples/`` (users run them as
  ``python examples/X.py``) — through imports.  An import of a name
  through a package resolves to the module that defines the name, and a
  package ``__init__``'s own imports reach nothing, so a re-export does
  not keep a module alive.  Tests and benches are not roots: a module
  only they import belongs in ``tests/oracles/``.
* ``repro.packing`` is domain-free: its modules import no ``repro``
  module outside the package.
* SciPy is imported only inside function bodies, and only by
  ``repro.control.qp`` (the SLSQP hand-over) and ``repro.sysid.fit``
  (the bounded ARX fit): importing ``repro.cli``, or running a
  large-scale or sharded scenario, never loads it.
"""

import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def _modules():
    """Dotted module name -> source path, for everything under src/repro."""
    out = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


MODULES = _modules()
PACKAGES = {name for name, path in MODULES.items() if path.name == "__init__.py"}


@lru_cache(maxsize=None)
def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _statements(path, package):
    """``(base, names)`` for every import statement in *path*, at any
    nesting level: ``import a.b`` is ``("a.b", None)``, ``from a import
    x as y`` is ``("a", [alias])``.  *package* anchors relative imports."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: climb from the enclosing package
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            yield base, node.names


def _package_of(name):
    return name if name in PACKAGES else name.rpartition(".")[0]


def _parents(name):
    """The packages importing *name* executes: a.b.c runs a/__init__ and
    a/b/__init__ first."""
    while "." in name:
        name = name.rpartition(".")[0]
        yield name


def _imports(name):
    """Every ``repro`` module *name* imports, at any nesting level, with
    the packages that importing it executes."""
    found = set()
    for base, names in _statements(MODULES[name], _package_of(name)):
        # ``from pkg import name`` may name a submodule of pkg.
        targets = [base] + [f"{base}.{alias.name}" for alias in names or ()]
        for target in targets:
            if target in MODULES:
                found.add(target)
                found.update(_parents(target))
    found.discard(name)
    return found


def _origin(module, name):
    """The module that defines *name* when it is imported from *module*:
    a package's re-export is followed to where the name is defined."""
    if module not in PACKAGES:
        return module
    for base, names in _statements(MODULES[module], module):
        for alias in names or ():
            if (alias.asname or alias.name) != name:
                continue
            if f"{base}.{alias.name}" in MODULES:
                return f"{base}.{alias.name}"
            if base in MODULES:
                return _origin(base, alias.name)
    return module


def _uses(path, package):
    """The ``repro`` modules whose code the file at *path* imports."""
    found = set()
    for base, names in _statements(path, package):
        if names is None:
            if base in MODULES:
                found.add(base)
            continue
        for alias in names:
            if f"{base}.{alias.name}" in MODULES:
                found.add(f"{base}.{alias.name}")
            elif base in MODULES:
                found.add(_origin(base, alias.name))
    return found


def _reachable():
    """Every module reachable from ``repro.cli`` and the examples."""
    seen = set()
    stack = ["repro.cli"] + [m for path in EXAMPLES for m in _uses(path, "")]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        seen.update(_parents(name))
        # What a package __init__ imports is not thereby called.
        if name not in PACKAGES:
            stack.extend(_uses(MODULES[name], _package_of(name)))
    return seen


def test_sim_imports_nothing_above_it():
    upward = ("repro.engine", "repro.service", "repro.cli")
    offenders = {
        name: sorted(
            t for t in _imports(name)
            if t in upward or t.startswith(tuple(u + "." for u in upward))
        )
        for name in MODULES
        if name == "repro.sim" or name.startswith("repro.sim.")
    }
    offenders = {name: hits for name, hits in offenders.items() if hits}
    assert not offenders, f"repro.sim must not import upward: {offenders}"


def test_examples_are_found():
    assert len(EXAMPLES) >= 5


def test_a_reexport_resolves_to_the_defining_module():
    assert _origin("repro.core", "ControllerConfig") == (
        "repro.core.controller.response_time_controller"
    )
    assert _origin("repro.obs", "use_telemetry") == "repro.obs.telemetry"
    assert _origin("repro", "__version__") == "repro"


def test_every_module_is_reachable_from_the_entry_points():
    orphans = sorted(set(MODULES) - _reachable())
    assert not orphans, (
        f"no import path from repro.cli or examples/*.py to: {orphans} "
        "(a package re-export does not count; a module only tests or "
        "benches import belongs in tests/oracles/)"
    )


def test_packing_imports_only_packing():
    # ``repro`` itself is every module's implicit ancestor, not a dependency.
    offenders = {
        name: sorted(
            t for t in _imports(name)
            if t != "repro" and t != "repro.packing" and not t.startswith("repro.packing.")
        )
        for name in MODULES
        if name == "repro.packing" or name.startswith("repro.packing.")
    }
    offenders = {name: hits for name, hits in offenders.items() if hits}
    assert not offenders, f"repro.packing must stay domain-free: {offenders}"


SCIPY_CALLERS = {"repro.control.qp", "repro.sysid.fit"}


def _scipy_imports(name):
    """``(line, at_module_level)`` for every SciPy import in *name*."""
    tree = _tree(MODULES[name])
    in_function = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            targets = [node.module or ""]
        else:
            continue
        if any(t == "scipy" or t.startswith("scipy.") for t in targets):
            found.append((node.lineno, id(node) not in in_function))
    return found


def test_scipy_is_imported_only_where_it_is_called():
    offenders = {}
    for name in MODULES:
        for line, module_level in _scipy_imports(name):
            if name not in SCIPY_CALLERS:
                offenders[f"{name}:{line}"] = "only qp and fit may import scipy"
            elif module_level:
                offenders[f"{name}:{line}"] = "import scipy inside the function that calls it"
    assert not offenders, f"scipy imports off the allowed call sites: {offenders}"
