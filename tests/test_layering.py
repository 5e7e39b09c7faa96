"""Import-graph rules, checked on the AST alone (nothing is imported or run).

* ``repro.sim`` is the bottom of the run stack — configs, results and
  the plant primitives.  It never imports the engine, the service or
  the CLI, at any nesting level (a function-level import is still an
  upward dependency; it only hides the cycle).
* Every module under ``src/repro`` is reachable from ``repro.cli``, the
  module of the one ``repro`` command, through imports (package
  ``__init__`` re-exports count).  A module nothing
  reaches is an orphan: give it a caller or delete it.
* ``repro.packing`` is domain-free: its modules import no ``repro``
  module outside the package.
* SciPy is imported only inside function bodies, and only by
  ``repro.control.qp`` (the SLSQP hand-over) and ``repro.sysid.fit``
  (the bounded ARX fit): importing ``repro.cli``, or running a
  large-scale or sharded scenario, never loads it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


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


def _imports(name):
    """Every ``repro`` module *name* imports, at any nesting level."""
    path = MODULES[name]
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: climb from the enclosing package
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            # ``from pkg import name`` may name a submodule of pkg.
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in targets:
            if target in MODULES:
                found.add(target)
                # Importing a.b.c executes a/__init__ and a/b/__init__ too.
                while "." in target:
                    target = target.rpartition(".")[0]
                    found.add(target)
    found.discard(name)
    return found


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


def test_every_module_is_reachable_from_the_entry_points():
    seen, stack = set(), ["repro.cli"]
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            stack.extend(_imports(name))
    orphans = sorted(set(MODULES) - seen)
    assert not orphans, f"no import path from repro.cli to: {orphans}"


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
    tree = ast.parse(MODULES[name].read_text(encoding="utf-8"))
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
