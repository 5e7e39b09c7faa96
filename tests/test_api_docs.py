"""docs/API.md states what each package exports (AST and text only).

A section whose heading names a package (``## Traces — `repro.traces```)
lists that package's public names in the first column of its table:

* a bare name (``generate_trace``) is exported by the package, and the
  bare names of a section are exactly the package's ``__all__``;
* a dotted name (``validate.one_step_r2``) is relative to the package
  and names something a submodule or subpackage binds at module level.

Stdlib only, so the CI lint step runs it without NumPy.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
API = ROOT / "docs" / "API.md"

_HEADING = re.compile(r"^## .*?`(repro(?:\.\w+)*)`")
_CODE = re.compile(r"`([^`]+)`")
_NAME = re.compile(r"^[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*$")


def _sections():
    """Package -> first-column names of its section's table rows."""
    out, package = {}, None
    for line in API.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            match = _HEADING.match(line)
            package = match.group(1) if match else None
            if package:
                out[package] = []
        elif package and line.startswith("|") and not line.startswith("|---"):
            first = line.split("|")[1]
            if first.strip() != "item":
                out[package].extend(_CODE.findall(first))
    return out


SECTIONS = _sections()


def _path(module):
    base = SRC.joinpath(*module.split("."))
    return base / "__init__.py" if base.is_dir() else base.with_suffix(".py")


def _tree(module):
    return ast.parse(_path(module).read_text(encoding="utf-8"))


def _all(package):
    for node in _tree(package).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _binds(module, name):
    """True when *module* binds *name* at module level."""
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found = {node.name}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found = {t.id for t in targets if isinstance(t, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found = {alias.asname or alias.name for alias in node.names}
        else:
            continue
        if name in found:
            return True
    return False


def test_every_package_section_is_found():
    assert {"repro", "repro.apps", "repro.obs", "repro.core"} <= set(SECTIONS)


@pytest.mark.parametrize("package", sorted(SECTIONS))
def test_section_lists_exactly_the_package_exports(package):
    names = SECTIONS[package]
    malformed = [n for n in names if not _NAME.match(n)]
    assert not malformed, f"{package}: first-column entries must be plain names: {malformed}"
    listed = {n for n in names if "." not in n}
    exported = _all(package)
    assert listed == exported, (
        f"{package}: documented but not in __all__: {sorted(listed - exported)}; "
        f"in __all__ but not documented: {sorted(exported - listed)}"
    )


@pytest.mark.parametrize("package", sorted(SECTIONS))
def test_dotted_names_resolve(package):
    missing = []
    for entry in SECTIONS[package]:
        if "." not in entry:
            continue
        module, _, name = f"{package}.{entry}".rpartition(".")
        if not _path(module).exists() or not _binds(module, name):
            missing.append(entry)
    assert not missing, f"{package}: no such module-level name: {missing}"
