"""Every function, class, method and module constant in ``src/gridstudy`` has
a caller outside ``tests/``.

Code that only the tests call belongs in ``tests/oracles.py`` or in the test
module that uses it.  A definition counts as called when its name is
referenced (as a name, an attribute or an imported name) somewhere in
``src/gridstudy`` outside its own body, in the benchmark's ``perfbench/*.py``
modules other than its tests (string constants included: the tracer names
its targets as strings), or by the console-script entry point in
``pyproject.toml``.  A method counts as called only through an attribute
reference (``obj.name``) or a perfbench string constant; a function or class
through any of them.  Names are matched without their class or module, so a
definition that shares its name with a called one passes; the scan errs
towards passing.  A module constant (a non-dunder name bound by a
module-level assignment) counts as used by the same rules as a function,
its own statement standing in for the function's body.
"""

import ast
import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gridstudy"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(name, first line, last line) of each module-level function, class and
    constant and of each method; dunder names are left out, as Python reads
    those itself."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not _is_dunder(name.id):
                        yield name.id, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not _is_dunder(item.name)):
                    yield f"{node.name}.{item.name}", item.lineno, item.end_lineno


def _references(tree: ast.AST, strings: bool = False):
    """(name, line, whether it can reach a method) of every name, attribute
    and imported name in ``tree``; with ``strings``, identifier-like string
    constants as well.  Attributes and strings can reach a method."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno, False
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno, True


def _entry_points() -> set[str]:
    """Function names of the ``[project.scripts]`` targets."""
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r'=\s*"[\w.]+:(\w+)"', scripts))


def uncalled_definitions(src: Path = SRC) -> list[str]:
    """``module.name`` of each definition in ``src`` without a caller."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    assert trees, f"no modules under {src}"
    outside = {name: False for name in _entry_points()}  # name: whether it can reach a method
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        if not path.name.startswith("test_"):
            for name, _, reach in _references(ast.parse(path.read_text()), True):
                outside[name] = outside.get(name, False) or reach
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    uncalled = []
    for path, tree in trees.items():
        for qualname, first, last in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            method = "." in qualname
            called = (name in outside and (outside[name] or not method)) or any(
                ref == name and (reach or not method)
                and not (other == path and first <= line <= last)
                for other, found in refs.items() for ref, line, reach in found)
            if not called:
                uncalled.append(f"{path.stem}.{qualname}")
    return uncalled


def test_src_holds_only_what_the_pipeline_calls():
    assert uncalled_definitions() == []


def test_the_scan_reports_test_only_code(tmp_path):
    """A method, a function and a constant that nothing in the package uses
    are reported, and so is a method that shares its name with a function
    called by name; a function and a constant used in the package are not."""
    for path in SRC.glob("*.py"):
        shutil.copy(path, tmp_path)
    (tmp_path / "extra.py").write_text(
        "class Series:\n"
        "    def timestamp_at(self, hour):\n"
        "        return hour\n\n"
        "class Pool:\n"
        "    def keep(self):\n"
        "        return self\n\n"
        "def orphan():\n"
        "    return orphan()\n\n"
        "def keep(pool):\n"
        "    return pool\n\n"
        "def helper():\n"
        "    return Series(), keep(Pool())\n\n"
        "VALUE = helper()\n"
        "TEST_ONLY_TOL = 1e-9  # read only by tests\n"
        "print(VALUE)\n")
    found = [name for name in uncalled_definitions(tmp_path) if name.startswith("extra.")]
    assert found == ["extra.Series.timestamp_at", "extra.Pool.keep", "extra.orphan",
                     "extra.TEST_ONLY_TOL"]
