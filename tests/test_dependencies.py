"""The package runs on the standard library alone, and keeps its checks
under `python -O`.

`capslice` may import only `sys.stdlib_module_names` and itself, and
`pyproject.toml` lists no runtime dependency; test-only packages belong in
the `test` extra. No `capslice` module holds an `assert` statement, which
`python -O` strips: every check raises an exception of its own. The one
`unseal` call in the package is the kernel's, on attach tokens, so no path
reopens the slicer's sealed roots. The checks read source text, so they
hold on every Python version the project supports, with nothing extra
installed.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "capslice"
ALLOWED = set(sys.stdlib_module_names) | {"capslice"}


def foreign_imports(source: str) -> list[str]:
    """Top-level modules that `source` imports from outside the standard
    library and `capslice`, at any depth of the file."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # not an import, or a relative one
        found += [name for name in names if name.partition(".")[0] not in ALLOWED]
    return found


def assert_lines(source: str) -> list[int]:
    """The line of each `assert` statement in `source`, at any depth."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def unseal_calls(source: str) -> list[str]:
    """The text of each call to a function named `unseal` in `source`, at
    any depth."""
    calls = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)]
    return [ast.unparse(call) for call in calls
            if getattr(call.func, "id", getattr(call.func, "attr", None)) == "unseal"]


def runtime_dependencies(pyproject: str) -> str:
    """The text inside `[project]`'s `dependencies = [...]`, or "" if absent."""
    section = re.search(r"^\[project\]\s*$(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    assert section, "pyproject.toml has no [project] table"
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", section.group(1), re.M | re.S)
    return re.sub(r"#.*", "", deps.group(1)).strip() if deps else ""


def test_the_checks_see_a_foreign_import_and_a_dependency():
    source = ("import os.path, numpy\nfrom . import slicer\nfrom .capability import Perm\n"
              "from capslice.kernel import Kernel\ndef f():\n    from scipy import linalg\n")
    assert foreign_imports(source) == ["numpy", "scipy"]
    assert runtime_dependencies('[project]\nname = "x"\ndependencies = [\n  "numpy>=1",\n]\n'
                                "[tool.x]\ndependencies = []\n") == '"numpy>=1",'
    assert runtime_dependencies('[project]\ndependencies = []  # none\n') == ""
    assert assert_lines("x = 1  # assert x\ndef f(y):\n    if y:\n        assert y, 'y'\n"
                        "s = 'assert'\n") == [4]
    assert unseal_calls("from .capability import unseal\nx = unseal(a, b)  # unseal(c)\n"
                        "def f():\n    return capability.unseal(d, e)\ns = 'unseal(g)'\n"
                        ) == ["unseal(a, b)", "capability.unseal(d, e)"]


def test_package_imports_only_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    offenders = {f.name: bad for f in files if (bad := foreign_imports(f.read_text()))}
    assert offenders == {}


def test_pyproject_lists_no_runtime_dependency():
    assert runtime_dependencies((ROOT / "pyproject.toml").read_text()) == ""


def test_package_holds_no_assert_statement():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    offenders = {f.name: lines for f in files if (lines := assert_lines(f.read_text()))}
    assert offenders == {}


def test_only_the_kernel_unseals_and_only_attach_tokens():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    calls = {f.name: found for f in files if (found := unseal_calls(f.read_text()))}
    assert calls == {"kernel.py": ["unseal(token, _INTERFACE_AUTHORITY)"]}
