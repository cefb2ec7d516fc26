import ast
import re
from pathlib import Path

import gsolve

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "gsolve"


def test_every_exported_name_resolves():
    missing = [name for name in gsolve.__all__ if not hasattr(gsolve, name)]
    assert not missing
    assert len(set(gsolve.__all__)) == len(gsolve.__all__)


def _console_script_modules():
    # read by hand: tomllib is 3.11+, and the package supports 3.10
    text = (REPO / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)[1]
    return set(re.findall(r'^[\w.-]+\s*=\s*"([\w.]+):', section, re.M))


def test_every_module_is_reached_by_the_package_or_the_console_script():
    """Code that only tests import belongs in tests/, not in the shipped package."""
    reached = {module.removeprefix("gsolve.") for module in _console_script_modules()}
    assert reached == {"cli"}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module != path.stem:
                reached.add(node.module)
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules - reached == set()
