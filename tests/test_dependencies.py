"""The package imports nothing outside the standard library but numpy.

``setup.cfg`` declares numpy as the only runtime requirement, so any
other third-party import — even an unused one behind a package
``__init__`` — breaks ``import repro`` on a clean install.  Every
module under ``src/repro`` is parsed (not imported), so imports inside
functions count too.
"""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _top_level_imports(path: pathlib.Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_numpy_is_the_only_third_party_import():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    third_party = {}
    for path in modules:
        for name in _top_level_imports(path):
            if name != "repro" and name not in sys.stdlib_module_names:
                third_party.setdefault(name, set()).add(
                    str(path.relative_to(SRC.parent))
                )
    assert set(third_party) <= {"numpy"}, third_party
