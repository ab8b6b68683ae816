"""Import hygiene: every name a package module binds with `from ... import`,
`import x` or `import x as y` is read somewhere in that module.

A dotted `import a.b` without an alias is not checked: importing a submodule
can be wanted for its side effect of binding the attribute (`model.py`
imports `numpy.random` that way).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qtmine"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = [alias.asname or alias.name
             for node in ast.walk(tree)
             if (isinstance(node, ast.ImportFrom) and node.module != "__future__"
                 or isinstance(node, ast.Import))
             for alias in node.names
             if alias.asname or "." not in alias.name]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_the_scan_sees_package_modules():
    assert {"cli.py", "fcrank.py", "qt.py"} <= {path.name for path in MODULES}


def test_the_scan_flags_an_unread_name_and_passes_a_read_one():
    source = ("from __future__ import annotations\n"
              "from os import path, sep as separator\n"
              "import numpy.random\n"
              "import re, json\n"
              "import numpy as np\n"
              "import os.path as osp\n"
              "x = path.join('a', 'b') + re.escape('c')\n")
    assert unused_imports(source) == ["separator", "json", "np", "osp"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_from_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
