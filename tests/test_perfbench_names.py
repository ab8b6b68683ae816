"""Every qtmine name the benchmark harness and the scripts use exists.

`perfbench/` and `scripts/` import qtmine names, some inside functions; they
read attributes through module aliases (`M.forward`); and `perfbench/spans.py`
names the functions and methods it traces in `TARGETS` and the CLI handlers
in `SUBCOMMANDS`. The scan here reads those files without running them, so a
name deleted or renamed in the package fails the tests, not only a benchmark
run.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "perfbench").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def _is_qtmine(module: str | None) -> bool:
    return module is not None and module.split(".")[0] == "qtmine"


def _is_module(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:  # its parent is a module, not a package
        return False


def used_names(source: str) -> list[tuple[str, str]]:
    """(module, name) for each qtmine name the source imports, and for each
    attribute it reads through a name bound to a qtmine module."""
    tree = ast.parse(source)
    used, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and _is_qtmine(node.module):
            for alias in node.names:
                used.append((node.module, alias.name))
                if _is_module(f"{node.module}.{alias.name}"):
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if not _is_qtmine(alias.name):
                    continue
                if "." in alias.name:
                    used.append(tuple(alias.name.rsplit(".", 1)))
                # `import qtmine.cli` binds `qtmine`; `import qtmine.cli as cli` binds the module
                modules[alias.asname or "qtmine"] = alias.name if alias.asname else "qtmine"
    used += [(modules[node.value.id], node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules]
    return used


def span_tables() -> list[tuple[str, str]]:
    """(module, name) for each `spans.TARGETS` entry and `cli.cmd_<name>` for
    each `spans.SUBCOMMANDS` entry."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    tables = {node.targets[0].id: node.value for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    targets = [(f"qtmine.{entry.elts[0].value}", entry.elts[1].value)
               for entry in tables["TARGETS"].elts]
    return targets + [("qtmine.cli", f"cmd_{sub}") for sub in ast.literal_eval(tables["SUBCOMMANDS"])]


def exists(module: str, name: str) -> bool:
    """`name` is an attribute or submodule of `module`; `Class.method` is a
    method defined on the class itself, which is where the tracer rebinds it."""
    mod = importlib.import_module(module)
    if "." in name:
        cls_name, method = name.split(".")
        return method in vars(getattr(mod, cls_name, object))
    return hasattr(mod, name) or _is_module(f"{module}.{name}")


def harness_names() -> list[tuple[str, str]]:
    return [name for path in FILES for name in used_names(path.read_text(encoding="utf-8"))] + span_tables()


def test_the_scan_flags_a_missing_name_and_passes_a_present_one():
    source = ("import qtmine.cli as cli\n"
              "from qtmine import model as M\n"
              "def f():\n"
              "    from qtmine.qt import qt_score, no_such_function\n"
              "    return M.forward, M.no_such_attribute, cli.main\n")
    used = used_names(source)
    assert set(used) == {("qtmine", "cli"), ("qtmine", "model"), ("qtmine.qt", "qt_score"),
                         ("qtmine.qt", "no_such_function"), ("qtmine.model", "forward"),
                         ("qtmine.model", "no_such_attribute"), ("qtmine.cli", "main")}
    assert {name for name in used if not exists(*name)} == {
        ("qtmine.qt", "no_such_function"), ("qtmine.model", "no_such_attribute")}
    assert not exists("qtmine.train", "AdamState.no_such_method")


def test_the_scan_sees_imports_in_functions_aliases_and_the_span_tables():
    names = set(harness_names())
    assert {("qtmine.util", "max_workers"), ("qtmine.model", "softmax_position"),
            ("qtmine.tokenizer", "train_and_encode"), ("qtmine.fcrank", "rank_by_qt"),
            ("qtmine.train", "AdamState.update"), ("qtmine.cli", "cmd_side_effects")} <= names


def test_every_qtmine_name_the_harness_and_scripts_use_exists():
    assert [name for name in harness_names() if not exists(*name)] == []
