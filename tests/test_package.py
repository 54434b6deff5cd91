from __future__ import annotations

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import flowsep
from flowsep import runtime

from .test_runtime import BATCHING_CONSTANTS


def test_all_names_resolve():
    # a stale __all__ entry breaks `from flowsep import *`
    missing = [name for name in flowsep.__all__ if not hasattr(flowsep, name)]
    assert missing == []


def test_readme_config_table_lists_the_config_keys():
    # a key added to or removed from the parser cannot leave the docs behind
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | default | meaning |\n", 1)[1].split("\n\n", 1)[0]
    keys = [k for row in table.splitlines()[1:] for k in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(runtime._CONFIG_KEYS)


def test_readme_modules_section_names_every_module():
    # a module added to or removed from the package cannot leave the docs behind
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Modules\n", 1)[1].split("\n## ", 1)[0]
    heads = [ln.split(" — ", 1)[0] for ln in section.splitlines() if ln.startswith("- ")]
    named = [name for head in heads for name in re.findall(r"`(\w+)`", head)]
    modules = [p.stem for p in (root / "src" / "flowsep").glob("*.py") if p.stem != "__init__"]
    assert sorted(named) == sorted(modules)


def test_no_unused_import_or_unreferenced_private_definition():
    # an import no longer used, a module-level `_helper` or `_CONSTANT` that
    # nothing in the package reads any more, or a public function, class or
    # UPPER_CASE constant that neither the package nor perfbench/ uses and
    # `flowsep.__all__` does not export, is code a refactor left behind
    root = Path(__file__).resolve().parents[1]
    src = sorted(root.glob("src/flowsep/*.py"))
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in src}

    def references(tree) -> Counter:
        """Names read, attributes taken and names imported from a module."""
        out = Counter()
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                out[n.id] += 1
            elif isinstance(n, ast.Attribute):
                out[n.attr] += 1
            elif isinstance(n, ast.ImportFrom):
                out.update(a.name for a in n.names)
        return out

    unused = []
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        used = references(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [(a.asname or a.name).split(".")[0] for a in node.names]
                unused += [f"{name}: import {b}" for b in bound if not used[b]]
    everywhere = sum(map(references, trees.values()), Counter())
    outside = Counter(flowsep.__all__)
    for p in sorted(root.glob("perfbench/*.py")):
        outside += references(ast.parse(p.read_text(encoding="utf-8")))
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name) and t.id.isupper()]
            else:
                continue
            for what in defined:
                if what.startswith("__"):
                    continue
                # a definition's references to itself (recursion, the
                # assignment's own target) do not count
                users = everywhere[what] - references(node)[what]
                if not what.startswith("_"):
                    users += outside[what]
                if not users:
                    unused.append(f"{name}: {what}")
    assert unused == []


def test_every_large_int_constant_is_a_drawn_batching_constant():
    # a module-level int of 1 024 or more is a batch size: it must be one that
    # TestBatchingConstants draws, so no batch knob escapes the all-at-once test
    root = Path(__file__).resolve().parents[1]
    large = []
    for p in sorted(root.glob("src/flowsep/*.py")):
        module = importlib.import_module("flowsep" if p.stem == "__init__" else f"flowsep.{p.stem}")
        for node in ast.parse(p.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            for name in (t.id for t in targets if isinstance(t, ast.Name)):
                value = getattr(module, name)
                if type(value) is int and value >= 1024:
                    large.append((module, name))
    assert set(large) == set(BATCHING_CONSTANTS)
