from __future__ import annotations

import re
from pathlib import Path

import flowsep
from flowsep import runtime


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
