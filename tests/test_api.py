"""The package's public surface: the names it exports, and the README's
library example, which must run against the code as it is."""
import importlib
import re
from pathlib import Path

import cliquedist

REPO_ROOT = Path(__file__).resolve().parents[1]
# Public names that were removed, with the module that defined them.
REMOVED = [
    ("cliquedist.wmd", "rwmd_lower_bound"),
    ("cliquedist.distortion", "permute_labels"),
    ("cliquedist.errors", "InvalidPermutation"),
    ("cliquedist.wmd", "WmdConfig"),
    ("cliquedist.wmd", "DEFAULT_WMD_CONFIG"),
    ("cliquedist.textprep", "RelatednessConfig"),
    ("cliquedist.textprep", "SemanticTypeFilter"),
    ("cliquedist.textprep", "DEFAULT_FILTER"),
    ("cliquedist.core", "ConceptTag"),
]


def test_every_exported_name_exists_once():
    names = cliquedist.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(cliquedist, name)] == []
    for module, name in REMOVED:
        assert name not in names
        assert not hasattr(cliquedist, name)
        assert not hasattr(importlib.import_module(module), name)


def test_readme_library_example_runs(monkeypatch):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(REPO_ROOT)  # the example's paths are relative to the root
    exec(compile(code, "README.md#library", "exec"), {})
