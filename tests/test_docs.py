"""Docs lint as a tier-1 test: links resolve, code blocks run.

Wraps ``scripts/check_docs.py`` so documentation rot fails the ordinary
test suite, not just CI's dedicated docs job. Link and CLI-command checks
run per file (cheap); the python-block execution check runs once over
every page (each block is a subprocess).
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def load_checker():
    path = REPO / "scripts" / "check_docs.py"
    spec = importlib.util.spec_from_file_location("check_docs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def checker():
    return load_checker()


def test_docs_suite_exists():
    assert (REPO / "README.md").exists()
    assert (REPO / "docs" / "architecture.md").exists()
    assert (REPO / "docs" / "serving.md").exists()


@pytest.mark.parametrize("name", ["README.md", "docs/architecture.md", "docs/serving.md"])
def test_internal_links_resolve(checker, name):
    path = REPO / name
    assert checker.check_links(path, path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("name", ["README.md", "docs/architecture.md", "docs/serving.md"])
def test_cli_commands_in_bash_blocks_exist(checker, name):
    path = REPO / name
    assert checker.check_bash_blocks(path, path.read_text(encoding="utf-8")) == []


def test_python_code_blocks_execute(checker):
    errors = []
    for path in checker.docs_files():
        errors.extend(checker.check_python_blocks(path, path.read_text(encoding="utf-8")))
    assert errors == []


def test_md_paths_named_in_sources_exist(checker):
    errors = []
    for path in checker.source_files():
        errors.extend(checker.check_md_pointers(path, path.read_text(encoding="utf-8")))
    assert errors == []


def test_md_path_check_flags_a_missing_file(checker):
    path = REPO / "src" / "repro" / "example.py"
    text = '"""See docs/sharding.md and README.md;\nEXPERIMENTS.md records a run."""\n'
    assert checker.check_md_pointers(path, text) == [
        "src/repro/example.py:2: missing file EXPERIMENTS.md"
    ]
