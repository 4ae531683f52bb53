"""Import fences: what the serving path may not depend on.

Two rules, both checked on the source text (AST) so that a lazy import
inside a function cannot hide a dependency:

1. the serving tiers — ``serve, api, cluster, shard, store, kernels,
   graph, obs, chaos``, ``workers.py`` and ``config.py`` — never import
   the paper-reproduction code (``repro.bench``, ``repro.baselines``,
   ``repro.parallel``) or the load generator (``repro.load``);
2. ``repro.cli`` reaches ``repro.bench`` / ``repro.parallel`` only from
   inside the handlers that need them, so ``repro serve`` does not pay
   for them at import.

Plus the dependency half of the same contract: everything ``repro serve``
does works on a host without scipy (``install_requires`` is numpy alone;
scipy is the ``groundtruth`` extra).
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "repro"

SERVING = (
    "serve", "api", "cluster", "shard", "store", "kernels", "graph", "obs", "chaos"
)
FENCED = ("repro.bench", "repro.baselines", "repro.parallel", "repro.load")


def imported_modules(path: Path, *, module_level_only: bool = False) -> set[str]:
    """Absolute names of every module ``path`` imports (relative resolved)."""
    package = ".".join(path.relative_to(SRC).with_suffix("").parts[:-1])
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nodes = tree.body if module_level_only else ast.walk(tree)
    found: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parent = parts[: len(parts) - node.level + 1]
                base = ".".join(parent + ([base] if base else []))
            found.add(base)
            # ``from . import bench`` names the submodule in ``names``.
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def fenced(names: set[str], fences: tuple[str, ...]) -> list[str]:
    return sorted(
        n for n in names if any(n == f or n.startswith(f + ".") for f in fences)
    )


def serving_modules() -> list[Path]:
    files = [PACKAGE / "workers.py", PACKAGE / "config.py"]
    for name in SERVING:
        files.extend(sorted((PACKAGE / name).rglob("*.py")))
    return files


@pytest.mark.parametrize(
    "path", serving_modules(), ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_serving_modules_do_not_import_paper_or_load_code(path):
    assert fenced(imported_modules(path), FENCED) == []


def test_cli_imports_bench_and_parallel_only_inside_handlers():
    top_level = imported_modules(PACKAGE / "cli.py", module_level_only=True)
    assert fenced(top_level, ("repro.bench", "repro.parallel")) == []


NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # any `import scipy...` now raises ImportError

import repro.cli
from repro.core.groundtruth import ground_truth_ppr
from repro.errors import BackendError
from repro.serve import workload_service

service, prepared = workload_service("youtube")
answer = service.query(prepared.source, 5)
assert len(answer.entries) == 5, answer
try:
    ground_truth_ppr(service.graph, prepared.source, 0.15)
except BackendError as exc:
    assert "scipy" in str(exc), exc
else:
    raise AssertionError("ground_truth_ppr ran without scipy")
print("served", len(answer.entries))
"""


def test_serving_path_works_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "served 5"
