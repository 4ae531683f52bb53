"""The reachability census (``scripts/reach.py``) on a two-function fixture.

A scratch checkout holds the census script, its ``sitecustomize`` hook
and a ``repro`` package of one module. The module's functions run in a
subprocess under the hook, one of them only in a forked child (which
leaves through ``os._exit``); the report must name exactly the one that
never ran, and ``--check`` must refuse a list that misses it or that
names a function that ran or does not exist.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

FIXTURE = '''\
import multiprocessing


def called():
    return 1


def forked():
    return 2


class Holder:
    @staticmethod
    def uncalled():
        return 3


def main():
    called()
    child = multiprocessing.get_context("fork").Process(target=forked)
    child.start()
    child.join()
'''


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(SCRIPTS / "reach", root / "scripts" / "reach")
    shutil.copy(SCRIPTS / "reach.py", root / "scripts" / "reach.py")
    package = root / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "fixture.py").write_text(FIXTURE)
    env = {**os.environ, "PYTHONPATH": f"{root / 'src'}{os.pathsep}{root / 'scripts' / 'reach'}"}
    subprocess.run(
        [sys.executable, "-c", "import repro.fixture; repro.fixture.main()"],
        cwd=root, env=env, check=True,
    )
    return root


def census(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "scripts" / "reach.py"), "report", *args],
        cwd=root, capture_output=True, text=True,
    )


def check(root: Path, allow: str) -> subprocess.CompletedProcess:
    path = root / "allow.txt"
    path.write_text(allow)
    return census(root, "--check", str(path))


def test_the_parent_and_its_forked_child_both_dump(checkout):
    assert len(list((checkout / ".reach").glob("*.txt"))) == 2


def test_report_names_only_the_function_nothing_ran(checkout):
    result = census(checkout)
    assert result.returncode == 0, result.stderr
    listed = [line.split() for line in result.stdout.splitlines() if line.startswith("    ")]
    assert listed == [["Holder.uncalled", "3"]]
    assert "fixture.py  (1 functions, 3 lines)" in result.stdout
    assert "unreached: 1 of 4 functions, 3 of" in result.stdout


def test_check_passes_on_the_exact_list(checkout):
    result = check(checkout, "# comment\n\nfixture.py::Holder.uncalled  # never called\n")
    assert result.returncode == 0, result.stderr


def test_check_fails_on_a_missing_entry(checkout):
    result = check(checkout, "")
    assert result.returncode == 1
    assert "unlisted: fixture.py::Holder.uncalled (3 lines)" in result.stderr


@pytest.mark.parametrize(
    "entry, why",
    [("fixture.py::forked", "reached"), ("fixture.py::gone", "no such function")],
)
def test_check_fails_on_a_stale_entry(checkout, entry, why):
    result = check(checkout, f"fixture.py::Holder.uncalled  # never called\n{entry}  # stale\n")
    assert result.returncode == 1
    assert f"stale: {entry} ({why})" in result.stderr


def test_check_fails_on_an_entry_without_a_reason(checkout):
    result = check(checkout, "fixture.py::Holder.uncalled\n")
    assert result.returncode == 1
    assert "want 'module.py::name  # reason'" in result.stderr
