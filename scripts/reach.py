"""Reachability census: which functions of ``src/repro`` do the entry points run?

Test coverage counts what the tests run, and the tests run everything.
This asks what a user of ``repro``, ``perf/``, the smokes, the examples
or the benchmarks ever runs. Put ``scripts/reach`` on ``PYTHONPATH`` and
run entry points; its ``sitecustomize`` hook dumps the code objects each
process ran into ``.reach/``. ``report`` joins the dumps with an AST
inventory of every outermost function (module-level or a class member,
keyed by the line of its first decorator, as ``co_firstlineno`` is) and
prints the unreached ones per module, with their sizes.

``--check FILE`` fails on an unreached function that FILE does not list,
and on a stale entry (one now reached, or gone from the source), so the
list only shrinks. Each entry is one line, ``module.py::Qual.name  #
reason``; a function defined twice under one name (a property and its
setter) is ``Qual.name#2`` the second time.

``run`` empties ``.reach/`` and runs :data:`ENTRY_POINTS` under the hook,
the entry points CI runs (the smokes, ``check_docs.py``, the four
benchmark suites once each, the ``perf/`` workloads under both kernels)
plus the examples. Run from the repository root::

    python scripts/reach.py run
    python scripts/reach.py report --check scripts/reach_allow.txt

Any other command run with ``PYTHONPATH=src:scripts/reach`` adds its
own dump to the census.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
DUMPS = REPO / ".reach"
STORE = "{store}"  # one temporary directory per run

NUMPY = {"REPRO_KERNEL": "numpy"}
#: ``(environment overrides, argv)``, run in order from the repository root.
ENTRY_POINTS = [
    ({}, ["scripts/kernel_smoke.py"]),
    ({}, ["scripts/gateway_smoke.py"]),
    (NUMPY, ["scripts/gateway_smoke.py"]),
    ({}, ["-m", "repro", "load-bench", "youtube", "--tiny", "--seed", "17"]),
    ({}, ["scripts/obs_smoke.py"]),
    ({}, ["scripts/chaos_smoke.py"]),
    ({}, ["scripts/shard_smoke.py"]),
    ({}, ["-m", "repro", "store-checkpoint", "youtube", "--root", STORE, "--slides", "4"]),
    ({}, ["-m", "repro", "store-inspect", "--root", STORE]),
    ({}, ["-m", "repro", "store-recover", "--root", STORE, "--verify"]),
    ({}, ["scripts/recovery_smoke.py"]),
    ({}, ["-m", "repro", "datasets"]),
    ({}, ["-m", "repro", "track", "youtube", "--slides", "2"]),
    ({}, ["-m", "repro", "figure", "fig9", "--slides", "1"]),
    ({}, ["-m", "repro", "ablation", "frontier", "--dataset", "youtube"]),
    ({}, ["scripts/check_docs.py"]),
    *(
        ({}, ["-m", "pytest", "--import-mode=importlib", "-q", "--benchmark-disable",
              f"benchmarks/bench_{suite}.py"])
        for suite in ("load", "figures", "ablations", "core_micro")
    ),
    ({}, ["perf/run.py", "--seconds", "2"]),
    (NUMPY, ["perf/run.py", "--seconds", "2", "--trace", "0"]),
    *(({}, [f"examples/{path.name}"]) for path in sorted((REPO / "examples").glob("*.py"))),
]


def inventory() -> dict[tuple[str, int], tuple[str, int]]:
    """``(module, first line) -> (key, lines)`` for every outermost function."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        names: defaultdict[str, int] = defaultdict(int)

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    qualname = prefix + child.name
                    names[qualname] += 1
                    if names[qualname] > 1:
                        qualname += f"#{names[qualname]}"
                    size = child.end_lineno - first + 1
                    found[module, first] = (f"{module}::{qualname}", size)
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return found


def reached() -> set[tuple[str, int]]:
    """``(module, first line)`` of every code object a dump recorded."""
    ran = set()
    for dump in DUMPS.glob("*.txt"):
        for line in dump.read_text().splitlines():
            module, _, first = line.rpartition(":")
            ran.add((module, int(first)))
    return ran


def read_allow(path: Path) -> tuple[dict[str, str], list[str]]:
    """The allow-list's ``key -> reason`` and its malformed lines."""
    allow, errors = {}, []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        key, _, reason = line.partition(" #")
        if not reason.strip() or len(key.split()) != 1:
            errors.append(f"{path.name}:{number}: want 'module.py::name  # reason': {line}")
        else:
            allow[key.strip()] = reason.strip()
    return allow, errors


def run() -> int:
    """Every entry point under the hook.

    An entry point that fails is reported, not fatal: this counts what
    ran, and each one's own CI job gates its result. One that dies early
    leaves its functions unreached, which ``report --check`` catches.
    """
    shutil.rmtree(DUMPS, ignore_errors=True)
    hooked = os.pathsep.join(str(REPO / d) for d in ("src", "scripts/reach"))
    started = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        for overrides, argv in ENTRY_POINTS:
            env = {**os.environ, **overrides, "PYTHONPATH": hooked}
            argv = [a.replace(STORE, f"{tmp}/store") for a in argv]
            step = time.monotonic()
            code = subprocess.run([sys.executable, *argv], cwd=REPO, env=env).returncode
            shown = " ".join([f"{k}={v}" for k, v in overrides.items()] + argv)
            failed = f" (exit {code})" if code else ""
            print(f"reach: [{time.monotonic() - step:6.1f} s] {shown}{failed}", flush=True)
    print(f"reach: {len(ENTRY_POINTS)} entry points in {time.monotonic() - started:.0f} s")
    return 0


def report(check: Path | None) -> int:
    ran = reached()
    if not ran:
        print(f"reach: no dumps under {DUMPS}", file=sys.stderr)
        return 2
    functions = inventory()
    unreached = {key: size for spot, (key, size) in functions.items() if spot not in ran}
    by_module = defaultdict(list)
    for key, size in sorted(unreached.items()):
        by_module[key.partition("::")[0]].append((key.partition("::")[2], size))
    for module, entries in by_module.items():
        total = sum(size for _, size in entries)
        print(f"{module}  ({len(entries)} functions, {total} lines)")
        for name, size in entries:
            print(f"    {name}  {size}")
    print(
        f"unreached: {len(unreached)} of {len(functions)} functions,"
        f" {sum(unreached.values())} of"
        f" {sum(size for _, size in functions.values())} lines"
    )
    if check is None:
        return 0
    allow, errors = read_allow(check)
    known = {key for key, _ in functions.values()}
    errors += [f"unlisted: {key} ({unreached[key]} lines)" for key in unreached if key not in allow]
    errors += [
        f"stale: {key} ({'reached' if key in known else 'no such function'})"
        for key in allow
        if key not in unreached
    ]
    for error in errors:
        print(error, file=sys.stderr)
    print(f"{check.name}: {len(allow)} entries, {len(errors)} problems")
    return 1 if errors else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", help="run every entry point under the hook")
    sub.add_parser("report", help="unreached functions per module").add_argument("--check", type=Path, metavar="ALLOW", help="fail on unlisted or stale entries")
    args = parser.parse_args(argv)
    return run() if args.command == "run" else report(args.check)


if __name__ == "__main__":
    sys.exit(main())
