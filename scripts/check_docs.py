"""Docs lint: internal links resolve, code blocks actually run.

Checks README.md and every docs/*.md file:

* **links** — every relative markdown link target must exist on disk
  (external http(s)/mailto links and pure anchors are skipped);
* **python blocks** — every ```` ```python ```` fenced block is executed
  in a subprocess with ``PYTHONPATH=src``; tag a fence ``python no-run``
  to opt out;
* **bash blocks** — every ``python -m repro <command>`` line must name a
  real CLI subcommand, and every file path appearing in a
  ``python -m pytest`` line must exist.

It also checks that every ``*.md`` path a ``.py`` file under ``src/``,
``scripts/`` or ``benchmarks/`` names exists (at the repository root or
beside the file).

Run from the repository root:  PYTHONPATH=src python scripts/check_docs.py
CI runs this after the test suite (.github/workflows/ci.yml).
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^```(\S*)(.*)$")
MD_PATH_RE = re.compile(r"(?<![\w./-])(\w[\w./-]*\.md)\b")
SOURCE_DIRS = ("src", "scripts", "benchmarks")


def iter_code_blocks(text: str):
    """Yield ``(language, info, first_line_number, code)`` per fenced block."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        match = FENCE_RE.match(lines[i])
        if match and match.group(1):
            language, info = match.group(1), match.group(2)
            body: list[str] = []
            i += 1
            start = i + 1
            while i < len(lines) and not lines[i].startswith("```"):
                body.append(lines[i])
                i += 1
            yield language, info.strip(), start, "\n".join(body)
        i += 1


def check_links(path: Path, text: str) -> list[str]:
    errors = []
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.startswith("```"):
            in_fence = not in_fence
        if in_fence:
            continue
        for target in LINK_RE.findall(line):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            relative = target.split("#", 1)[0]
            if not (path.parent / relative).resolve().exists():
                errors.append(f"{path.name}:{lineno}: broken link -> {target}")
    return errors


def check_python_blocks(path: Path, text: str) -> list[str]:
    errors = []
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    for language, info, lineno, code in iter_code_blocks(text):
        if language != "python" or "no-run" in info:
            continue
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO,
            timeout=300,
        )
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else "?"
            errors.append(f"{path.name}:{lineno}: python block failed: {tail}")
    return errors


def check_bash_blocks(path: Path, text: str) -> list[str]:
    from repro.cli import build_parser

    subcommands = set()
    for action in build_parser()._subparsers._group_actions:  # noqa: SLF001
        subcommands.update(action.choices or {})
    errors = []
    for language, _info, lineno, code in iter_code_blocks(text):
        if language not in ("bash", "sh", "shell", "console"):
            continue
        for offset, line in enumerate(code.splitlines()):
            cli = re.search(r"python -m repro\s+([a-z][a-z0-9-]*)", line)
            if cli and cli.group(1) not in subcommands:
                errors.append(
                    f"{path.name}:{lineno + offset}: unknown CLI command"
                    f" '{cli.group(1)}' (have: {sorted(subcommands)})"
                )
            if "python -m pytest" in line:
                for token in line.split():
                    if token.endswith(".py") and not (REPO / token).exists():
                        errors.append(
                            f"{path.name}:{lineno + offset}: missing file {token}"
                        )
    return errors


def check_file(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    return (
        check_links(path, text)
        + check_python_blocks(path, text)
        + check_bash_blocks(path, text)
    )


def check_md_pointers(path: Path, text: str) -> list[str]:
    errors = []
    for lineno, line in enumerate(text.splitlines(), 1):
        for target in MD_PATH_RE.findall(line):
            if not ((REPO / target).exists() or (path.parent / target).exists()):
                where = path.relative_to(REPO)
                errors.append(f"{where}:{lineno}: missing file {target}")
    return errors


def docs_files() -> list[Path]:
    return [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))


def source_files() -> list[Path]:
    return sorted(p for d in SOURCE_DIRS for p in (REPO / d).rglob("*.py"))


def main() -> int:
    errors: list[str] = []
    for path in docs_files():
        found = check_file(path)
        status = "ok" if not found else f"{len(found)} problem(s)"
        print(f"{path.relative_to(REPO)}: {status}")
        errors.extend(found)
    found = [
        error
        for path in source_files()
        for error in check_md_pointers(path, path.read_text(encoding="utf-8"))
    ]
    status = "ok" if not found else f"{len(found)} problem(s)"
    print(f"*.md paths named in {'/, '.join(SOURCE_DIRS)}/: {status}")
    errors.extend(found)
    for error in errors:
        print(f"  {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
