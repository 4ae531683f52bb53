"""On-demand build of the compiled push kernel.

The kernel is a single C file (``_push.c``) with no dependencies beyond a
C compiler, so instead of a build-time extension (which would make
``pip install`` require a toolchain) it is compiled lazily on first use
and cached as a shared library keyed by the SHA-256 of (source, compiler,
flags). Hosts without a compiler simply never get a library — the caller
falls back to the numpy engine, which is the correctness oracle anyway.

Environment knobs:

``REPRO_KERNEL_CC``
    Compiler executable (default: first of ``cc``, ``gcc``, ``clang`` on
    ``PATH``).
``REPRO_KERNEL_CACHE``
    Directory holding built libraries (default:
    ``$XDG_CACHE_HOME/repro-kernels`` or ``~/.cache/repro-kernels``).

``-ffp-contract=off`` is load-bearing: a fused multiply-add rounds once
where the numpy oracle rounds twice, and the whole point of the compiled
backend is bit-identical answers (see ``docs/performance.md``).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("_push.c")

#: No -ffast-math, no contraction: bit-identity beats the last few percent.
CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

#: Bumped when the C signature changes; baked into the cache key.
ABI_VERSION = 5


class KernelBuildError(RuntimeError):
    """Raised internally when the kernel cannot be built; never escapes
    :func:`build_library` (callers get ``None`` + reason instead)."""


def find_compiler(override: str | None = None) -> str | None:
    """The C compiler to use, or ``None`` when the host has none."""
    override = override or os.environ.get("REPRO_KERNEL_CC")
    if override:
        return shutil.which(override) or (
            override if os.path.exists(override) else None
        )
    for candidate in ("cc", "gcc", "clang"):
        found = shutil.which(candidate)
        if found:
            return found
    return None


def resolve_cache_dir(override: str | None = None) -> Path:
    """The directory built libraries are cached in."""
    override = override or os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-kernels"


def _cache_key(source: bytes, compiler: str) -> str:
    digest = hashlib.sha256()
    digest.update(source)
    digest.update(compiler.encode())
    digest.update(" ".join(CFLAGS).encode())
    digest.update(f"abi={ABI_VERSION}".encode())
    return digest.hexdigest()[:24]


def build_library(
    compiler: str | None = None, cache_dir: str | None = None
) -> tuple[Path | None, str]:
    """Build (or reuse) the kernel library.

    ``compiler`` / ``cache_dir`` override the environment knobs above for
    this call only (``KernelConfig`` carries them per service). Returns
    ``(path, reason)``: ``path`` is the shared library, or ``None`` with a
    human-readable reason (no compiler, compile failure, missing source).
    Never raises — an unbuildable kernel is a supported configuration,
    not an error.
    """
    if not SOURCE.exists():  # pragma: no cover - packaging bug guard
        return None, f"kernel source missing: {SOURCE}"
    compiler = find_compiler(compiler)
    if compiler is None:
        return None, "no C compiler on PATH (set REPRO_KERNEL_CC to override)"
    source = SOURCE.read_bytes()
    library = f"push-{_cache_key(source, compiler)}.so"
    target = resolve_cache_dir(cache_dir) / library
    if target.exists():
        return target, f"cached ({target})"
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            suffix=".so", prefix="push-build-", dir=str(target.parent)
        )
        os.close(fd)
        cmd = [compiler, *CFLAGS, str(SOURCE), "-o", tmp]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            os.unlink(tmp)
            detail = (proc.stderr or proc.stdout or "").strip()[:400]
            return None, f"compile failed ({' '.join(cmd)}): {detail}"
        os.replace(tmp, target)  # atomic: concurrent builders race safely
    except OSError as exc:
        return None, f"kernel build I/O error: {exc}"
    except subprocess.TimeoutExpired:
        return None, "kernel compile timed out"
    return target, f"built with {compiler}"
