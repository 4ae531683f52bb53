"""Spawn, observe and stop the real ``repro serve`` — and leave nothing behind.

The server runs in its own session so the whole tier (coordinator, shard
workers, multiprocessing's resource tracker) is one process group that
can be measured (``/proc``) and, on timeout, killed together.
"""

from __future__ import annotations

import http.client
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything transient lives here: kernel build cache, store dirs, logs.
SCRATCH = ROOT / ".bench_build" / "perf"
SHM_DIR = Path("/dev/shm")

READY_TIMEOUT_S = 60.0
TERM_TIMEOUT_S = 15.0
_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")
_KERNEL = re.compile(r"^kernel:\s+(\S+)", re.MULTILINE)


class ServerError(RuntimeError):
    """The server died, never became ready, or would not stop."""


def server_env() -> dict[str, str]:
    """The child's environment: repo source on the path, builds in SCRATCH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_KERNEL_CACHE"] = str(SCRATCH / "kernels")
    return env


def parse_port(banner: str) -> int | None:
    """The ephemeral port from the ``listening on`` line, once printed."""
    match = _LISTENING.search(banner)
    return int(match.group(2)) if match else None


def parse_kernel(banner: str) -> str:
    match = _KERNEL.search(banner)
    return match.group(1) if match else "unknown"


def group_pids(pgid: int) -> list[int]:
    """Live pids whose process group is ``pgid`` (the server's tree)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited between listdir and read
        # Fields after the parenthesised command: state ppid pgrp ...
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


class Server:
    """One ``repro serve twitter --port 0 …`` subprocess."""

    def __init__(
        self,
        extra_args: tuple[str, ...] = (),
        *,
        store: bool = False,
        launcher: tuple[str, ...] = ("-m", "repro"),
        tag: str = "server",
    ) -> None:
        SCRATCH.mkdir(parents=True, exist_ok=True)
        self.workdir = SCRATCH / f"{tag}-{os.getpid()}-{time.monotonic_ns()}"
        self.workdir.mkdir()
        self.store_dir = self.workdir / "store" if store else None
        args = ["serve", "twitter", "--port", "0", *extra_args]
        if self.store_dir is not None:
            args += ["--store", str(self.store_dir)]
        self.log_path = self.workdir / "server.log"
        self._log = open(self.log_path, "wb")
        self.seen_pids: set[int] = set()
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", *launcher, *args],
            cwd=ROOT,
            env=server_env(),
            stdout=self._log,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            start_new_session=True,
        )
        self.port: int | None = None

    # -------------------------------------------------------------- #
    # start
    # -------------------------------------------------------------- #

    def banner(self) -> str:
        return self.log_path.read_text(errors="replace")

    def wait_ready(self) -> float:
        """Block until ``/v1/readyz`` answers 200; returns spawn→ready seconds."""
        deadline = self.spawned_at + READY_TIMEOUT_S
        while self.port is None:
            self.port = parse_port(self.banner())
            if self.port is not None:
                break
            if self.proc.poll() is not None:
                raise ServerError(
                    f"server exited with {self.proc.returncode} before"
                    f" listening:\n{self.banner()}"
                )
            if time.perf_counter() > deadline:
                raise ServerError(f"server never listened:\n{self.banner()}")
            time.sleep(0.005)
        while True:
            conn = self.connect(timeout=5.0)
            try:
                conn.request("GET", "/v1/readyz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    break
            except OSError:
                pass
            finally:
                conn.close()
            if time.perf_counter() > deadline:
                raise ServerError(f"server never became ready:\n{self.banner()}")
            time.sleep(0.01)
        self.pids()
        return time.perf_counter() - self.spawned_at

    def connect(self, timeout: float) -> http.client.HTTPConnection:
        assert self.port is not None
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)

    # -------------------------------------------------------------- #
    # observe
    # -------------------------------------------------------------- #

    def pids(self) -> list[int]:
        pids = group_pids(self.proc.pid)
        self.seen_pids.update(pids)
        return pids

    def cpu_seconds(self) -> float:
        """CPU time consumed so far by the live tree's threads.

        From ``schedstat`` (exact run time per thread), not ``utime +
        stime``: those are charged a whole tick at a time, which for a
        server busy 5 % of the time is sampling noise on top of the box's own.
        """
        total_ns = 0
        for pid in self.pids():
            for task in Path("/proc", str(pid), "task").glob("*/schedstat"):
                try:
                    total_ns += int(task.read_text().split()[0])
                except (OSError, ValueError, IndexError):
                    continue  # the thread exited between glob and read
        return total_ns / 1e9

    def peak_rss_mb(self) -> float:
        """``VmHWM`` summed over the live tree."""
        total_kb = 0
        for pid in self.pids():
            try:
                status = Path("/proc", str(pid), "status").read_text()
            except OSError:
                continue
            match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
            if match:
                total_kb += int(match.group(1))
        return total_kb / 1024.0

    # -------------------------------------------------------------- #
    # stop — callers quiesce every client first
    # -------------------------------------------------------------- #

    def terminate(self) -> int | None:
        """SIGTERM and a bounded wait; SIGKILL the whole group on timeout.

        Returns the exit code, or ``None`` when the group had to be killed.
        """
        self.pids()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(TERM_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.kill()
                return None
        code = self.proc.returncode
        self._kill_group()  # stragglers of a tier that exited on its own
        return code

    def kill(self) -> None:
        """``kill -9`` the whole process group and reap the server."""
        self.pids()
        self._kill_group()
        self.proc.wait(TERM_TIMEOUT_S)

    def _kill_group(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + TERM_TIMEOUT_S
        while group_pids(self.proc.pid) and time.monotonic() < deadline:
            time.sleep(0.01)

    def cleanup(self) -> None:
        """Stop whatever still runs, then remove store dirs and shm segments."""
        if self.proc.poll() is None or group_pids(self.proc.pid):
            self.kill()
        self._log.close()
        if SHM_DIR.is_dir():
            for pid in self.seen_pids:
                for segment in SHM_DIR.glob(f"repro-shm-{pid}-*"):
                    segment.unlink(missing_ok=True)
        shutil.rmtree(self.workdir, ignore_errors=True)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc: object) -> None:
        self.cleanup()
