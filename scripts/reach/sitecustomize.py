"""Reachability census hook, read by ``scripts/reach.py``.

With this directory on ``PYTHONPATH`` every Python process started from
the checkout records which code objects under ``src/repro`` ran, and
writes them to ``.reach/`` at the repository root when it exits. Forked
workers inherit the hook and leave through ``os._exit``, which is
wrapped; spawned processes load it again from ``PYTHONPATH``. A process
killed by a signal leaves no dump.

The trace function records the code object of every new frame and
returns ``None``, so no line or return events are traced.
"""

import atexit
import os
import sys
import threading
import time

_REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SRC = os.path.join(_REPO, "src", "repro") + os.sep
_DUMPS = os.path.join(_REPO, ".reach")
_codes = {}


def _trace(frame, event, arg):
    code = frame.f_code
    _codes[id(code)] = code  # the value keeps the id from being reused
    return None


def _dump():
    ran = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in list(_codes.values())}
    lines = sorted(f"{os.path.relpath(f, _SRC)}:{n}\n" for f, n in ran if f.startswith(_SRC))
    try:
        os.makedirs(_DUMPS, exist_ok=True)
        name = f"{os.getpid()}-{time.monotonic_ns()}.txt"
        with open(os.path.join(_DUMPS, name), "w") as out:
            out.writelines(lines)
    except OSError as exc:
        print(f"reach: no dump written: {exc}", file=sys.stderr)


def _exit_dumping(code, _exit=os._exit):
    try:
        _dump()
    finally:
        _exit(code)


atexit.register(_dump)
os._exit = _exit_dumping
threading.settrace(_trace)
sys.settrace(_trace)
