"""Kernel — compiled push vs the numpy oracle, plus shm bootstrap scaling.

Regenerates the kernel-benchmark table (single-thread one-slide push on
the twitter analog under both kernels, shared-memory replica-bootstrap
timings at 1x/2x/4x edges, and a certified top-k differential trace)
and asserts the acceptance bars of the compiled tier:

* >= 5x single-thread push speedup over the vectorized numpy engine
  (waived — skipped, not failed — when the host has no C compiler);
* replica bootstrap via shared-memory attach stays ~flat as the
  snapshot grows 4x in edges;
* certified top-k answers bit-identical across kernels at FRESH /
  BOUNDED / ANY, before and after ingest.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_kernel.py -q``
(add ``--tiny`` via ``REPRO_BENCH_TINY=1`` for the CI smoke).
"""

from __future__ import annotations

import os

import pytest

from repro.bench.kernel import SPEEDUP_BAR, kernel_benchmark

from .conftest import RESULTS_DIR

#: Attach time may wobble a little with allocator noise; "flat" means it
#: must not track the 4x growth of the data.
FLATNESS_BAR = 2.0


@pytest.fixture(scope="module")
def kernel_result():
    tiny = os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")
    return kernel_benchmark("twitter", tiny=tiny)


@pytest.fixture(scope="module", autouse=True)
def kernel_table(kernel_result):
    table = kernel_result.table()
    print("\n" + table + "\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "kernel.txt").write_text(table + "\n")


def test_push_states_bit_identical(kernel_result):
    """Compiled and numpy kernels must agree to the last bit."""
    assert kernel_result.push_matched


def test_certified_topk_bit_identical_across_kernels(kernel_result):
    """The serving stack must not see which kernel ran."""
    assert kernel_result.certified_matched
    assert kernel_result.certified_answers > 0


def test_compiled_push_speedup(kernel_result):
    """The acceptance bar: >= 5x single-thread (needs a C compiler)."""
    if not kernel_result.compiled_available:
        pytest.skip(
            f"no compiled kernel on this host ({kernel_result.reason});"
            " correctness already asserted"
        )
    assert kernel_result.speedup >= SPEEDUP_BAR, (
        f"compiled {kernel_result.compiled_seconds * 1e3:.1f} ms vs numpy"
        f" {kernel_result.numpy_seconds * 1e3:.1f} ms"
        f" — only {kernel_result.speedup:.1f}x"
    )


def test_shm_bootstrap_flat_as_edges_grow(kernel_result):
    """Attach cost must not track the 4x edge growth."""
    assert kernel_result.bootstrap_ratio <= FLATNESS_BAR, (
        f"attach grew {kernel_result.bootstrap_ratio:.2f}x over a 4x graph"
    )
