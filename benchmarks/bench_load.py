"""Load — the open-loop goodput knee with and without admission control.

Regenerates the load-benchmark table (Zipf multi-tenant open-loop
traffic replayed at fractions of measured saturation through a bounded
admission queue and an unprotected unbounded queue) and asserts the
overload acceptance bars: goodput under SLO must *plateau* past
saturation (>= 70% of the admission arm's peak retained at 2x) instead
of collapsing, and the shedding must be priority-ordered — ANY
consistency reads pay first, FRESH reads and writes last.

The plateau bar is skipped (not failed) on starved single-core runners,
where the closed-loop saturation estimate is too noisy to hold a 70%
line against — the shedding-order and bookkeeping assertions are what
must hold everywhere.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_load.py -q``.
"""

from __future__ import annotations

import pytest

from repro.bench.load import available_cores, load_benchmark

from .conftest import RESULTS_DIR

PLATEAU_BAR = 0.7


@pytest.fixture(scope="module")
def load_result():
    return load_benchmark("youtube")


@pytest.fixture(scope="module", autouse=True)
def load_table(load_result):
    table = load_result.table()
    summary = (
        f"plateau: {load_result.plateau_ratio:.0%} of peak goodput"
        f" ({load_result.peak_goodput:,.0f}/s) retained at 2x saturation"
        f" ({load_result.saturation_rps:,.0f}/s measured closed-loop);"
        f" unprotected arm at 2x: {load_result.unprotected_at_2x:,.0f}/s"
    )
    print("\n" + table + "\n" + summary + "\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "load.txt").write_text(table + "\n" + summary + "\n")


def test_any_consistency_sheds_first(load_result):
    """Priority order at 2x: shed rate ANY >= BOUNDED >= FRESH/writes."""
    assert load_result.any_shed_first


def test_overload_is_shed_not_absorbed(load_result):
    """At 2x saturation the bounded queue must actually refuse work."""
    top = max(load_result.admission, key=lambda r: r.arrival_rate)
    assert top.shed_total > 0
    assert top.shed_rate("any") > 0.5


def test_conservation_every_run(load_result):
    """No request lost or double-counted in any run of either arm."""
    for report in load_result.admission + load_result.unprotected:
        assert report.offered == report.shed_total + report.accepted
        assert report.accepted == (
            report.served + report.expired_total
        )
        assert report.completed + report.failed == report.served
        assert report.good + report.late == report.completed


def test_goodput_plateaus_at_2x_saturation(load_result):
    """The acceptance bar: graceful degradation, not collapse."""
    if available_cores() <= 1:
        pytest.skip(
            "single-core runner: saturation estimate too noisy for the"
            " plateau bar; shedding order already asserted"
        )
    assert load_result.plateau_ratio >= PLATEAU_BAR, (
        f"goodput fell to {load_result.goodput_at_2x:,.0f}/s at 2x from a"
        f" peak of {load_result.peak_goodput:,.0f}/s"
        f" ({load_result.plateau_ratio:.0%} retained, bar {PLATEAU_BAR:.0%})"
    )


def test_admission_beats_unprotected_at_overload(load_result):
    """At 2x the bounded queue must out-serve the unbounded backlog."""
    if available_cores() <= 1:
        pytest.skip(
            "single-core runner: saturation estimate too noisy; shedding"
            " order already asserted"
        )
    assert load_result.goodput_at_2x >= load_result.unprotected_at_2x
