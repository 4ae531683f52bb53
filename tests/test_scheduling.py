"""The shared scheduling policy (:mod:`repro.api.scheduling`).

The plan is the contract both the single-process and the replicated
schedulers execute; these tests pin its shape (barriers, run boundaries,
dedupe, the max-batch cap) and — the regression the extraction must not
break — that interleaved read/write traffic through
:meth:`repro.api.Gateway.submit_many` keeps exact arrival-order
semantics and matches per-request dispatch bit for bit.
"""

from __future__ import annotations

import pytest

from repro import DynamicDiGraph, PPRService
from repro.api.requests import (
    ANY,
    FRESH,
    Consistency,
    Deadline,
    Health,
    IngestBatch,
    TopKQuery,
)
from repro.api.scheduling import ReadRun, Single, plan_schedule
from repro.graph import insertions


def reads(*sources, k=5, consistency=FRESH):
    return [TopKQuery(source=s, k=k, consistency=consistency) for s in sources]


def write(*edges):
    return IngestBatch(updates=tuple(insertions(list(edges))))


class TestPlanSchedule:
    def test_all_reads_one_run(self):
        steps = plan_schedule(reads(1, 2, 3), max_batch=16)
        assert steps == [ReadRun((0, 1, 2), (1, 2, 3))]

    def test_duplicates_dedupe_in_first_occurrence_order(self):
        steps = plan_schedule(reads(7, 3, 7, 7, 1), max_batch=16)
        assert steps == [ReadRun((0, 1, 2, 3, 4), (7, 3, 1))]
        assert steps[0].coalesced == 2

    def test_writes_are_barriers(self):
        requests = reads(1, 2) + [write((1, 2))] + reads(2, 3)
        steps = plan_schedule(requests, max_batch=16)
        assert steps == [
            ReadRun((0, 1), (1, 2)),
            Single(2),
            ReadRun((3, 4), (2, 3)),
        ]

    def test_mixed_k_breaks_a_run(self):
        requests = reads(1, 2) + reads(3, k=9) + reads(4)
        steps = plan_schedule(requests, max_batch=16)
        assert steps[0] == ReadRun((0, 1), (1, 2))
        # k=9 read cannot join either neighbor run.
        assert Single(2) in steps

    def test_mixed_consistency_breaks_a_run(self):
        requests = reads(1, 2) + reads(3, 4, consistency=ANY)
        steps = plan_schedule(requests, max_batch=16)
        assert steps == [ReadRun((0, 1), (1, 2)), ReadRun((2, 3), (3, 4))]

    def test_bounded_consistency_must_match_exactly(self):
        requests = reads(1, 2, consistency=Consistency.bounded(2)) + reads(
            3, consistency=Consistency.bounded(3)
        )
        steps = plan_schedule(requests, max_batch=16)
        assert steps[0] == ReadRun((0, 1), (1, 2))
        assert steps[1] == Single(2)

    def test_max_batch_caps_unique_sources(self):
        steps = plan_schedule(
            reads(1, 1, 1, 2, 2, 3), max_batch=2
        )
        # The run closes once it holds max_batch unique sources;
        # positions past the cap start the next run.
        assert steps == [
            ReadRun((0, 1, 2, 3), (1, 2)),
            ReadRun((4, 5), (2, 3)),
        ]

    def test_single_read_degenerates(self):
        assert plan_schedule(reads(1), max_batch=16) == [Single(0)]

    def test_non_topk_reads_stay_single(self):
        requests = reads(1, 2) + [Health()] + reads(3, 4)
        steps = plan_schedule(requests, max_batch=16)
        assert steps == [
            ReadRun((0, 1), (1, 2)),
            Single(2),
            ReadRun((3, 4), (3, 4)),
        ]


@pytest.fixture
def service():
    return PPRService(
        DynamicDiGraph([(1, 0), (2, 0), (2, 1), (0, 2), (3, 1), (1, 3)])
    )


class TestInterleavedReadWriteOrdering:
    """Regression: the extracted policy keeps exact barrier semantics."""

    def test_reads_see_the_versions_their_position_implies(self, service):
        requests = (
            reads(0, 1)
            + [write((3, 2))]
            + reads(0, 0)
            + [write((2, 3))]
            + reads(1)
        )
        responses = service.gateway.submit_many(requests)
        assert [r.ok for r in responses] == [True] * 7
        # Before the first write: version 0; between: 1; after both: 2.
        assert [responses[i].snapshot_version for i in (0, 1)] == [0, 0]
        assert responses[2].snapshot_version == 1
        assert [responses[i].snapshot_version for i in (3, 4)] == [1, 1]
        assert responses[5].snapshot_version == 2
        assert responses[6].snapshot_version == 2

    def test_matches_per_request_dispatch_bit_for_bit(self, service):
        shadow = PPRService(
            DynamicDiGraph([(1, 0), (2, 0), (2, 1), (0, 2), (3, 1), (1, 3)])
        )
        requests = (
            reads(0, 1, 0)
            + [write((3, 2))]
            + reads(2, 0, 2, 1)
            + [write((2, 3))]
            + reads(0, 3)
        )
        scheduled = service.gateway.submit_many(requests)
        dispatched = [shadow.gateway.submit(r) for r in requests]
        for left, right in zip(scheduled, dispatched):
            assert left.ok and right.ok
            assert left.snapshot_version == right.snapshot_version
            assert left.staleness == right.staleness
            if isinstance(left, type(right)) and hasattr(left, "entries"):
                assert left.cold == right.cold
                assert [e.vertex for e in left.entries] == [
                    e.vertex for e in right.entries
                ]
                assert [e.estimate for e in left.entries] == [
                    e.estimate for e in right.entries
                ]

    def test_coalescing_never_crosses_a_barrier(self, service):
        requests = reads(0, 1) + [write((3, 2))] + reads(0, 1)
        service.gateway.submit_many(requests)
        # Two runs of two unique sources each: nothing was deduplicated
        # across the write barrier.
        assert service.gateway.counters["reads_coalesced"] == 0
        service.gateway.submit_many(reads(0, 0, 1))
        assert service.gateway.counters["reads_coalesced"] == 1


class TestDeadlinePlumbing:
    """Coalesced runs must honour their most impatient member."""

    def test_run_inherits_the_tightest_member_deadline(self):
        tight = Deadline.after_ms(50.0)
        loose = Deadline.after_ms(5000.0)
        requests = [
            TopKQuery(source=0, k=5, consistency=FRESH, deadline=loose),
            TopKQuery(source=1, k=5, consistency=FRESH, deadline=tight),
            TopKQuery(source=2, k=5, consistency=FRESH),
        ]
        (run,) = plan_schedule(requests, max_batch=8)
        assert isinstance(run, ReadRun)
        assert run.deadline is tight

    def test_run_without_deadlines_carries_none(self):
        (run,) = plan_schedule(reads(0, 1, 2), max_batch=8)
        assert isinstance(run, ReadRun)
        assert run.deadline is None

    def test_deadline_does_not_change_plan_shape_or_equality(self):
        plain = plan_schedule(reads(0, 1, 2), max_batch=8)
        deadlined = plan_schedule(
            [
                TopKQuery(
                    source=s, k=5, consistency=FRESH,
                    deadline=Deadline.after_ms(10.0),
                )
                for s in (0, 1, 2)
            ],
            max_batch=8,
        )
        # Deadline is compare=False: the plans are equal by shape.
        assert plain == deadlined

    def test_interleaving_regression_each_run_gets_its_own_tightest(self):
        """A barrier splits runs; each run takes *its* members' minimum."""
        first_tight = Deadline.after_ms(20.0)
        second_tight = Deadline.after_ms(70.0)
        requests = [
            TopKQuery(source=0, k=5, consistency=FRESH, deadline=first_tight),
            TopKQuery(
                source=1, k=5, consistency=FRESH,
                deadline=Deadline.after_ms(9000.0),
            ),
            write((3, 2)),
            TopKQuery(
                source=0, k=5, consistency=FRESH,
                deadline=Deadline.after_ms(8000.0),
            ),
            TopKQuery(source=1, k=5, consistency=FRESH, deadline=second_tight),
        ]
        first, barrier, second = plan_schedule(requests, max_batch=8)
        assert isinstance(first, ReadRun) and first.deadline is first_tight
        assert isinstance(barrier, Single)
        assert isinstance(second, ReadRun) and second.deadline is second_tight

    def test_expired_member_fails_the_whole_run_per_position(self, service):
        import time

        expired = Deadline.after_ms(0.5)
        time.sleep(0.005)
        requests = [
            TopKQuery(source=0, k=5, consistency=FRESH),
            TopKQuery(source=1, k=5, consistency=FRESH, deadline=expired),
        ]
        responses = service.gateway.submit_many(requests)
        assert len(responses) == 2
        for response in responses:
            assert response.error is not None
            assert response.error.code == "DEADLINE"
        # Each position still reports its own source.
        assert [r.source for r in responses] == [0, 1]

    def test_generous_deadlines_round_trip_through_a_coalesced_run(
        self, service
    ):
        requests = [
            TopKQuery(
                source=s, k=5, consistency=FRESH,
                deadline=Deadline.after_ms(60000.0),
            )
            for s in (0, 1, 0)
        ]
        responses = service.gateway.submit_many(requests)
        assert all(r.ok for r in responses)
        assert service.gateway.counters["reads_coalesced"] >= 1
