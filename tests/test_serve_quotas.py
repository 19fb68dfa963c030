"""Per-namespace quota counters of the serve job manager.

``JobManager`` keeps a count of all jobs and of in-flight jobs per
namespace, so a quota check never scans the job table.  These tests drive a
manager whose workers never dequeue (jobs move only when a test moves them)
through submits, cancels, starts and finishes across three namespaces, and
check after every step that the counters equal a scan of the job table and
that :class:`QuotaExceeded` is raised exactly when the scan says so.
"""

from __future__ import annotations

import shutil
import tempfile
from collections import Counter
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.serve import JobManager, QuotaExceeded

NAMESPACES = ("team-a", "team-b", "team-c")


def spec(n: int) -> dict[str, object]:
    return {"model": "alexnet", "tools": ["hotness"], "iterations": 1 + n % 3}


class IdleManager(JobManager):
    """A manager whose worker exits at once, so no job moves by itself."""

    def _worker(self) -> None:
        return


def idle_manager(data_dir: Path, **quotas: Optional[int]) -> JobManager:
    return IdleManager(data_dir, workers=1, **quotas)


def scanned(manager: JobManager) -> tuple[Counter, Counter]:
    """Per-namespace (all jobs, in-flight jobs), by scanning the job table."""
    jobs = list(manager._jobs.values())
    return (Counter(j.namespace for j in jobs),
            Counter(j.namespace for j in jobs if not j.terminal))


def scan_rejects(manager: JobManager, namespace: str) -> Optional[str]:
    """Which quota a full scan of the job table says a submit trips."""
    total, inflight = scanned(manager)
    if manager.quota_total is not None and total[namespace] >= manager.quota_total:
        return "total"
    if manager.quota_inflight is not None and inflight[namespace] >= manager.quota_inflight:
        return "inflight"
    return None


def assert_counters_match(manager: JobManager) -> None:
    total, inflight = scanned(manager)
    assert manager._ns_total == total
    assert manager._ns_inflight == inflight


def start(manager: JobManager, job_id: str) -> None:
    """What a worker does when it dequeues a job, minus the execution."""
    job = manager.get(job_id)
    with manager._cond:
        job.state = "running"


class QuotaMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="pasta-quota-"))
        self.manager = idle_manager(self.dir, quota_inflight=2, quota_total=4)
        self.submitted = 0

    def teardown(self) -> None:
        self.manager.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def _jobs(self, *states: str) -> list[str]:
        return [j.id for j in self.manager.jobs() if j.state in states]

    @rule(namespace=st.sampled_from(NAMESPACES))
    def submit(self, namespace: str) -> None:
        expected = scan_rejects(self.manager, namespace)
        rejections = self.manager.quota_rejections
        try:
            self.manager.submit(spec(self.submitted), namespace=namespace)
            self.submitted += 1
        except QuotaExceeded as error:
            assert error.quota == expected
            assert error.namespace == namespace
            assert self.manager.quota_rejections == rejections + 1
        else:
            assert expected is None

    @precondition(lambda self: self._jobs("queued", "running", "cancelling"))
    @rule(data=st.data())
    def cancel(self, data) -> None:
        job_id = data.draw(st.sampled_from(self._jobs("queued", "running", "cancelling")))
        self.manager.cancel(job_id)

    @precondition(lambda self: self._jobs("queued"))
    @rule(data=st.data())
    def start(self, data) -> None:
        start(self.manager, data.draw(st.sampled_from(self._jobs("queued"))))

    @precondition(lambda self: self._jobs("running", "cancelling"))
    @rule(data=st.data(), ok=st.booleans())
    def finish(self, data, ok: bool) -> None:
        job = self.manager.get(data.draw(st.sampled_from(self._jobs("running", "cancelling"))))
        if ok:
            self.manager._complete(job, {"reports": {}}, False, executed=1, cached=0)
        else:
            self.manager._fail(job, "boom")

    @invariant()
    def counters_match_a_scan(self) -> None:
        assert_counters_match(self.manager)


QuotaMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None, derandomize=True
)
TestQuotaMachine = QuotaMachine.TestCase


def test_restart_restores_counters(tmp_path: Path) -> None:
    manager = idle_manager(tmp_path, quota_inflight=3, quota_total=None)
    jobs = {
        name: [manager.submit(spec(i), namespace=name) for i in range(3)]
        for name in ("team-a", "team-b")
    }
    a, b = jobs["team-a"], jobs["team-b"]
    manager.cancel(a[0].id)                # queued -> cancelled
    start(manager, a[1].id)
    manager._complete(a[1], {"reports": {}}, False, executed=1, cached=0)
    start(manager, b[0].id)                # running when the daemon stops
    start(manager, b[1].id)
    manager._fail(b[1], "boom")
    assert_counters_match(manager)
    manager.close()

    reborn = idle_manager(tmp_path, quota_inflight=3, quota_total=None)
    try:
        assert_counters_match(reborn)
        assert reborn._ns_total == Counter({"team-a": 3, "team-b": 3})
        # a[2], b[0] (was running) and b[2] are re-enqueued and in flight.
        assert reborn._ns_inflight == Counter({"team-a": 1, "team-b": 2})
        assert reborn.resumed == 3
        # A re-enqueued job's one record says it resumed; a finished job's
        # terminal record equals its status.
        for job_id in (a[2].id, b[0].id, b[2].id):
            assert [(r["event"], r["resumed"], r["events"])
                    for r in reborn.get(job_id).events] == [("queued", True, 1)]
        cancelled = reborn.get(a[0].id)
        final, status = cancelled.events[-1], cancelled.status_record()
        assert {**final, "event": "status", "ts_unix": 0} == {**status, "ts_unix": 0}
        reborn.submit(spec(9), namespace="team-b")
        with pytest.raises(QuotaExceeded, match="3 jobs in flight"):
            reborn.submit(spec(10), namespace="team-b")
        assert_counters_match(reborn)
    finally:
        reborn.close()

    # Restored jobs count against the total quota too.
    capped = idle_manager(tmp_path, quota_inflight=None, quota_total=4)
    try:
        assert capped._ns_total == Counter({"team-a": 3, "team-b": 4})
        capped.submit(spec(11), namespace="team-a")
        with pytest.raises(QuotaExceeded, match="total submission quota"):
            capped.submit(spec(12), namespace="team-b")
    finally:
        capped.close()
