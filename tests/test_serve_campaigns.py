"""One campaign execution path: serve campaigns run through the scheduler.

* the result cache holds one record shape — whichever of ``pasta serve`` and
  :class:`CampaignScheduler` filled it, the other is served the runner's
  record, and the scheduler's outcome records carry ``digest``/``version``
  (and ``attempts``) whether fresh or cached;
* serve campaigns honour ``execution: "replay"`` (one simulation per
  workload) and keep their ``progress``/``result`` wire shape;
* :meth:`CampaignScheduler.cancel` skips every job not yet started, also
  when it arrives before :meth:`~CampaignScheduler.run`.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.api.runner import execute_payload
from repro.api.spec import ProfileSpec
from repro.campaign.cache import ResultCache
from repro.campaign.faults import FaultInjector, FaultPlan, FaultRule, faults_scope
from repro.campaign.scheduler import CampaignRunResult, CampaignScheduler
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.core.serialization import stable_json_dumps
from repro.serve import JobManager

SPEC = {"model": "alexnet", "tools": ["hotness"], "iterations": 1}

#: A 2-tool grid over one workload: two cells, one distinct simulation.
GRID = {
    "name": "two-tools",
    "models": ["alexnet"],
    "tools": ["kernel_frequency", "hotness"],
    "iterations": 1,
}

#: The keys of a serve campaign ``progress`` record.
PROGRESS_KEYS = {
    "type", "v", "ts_unix", "job_id", "index", "total",
    "label", "digest", "status", "cache_hit",
}

BOOKKEEPING = {"attempts", "attempt_errors", "digest", "version"}


def run_job(manager: JobManager, payload: dict) -> tuple[object, list[dict]]:
    """Submit ``payload``, wait for a terminal state; returns (job, records)."""
    job = manager.submit(payload)
    records = list(manager.stream(job.id, timeout=300))
    assert job.terminal, job.state
    return job, records


def stub_jobs(n: int) -> list[ProfileSpec]:
    return [ProfileSpec(model="alexnet", batch_size=b, iterations=1) for b in range(1, n + 1)]


def stub_runner(payload: dict) -> dict:
    return {"job": dict(payload), "status": "ok", "summary": {}, "reports": {}}


class TestOneCacheRecordShape:
    def test_scheduler_filled_cache_serves_profile_job_the_runner_record(
        self, tmp_path: Path
    ) -> None:
        data_dir = tmp_path / "serve"
        spec = ProfileSpec.from_dict(SPEC)
        filled = CampaignScheduler(
            executor="serial", cache=ResultCache(data_dir / "cache")
        ).run([spec])
        assert filled.executed == 1

        with JobManager(data_dir, workers=1) as manager:
            job, _ = run_job(manager, SPEC)
            assert (job.state, job.cache_hit, manager.executed) == ("done", True, 0)
        assert not BOOKKEEPING & job.result.keys()
        local = execute_payload(spec.to_dict())
        assert stable_json_dumps(job.result) == stable_json_dumps(local)

    def test_daemon_filled_cache_serves_scheduler_and_store_resume(
        self, tmp_path: Path
    ) -> None:
        data_dir = tmp_path / "serve"
        with JobManager(data_dir, workers=1) as manager:
            job, _ = run_job(manager, GRID)
            assert job.state == "done" and manager.executed == 2

        campaign = CampaignSpec.from_dict(GRID)
        store = ResultStore(tmp_path / "results.jsonl")
        cached = CampaignScheduler(
            executor="serial", cache=ResultCache(data_dir / "cache"), store=store
        ).run(campaign)
        assert (cached.cached, cached.executed) == (2, 0)
        for outcome in cached.outcomes:
            assert outcome.record["digest"] == outcome.digest
            assert outcome.record["version"] == repro.__version__
            assert outcome.record["attempts"] == 1

        # No cache at all: the store alone answers every cell.
        resumed = CampaignScheduler(executor="serial", store=store).run(campaign)
        assert (resumed.cached, resumed.executed) == (2, 0)
        assert stable_json_dumps([o.record for o in resumed.outcomes]) == \
            stable_json_dumps([o.record for o in cached.outcomes])

    def test_fresh_outcome_keeps_attempts_but_cache_entry_does_not(
        self, tmp_path: Path
    ) -> None:
        cache = ResultCache(tmp_path / "cache")
        result = CampaignScheduler(
            executor="serial", cache=cache, job_runner=stub_runner
        ).run(stub_jobs(1))
        outcome = result.outcomes[0]
        assert outcome.record["attempts"] == 1
        assert outcome.record["version"] == repro.__version__
        assert cache.get(outcome.digest) == stub_runner(outcome.job.to_dict())


class TestServeCampaigns:
    def test_replay_campaign_simulates_each_workload_once(self, tmp_path: Path) -> None:
        reports = {}
        for execution, simulations in (("replay", 1), ("simulate", 2)):
            with JobManager(tmp_path / execution, workers=1) as manager:
                job, records = run_job(manager, {**GRID, "execution": execution})
                assert job.state == "done"
                assert manager.executed == simulations
                assert (job.result["executed"], job.result["failed"]) == (2, 0)
                reports[execution] = {
                    cell["label"]: manager.cache.get(cell["digest"])["reports"]
                    for cell in job.result["cells"]
                }
            progress = [r for r in records if r["type"] == "progress"]
            assert sorted(p["index"] for p in progress) == [0, 1]
            assert all(set(p) == PROGRESS_KEYS for p in progress)
            assert [p["digest"] for p in sorted(progress, key=lambda p: p["index"])] == \
                [cell["digest"] for cell in job.result["cells"]]
        assert len(reports["replay"]) == 2
        assert stable_json_dumps(reports["replay"]) == stable_json_dumps(reports["simulate"])

    def test_failed_cell_keeps_the_wire_shape(self, tmp_path: Path) -> None:
        plan = FaultPlan(rules=(FaultRule(site="runner.execute", kind="error", times=1),))
        with faults_scope(FaultInjector(plan)):
            with JobManager(tmp_path / "serve", workers=1) as manager:
                job, records = run_job(manager, GRID)
                assert manager.executed == 1
        assert job.state == "done" and job.cache_hit is False
        progress = [r for r in records if r["type"] == "progress"]
        assert [p["status"] for p in progress] == ["failed", "ok"]
        assert set(progress[0]) == PROGRESS_KEYS | {"error"}
        assert set(progress[1]) == PROGRESS_KEYS
        assert job.result["failed"] == 1
        assert [c["status"] for c in job.result["cells"]] == ["failed", "ok"]
        assert job.result["cells"][0]["error"] == progress[0]["error"]


class TestSchedulerCancel:
    def test_cancel_during_first_cell_skips_the_rest(self) -> None:
        def runner(payload: dict) -> dict:
            scheduler.cancel("test")
            return stub_runner(payload)

        scheduler = CampaignScheduler(executor="serial", job_runner=runner)
        result = scheduler.run(stub_jobs(4), name="cancelled")
        assert isinstance(result, CampaignRunResult)
        assert [o.status for o in result.outcomes] == ["ok", "skipped", "skipped", "skipped"]
        assert all("test" in str(o.error) for o in result.outcomes[1:])

    def test_cancel_before_run_is_kept_and_cleared_after(self) -> None:
        scheduler = CampaignScheduler(executor="serial", job_runner=stub_runner)
        scheduler.cancel("early")
        first = scheduler.run(stub_jobs(2))
        assert [o.status for o in first.outcomes] == ["skipped", "skipped"]
        second = scheduler.run(stub_jobs(2))
        assert [o.status for o in second.outcomes] == ["ok", "ok"]
