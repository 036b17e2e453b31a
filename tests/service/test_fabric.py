"""ShardPool: dedup across overlapping campaigns, restart resume."""

import json
import pathlib
import threading
import time

import pytest

from repro.analysis.parallel import Runner
from repro.analysis.runner import RunMetrics
from repro.service import fabric, planner
from repro.service.client import ServiceClient
from repro.service.fabric import ShardPool
from repro.service.http import ServiceThread
from repro.service.schema import (
    CampaignError,
    default_campaign_dir,
    load_campaign,
    loads_campaign,
)

SMOKE_SPEC = """
campaign: 1
name: tiny
scale: smoke
grids:
  - workloads: [fmm]
    configs:
      - {name: eager, mode: eager}
      - {name: lazy, mode: lazy}
"""

OVERLAPPING_SPEC = """
campaign: 1
name: overlap
scale: smoke
grids:
  - workloads: [fmm]
    configs:
      - {name: eager, mode: eager}
      - {name: row, mode: row, detection: rw+dir, predictor: sat}
"""


def make_pool(tmp_path, state=True):
    runner = Runner(cache_dir=tmp_path / "cache")
    pool = ShardPool(
        runner, state_dir=(tmp_path / "state") if state else None
    )
    return runner, pool


class TestSubmission:
    def test_submit_runs_to_done(self, tmp_path):
        runner, pool = make_pool(tmp_path)
        pool.start()
        try:
            run = pool.submit(loads_campaign(SMOKE_SPEC))
            assert run.wait(timeout=60)
        finally:
            pool.stop()
        assert run.state == "done"
        assert run.total == 2
        assert run.simulated == 2
        assert len(run.result_rows()) == 2

    def test_submit_is_idempotent_on_content(self, tmp_path):
        runner, pool = make_pool(tmp_path)
        pool.start()
        try:
            first = pool.submit(loads_campaign(SMOKE_SPEC))
            second = pool.submit(loads_campaign(SMOKE_SPEC))
            assert first is second
            assert first.wait(timeout=60)
        finally:
            pool.stop()
        assert len(pool.list_runs()) == 1

    def test_every_committed_campaign_is_accepted(self, tmp_path):
        runner, pool = make_pool(tmp_path, state=False)  # never started
        paths = sorted(default_campaign_dir().glob("*.yaml"))
        assert len(paths) == 22
        for path in paths:
            run = pool.submit(load_campaign(path))
            assert run.state == "queued" and run.total > 0, path.stem
        assert len(pool.list_runs()) == 22
        assert runner.stats.simulated == 0

    def test_resubmitting_a_known_campaign_expands_nothing(
        self, tmp_path, monkeypatch
    ):
        runner, pool = make_pool(tmp_path)  # never started: stays queued
        first = pool.submit(loads_campaign(SMOKE_SPEC))
        expanded = []
        iter_cells = fabric.iter_cells

        def counted(*args):
            expanded.append(args)
            return iter_cells(*args)

        monkeypatch.setattr(fabric, "iter_cells", counted)
        assert pool.submit(loads_campaign(SMOKE_SPEC)) is first
        assert expanded == []
        # A failed campaign may be resubmitted, and is expanded afresh.
        first.state = "failed"
        again = pool.submit(loads_campaign(SMOKE_SPEC))
        assert again is not first and again.state == "queued"
        assert len(expanded) == 1

    def test_racing_submissions_of_one_campaign_queue_one_run(
        self, tmp_path, monkeypatch
    ):
        """Expansion runs outside the lock, so racers all get past the
        first look; the second look, under the lock, must still hand
        every one of them the one run."""
        runner, pool = make_pool(tmp_path, state=False)  # never started
        iter_cells = fabric.iter_cells

        def slow(*args):
            time.sleep(0.05)  # every racer is expanding at once
            return iter_cells(*args)

        monkeypatch.setattr(fabric, "iter_cells", slow)
        barrier = threading.Barrier(8)
        runs = []

        def submit():
            campaign = loads_campaign(SMOKE_SPEC)
            barrier.wait(timeout=60)
            runs.append(pool.submit(campaign))

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(runs) == 8 and all(run is runs[0] for run in runs)
        assert pool.list_runs() == [runs[0]]
        assert pool._queue == [runs[0]]

    def test_a_campaign_publishes_its_state_twice(self, tmp_path, monkeypatch):
        """Once queued and once done: "running" is never written."""
        pool = ShardPool(Runner(), state_dir=tmp_path / "state")
        states, documents = [], []
        replace, payload = fabric.os.replace, fabric.campaign_payload

        def published(src, dst):
            replace(src, dst)
            states.append(json.loads(pathlib.Path(dst).read_text())["state"])

        def encoded(campaign):
            documents.append(campaign)
            return payload(campaign)

        monkeypatch.setattr(fabric.os, "replace", published)
        monkeypatch.setattr(fabric, "campaign_payload", encoded)
        pool.start()
        try:
            run = pool.submit(loads_campaign(SMOKE_SPEC))
            assert run.wait(timeout=60) and run.state == "done"
        finally:
            pool.stop()
        assert states == ["queued", "done"]
        assert len(documents) == 1

    def test_result_rows_unavailable_until_done(self, tmp_path):
        runner, pool = make_pool(tmp_path)
        run = pool.submit(loads_campaign(SMOKE_SPEC))  # pool not started
        with pytest.raises(CampaignError, match="queued"):
            run.result_rows()


class TestEveryKindServes:
    LITMUS = "campaign: 1\nname: mp-and-sb-rmw\nkind: litmus\nprograms: [mp, sb+rmw]\n"

    def test_fig2_and_litmus_rows_equal_a_local_runner(self, tmp_path):
        fig2 = (default_campaign_dir() / "fig2.yaml").read_text()
        pool = ShardPool(Runner())
        pool.start()
        thread = ServiceThread(pool).start()
        try:
            client = ServiceClient(thread.url)
            served = {}
            for text, scale in ((fig2, "smoke"), (self.LITMUS, None)):
                status = client.submit(text, scale=scale)
                status = client.wait(status["id"], timeout=60)
                assert status["state"] == "done", status
                served[text] = client.results(status["id"])
        finally:
            thread.stop()
            pool.stop()
        local = Runner()
        for text, scale in ((fig2, "smoke"), (self.LITMUS, None)):
            cells = list(planner.iter_cells(loads_campaign(text), scale))
            metrics = local.run_many([c.spec for c in cells])
            rows = served[text]
            assert len(rows) == len(cells)
            for row, cell, expected in zip(rows, cells, metrics):
                assert row["spec"] == cell.spec.content_hash()
                assert {k: row[k] for k, _ in cell.axes} == {
                    k: list(v) if isinstance(v, tuple) else v
                    for k, v in cell.axes
                }
                assert RunMetrics.from_dict(row["metrics"]) == expected
        assert all(
            row["metrics"]["outcome"] for row in served[self.LITMUS]
        )


class TestDedup:
    def test_overlapping_campaigns_simulate_shared_cells_once(self, tmp_path):
        """Two campaigns sharing the (fmm, eager, seed 0) cell: the second
        gets it from the cache, so each unique spec simulates exactly once."""
        runner, pool = make_pool(tmp_path)
        pool.start()
        try:
            a = pool.submit(loads_campaign(SMOKE_SPEC))
            b = pool.submit(loads_campaign(OVERLAPPING_SPEC))
            assert a.wait(timeout=60) and b.wait(timeout=60)
        finally:
            pool.stop()
        shared = set(a.specs) & set(b.specs)
        assert len(shared) == 1
        assert runner.stats.simulated == 3  # eager, lazy, row — not 4
        assert a.completed + b.completed == 4
        assert a.simulated + b.simulated == 3
        assert b.cache_hits == 1  # the shared eager cell

    def test_duplicate_cells_within_one_campaign_run_once(self, tmp_path):
        text = """
campaign: 1
name: dupes
scale: smoke
grids:
  - workloads: [fmm]
    configs:
      - {name: a, mode: eager}
      - {name: b, mode: eager}
"""
        runner, pool = make_pool(tmp_path)
        pool.start()
        try:
            run = pool.submit(loads_campaign(text))
            assert run.wait(timeout=60)
        finally:
            pool.stop()
        assert runner.stats.simulated == 1
        # Both labelled cells still appear in the results.
        assert len(run.result_rows()) == 2


class TestResume:
    def test_kill_and_restart_completes_only_missing_cells(self, tmp_path):
        """Stop the pool mid-campaign; a fresh pool over the same state and
        cache dirs re-simulates only the cells the first pass never ran."""
        campaign = loads_campaign(SMOKE_SPEC)
        total = len(planner.expand_campaign(campaign, "smoke"))

        runner1, pool1 = make_pool(tmp_path)
        pool1.start()
        run1 = pool1.submit(campaign)
        # Stop as soon as the first cell lands; stop() waits for the
        # dispatcher to exit, leaving the persisted state "queued".
        while run1.completed == 0 and run1.state != "done":
            time.sleep(0.005)
        pool1.stop()
        pass1 = runner1.stats.simulated
        assert 0 < pass1 <= total

        runner2, pool2 = make_pool(tmp_path)
        resumed = pool2.resume_pending()
        if run1.state == "done":
            # The whole campaign landed before the stop; nothing pending.
            assert resumed == []
            return
        assert [r.id for r in resumed] == [run1.id]
        pool2.start()
        try:
            assert resumed[0].wait(timeout=60)
        finally:
            pool2.stop()
        assert resumed[0].state == "done"
        # Second pass: completed cells come back as disk hits, only the
        # missing ones simulate.
        assert runner2.stats.simulated == total - pass1
        assert runner2.stats.disk_hits == pass1
        assert len(resumed[0].result_rows()) == total

    def test_done_campaigns_are_not_resumed(self, tmp_path):
        runner1, pool1 = make_pool(tmp_path)
        pool1.start()
        run = pool1.submit(loads_campaign(SMOKE_SPEC))
        assert run.wait(timeout=60)
        pool1.stop()

        runner2, pool2 = make_pool(tmp_path)
        assert pool2.resume_pending() == []

    def test_corrupt_state_file_is_discarded(self, tmp_path):
        runner, pool = make_pool(tmp_path)
        state = tmp_path / "state"
        state.mkdir(exist_ok=True)
        bad = state / "bad.json"
        bad.write_text("{not json")
        assert pool.resume_pending() == []
        assert not bad.exists()

    def test_stateless_pool_resumes_nothing(self, tmp_path):
        runner, pool = make_pool(tmp_path, state=False)
        assert pool.resume_pending() == []
