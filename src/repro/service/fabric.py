"""The shard pool: campaign execution, dedup, persistence and resume.

A :class:`ShardPool` owns one shared
:class:`~repro.analysis.parallel.Runner` and a dispatcher thread that
drains submitted campaigns FIFO.  Sharding happens inside the Runner
(``jobs=N`` worker processes with crash-retry); the pool's job is the
campaign lifecycle:

* **dedup** — a campaign's id is the content hash of (spec, scale), so
  resubmitting is idempotent, and overlapping campaigns share cells
  through the Runner's memo/disk cache (each unique ``RunSpec`` simulates
  at most once per cache);
* **streaming** — every completed cell appends an NDJSON-able event that
  the HTTP layer tails to clients;
* **restart survival** — campaign state is persisted as one small JSON
  file per campaign; on restart :meth:`resume_pending` requeues anything
  not finished, and the Runner's disk cache turns the already-completed
  cells into hits, so only the missing cells simulate.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import threading
from dataclasses import dataclass, field

from repro.analysis.parallel import Runner, RunMetrics, RunSpec
from repro.analysis.runner import ExperimentScale
from repro.service.planner import (
    CampaignCell,
    campaign_id,
    campaign_scale,
    iter_cells,
)
from repro.service.schema import (
    Campaign,
    CampaignError,
    campaign_payload,
    parse_campaign,
    to_payload,
)

#: Campaign lifecycle states.  A state file is written at submit
#: ("queued") and at the end ("done" or "failed"); "running" is in memory
#: only.  A restarted pool requeues every file that has not ended.
STATES = ("queued", "running", "done", "failed")


@dataclass
class CampaignRun:
    """One submitted campaign's live state inside the pool."""

    id: str
    campaign: Campaign
    scale: ExperimentScale
    cells: list[CampaignCell]
    specs: list[RunSpec]  # unique, submission order
    state: str = "queued"
    completed: int = 0
    simulated: int = 0
    cache_hits: int = 0
    error: str | None = None
    #: ``campaign_payload(campaign)``, encoded once for both state
    #: writes; None when the run is not persisted.
    document: dict | None = None
    events: list[dict] = field(default_factory=list)
    metrics: dict[RunSpec, RunMetrics] = field(default_factory=dict)
    _finished: threading.Event = field(default_factory=threading.Event)

    @property
    def total(self) -> int:
        return len(self.specs)

    def status(self) -> dict:
        out = {
            "id": self.id,
            "name": self.campaign.name,
            "scale": self.scale.name,
            "state": self.state,
            "total": self.total,
            "completed": self.completed,
            "simulated": self.simulated,
            "cache_hits": self.cache_hits,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.campaign.output.kind != "none":
            out["output"] = to_payload(self.campaign.output)
        return out

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the campaign reaches done/failed (True) or timeout."""
        return self._finished.wait(timeout)

    def result_rows(self) -> list[dict]:
        """One row per campaign cell, for clients: the cell's axes by
        their campaign keys, ``workload`` the name of the program it ran
        (a grid cell's in place of its workload index), then its spec
        hash and metrics."""
        if self.state != "done":
            raise CampaignError(
                f"campaign {self.id[:12]} is {self.state}, results are only"
                " available once it is done"
            )
        rows = []
        for cell in self.cells:
            metrics = self.metrics[cell.spec]
            rows.append(
                {
                    **dict(cell.axes),
                    "workload": metrics.workload,
                    "spec": cell.spec.content_hash(),
                    "metrics": metrics.to_dict(),
                }
            )
        return rows


class ShardPool:
    """Serial campaign dispatcher over one shared Runner.

    Campaigns queue FIFO and each expands into a Runner batch; within a
    campaign the Runner fans cells across its worker processes.  All
    public methods are thread-safe (the HTTP layer calls them from the
    event loop while the dispatcher thread executes).
    """

    def __init__(
        self,
        runner: Runner,
        state_dir: str | os.PathLike | None = None,
    ) -> None:
        self.runner = runner
        self.state_dir = (
            pathlib.Path(state_dir) if state_dir is not None else None
        )
        self._runs: dict[str, CampaignRun] = {}
        self._queue: list[CampaignRun] = []
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._stop = False
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop = False
        self._thread = threading.Thread(
            target=self._loop, name="shard-pool", daemon=True
        )
        self._thread.start()

    def stop(self, wait: bool = True) -> None:
        """Stop after the in-flight cell; unfinished campaigns stay
        "queued" on disk for the next pool to resume."""
        with self._wake:
            self._stop = True
            self._wake.notify_all()
        if wait and self._thread is not None:
            self._thread.join()
        self._thread = None

    # -- submission ----------------------------------------------------

    def submit(
        self, campaign: Campaign, scale: ExperimentScale | str | None = None
    ) -> CampaignRun:
        """Queue a campaign of any kind; idempotent on its content id.

        A known id that has not failed returns its run before any cell is
        expanded; a new or failed one expands outside the lock."""
        resolved_scale = campaign_scale(campaign, scale)
        cid = campaign_id(campaign, resolved_scale)
        with self._lock:
            existing = self._live(cid)
        if existing is not None:
            return existing
        cells = list(iter_cells(campaign, resolved_scale))
        specs = list(dict.fromkeys(cell.spec for cell in cells))
        document = None
        if self.state_dir is not None:
            try:
                document = campaign_payload(campaign)
            except CampaignError:
                pass  # in-memory-profile campaigns can't be persisted
        with self._wake:
            existing = self._live(cid)
            if existing is not None:
                return existing
            run = CampaignRun(
                id=cid,
                campaign=campaign,
                scale=resolved_scale,
                cells=cells,
                specs=specs,
                document=document,
            )
            run.events.append(
                {"event": "submitted", "id": cid, "total": run.total}
            )
            self._runs[cid] = run
            self._queue.append(run)
            self._wake.notify_all()
        self._persist(run)
        return run

    def _live(self, cid: str) -> CampaignRun | None:
        """The run of ``cid`` unless it is unknown or failed (a failed
        campaign may be resubmitted).  The caller holds the lock."""
        run = self._runs.get(cid)
        return None if run is None or run.state == "failed" else run

    def resume_pending(self) -> list[CampaignRun]:
        """Requeue persisted campaigns that never reached done/failed.

        Completed cells are already in the result cache, so a resumed
        campaign re-simulates only what is missing.
        """
        if self.state_dir is None or not self.state_dir.is_dir():
            return []
        resumed = []
        for path in sorted(self.state_dir.glob("*.json")):
            try:
                payload = json.loads(path.read_text())
                state = payload["state"]
                if state in ("done", "failed"):
                    continue
                campaign = parse_campaign(payload["campaign"], where=str(path))
                resumed.append(self.submit(campaign, payload["scale"]))
            except (OSError, ValueError, KeyError):
                # A corrupt state file must not wedge the whole service.
                try:
                    path.unlink()
                except OSError:
                    pass
        return resumed

    # -- queries -------------------------------------------------------

    def get(self, cid: str) -> CampaignRun | None:
        with self._lock:
            return self._runs.get(cid)

    def list_runs(self) -> list[CampaignRun]:
        with self._lock:
            return list(self._runs.values())

    def events_since(self, run: CampaignRun, index: int) -> list[dict]:
        with self._lock:
            return run.events[index:]

    # -- execution -----------------------------------------------------

    def _loop(self) -> None:
        while True:
            with self._wake:
                while not self._queue and not self._stop:
                    self._wake.wait(timeout=0.2)
                if self._stop:
                    return
                run = self._queue.pop(0)
                run.state = "running"
                run.events.append({"event": "running", "id": run.id})
            # No state write: the file still says "queued", which a
            # restarted pool requeues just the same.
            if not self._execute(run):
                return  # stop requested mid-campaign

    def _execute(self, run: CampaignRun) -> bool:
        """Run one campaign; False means a stop interrupted it."""
        stream = self.runner.run_stream(run.specs)
        try:
            for spec, metrics, source in stream:
                self._record(run, spec, metrics, source)
                if self._stop:
                    # Leave the persisted state "queued": the next pool's
                    # resume_pending requeues it and the cells recorded so
                    # far come back as disk hits.
                    return False
        except Exception as exc:  # a cell failed after retries
            with self._lock:
                run.state = "failed"
                run.error = f"{type(exc).__name__}: {exc}"
                run.events.append(
                    {"event": "failed", "id": run.id, "error": run.error}
                )
            self._persist(run)
            run._finished.set()
            return True
        finally:
            stream.close()
        with self._lock:
            run.state = "done"
            run.events.append(
                {
                    "event": "done",
                    "id": run.id,
                    "total": run.total,
                    "simulated": run.simulated,
                    "cache_hits": run.cache_hits,
                }
            )
        self._persist(run)
        run._finished.set()
        return True

    def _record(
        self, run: CampaignRun, spec: RunSpec, metrics: RunMetrics, source: str
    ) -> None:
        with self._lock:
            run.completed += 1
            if source == "sim":
                run.simulated += 1
            else:
                run.cache_hits += 1
            run.metrics[spec] = metrics
            run.events.append(
                {
                    "event": "result",
                    "id": run.id,
                    "workload": metrics.workload,
                    "seed": spec.seed,
                    "source": source,
                    "cycles": metrics.cycles,
                    "completed": run.completed,
                    "total": run.total,
                }
            )

    # -- persistence ---------------------------------------------------

    def _persist(self, run: CampaignRun) -> None:
        if run.document is None:
            return
        payload = json.dumps(
            {
                "id": run.id,
                "state": run.state,
                "scale": run.scale.name,
                "completed": run.completed,
                "simulated": run.simulated,
                "campaign": run.document,
            },
            sort_keys=True,
            allow_nan=False,
        )
        self.state_dir.mkdir(parents=True, exist_ok=True)
        path = self.state_dir / f"{run.id}.json"
        # Atomic publish, same discipline as the result cache.
        fd, tmp = tempfile.mkstemp(dir=self.state_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
