"""Priority job queue over the process-persistent warm worker pool.

The daemon accepts jobs faster than the pool can run them; this queue is
the buffer in between. Scheduling is deliberately simple and fully
deterministic from the submission order:

* a binary heap orders jobs by ``(priority, sequence)`` — lower priority
  number first, FIFO within a priority level;
* a single scheduler thread pops ready jobs and submits
  :func:`repro.harness.jobs.execute_job` to the warm pool, which hands
  each to its least-busy worker;
* in-flight work is capped at the pool width — the heap, not the pool's
  internal queues, holds the backlog, which keeps priorities honest
  (a queued high-priority job overtakes queued low-priority ones, never
  stuck behind them inside an executor), and a dispatched job always
  starts on an idle worker.

Every finished job's result (or error) is appended to the persistent
results store, so verdicts survive the daemon.
"""

from __future__ import annotations

import heapq
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.harness import worker_pool
from repro.harness.jobs import check_job, execute_job
from repro.service.results import ResultsStore

__all__ = ["Job", "JobQueue"]

DEFAULT_PRIORITY = 10


@dataclass
class Job:
    """One queued unit of work and its lifecycle."""

    id: str
    kind: str
    params: Dict[str, Any]
    priority: int = DEFAULT_PRIORITY
    state: str = "queued"        # queued | running | done | failed
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    seq: int = 0
    submitted_t: float = 0.0
    started_t: Optional[float] = None
    finished_t: Optional[float] = None

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "id": self.id, "kind": self.kind, "priority": self.priority,
            "state": self.state,
        }
        if self.error is not None:
            out["error"] = self.error
        return out

    def detail(self) -> Dict[str, Any]:
        out = self.summary()
        out["params"] = self.params
        out["result"] = self.result
        out["submitted_t"] = self.submitted_t
        out["started_t"] = self.started_t
        out["finished_t"] = self.finished_t
        return out


@dataclass(order=True)
class _HeapEntry:
    priority: int
    seq: int
    job: Job = field(compare=False)


class JobQueue:
    """Priority scheduling of harness jobs onto the warm pool."""

    def __init__(self, jobs: int = 4,
                 results: Optional[ResultsStore] = None):
        self.jobs = max(1, jobs)
        self.results = results
        self._heap: List[_HeapEntry] = []
        self._jobs: Dict[str, Job] = {}
        self._seq = 0
        self._inflight = 0
        self._cond = threading.Condition()
        self._stopping = False
        self.completed = 0
        self.failed = 0
        self._thread = threading.Thread(target=self._scheduler_loop,
                                        name="vidi-job-scheduler",
                                        daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    def submit(self, kind: str, params: Optional[Dict[str, Any]] = None,
               priority: int = DEFAULT_PRIORITY) -> str:
        """Queue one job. An invalid kind or params raise ValueError
        (:func:`~repro.harness.jobs.check_job`) and queue nothing.
        """
        params = dict(params or {})
        with self._cond:
            if self._stopping:
                raise RuntimeError("job queue is stopping")
            check_job(kind, params)
            self._seq += 1
            job = Job(id=f"job-{self._seq:06d}", kind=kind,
                      params=params, priority=int(priority),
                      seq=self._seq, submitted_t=time.time())
            self._jobs[job.id] = job
            heapq.heappush(self._heap, _HeapEntry(job.priority, job.seq, job))
            self._cond.notify_all()
        return job.id

    # ------------------------------------------------------------------
    def _scheduler_loop(self) -> None:
        while True:
            with self._cond:
                while not self._heap or self._inflight >= self.jobs:
                    if self._stopping and not self._heap:
                        return
                    self._cond.wait(timeout=0.5)
                    if self._stopping and not self._heap:
                        return
                job = heapq.heappop(self._heap).job
                job.state = "running"
                job.started_t = time.time()
                self._inflight += 1
            self._dispatch(job)

    def _dispatch(self, job: Job) -> None:
        pool = worker_pool.get_pool(self.jobs)
        try:
            future = pool.submit(execute_job, job.kind, job.params)
        except Exception as exc:             # pool hard-down: fail the job
            self._finish(job, None, f"dispatch failed: {exc}")
            return
        future.add_done_callback(
            lambda fut, job=job: self._on_done(job, fut))

    def _on_done(self, job: Job, future) -> None:
        try:
            result = future.result()
            error = None
        except Exception as exc:
            result = None
            error = "".join(traceback.format_exception_only(
                type(exc), exc)).strip()
        self._finish(job, result, error)

    def _finish(self, job: Job, result, error: Optional[str]) -> None:
        state = "done" if error is None else "failed"
        with self._cond:
            job.result = result
            job.error = error
            job.finished_t = time.time()
            record = dict(job.detail(), state=state)
        # Persist the verdict before publishing it: a client whose wait
        # saw the job finish must also find it in the results store.
        if self.results is not None:
            try:
                self.results.append("job", job.kind, record)
            except OSError:
                pass    # results persistence must not kill the scheduler
        with self._cond:
            job.state = state
            self._inflight -= 1
            if error is None:
                self.completed += 1
            else:
                self.failed += 1
            self._cond.notify_all()

    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._cond:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job {job_id!r}")

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until one job leaves the queue/pool (done or failed)."""
        job = self.get(job_id)
        with self._cond:
            self._cond.wait_for(lambda: job.state in ("done", "failed"),
                                timeout=timeout)
        return job

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until everything submitted so far has finished."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not self._heap and self._inflight == 0,
                timeout=timeout)

    def stop(self, drain: bool = True,
             timeout: Optional[float] = None) -> None:
        """Stop accepting jobs; optionally drain the backlog first."""
        if drain:
            self.drain(timeout=timeout)
        with self._cond:
            self._stopping = True
            self._heap.clear()
            self._cond.notify_all()
        self._thread.join(timeout=5.0)

    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        with self._cond:
            jobs = list(self._jobs.values())
            queued = len(self._heap)
            inflight = self._inflight
        states: Dict[str, int] = {}
        for job in jobs:
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "jobs": len(jobs),
            "queued": queued,
            "running": inflight,
            "completed": self.completed,
            "failed": self.failed,
            "states": states,
            "pool": worker_pool.pool_stats(),
            "recent": [j.summary() for j in jobs[-20:]],
        }
