"""Process-persistent warm worker pool: the harness's only process pool.

Every parallel frontend — ``run_cells`` sweeps, checkpoint-sharded
replay, campaign crash trials and the trace-service daemon's job queue —
dispatches through one module-level pool that lives as long as the
process, so worker start-up, ``repro`` import and kernel compilation are
paid once per worker rather than once per call.

Design:

* The pool is ``size`` independent single-worker executors ("slots")
  rather than one N-worker executor. That buys two things a monolithic
  pool cannot provide: **routing** (a task can be sent to a specific
  slot) and **surgical recycling** (a crashed worker poisons only its
  own slot; the other N-1 warm workers keep their caches).
* Submissions without an affinity key round-robin over the slots, so
  the cells of one sweep or sharded replay run side by side. The
  daemon's jobs carry a topology-affinity key instead:
  ``crc32(repr(key))`` picks the slot, so equal keys share a worker —
  and its in-process schedule cache — within a run *and* across runs
  (no dependence on ``PYTHONHASHSEED``).
* Each worker runs :func:`_warm_init` once at start: it pre-imports the
  heavy ``repro`` modules and pre-binds every compiled schedule from the
  on-disk cache (:mod:`repro.sim.schedule_store`) into RAM, so the first
  real cell dispatched to it binds in microseconds instead of
  levelizing. The cache directory is whatever
  :func:`~repro.sim.schedule_store.configure` last set; :func:`get_pool`
  restarts a pool whose workers started under another one.

The pool registers its affinity counters with
:func:`repro.sim.compile.register_cache_stats_provider`, so
``schedule_cache_stats()`` — and therefore ``--profile`` output — shows
the worker-affinity hit rate without the sim layer ever importing the
harness.
"""

from __future__ import annotations

import atexit
import multiprocessing.util
import zlib
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Set

from repro.sim import schedule_store

__all__ = ["WarmPool", "get_pool", "shutdown_pool", "pool_stats"]

_STATS = {
    "affinity_dispatches": 0,   # submits that carried an affinity key
    "affinity_hits": 0,         # ... whose slot had already seen that key
    "workers_recycled": 0,      # slots replaced after a hard crash
    "warm_submits": 0,          # total cells dispatched through the pool
}


def _warm_init() -> None:
    """Worker initializer: pre-import repro and pre-bind disk schedules.

    Runs once per worker process. After it returns, the worker holds the
    full ``repro`` import graph and a RAM mirror of every valid on-disk
    schedule entry, so its first cell skips both import cost and cold
    levelization.

    A forked worker also inherits its parent's ``_POOL``, whose executors
    belong to the parent; a task that parallelises inside the worker
    (a campaign job's sharded replays) must build its own pool instead.
    That pool is drained before the worker's exit joins its children, so
    it can never hold the worker — and the parent's shutdown — hostage.
    """
    global _POOL
    _POOL = None
    # Priority above the multiprocessing queues' close finalizers (10):
    # the nested executors still need their queues to stop their workers.
    multiprocessing.util.Finalize(None, shutdown_pool, exitpriority=100)
    import repro                      # noqa: F401  (full package graph)
    import repro.harness.runner       # noqa: F401  (cell workers live here)
    import repro.apps.registry        # noqa: F401  (app factories)

    schedule_store.preload()


def _stable_slot(affinity: object, size: int) -> int:
    """Deterministic slot for an affinity key (PYTHONHASHSEED-proof)."""
    return zlib.crc32(repr(affinity).encode("utf-8", "replace")) % size


class WarmPool:
    """N warm single-worker executors: round-robin or affinity dispatch."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("warm pool needs at least one slot")
        self.size = size
        # The schedule-cache directory the workers inherit and preload.
        self.cache_dir = schedule_store.cache_dir()
        self._slots: List[Optional[ProcessPoolExecutor]] = [None] * size
        # Affinity keys each slot's worker has already compiled/bound.
        self._seen: List[Set[object]] = [set() for _ in range(size)]
        self._rr = 0

    # -- slot management ------------------------------------------------

    def _executor(self, slot: int) -> ProcessPoolExecutor:
        ex = self._slots[slot]
        if ex is None:
            ex = ProcessPoolExecutor(max_workers=1, initializer=_warm_init)
            self._slots[slot] = ex
        return ex

    def slot_for(self, affinity: object) -> int:
        """Pick a slot: by affinity key when given, else round-robin."""
        if affinity is None:
            self._rr = (self._rr + 1) % self.size
            return self._rr
        _STATS["affinity_dispatches"] += 1
        slot = _stable_slot(affinity, self.size)
        if affinity in self._seen[slot]:
            _STATS["affinity_hits"] += 1
        else:
            self._seen[slot].add(affinity)
        return slot

    def submit(self, fn, *args, affinity: object = None):
        """Submit ``fn(*args)`` to the slot :meth:`slot_for` picks.

        A slot whose worker died earlier raises ``BrokenProcessPool``
        straight from ``submit``; that slot is recycled and the call
        retried once on the fresh worker, so callers only ever see
        breakage through a future's ``result()``.
        """
        slot = self.slot_for(affinity)
        _STATS["warm_submits"] += 1
        try:
            future = self._executor(slot).submit(fn, *args)
        except (BrokenProcessPool, RuntimeError):
            self.recycle(slot)
            future = self._executor(slot).submit(fn, *args)
        future.warm_slot = slot
        return future

    def recycle(self, slot: int) -> None:
        """Replace one broken slot; the other workers stay warm."""
        ex = self._slots[slot]
        self._slots[slot] = None
        self._seen[slot] = set()
        _STATS["workers_recycled"] += 1
        if ex is not None:
            ex.shutdown(wait=False, cancel_futures=True)

    def grow(self, size: int) -> None:
        """Widen the pool in place (never shrinks: warm slots are assets)."""
        if size > self.size:
            self._slots.extend([None] * (size - self.size))
            self._seen.extend(set() for _ in range(size - self.size))
            self.size = size

    def live_workers(self) -> int:
        return sum(1 for ex in self._slots if ex is not None)

    def worker_pids(self) -> List[int]:
        """PIDs of the live worker processes (for drain/leak checks)."""
        pids: List[int] = []
        for ex in self._slots:
            if ex is not None:
                pids.extend(p.pid for p in ex._processes.values())
        return pids

    def shutdown(self, wait: bool = True) -> None:
        """Drain and stop every slot.

        ``wait=True`` (the default) lets in-flight cells finish and then
        joins each worker process — the graceful path the trace-service
        daemon and atexit use, so no worker outlives its parent. The
        previous fire-and-forget behaviour (``wait=False``) abandoned the
        executor threads mid-handshake and could leak live worker
        processes when the parent exited quickly; it remains available
        for hard-recycle paths that already know the worker is dead.
        """
        for slot, ex in enumerate(self._slots):
            self._slots[slot] = None
            if ex is not None:
                ex.shutdown(wait=wait, cancel_futures=True)
        self._seen = [set() for _ in range(self.size)]


# ----------------------------------------------------------------------
# module-level pool: one per frontend process, shared by every caller
# ----------------------------------------------------------------------

_POOL: Optional[WarmPool] = None


def get_pool(jobs: int) -> WarmPool:
    """The process-wide warm pool, created on first use and grown on demand.

    A pool whose workers started under another schedule-cache directory
    than the current one is drained and replaced, so workers always see
    the directory :func:`~repro.sim.schedule_store.configure` last set.
    """
    global _POOL
    if _POOL is not None and _POOL.cache_dir != schedule_store.cache_dir():
        shutdown_pool()
    if _POOL is None:
        _POOL = WarmPool(jobs)
    else:
        _POOL.grow(jobs)
    return _POOL


def shutdown_pool(wait: bool = True) -> None:
    """Drain and tear down the shared pool (atexit, daemon shutdown, tests)."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown(wait=wait)
        _POOL = None


atexit.register(shutdown_pool)


def reset_stats() -> None:
    for k in _STATS:
        _STATS[k] = 0


def pool_stats() -> Dict[str, object]:
    """Affinity/recycle counters, merged into ``schedule_cache_stats()``."""
    stats: Dict[str, object] = dict(_STATS)
    dispatches = _STATS["affinity_dispatches"]
    stats["affinity_hit_rate"] = (
        _STATS["affinity_hits"] / dispatches if dispatches else 0.0)
    stats["warm_pool_size"] = _POOL.size if _POOL is not None else 0
    stats["warm_pool_live"] = _POOL.live_workers() if _POOL is not None else 0
    return stats


# Publish affinity counters through the sim layer's stats hook.
from repro.sim.compile import register_cache_stats_provider  # noqa: E402

register_cache_stats_provider(pool_stats)
