"""Warm worker pool: reuse, parallel dispatch, affinity, surgical recycling.

Workers are observed through their PIDs: a reused pool answers from the
same processes across calls, cells of one topology run side by side on
distinct workers, affinity routing (the daemon's path) sends equal keys
to one worker, and a crash replaces exactly one slot while the survivors
keep their warm state. A worker that parallelises inside itself builds
its own pool, and the parent's shutdown still ends every process.
"""

import os
import threading
import time

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.harness import worker_pool
from repro.harness.runner import SweepCell, run_cells
from repro.harness.worker_pool import WarmPool, _stable_slot
from repro.sim import schedule_store
from repro.sim.compile import clear_schedule_cache


@pytest.fixture(autouse=True)
def fresh_pool():
    """Each test gets its own module-level pool and zeroed counters."""
    worker_pool.shutdown_pool()
    worker_pool.reset_stats()
    yield
    worker_pool.shutdown_pool()
    os.environ.pop("REPRO_TEST_CRASH_FLAG", None)


def _pid_worker(cell):
    return {"seed": cell.seed, "pid": os.getpid()}


def _crash_once_worker(cell):
    """Hard-kill the worker for seed 999, once (flag file = already done)."""
    flag = os.environ["REPRO_TEST_CRASH_FLAG"]
    if cell.seed == 999 and not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(13)
    return {"seed": cell.seed, "pid": os.getpid()}


def _fail_once_worker(cell):
    """Plain-exception twin: raises for seed 999, once."""
    flag = os.environ["REPRO_TEST_CRASH_FLAG"]
    if cell.seed == 999 and not os.path.exists(flag):
        open(flag, "w").close()
        raise ValueError("transient")
    return {"seed": cell.seed, "pid": os.getpid()}


def _sleep_worker(cell):
    time.sleep(1.0)
    return {"seed": cell.seed, "pid": os.getpid()}


def _nested_run_cells_task():
    """A pool task that runs a parallel sweep of its own."""
    results = run_cells(_cells(2), _pid_worker, jobs=2)
    return os.getpid(), [r["pid"] for r in results]


def _pid_task():
    return os.getpid()


def _die_task():
    os._exit(13)


def _cells(n):
    return [SweepCell(app="x", config="r2", seed=i) for i in range(n)]


def _keys_for_slots(size):
    """Affinity keys proven to land on slots 0 and 1 of a size-wide pool."""
    k0 = next(k for k in range(1000) if _stable_slot(("k", k), size) == 0)
    k1 = next(k for k in range(1000) if _stable_slot(("k", k), size) == 1)
    return ("k", k0), ("k", k1)


# ----------------------------------------------------------------------
# reuse and affinity
# ----------------------------------------------------------------------


def test_warm_pool_persists_across_run_cells_calls():
    cells = _cells(4)
    first = {r["pid"] for r in run_cells(cells, _pid_worker, jobs=2)}
    second = {r["pid"] for r in run_cells(cells, _pid_worker, jobs=2)}
    # Both slots serve each call, and the same two worker processes
    # survive between calls.
    assert len(first) == 2
    assert second == first


def test_same_topology_cells_run_on_two_workers_at_once():
    t0 = time.perf_counter()
    results = run_cells(_cells(2), _sleep_worker, jobs=2)
    elapsed = time.perf_counter() - t0
    assert len({r["pid"] for r in results}) == 2
    assert elapsed < 1.5, f"two 1 s cells took {elapsed:.2f}s on 2 jobs"


def test_affinity_routes_equal_keys_to_one_worker():
    jobs = 2
    pool = worker_pool.get_pool(jobs)
    keys = [("job", app) for app in ("a", "b") for _ in range(4)]
    futures = [pool.submit(_pid_task, affinity=key) for key in keys]
    pid_by_slot = {}
    for key, future in zip(keys, futures):
        slot = _stable_slot(key, jobs)
        pid_by_slot.setdefault(slot, set()).add(future.result())
    # One worker per slot, no matter how many cells hashed there.
    assert all(len(pids) == 1 for pids in pid_by_slot.values())
    stats = worker_pool.pool_stats()
    # 8 dispatches, 2 first-contact misses (one per distinct key).
    assert stats["affinity_dispatches"] == 8
    assert stats["affinity_hits"] == 6
    assert stats["affinity_hit_rate"] == pytest.approx(0.75)


def test_recycle_replaces_only_the_broken_slot():
    k0, k1 = _keys_for_slots(2)
    pool = WarmPool(2)
    try:
        pid0 = pool.submit(_pid_task, affinity=k0).result()
        pid1 = pool.submit(_pid_task, affinity=k1).result()
        assert pid0 != pid1
        with pytest.raises(BrokenProcessPool):
            pool.submit(_die_task, affinity=k0).result()
        pool.recycle(0)
        assert pool.submit(_pid_task, affinity=k0).result() != pid0
        # The untouched slot still answers from its original process.
        assert pool.submit(_pid_task, affinity=k1).result() == pid1
        assert worker_pool.pool_stats()["workers_recycled"] == 1
    finally:
        pool.shutdown()


def test_run_cells_warm_recovers_from_worker_crash(tmp_path):
    os.environ["REPRO_TEST_CRASH_FLAG"] = str(tmp_path / "crashed")
    cells = _cells(3) + [SweepCell(app="x", config="r2", seed=999)]
    results = run_cells(cells, _crash_once_worker, jobs=2, retries=2)
    assert [r["seed"] for r in results] == [0, 1, 2, 999]
    assert worker_pool.pool_stats()["workers_recycled"] >= 1


def test_run_cells_warm_exception_retry_keeps_workers(tmp_path):
    os.environ["REPRO_TEST_CRASH_FLAG"] = str(tmp_path / "failed")
    cells = _cells(2) + [SweepCell(app="x", config="r2", seed=999)]
    results = run_cells(cells, _fail_once_worker, jobs=2, retries=1)
    assert [r["seed"] for r in results] == [0, 1, 999]
    # A plain exception leaves the worker healthy: nothing recycled.
    assert worker_pool.pool_stats()["workers_recycled"] == 0


def _alive(pids):
    alive = []
    for pid in pids:
        try:
            os.kill(pid, 0)
            alive.append(pid)
        except OSError:
            pass
    return alive


def _children(pid):
    """PIDs whose parent is ``pid`` (a /proc scan)."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == pid:
            kids.append(int(entry))
    return kids


def test_worker_running_run_cells_leaves_no_process():
    pool = worker_pool.get_pool(1)
    future = pool.submit(_nested_run_cells_task)
    (worker_pid,) = pool.worker_pids()
    tree = [worker_pid]
    try:
        pid, nested = future.result(timeout=60)
        # The worker built a pool of its own instead of driving this one's.
        assert pid == worker_pid
        assert len(set(nested)) == 2 and worker_pid not in nested
        tree += nested
        stopper = threading.Thread(target=worker_pool.shutdown_pool,
                                   daemon=True)
        stopper.start()
        stopper.join(timeout=30.0)
        assert not stopper.is_alive(), (
            "shutdown_pool() hung on a worker that owns a pool")
        assert _alive(tree) == [], (
            f"processes outlived shutdown: {_alive(tree)}")
    finally:
        # Never leave a hung process tree behind for the next test.
        for victim in _alive(tree + _children(worker_pid)):
            os.kill(victim, 9)


# ----------------------------------------------------------------------
# warm initializer: schedules pre-bound from the disk tier
# ----------------------------------------------------------------------


def _tier_worker(cell):
    from repro.apps.registry import get_app
    from repro.core import VidiConfig
    from repro.harness.runner import bench_config, record_run
    from repro.sim.compile import schedule_cache_stats

    metrics = record_run(get_app(cell.app), bench_config(VidiConfig.r2),
                         seed=cell.seed, scheduler="compiled")
    stats = schedule_cache_stats()
    return {"cycles": metrics.cycles, "disk_hits": stats["disk_hits"],
            "disk_misses": stats["disk_misses"]}


def test_warm_workers_prebind_schedules_from_disk(tmp_path):
    from repro.apps.registry import get_app
    from repro.core import VidiConfig
    from repro.harness.runner import bench_config, record_run

    prev = schedule_store.cache_dir()
    cache = tmp_path / "sched"
    try:
        clear_schedule_cache()
        schedule_store.configure(cache)
        # Seed the disk tier with a cold compile, then forget it in RAM
        # so the workers cannot inherit an in-process hit via fork.
        ref = record_run(get_app("sha256"), bench_config(VidiConfig.r2),
                         seed=5, scheduler="compiled")
        clear_schedule_cache()

        cells = [SweepCell(app="sha256", config="r2", seed=5,
                           scheduler="compiled")]
        (res,) = run_cells(cells * 2, _tier_worker, jobs=2)[:1]
        assert res["cycles"] == ref.cycles
        # The worker's first compile bound the preloaded disk entry.
        assert res["disk_hits"] >= 1
        assert res["disk_misses"] == 0
    finally:
        clear_schedule_cache()
        schedule_store.configure(str(prev) if prev is not None else None)
