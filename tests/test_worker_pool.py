"""Warm worker pool: reuse, parallel dispatch, idle slots, surgical recycling.

Workers are observed through their PIDs: a reused pool answers from the
same processes across calls, cells of one topology run side by side on
distinct workers, a submission starts at once on an idle slot while
another slot is busy, and a crash replaces exactly one slot while the
survivors keep their warm state. A worker that parallelises inside
itself builds its own pool, and the parent's shutdown still ends every
process.
"""

import os
import sys
import threading
import time

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.harness import worker_pool
from repro.harness.runner import SweepCell, run_cells
from repro.harness.worker_pool import WarmPool
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


def _paired_worker(cell):
    """Cells 0 and 1 overlap: cell 0 holds its slot until cell 1 has
    created the flag file ``cell.app`` names, so they run on two slots."""
    if cell.seed == 1:
        open(cell.app, "w").close()
    elif cell.seed == 0:
        _wait_for_file(cell.app)
    return {"seed": cell.seed, "pid": os.getpid()}


def _nested_run_cells_task(flag):
    """A pool task that runs a parallel sweep of its own."""
    results = run_cells(_cells(2, flag), _paired_worker, jobs=2)
    return os.getpid(), [r["pid"] for r in results]


def _pid_task():
    return os.getpid()


def _die_task():
    os._exit(13)


def _wait_for_file(path):
    """Hold a slot until ``path`` exists (or a minute passes)."""
    deadline = time.monotonic() + 60.0
    while not os.path.exists(path) and time.monotonic() < deadline:
        time.sleep(0.01)
    return os.getpid()


def _cells(n, app="x"):
    return [SweepCell(app=str(app), config="r2", seed=i) for i in range(n)]


def _released(future):
    """Wait until the pool has released ``future``'s slot: done-callbacks
    run in the order they were added, so this one runs after the pool's."""
    done = threading.Event()
    future.add_done_callback(lambda _f: done.set())
    assert done.wait(timeout=60)
    return future.result()


def _idle(pool):
    """Wait until no slot counts an unfinished task (a finished future's
    slot is released by a callback that can trail its ``result()``)."""
    deadline = time.monotonic() + 10.0
    while any(pool._unfinished) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not any(pool._unfinished)


def _pids_by_slot(pool, flag):
    """The worker PID of each slot of an idle 2-wide pool: the first task
    holds its slot until the second is submitted, so that one takes the
    other slot."""
    _idle(pool)
    futures = [pool.submit(_wait_for_file, str(flag)),
               pool.submit(_pid_task)]
    flag.touch()
    return {f.warm_slot: f.result(timeout=60) for f in futures}


# ----------------------------------------------------------------------
# reuse and dispatch
# ----------------------------------------------------------------------


def test_warm_pool_persists_across_run_cells_calls(tmp_path):
    pool = worker_pool.get_pool(2)
    first = {r["pid"] for r in run_cells(_cells(4, tmp_path / "a"),
                                         _paired_worker, jobs=2)}
    _idle(pool)
    second = {r["pid"] for r in run_cells(_cells(4, tmp_path / "b"),
                                          _paired_worker, jobs=2)}
    # Cells 0 and 1 overlap, so both slots serve each call, and the
    # same two worker processes survive between calls.
    assert len(first) == 2
    assert second == first == set(pool.worker_pids())


def test_same_topology_cells_run_on_two_workers_at_once():
    t0 = time.perf_counter()
    results = run_cells(_cells(2), _sleep_worker, jobs=2)
    elapsed = time.perf_counter() - t0
    assert len({r["pid"] for r in results}) == 2
    assert elapsed < 1.5, f"two 1 s cells took {elapsed:.2f}s on 2 jobs"


def test_idle_slot_takes_the_next_task(tmp_path):
    flag = tmp_path / "release"
    pool = worker_pool.get_pool(2)
    try:
        held = pool.submit(_wait_for_file, str(flag))
        short = pool.submit(_pid_task)
        _released(short)
        # The next task starts on the free slot, not behind the held one.
        nxt = pool.submit(_pid_task)
        assert nxt.warm_slot == short.warm_slot != held.warm_slot
        assert nxt.result(timeout=30) == short.result()
        assert not held.done()
    finally:
        flag.touch()
    assert held.result(timeout=60) != nxt.result()

    # Concurrent submitters on a pool wider than the host lose no release.
    wide, futures = WarmPool(3), []

    def burst():
        futures.extend(wide.submit(_pid_task) for _ in range(25))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=burst) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert len({f.result(timeout=60) for f in futures}) <= 3
        _idle(wide)
    finally:
        sys.setswitchinterval(switch)
        wide.shutdown()


def test_recycle_replaces_only_the_broken_slot(tmp_path):
    pool = WarmPool(2)
    try:
        pids = _pids_by_slot(pool, tmp_path / "a")
        assert sorted(pids) == [0, 1] and pids[0] != pids[1]
        doomed = pool.submit(_die_task)
        with pytest.raises(BrokenProcessPool):
            doomed.result()
        pool.recycle(doomed.warm_slot)
        after = _pids_by_slot(pool, tmp_path / "b")
        assert after[doomed.warm_slot] != pids[doomed.warm_slot]
        # The untouched slot still answers from its original process.
        other = 1 - doomed.warm_slot
        assert after[other] == pids[other]
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


def test_worker_running_run_cells_leaves_no_process(tmp_path):
    pool = worker_pool.get_pool(1)
    future = pool.submit(_nested_run_cells_task, str(tmp_path / "flag"))
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
# warm initializer: compiled steps preloaded from the disk tier
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
