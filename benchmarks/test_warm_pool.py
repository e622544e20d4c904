"""Infrastructure bench — warm worker pool + persistent compile cache.

Not a paper artefact: documents the payoff of the warm pool, on the
workload it was built for.

* **Warm-pool campaign speedup.** An 8-cell campaign over two chain
  depths, dispatched with ``run_cells``: the cold baseline starts a
  fresh pool before every call (``shutdown_pool()``, an empty RAM tier,
  no disk tier), so each call pays worker fork, import and a compile in
  every worker; the warm side keeps the module-level pool and a disk
  tier, so steady-state cells run already-compiled steps in
  already-started workers.

The measurement cross-checks results bit-for-bit against the cold path
— a speedup bought with divergence is a failure, not a win. Results land
in ``benchmarks/results/BENCH_warm.json``; the floor is part of ``make
check``.
"""

import json
from time import perf_counter

from conftest import RESULTS_DIR

from repro.harness import worker_pool
from repro.harness.runner import SweepCell, run_cells
from repro.sim import schedule_store
from repro.sim.compile import clear_schedule_cache
from repro.sim.module import Module
from repro.sim.simulator import Simulator

CAMPAIGN_CELLS = 8
CAMPAIGN_JOBS = 4
WARM_POOL_FLOOR = 1.3


class Stage(Module):
    """src -> +1 chain element: a deterministic, compile-bound topology."""

    def __init__(self, name, src=None):
        super().__init__(name)
        self.src = src
        self.out = self.signal("out", width=32)
        if src is not None:
            self.sensitive_to(src)
        else:
            self.sensitive_to()
        self.drives(self.out)

    def comb(self):
        base = self.src.value if self.src is not None else 7
        self.out.drive(base + 1)


def _chain(depth):
    sim = Simulator(f"chain{depth}", scheduler="compiled")
    prev = None
    for i in range(depth):
        stage = Stage(f"s{i}", prev.out if prev is not None else None)
        sim.add(stage)
        prev = stage
    sim.elaborate()
    return sim, prev


def _chain_cell(cell):
    """Campaign worker: compile-then-run one chain cell (fork-inherited)."""
    depth = 700 + (cell.seed % 2)   # two chain depths across the sweep
    sim, tail = _chain(depth)
    sim.run(3)
    return {"seed": cell.seed, "tail": tail.out.value,
            "tier": sim.schedule_cache_tier}


def test_warm_pool_campaign_speedup(emit, tmp_path):
    prev = schedule_store.cache_dir()
    cells = [SweepCell(app=f"chain{s % 2}", config="r2", seed=s)
             for s in range(CAMPAIGN_CELLS)]
    try:
        # Cold baseline: no disk tier and a fresh pool per call, so every
        # worker starts, imports and compiles its kernels from scratch
        # (the parent cache is cleared first so forked children cannot
        # inherit a warm one).
        schedule_store.configure(None)
        colds = []
        for _ in range(3):
            worker_pool.shutdown_pool()
            clear_schedule_cache()
            t0 = perf_counter()
            cold_res = run_cells(cells, _chain_cell, jobs=CAMPAIGN_JOBS)
            colds.append(perf_counter() - t0)

        # Warm: persistent store + the module-level pool, kept across
        # calls (the directory change restarts it once). The first call
        # pays worker startup and the compiles; the gated number is the
        # steady state after it.
        schedule_store.configure(tmp_path / "sched")
        warms = []
        for i in range(4):
            clear_schedule_cache()
            t0 = perf_counter()
            warm_res = run_cells(cells, _chain_cell, jobs=CAMPAIGN_JOBS)
            if i > 0:
                warms.append(perf_counter() - t0)

        # Bit-identity: the warm pool must change nothing but the clock.
        assert ([r["tail"] for r in warm_res]
                == [r["tail"] for r in cold_res])

        t_cold = min(colds)
        t_warm = min(warms)
        speedup = t_cold / t_warm
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_warm.json").write_text(json.dumps({
            "warm_pool_campaign": {
                "cells": CAMPAIGN_CELLS,
                "jobs": CAMPAIGN_JOBS,
                "cold_pool_s": round(t_cold, 3),
                "warm_pool_s": round(t_warm, 3),
                "speedup": round(speedup, 2),
                "speedup_floor": WARM_POOL_FLOOR,
            }}, indent=2) + "\n")
        emit("warm_pool_campaign", "\n".join([
            f"Warm-pool campaign speedup ({CAMPAIGN_CELLS} cells, "
            f"{CAMPAIGN_JOBS} jobs)",
            f"  cold pools: {t_cold * 1e3:7.0f}ms per campaign",
            f"  warm pool:  {t_warm * 1e3:7.0f}ms per campaign   "
            f"{speedup:.2f}x  (floor {WARM_POOL_FLOOR}x)",
            "[also saved to benchmarks/results/BENCH_warm.json]",
        ]))
        assert speedup >= WARM_POOL_FLOOR, (
            f"warm-pool campaign speedup regressed: {speedup:.2f}x")
    finally:
        worker_pool.shutdown_pool()
        clear_schedule_cache()
        schedule_store.configure(str(prev) if prev is not None else None)
