"""Experiment runner: execute an application under R1/R2/R3, collect metrics.

This is the reproduction's analogue of the paper's evaluation driver: it
deploys an application with a chosen Vidi configuration, runs the host
program(s) to completion, and gathers the measurements Table 1 is built
from — cycle counts, trace sizes, store stalls — plus the recorded trace
itself for the replay/divergence experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.apps.registry import AppSpec
from repro.core.config import VidiConfig, VidiMode
from repro.core.trace_file import TraceFile
from repro.errors import ConfigError, ShardReplayError
from repro.platform.env import EnvironmentMode
from repro.platform.shell import F1Deployment
from repro.sim.compile import schedule_cache_stats

# Benchmark deployment profile: a store with tighter staging and the
# bandwidth left over after the application's own PCIe traffic (the paper's
# trace store shares the PCIe interface with the app through an
# AXI-Interconnect, §4.1), so I/O-heavy phases genuinely back-pressure.
BENCH_STORE_BANDWIDTH = 22.0   # the store's own port: full PCIe rate (§6)
BENCH_STAGING_BYTES = 16 * 1024


@dataclass
class RunMetrics:
    """Measurements from one deployment run."""

    app: str
    mode: str
    seed: int
    cycles: int = 0
    trace_bytes: int = 0
    stored_bytes: int = 0
    store_stall_cycles: int = 0
    monitored_transactions: int = 0
    result: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Wall-clock at the F1 250 MHz clock."""
        return self.cycles / 250e6


def bench_config(mode_factory: Callable[..., VidiConfig], **overrides) -> VidiConfig:
    """A Vidi configuration with the benchmark store profile applied."""
    overrides.setdefault("store_bandwidth", BENCH_STORE_BANDWIDTH)
    overrides.setdefault("staging_bytes", BENCH_STAGING_BYTES)
    return mode_factory(**overrides)


def build_record_deployment(
        spec: AppSpec, config: VidiConfig, seed: int,
        scale: Optional[float] = None,
        env_mode: EnvironmentMode = EnvironmentMode.HARDWARE,
        scheduler: Optional[str] = None,
        time_warp: Optional[bool] = None,
) -> tuple:
    """Assemble one record-mode deployment; returns (deployment, result, config).

    This is the construction half of :func:`record_run`. ``result`` is the
    dict the host program fills in; ``config`` comes back with the app's
    declared interface boundary applied.
    """
    if config.mode is VidiMode.REPLAY:
        raise ConfigError("use replay_run() for replay configurations")
    if spec.interfaces is not None and set(config.interfaces) != set(
            spec.interfaces):
        # Extension applications declare the boundary they need.
        from dataclasses import replace as _replace

        config = _replace(config, interfaces=tuple(spec.interfaces))
    acc_factory, host_factory = spec.make()
    deployment = F1Deployment(f"run_{spec.key}", acc_factory, config,
                              env_mode=env_mode, seed=seed,
                              scheduler=scheduler, time_warp=time_warp)
    result: dict = {}
    use_scale = spec.default_scale if scale is None else scale
    if spec.stream_workload is not None:
        deployment.stream_driver.load_packets(
            spec.stream_workload(seed, use_scale))
    deployment.cpu.add_thread(host_factory(result, seed=seed, scale=use_scale))
    return deployment, result, config


def record_run(spec: AppSpec, config: VidiConfig, seed: int,
               scale: Optional[float] = None,
               env_mode: EnvironmentMode = EnvironmentMode.HARDWARE,
               max_cycles: int = 4_000_000,
               check: bool = True,
               profile: bool = False,
               before_run: Optional[Callable[[F1Deployment], None]] = None,
               scheduler: Optional[str] = None,
               time_warp: Optional[bool] = None) -> RunMetrics:
    """Run one application under R1 or R2 and collect metrics.

    Under R2 the recorded trace is attached as ``metrics.result['trace']``.
    With ``profile=True`` the simulation kernel collects per-module
    comb/seq wall-clock shares, attached as ``result['kernel_profile']``.
    ``before_run`` is called with the fully assembled deployment right
    before it starts running — the hook point checkpoint collection uses.
    ``scheduler`` picks the simulation kernel (``event``/``compiled``);
    ``None`` defers to ``REPRO_SIM_SCHEDULER`` and then the
    :class:`~repro.sim.simulator.Simulator` class default. ``time_warp``
    selects quiescent-gap skipping as in :func:`replay_run` (default on;
    ``False`` steps every cycle — same cycles, same trace).
    """
    deployment, result, config = build_record_deployment(
        spec, config, seed, scale=scale, env_mode=env_mode,
        scheduler=scheduler, time_warp=time_warp)
    if profile:
        deployment.sim.enable_profiling()
    if before_run is not None:
        before_run(deployment)
    cycles = deployment.run_to_completion(max_cycles=max_cycles)
    if check:
        spec.check(result)
    metrics = RunMetrics(app=spec.key, mode=config.mode.value, seed=seed,
                         cycles=cycles, result=result)
    if config.mode is VidiMode.RECORD:
        trace = deployment.recorded_trace(
            {"app": spec.key, "seed": seed, "cycles": cycles})
        metrics.trace_bytes = trace.size_bytes
        metrics.stored_bytes = deployment.shim.store.stored_size_bytes
        metrics.store_stall_cycles = deployment.shim.store.stall_cycles
        metrics.monitored_transactions = sum(
            m.transactions for m in deployment.shim.monitors)
        metrics.result["trace"] = trace
        if getattr(deployment.shim.store, "is_ring", False):
            # Flight recorder: storage/dedup counters for the benchmark
            # gates, plus the retained ring as a real v3 container (every
            # surviving re-anchor checkpoint stays a salvage resync point).
            metrics.result["flight"] = deployment.shim.flight_stats()
            metrics.result["flight_blob"] = deployment.shim.flight_blob(
                {"app": spec.key, "seed": seed, "cycles": cycles})
    if profile:
        sim = deployment.sim
        metrics.result["kernel_profile"] = sim.profile_report()
        metrics.result["kernel_stats"] = {
            "scheduler": sim.scheduler,
            "comb_evals": sim.comb_evals,
            "quiescent_cycles": sim.quiescent_cycles,
            "compile_s": sim.compile_s,
            "schedule_cache_tier": sim.schedule_cache_tier,
            "schedule_cache": schedule_cache_stats(),
        }
    return metrics


def trace_interfaces(trace: TraceFile) -> tuple:
    """The monitored interface set, derived from the trace's channel table."""
    seen = []
    for info in trace.table.channels:
        prefix = info.name.split(".", 1)[0]
        if prefix not in seen:
            seen.append(prefix)
    return tuple(seen)


def replay_run(spec: AppSpec, trace: TraceFile,
               config: Optional[VidiConfig] = None,
               max_cycles: int = 4_000_000,
               time_warp: Optional[bool] = None,
               scheduler: Optional[str] = None) -> RunMetrics:
    """Replay a trace against a fresh deployment; returns metrics with the
    validation trace attached as ``result['validation']``.

    ``time_warp`` selects the kernel's quiescent-gap skipping (default: on;
    pass ``False`` for the per-cycle reference path the equivalence tests
    and the replay benchmark compare against). ``scheduler`` picks the
    simulation kernel, deferring to ``REPRO_SIM_SCHEDULER`` when ``None``.
    """
    acc_factory, _host = spec.make()
    replay_config = config or VidiConfig.r3(
        interfaces=trace_interfaces(trace))
    deployment = F1Deployment(f"replay_{spec.key}", acc_factory, replay_config,
                              replay_trace=trace, time_warp=time_warp,
                              scheduler=scheduler)
    ring = trace.metadata.get("ring") if trace.metadata else None
    if ring and ring.get("checkpoint"):
        # Flight-recorder suffix trace: the window starts at a re-anchor
        # point, not at reset. Restore the anchor's architectural snapshot
        # into the fresh deployment so the suffix replays from the exact
        # state the surviving packets assume. Host state stays untouched —
        # replay has no live host side.
        from repro.core.checkpoint import (checkpoint_from_dict,
                                           restore_checkpoint)
        restore_checkpoint(deployment,
                           checkpoint_from_dict(ring["checkpoint"]),
                           restore_host=False)
    cycles = deployment.run_replay(max_cycles=max_cycles)
    metrics = RunMetrics(app=spec.key, mode="replay", seed=-1, cycles=cycles)
    if deployment.shim.store is not None:
        metrics.result["validation"] = deployment.recorded_trace(
            {"app": spec.key, "validation": True})
        metrics.trace_bytes = metrics.result["validation"].size_bytes
    metrics.result["deployment"] = deployment
    return metrics


@dataclass
class OverheadStats:
    """Mean/stddev overhead of recording versus transparent runs.

    Like the paper's methodology, the two configurations are sampled as
    separate runs whose environment timing varies (here: seeded host-side
    jitter), so small overheads can be dominated by noise — FaceD's
    negative mean in Table 1 is exactly this effect.
    """

    app: str
    r1_cycles: List[int]
    r2_cycles: List[int]

    @property
    def mean_overhead_pct(self) -> float:
        r1 = sum(self.r1_cycles) / len(self.r1_cycles)
        r2 = sum(self.r2_cycles) / len(self.r2_cycles)
        return 100.0 * (r2 - r1) / r1

    @property
    def std_overhead_pct(self) -> float:
        r1_mean = sum(self.r1_cycles) / len(self.r1_cycles)
        samples = [100.0 * (r2 - r1_mean) / r1_mean for r2 in self.r2_cycles]
        mean = sum(samples) / len(samples)
        var = sum((s - mean) ** 2 for s in samples) / max(len(samples) - 1, 1)
        return var ** 0.5


# ----------------------------------------------------------------------
# process-parallel sweeps
# ----------------------------------------------------------------------
#
# Table-1-style experiments are embarrassingly parallel across their
# app × config × seed cells. A cell is a small picklable description; the
# worker functions below reconstruct the full AppSpec/VidiConfig inside
# the worker process and return plain dicts (traces and deployments do
# not cross process boundaries). Every cell carries its own seed, so a
# parallel sweep is bit-identical to the sequential one regardless of
# completion order: ``run_cells`` returns results in cell order.


@dataclass(frozen=True)
class SweepCell:
    """One (app, config, seed) cell of an experiment sweep."""

    app: str
    config: str                    # "r1" or "r2"
    seed: int
    scale: Optional[float] = None
    patched_dma: bool = False      # the §3.6 interrupt-patched DRAM DMA
    scheduler: Optional[str] = None  # simulation kernel for the worker
    flight_recorder: bool = False  # r2 with the always-on ring store


def _cell_spec(cell: SweepCell) -> AppSpec:
    from repro.apps import dram_dma
    from repro.apps.registry import get_app

    spec = get_app(cell.app)
    if cell.patched_dma:
        from dataclasses import replace as _replace

        spec = _replace(spec, label="DMA(patched)",
                        make=lambda: dram_dma.make(polling=False))
    return spec


def _cell_config(cell: SweepCell) -> VidiConfig:
    factory = {"r1": VidiConfig.r1, "r2": VidiConfig.r2}[cell.config]
    overrides = {}
    if cell.flight_recorder:
        overrides["flight_recorder"] = True
    return bench_config(factory, **overrides)


def run_record_cell(cell: SweepCell) -> dict:
    """Worker: one record run; returns a picklable metrics dict."""
    metrics = record_run(_cell_spec(cell), _cell_config(cell),
                         seed=cell.seed, scale=cell.scale,
                         scheduler=cell.scheduler)
    out = {
        "app": cell.app,
        "config": cell.config,
        "seed": cell.seed,
        "cycles": metrics.cycles,
        "trace_bytes": metrics.trace_bytes,
        "stored_bytes": metrics.stored_bytes,
        "store_stall_cycles": metrics.store_stall_cycles,
        "monitored_transactions": metrics.monitored_transactions,
    }
    if "flight" in metrics.result:
        flight = dict(metrics.result["flight"])
        flight.pop("dedup", None)   # keep the dict picklable-flat
        out["flight"] = flight
    return out


def run_divergence_cell(cell: SweepCell) -> dict:
    """Worker: record (R2), replay (R3), compare; returns divergence counts."""
    from repro.core import compare_traces

    spec = _cell_spec(cell)
    metrics = record_run(spec, _cell_config(cell), seed=cell.seed,
                         scale=cell.scale, scheduler=cell.scheduler)
    trace = metrics.result["trace"]
    replay = replay_run(spec, trace, scheduler=cell.scheduler)
    report = compare_traces(trace, replay.result["validation"])
    return {
        "app": cell.app,
        "seed": cell.seed,
        "patched_dma": cell.patched_dma,
        "output_transactions": report.output_transactions,
        "content": len(report.of_kind("content")),
        "count": len(report.of_kind("count")),
        "ordering": len(report.of_kind("ordering")),
    }


def run_cells(cells: List[SweepCell], worker: Callable[[SweepCell], dict],
              jobs: Optional[int] = None, retries: int = 0,
              fallback_inline: bool = False,
              backoff_s: float = 0.05) -> List[dict]:
    """Execute sweep cells, optionally sharded across worker processes.

    ``jobs`` of ``None``/``0``/``1`` runs inline; larger values dispatch
    through the process-persistent :mod:`~repro.harness.worker_pool`
    (widened to ``jobs`` slots), round-robin, so cells of one topology
    run side by side on pre-imported workers that outlive the call.
    Results always come back in cell order, and each cell is fully
    self-seeded, so the parallel sweep's numbers are identical to the
    sequential ones.

    Worker failures — exceptions *and* hard process deaths (a crashed
    worker breaks its slot, poisoning every future pending there) — are
    retried per cell: each of up to ``retries`` extra rounds re-submits
    only the still-failing cells, after an escalating ``backoff_s``
    pause. Only the slots actually lost to ``BrokenProcessPool`` are
    recycled; every other worker stays warm. Cells still failing after
    the pool rounds are replayed inline when ``fallback_inline`` is set
    (same process, no pool to break); a cell that fails even inline —
    or that exhausts the rounds without a fallback — raises
    :class:`~repro.errors.ShardReplayError` chaining the last cause.
    Because every cell is self-seeded, a result that needed three
    attempts is byte-identical to one that needed one.
    """
    cells = list(cells)
    if not jobs or jobs <= 1 or len(cells) <= 1:
        return [_run_cell_inline(cell, worker, retries, backoff_s)
                for cell in cells]
    import time
    from concurrent.futures.process import BrokenProcessPool

    from repro.harness import worker_pool

    results: List[Optional[dict]] = [None] * len(cells)
    remaining = list(range(len(cells)))
    causes: dict = {}
    pool = worker_pool.get_pool(jobs)
    for attempt in range(retries + 1):
        if not remaining:
            break
        if attempt and backoff_s:
            time.sleep(backoff_s * attempt)
        futures = {i: pool.submit(worker, cells[i]) for i in remaining}
        failed = []
        broken_slots = set()
        for i in remaining:
            try:
                results[i] = futures[i].result()
            except BrokenProcessPool as exc:
                causes[i] = exc
                failed.append(i)
                broken_slots.add(futures[i].warm_slot)
            except Exception as exc:
                causes[i] = exc
                failed.append(i)
        for slot in broken_slots:   # surgical: warm slots survive
            pool.recycle(slot)
        remaining = failed
    if remaining and fallback_inline:
        still = []
        for i in remaining:
            try:
                results[i] = _run_cell_inline(cells[i], worker, retries,
                                              backoff_s)
            except ShardReplayError as exc:
                causes[i] = exc
                still.append(i)
        remaining = still
    if remaining:
        first = remaining[0]
        raise ShardReplayError(
            f"{len(remaining)} of {len(cells)} cell(s) failed after "
            f"{retries + 1} pool round(s)"
            + (" and an inline fallback" if fallback_inline else "")
            + f"; first: cell {first} ({causes[first]})"
        ) from causes[first]
    return results


def _run_cell_inline(cell, worker: Callable[[SweepCell], dict],
                     retries: int, backoff_s: float) -> dict:
    """Run one cell in this process, retrying worker exceptions."""
    import time

    last: Optional[Exception] = None
    for attempt in range(retries + 1):
        if attempt and backoff_s:
            time.sleep(backoff_s * attempt)
        try:
            return worker(cell)
        except Exception as exc:
            last = exc
    if retries == 0:
        raise last   # single-attempt inline: legacy pass-through
    raise ShardReplayError(
        f"cell failed after {retries + 1} inline attempt(s): {last}"
    ) from last
