"""Checkpoint-sharded parallel replay: split one long trace, replay in parallel.

Vidi's replay is transaction-deterministic: after any prefix of the recorded
transactions the accelerator reaches the same architectural state, no matter
how the cycles in between were scheduled. Combined with the §7 checkpointing
synergy this makes a long replay embarrassingly parallel:

1. while *recording*, opportunistically snapshot the accelerator at
   quiescent instants (idle kernel, drained DMA, no in-flight handshakes)
   and remember how many cycle packets the encoder had emitted at each
   snapshot — a ``(packet ordinal, Checkpoint)`` pair;
2. slice the trace body at a subset of those ordinals using the
   :class:`~repro.core.trace_file.TraceIndex` (each slice is a valid
   standalone trace: the replayers' vector-clock prerequisites shift
   uniformly, because *every* pre-boundary end completed before the
   boundary — that is what quiescence means);
3. replay each segment in its own worker process, restoring the segment's
   checkpoint into the fresh deployment first;
4. stitch the per-segment validation traces back together by concatenating
   their bodies — packet ordering is positional, so concatenation *is*
   trace-level sequencing — and compare against the reference exactly as a
   sequential replay would.

The stitched validation trace is byte-identical to the one a sequential
replay produces: each segment starts from the same architectural state the
sequential replay holds at that boundary, and the replay pipeline contains
no environment nondeterminism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.apps.registry import AppSpec, get_app
from repro.core.checkpoint import (Checkpoint, checkpoint_from_dict,
                                   checkpoint_to_dict, restore_checkpoint,
                                   take_checkpoint)
from repro.core.config import VidiConfig
from repro.core.events import ChannelTable
from repro.core.trace_file import TraceFile
from repro.errors import ConfigError
from repro.harness.runner import (
    RunMetrics,
    bench_config,
    record_run,
    run_cells,
    trace_interfaces,
)
from repro.platform.shell import F1Deployment

# How often (in cycles) the recording hook attempts a checkpoint. Snapshots
# copy the populated DRAM/register state, so per-cycle attempts would tax the
# recording run; a small stride keeps the overhead negligible while still
# landing well inside every quiescent gap worth splitting at.
CHECKPOINT_STRIDE = 16


def record_with_checkpoints(spec: AppSpec, config: Optional[VidiConfig] = None,
                            seed: int = 0, scale: Optional[float] = None,
                            max_cycles: int = 4_000_000,
                            stride: int = CHECKPOINT_STRIDE,
                            scheduler: Optional[str] = None,
                            ) -> Tuple[RunMetrics, Dict[int, Checkpoint]]:
    """Record one run under R2 while harvesting quiescent checkpoints.

    Returns the usual :func:`record_run` metrics (trace attached) plus a
    mapping ``packet ordinal -> Checkpoint``: restoring that checkpoint and
    replaying packets ``[ordinal, ...)`` recreates the execution suffix.

    For each ordinal the *latest* quiescent snapshot before the next packet
    wins — by then any post-transaction internal activity (e.g. an
    accelerator FIFO draining into DRAM) has settled, so the snapshot equals
    the state a sequential replay holds when it reaches that boundary.
    """
    checkpoints: Dict[int, Checkpoint] = {}

    def install_hook(deployment: F1Deployment) -> None:
        encoder = deployment.shim.encoder
        monitors = deployment.shim.monitors
        if encoder is None:
            raise ConfigError(
                "checkpoint harvesting needs a recording configuration (R2)")

        def hook(cycle: int) -> None:
            ordinal = encoder.packets_emitted
            if ordinal == 0 or cycle % stride:
                return
            # A handshake that completed this very cycle is still being
            # broadcast; skip the instant to keep the boundary unambiguous.
            if any(m._committed for m in monitors):
                return
            try:
                checkpoints[ordinal] = take_checkpoint(deployment)
            except ConfigError:
                return          # not quiescent — try again next stride

        deployment.sim.add_cycle_hook(hook)

    config = config or bench_config(VidiConfig.r2)
    metrics = record_run(spec, config, seed=seed, scale=scale,
                         max_cycles=max_cycles, before_run=install_hook,
                         scheduler=scheduler)
    return metrics, checkpoints


def plan_shards(n_packets: int, checkpoints: Dict[int, Checkpoint],
                segments: int) -> List[Tuple[int, int, Optional[Checkpoint]]]:
    """Choose up to ``segments`` contiguous packet ranges to replay.

    Boundaries are the harvested checkpoint ordinals nearest to an even
    split of the trace. Returns ``(start, stop, checkpoint)`` triples in
    trace order; the first segment starts from power-on (no checkpoint).
    Fewer segments than requested come back when the trace has too few
    distinct quiescent boundaries — the degenerate case is one segment,
    which is exactly a sequential replay.
    """
    if segments < 1:
        raise ConfigError(f"segments must be >= 1, got {segments}")
    candidates = sorted(k for k in checkpoints if 0 < k < n_packets)
    chosen: List[int] = []
    for i in range(1, segments):
        ideal = i * n_packets / segments
        available = [k for k in candidates if k not in chosen]
        if not available:
            break
        chosen.append(min(available, key=lambda k: abs(k - ideal)))
    bounds = [0] + sorted(chosen) + [n_packets]
    return [(bounds[i], bounds[i + 1],
             checkpoints[bounds[i]] if bounds[i] else None)
            for i in range(len(bounds) - 1) if bounds[i] < bounds[i + 1]]


@dataclass(frozen=True)
class ReplayShardCell:
    """Picklable description of one trace segment to replay in a worker."""

    app: str
    table: ChannelTable
    body: bytes                       # TraceIndex.slice() of the full trace
    with_validation: bool
    start: int                        # first packet ordinal (inclusive)
    stop: int                         # one past the last packet ordinal
    checkpoint: Optional[Checkpoint]  # None: segment starts from power-on
    time_warp: Optional[bool] = None
    max_cycles: int = 4_000_000
    scheduler: Optional[str] = None   # simulation kernel for the worker


def run_replay_shard(cell: ReplayShardCell) -> dict:
    """Worker: replay one segment from its checkpoint; return picklable stats."""
    spec = get_app(cell.app)
    segment = TraceFile(table=cell.table, body=cell.body,
                        with_validation=cell.with_validation,
                        metadata={"shard": [cell.start, cell.stop]})
    acc_factory, _host = spec.make()
    config = VidiConfig.r3(interfaces=trace_interfaces(segment))
    deployment = F1Deployment(f"shard_{spec.key}_{cell.start}", acc_factory,
                              config, replay_trace=segment,
                              time_warp=cell.time_warp,
                              scheduler=cell.scheduler)
    if cell.checkpoint is not None:
        restore_checkpoint(deployment, cell.checkpoint, restore_host=False)
    cycles = deployment.run_replay(max_cycles=cell.max_cycles)
    validation = deployment.recorded_trace(
        {"shard": [cell.start, cell.stop], "validation": True})
    return {
        "start": cell.start,
        "stop": cell.stop,
        "cycles": cycles,
        "warped_cycles": deployment.sim.warped_cycles,
        "warp_jumps": deployment.sim.warp_jumps,
        "validation_body": bytes(validation.body),
    }


@dataclass
class ShardedReplayResult:
    """Outcome of a checkpoint-sharded replay."""

    validation: TraceFile             # stitched validation trace
    shards: List[dict] = field(default_factory=list)

    @property
    def segments(self) -> int:
        return len(self.shards)

    @property
    def total_cycles(self) -> int:
        """Cycles summed over all segments (the sequential-work measure)."""
        return sum(s["cycles"] for s in self.shards)

    @property
    def critical_path_cycles(self) -> int:
        """The slowest segment — the parallel wall-clock measure."""
        return max((s["cycles"] for s in self.shards), default=0)


def replay_sharded(spec: AppSpec, trace: TraceFile,
                   checkpoints: Dict[int, Checkpoint],
                   segments: Optional[int] = None,
                   jobs: Optional[int] = None,
                   time_warp: Optional[bool] = None,
                   max_cycles: int = 4_000_000,
                   retries: int = 2,
                   injector=None,
                   scheduler: Optional[str] = None) -> ShardedReplayResult:
    """Replay ``trace`` split at checkpointed boundaries across workers.

    ``segments`` defaults to ``jobs`` (one segment per worker); ``jobs`` of
    ``None``/``0``/``1`` replays the segments inline, still exercising the
    slicing and stitching path. The stitched validation trace is
    byte-identical to a sequential replay's, so callers feed it straight
    into :func:`~repro.core.divergence.compare_traces`. Segments run on
    the warm worker pool through :func:`~repro.harness.runner.run_cells`.

    Worker deaths are absorbed: crashed shards are retried up to
    ``retries`` times (recycling only the pool slots actually lost to
    the crash) and, failing that, replayed inline —
    every shard is a pure function of its cell, so the stitched result is
    byte-identical no matter how many attempts a shard needed. ``injector``
    (a :class:`~repro.faults.injector.FaultInjector` with a
    ``worker-crash`` fault armed) wraps the shard worker so chosen shards
    kill their worker process on first execution — the fault campaign's
    way of proving the recovery path end to end.
    """
    index = trace.index()
    n_packets = len(index)
    if segments is None:
        segments = jobs if jobs and jobs > 1 else 1
    plan = plan_shards(n_packets, checkpoints, segments)
    cells = [
        ReplayShardCell(app=spec.key, table=trace.table,
                        body=bytes(index.slice(start, stop)),
                        with_validation=trace.with_validation,
                        start=start, stop=stop, checkpoint=checkpoint,
                        time_warp=time_warp, max_cycles=max_cycles,
                        scheduler=scheduler)
        for start, stop, checkpoint in plan
    ]
    worker = run_replay_shard
    if injector is not None:
        worker = injector.crashing_worker(worker, cells)
    results = run_cells(cells, worker, jobs=jobs, retries=retries,
                        fallback_inline=True)
    stitched = TraceFile(
        table=trace.table,
        body=b"".join(r["validation_body"] for r in results),
        with_validation=trace.with_validation,
        metadata={"stitched_segments": [[r["start"], r["stop"]]
                                        for r in results]},
    )
    return ShardedReplayResult(validation=stitched, shards=results)


# ----------------------------------------------------------------------
# checkpoint sidecar files (for the record/replay CLI)
# ----------------------------------------------------------------------


def save_checkpoints(path, checkpoints: Dict[int, Checkpoint]) -> None:
    """Persist harvested checkpoints as a JSON sidecar next to a trace."""
    import json
    from pathlib import Path

    data = {str(ordinal): checkpoint_to_dict(cp)
            for ordinal, cp in checkpoints.items()}
    Path(path).write_text(json.dumps(data))


def load_checkpoints(path) -> Dict[int, Checkpoint]:
    """Load a checkpoint sidecar written by :func:`save_checkpoints`."""
    import json
    from pathlib import Path

    data = json.loads(Path(path).read_text())
    return {int(ordinal): checkpoint_from_dict(entry)
            for ordinal, entry in data.items()}
