"""Anchor-sharded parallel replay: split one long trace, replay in parallel.

Vidi's replay is transaction-deterministic: after any prefix of the recorded
transactions the accelerator reaches the same architectural state, no matter
how the cycles in between were scheduled. Combined with the §7 checkpointing
synergy this makes a long replay embarrassingly parallel:

1. while *recording*, the flight recorder snapshots the accelerator at
   quiescent instants (idle kernel, drained DMA, no in-flight handshakes)
   and embeds each snapshot in an ANCHOR frame at the exact packet
   boundary it was taken; the recorded or loaded trace keeps them as
   :attr:`~repro.core.trace_file.TraceFile.anchors`, a map from
   body-relative packet ordinal to ``{ordinal, cycle, checkpoint}``;
2. slice the trace body at a subset of those ordinals using the
   :class:`~repro.core.packets.TraceIndex` (each slice is a valid
   standalone trace: the replayers' vector-clock prerequisites shift
   uniformly, because *every* pre-boundary end completed before the
   boundary — that is what quiescence means);
3. replay each segment in its own worker process through
   :func:`~repro.harness.runner.replay_run`, as a suffix trace whose
   ``metadata['ring']`` is the segment's anchor — the restore path every
   wrapped flight window takes, so the first segment of a wrapped or
   salvaged window restores that window's own anchor;
4. stitch the per-segment validation traces back together by concatenating
   their bodies — packet ordering is positional, so concatenation *is*
   trace-level sequencing — and compare against the reference exactly as a
   sequential replay would.

The stitched validation trace is byte-identical to the one a sequential
replay produces: each segment starts from the same architectural state the
sequential replay holds at that boundary, and the replay pipeline contains
no environment nondeterminism. A trace without anchors (a flat
recording, or a flight window with none inside it) replays as one segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.registry import AppSpec, get_app
from repro.core.events import ChannelTable
from repro.core.trace_file import TraceFile
from repro.errors import ConfigError
from repro.harness.runner import replay_run, run_cells

# Flight anchor stride (cycles) for recordings made to be sharded. The
# default stride (2,048) leaves a dram_dma run at most a few anchors; 64
# leaves it ~20, enough for an even 3-way split, for ~3.5x the container
# bytes (docs/ARCHITECTURE.md has the measured cost). Users set their own
# density with ``--anchor-stride``.
SHARD_ANCHOR_STRIDE = 64

# Pool attempts a crashed shard gets before it replays inline.
SHARD_RETRIES = 2

Anchor = Dict[str, Any]     # an ANCHOR frame's {ordinal, cycle, checkpoint}


def plan_shards(n_packets: int, anchors: Dict[int, Anchor],
                segments: int) -> List[Tuple[int, int, Optional[Anchor]]]:
    """Choose up to ``segments`` contiguous packet ranges to replay.

    Boundaries are the anchor ordinals nearest to an even split of the
    trace. Returns ``(start, stop, anchor)`` triples in trace order; the
    first segment gets ``None`` (it starts wherever the trace starts).
    Fewer segments than requested come back when the trace has too few
    distinct anchors — the degenerate case is one segment, which is
    exactly a sequential replay.
    """
    if segments < 1:
        raise ConfigError(f"segments must be >= 1, got {segments}")
    candidates = sorted(k for k in anchors if 0 < k < n_packets)
    chosen: List[int] = []
    for i in range(1, segments):
        ideal = i * n_packets / segments
        available = [k for k in candidates if k not in chosen]
        if not available:
            break
        chosen.append(min(available, key=lambda k: abs(k - ideal)))
    bounds = [0] + sorted(chosen) + [n_packets]
    return [(bounds[i], bounds[i + 1],
             anchors[bounds[i]] if bounds[i] else None)
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
    anchor: Optional[Anchor]          # None: segment starts from power-on
    time_warp: Optional[bool] = None
    scheduler: Optional[str] = None   # simulation kernel for the worker


def run_replay_shard(cell: ReplayShardCell) -> dict:
    """Worker: replay one segment from its anchor; return picklable stats."""
    segment = TraceFile(table=cell.table, body=cell.body,
                        with_validation=cell.with_validation,
                        metadata={"shard": [cell.start, cell.stop],
                                  "ring": cell.anchor})
    metrics = replay_run(get_app(cell.app), segment,
                         time_warp=cell.time_warp, scheduler=cell.scheduler)
    sim = metrics.result["deployment"].sim
    return {
        "start": cell.start,
        "stop": cell.stop,
        "cycles": metrics.cycles,
        "warped_cycles": sim.warped_cycles,
        "warp_jumps": sim.warp_jumps,
        "validation_body": bytes(metrics.result["validation"].body),
    }


@dataclass
class ShardedReplayResult:
    """Outcome of an anchor-sharded replay."""

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
                   segments: Optional[int] = None,
                   jobs: Optional[int] = None,
                   time_warp: Optional[bool] = None,
                   injector=None,
                   scheduler: Optional[str] = None) -> ShardedReplayResult:
    """Replay ``trace`` split at its :attr:`~TraceFile.anchors` across workers.

    ``segments`` defaults to ``jobs`` (one segment per worker); ``jobs`` of
    ``None``/``0``/``1`` replays the segments inline, still exercising the
    slicing and stitching path. The stitched validation trace is
    byte-identical to a sequential replay's, so callers feed it straight
    into :func:`~repro.core.divergence.compare_traces`. Segments run on
    the warm worker pool through :func:`~repro.harness.runner.run_cells`.

    Worker deaths are absorbed: crashed shards are retried up to
    :data:`SHARD_RETRIES` times (recycling only the pool slots actually
    lost to the crash) and, failing that, replayed inline — every shard
    is a pure function of its cell, so the stitched result is
    byte-identical no matter how many attempts a shard needed. ``injector``
    (a :class:`~repro.faults.injector.FaultInjector` with a
    ``worker-crash`` fault armed) wraps the shard worker so chosen shards
    kill their worker process on first execution — the fault campaign's
    way of proving the recovery path end to end.
    """
    index = trace.index()
    if segments is None:
        segments = jobs if jobs and jobs > 1 else 1
    window = trace.metadata.get("ring")
    cells = [
        ReplayShardCell(app=spec.key, table=trace.table,
                        body=bytes(index.slice(start, stop)),
                        with_validation=trace.with_validation,
                        start=start, stop=stop,
                        anchor=anchor if start else window,
                        time_warp=time_warp, scheduler=scheduler)
        for start, stop, anchor in plan_shards(len(index), trace.anchors,
                                               segments)
    ]
    worker = run_replay_shard
    if injector is not None:
        worker = injector.crashing_worker(worker, cells)
    results = run_cells(cells, worker, jobs=jobs, retries=SHARD_RETRIES,
                        fallback_inline=True)
    stitched = TraceFile(
        table=trace.table,
        body=b"".join(r["validation_body"] for r in results),
        with_validation=trace.with_validation,
        metadata={"stitched_segments": [[r["start"], r["stop"]]
                                        for r in results]},
    )
    return ShardedReplayResult(validation=stitched, shards=results)

