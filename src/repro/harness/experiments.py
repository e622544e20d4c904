"""One driver per paper artefact: Tables 1-2, Fig. 7, §5.2-§5.5, §6.

Each ``run_*`` function executes the experiment and returns structured
rows; each ``render_*`` turns them into a paper-style text table including
the paper's reported values for side-by-side comparison. The benchmark
suite under ``benchmarks/`` is a thin wrapper over these drivers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import (
    cycles_to_seconds,
    fmt_bytes,
    fmt_factor,
    mean,
    reduction_factor,
)
from repro.analysis.tables import render_bars, render_table
from repro.apps.registry import APPS, AppSpec, get_app
from repro.baselines.cycle_accurate import (
    input_signal_bits,
    panopticon_envelope,
)
from repro.core import VidiConfig
from repro.harness.runner import (
    OverheadStats,
    SweepCell,
    bench_config,
    replay_run,
    run_cells,
    run_divergence_cell,
    run_record_cell,
)
from repro.platform.interfaces import make_f1_interfaces
from repro.resources.model import (
    FIG7_COMBINATIONS,
    fig7_sweep,
    shim_resources,
)

# Input-signal width of the full five-interface boundary, used for the
# cycle-accurate baseline size ("total size of all input signals", §5.5).
_REFERENCE_CHANNELS = [
    channel
    for interface in make_f1_interfaces("ref").values()
    for channel in interface.channel_list()
]
CYCLE_ACCURATE_BITS_PER_CYCLE = input_signal_bits(_REFERENCE_CHANNELS)
CYCLE_ACCURATE_BYTES_PER_CYCLE = (CYCLE_ACCURATE_BITS_PER_CYCLE + 7) // 8


# ----------------------------------------------------------------------
# Table 1 — execution time, recording overhead, trace size, reduction
# ----------------------------------------------------------------------


@dataclass
class Table1Row:
    """One measured row of Table 1 plus the paper's reference values."""

    app: AppSpec
    native_cycles: float
    overhead_pct: float
    overhead_std: float
    trace_bytes: int
    reduction: float

    @property
    def native_seconds(self) -> float:
        return cycles_to_seconds(int(self.native_cycles))


def run_table1(runs: int = 5, apps: Optional[Sequence[str]] = None,
               base_seed: int = 100,
               jobs: Optional[int] = None) -> List[Table1Row]:
    """Measure every application under R1/R2 (the paper's Table 1).

    The app × config × seed cells are independent runs with per-cell
    seeds (R1 at ``base_seed + i``, R2 at ``base_seed + 500 + i``,
    matching :func:`~repro.harness.runner.overhead_experiment`), so
    ``jobs > 1`` shards them across worker processes without changing a
    single number.
    """
    keys = list(apps or APPS.keys())
    cells: List[SweepCell] = []
    for key in keys:
        cells.extend(SweepCell(key, "r1", base_seed + i) for i in range(runs))
        cells.extend(SweepCell(key, "r2", base_seed + 500 + i)
                     for i in range(runs))
        # The trace-size sample, same seed the sequential driver used.
        cells.append(SweepCell(key, "r2", base_seed))
    results = run_cells(cells, run_record_cell, jobs=jobs)
    rows: List[Table1Row] = []
    per_app = 2 * runs + 1
    for n, key in enumerate(keys):
        chunk = results[n * per_app:(n + 1) * per_app]
        stats = OverheadStats(
            app=key,
            r1_cycles=[c["cycles"] for c in chunk[:runs]],
            r2_cycles=[c["cycles"] for c in chunk[runs:2 * runs]],
        )
        native = mean(stats.r1_cycles)
        trace_bytes = chunk[2 * runs]["trace_bytes"]
        cycle_accurate = int(native) * CYCLE_ACCURATE_BYTES_PER_CYCLE
        rows.append(Table1Row(
            app=get_app(key),
            native_cycles=native,
            overhead_pct=stats.mean_overhead_pct,
            overhead_std=stats.std_overhead_pct,
            trace_bytes=trace_bytes,
            reduction=reduction_factor(cycle_accurate, trace_bytes),
        ))
    return rows


def render_table1(rows: Sequence[Table1Row]) -> str:
    """Paper-vs-measured rendering of Table 1."""
    body = []
    for row in rows:
        paper = row.app.paper
        body.append([
            row.app.label,
            f"{row.native_seconds * 1e6:.1f}us",
            f"{paper.exec_time_s:.2f}s",
            f"{row.overhead_pct:.2f}±{row.overhead_std:.2f}",
            f"{paper.overhead_pct:.2f}±{paper.overhead_std:.2f}",
            fmt_bytes(row.trace_bytes),
            f"{paper.trace_gb:.3g}GB",
            fmt_factor(row.reduction),
            fmt_factor(paper.reduction),
        ])
    return render_table(
        "Table 1: recording overhead and trace size (measured | paper)",
        ["App", "ET", "ET(paper)", "Ovh% ±std", "Ovh%(paper)",
         "Trace", "TS(paper)", "Reduction", "Red.(paper)"],
        body)


# ----------------------------------------------------------------------
# Table 2 — resource overhead per application
# ----------------------------------------------------------------------


@dataclass
class Table2Row:
    """One application's modelled resource overhead plus paper values."""

    app: AppSpec
    lut_pct: float
    ff_pct: float
    bram_pct: float


def run_table2() -> List[Table2Row]:
    """Resource overheads, full five-interface configuration (Table 2)."""
    rows = []
    for key, spec in APPS.items():
        report = shim_resources(app=key, app_uses_pcim=(key == "dram_dma"))
        rows.append(Table2Row(app=spec, lut_pct=report.lut_pct,
                              ff_pct=report.ff_pct, bram_pct=report.bram_pct))
    return rows


def render_table2(rows: Sequence[Table2Row]) -> str:
    body = [[
        row.app.label,
        f"{row.lut_pct:.2f}", f"{row.app.paper.lut_pct:.2f}",
        f"{row.ff_pct:.2f}", f"{row.app.paper.ff_pct:.2f}",
        f"{row.bram_pct:.2f}", f"{row.app.paper.bram_pct:.2f}",
    ] for row in rows]
    return render_table(
        "Table 2: on-FPGA resource overhead, % of F1 user partition "
        "(measured | paper)",
        ["App", "LUT", "LUT(p)", "FF", "FF(p)", "BRAM", "BRAM(p)"],
        body)


# ----------------------------------------------------------------------
# Fig. 7 — resource scaling with monitored width
# ----------------------------------------------------------------------


@dataclass
class Fig7Point:
    """One interface combination of the Fig. 7 sweep."""

    combo: Tuple[str, ...]
    monitored_bits: int
    lut_pct: float
    ff_pct: float
    bram_pct: float

    @property
    def label(self) -> str:
        return "+".join(self.combo)


def run_fig7() -> List[Fig7Point]:
    """The eleven-combination resource-scaling sweep of Fig. 7."""
    points = []
    for combo, report in fig7_sweep().items():
        points.append(Fig7Point(
            combo=combo, monitored_bits=report.monitored_bits,
            lut_pct=report.lut_pct, ff_pct=report.ff_pct,
            bram_pct=report.bram_pct))
    return points


def render_fig7(points: Sequence[Fig7Point]) -> str:
    table = render_table(
        "Fig. 7: resource overhead vs monitored width",
        ["Interfaces", "Bits", "LUT%", "FF%", "BRAM%"],
        [[p.label, p.monitored_bits, f"{p.lut_pct:.2f}", f"{p.ff_pct:.2f}",
          f"{p.bram_pct:.2f}"] for p in points])
    bars = render_bars(
        "LUT overhead (%, by combination)",
        [p.label for p in points], [p.lut_pct for p in points])
    return table + "\n\n" + bars


# ----------------------------------------------------------------------
# §5.4 — effectiveness (divergences across record and replay)
# ----------------------------------------------------------------------


@dataclass
class DivergenceRow:
    """Divergence counts for one application across seeds."""

    label: str
    output_transactions: int
    content: int
    count: int
    ordering: int

    @property
    def rate(self) -> float:
        if not self.output_transactions:
            return 0.0
        return self.content / self.output_transactions


def run_divergence(runs: int = 3, apps: Optional[Sequence[str]] = None,
                   base_seed: int = 300,
                   jobs: Optional[int] = None) -> List[DivergenceRow]:
    """Record (R2) then replay (R3) every app; compare traces (§5.4).

    Includes the interrupt-patched DRAM DMA as an extra row demonstrating
    the §3.6 fix. Each (app, seed) cell is an independent record+replay
    pair, so ``jobs > 1`` shards them across worker processes.
    """
    targets: List[Tuple[str, str, bool]] = [
        (spec.label, key, False) for key, spec in APPS.items()
        if apps is None or key in apps
    ]
    targets.append(("DMA(patched)", "dram_dma", True))
    cells = [SweepCell(key, "r2", base_seed + i, patched_dma=patched)
             for _label, key, patched in targets
             for i in range(runs)]
    results = run_cells(cells, run_divergence_cell, jobs=jobs)
    rows: List[DivergenceRow] = []
    for n, (label, _key, _patched) in enumerate(targets):
        chunk = results[n * runs:(n + 1) * runs]
        rows.append(DivergenceRow(
            label=label,
            output_transactions=sum(c["output_transactions"] for c in chunk),
            content=sum(c["content"] for c in chunk),
            count=sum(c["count"] for c in chunk),
            ordering=sum(c["ordering"] for c in chunk),
        ))
    return rows


def render_divergence(rows: Sequence[DivergenceRow]) -> str:
    body = [[
        row.label, row.output_transactions, row.content, row.count,
        row.ordering,
        f"{row.rate:.2e}" if row.content else "0",
    ] for row in rows]
    note = ("(paper: only DRAM DMA diverges, ~1e-6 content divergences per "
            "transaction at production scale; the patch removes them all)")
    return render_table(
        "§5.4: record/replay divergences",
        ["App", "OutTxns", "Content", "Count", "Ordering", "Rate"],
        body) + "\n" + note


# ----------------------------------------------------------------------
# §5.2 — debugging case study (frame-FIFO echo server)
# ----------------------------------------------------------------------


def run_case_debugging(seed: int = 7) -> Dict[str, object]:
    """The §5.2 workflow: record the buggy run on hardware, replay it.

    Returns a summary dict: bytes lost on hardware, fragments the FIFO
    dropped, and whether the replay reproduced exactly the same loss.
    """
    from repro.apps import frame_fifo_echo
    from repro.platform import EnvironmentMode, F1Deployment

    acc_factory, host_threads = frame_fifo_echo.make(
        buggy=True, start_delay=3000)
    deployment = F1Deployment("dbg", acc_factory, bench_config(VidiConfig.r2),
                              env_mode=EnvironmentMode.HARDWARE, seed=seed)
    result: Dict[str, object] = {}
    for thread in host_threads(result, seed=seed):
        deployment.cpu.add_thread(thread)
    deployment.run_to_completion(max_cycles=600_000)
    trace = deployment.recorded_trace({"case": "debugging"})
    dropped_hw = deployment.accelerator.fifo.dropped_fragments

    replay_factory, _ = frame_fifo_echo.make(buggy=True, start_delay=3000)
    replay = F1Deployment("dbg_r", replay_factory, VidiConfig.r3(),
                          replay_trace=trace)
    replay.run_replay(max_cycles=600_000)
    dropped_replay = replay.accelerator.fifo.dropped_fragments
    return {
        "bug_observed": not result["ok"],
        "mismatch_bytes": result["mismatch_bytes"],
        "dropped_on_hardware": dropped_hw,
        "dropped_on_replay": dropped_replay,
        "loss_reproduced": dropped_hw == dropped_replay and dropped_hw > 0,
        "trace_bytes": trace.size_bytes,
    }


def render_case_debugging(outcome: Dict[str, object]) -> str:
    return (
        "§5.2 debugging case study (buggy frame-FIFO echo server)\n"
        f"  delayed-start bug observed on hardware : {outcome['bug_observed']}\n"
        f"  bytes inconsistent at readback         : {outcome['mismatch_bytes']}\n"
        f"  fragments dropped (hardware)           : {outcome['dropped_on_hardware']}\n"
        f"  fragments dropped (replay)             : {outcome['dropped_on_replay']}\n"
        f"  loss deterministically reproduced      : {outcome['loss_reproduced']}\n"
        f"  recorded trace                         : {fmt_bytes(outcome['trace_bytes'])}"
    )


# ----------------------------------------------------------------------
# §5.3 — testing case study (atop-filter echo server + trace mutation)
# ----------------------------------------------------------------------


def run_case_testing(seed: int = 7) -> Dict[str, object]:
    """The §5.3 workflow: record, mutate W-before-AW, replay both filters."""
    from repro.apps import atop_echo
    from repro.core.mutation import EventRef, TraceMutator
    from repro.errors import WatchdogTimeout
    from repro.platform import F1Deployment

    acc_factory, host_factory = atop_echo.make(buggy=True)
    deployment = F1Deployment("tst", acc_factory, bench_config(VidiConfig.r2),
                              seed=seed)
    result: Dict[str, object] = {}
    deployment.cpu.add_thread(host_factory(result, seed=seed))
    deployment.run_to_completion(max_cycles=600_000)
    trace = deployment.recorded_trace({"case": "testing"})

    mutator = TraceMutator(trace)
    mutator.move_end_before(EventRef("end", "pcim.w", 0),
                            EventRef("end", "pcim.aw", 0))
    assert mutator.validate() is None
    mutated = mutator.build()

    buggy_factory, _ = atop_echo.make(buggy=True)
    buggy_replay = F1Deployment("tst_b", buggy_factory, VidiConfig.r3(),
                                replay_trace=mutated)
    deadlocked = False
    try:
        buggy_replay.run_replay(max_cycles=20_000)
    except WatchdogTimeout:
        deadlocked = True

    fixed_factory, _ = atop_echo.make(buggy=False)
    fixed_replay = F1Deployment("tst_f", fixed_factory, VidiConfig.r3(),
                                replay_trace=mutated)
    fixed_ok = True
    try:
        fixed_replay.run_replay(max_cycles=200_000)
    except WatchdogTimeout:
        fixed_ok = False
    return {
        "normal_run_ok": bool(result.get("ok")),
        "mutated_deadlocks_buggy": deadlocked,
        "buggy_filter_wedged": buggy_replay.accelerator.filter.wedged,
        "mutated_passes_fixed": fixed_ok
        and not fixed_replay.accelerator.filter.wedged,
        "trace_bytes": trace.size_bytes,
    }


def render_case_testing(outcome: Dict[str, object]) -> str:
    return (
        "§5.3 testing case study (axi_atop_filter echo server)\n"
        f"  normal execution passes (bug dormant)   : {outcome['normal_run_ok']}\n"
        f"  mutated trace deadlocks buggy filter    : {outcome['mutated_deadlocks_buggy']}\n"
        f"  filter wedge latch observed             : {outcome['buggy_filter_wedged']}\n"
        f"  upstream bugfix survives mutated replay : {outcome['mutated_passes_fixed']}\n"
        f"  recorded trace                          : {fmt_bytes(outcome['trace_bytes'])}"
    )


# ----------------------------------------------------------------------
# Replay time warp + checkpoint-sharded parallel replay
# ----------------------------------------------------------------------


@dataclass
class TimeWarpRow:
    """Replay acceleration measurements for one application."""

    label: str
    replay_cycles: int
    warped_cycles: int
    percycle_cps: float          # simulated cycles/sec, warp disabled
    warp_cps: float              # simulated cycles/sec, warp enabled
    segments: int                # checkpoint shards the trace split into
    critical_path_cycles: int    # slowest shard (parallel wall-clock)
    identical: bool              # warp + stitched bodies == per-cycle body

    @property
    def skip_ratio(self) -> float:
        if not self.replay_cycles:
            return 0.0
        return self.warped_cycles / self.replay_cycles

    @property
    def warp_speedup(self) -> float:
        if not self.percycle_cps:
            return 0.0
        return self.warp_cps / self.percycle_cps

    @property
    def shard_speedup(self) -> float:
        """Cycle-count reduction an ideal parallel stitcher achieves."""
        if not self.critical_path_cycles:
            return 0.0
        return self.replay_cycles / self.critical_path_cycles


def run_time_warp(apps: Sequence[str] = ("sha256", "dram_dma", "bnn"),
                  seed: int = 7, segments: int = 4,
                  jobs: Optional[int] = None) -> List[TimeWarpRow]:
    """Measure replay acceleration: quiescent-gap skipping and sharding.

    Records each app once (harvesting checkpoints), replays the trace
    per-cycle and with time warp (wall-clock timed), then replays it
    sharded at checkpoint boundaries and verifies all three validation
    traces are byte-identical.
    """
    import time

    from repro.harness.sharded_replay import (
        record_with_checkpoints,
        replay_sharded,
    )

    rows: List[TimeWarpRow] = []
    for key in apps:
        spec = get_app(key)
        metrics, checkpoints = record_with_checkpoints(spec, seed=seed)
        trace = metrics.result["trace"]

        t0 = time.perf_counter()
        percycle = replay_run(spec, trace, time_warp=False)
        percycle_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warp = replay_run(spec, trace, time_warp=True)
        warp_s = time.perf_counter() - t0
        sharded = replay_sharded(spec, trace, checkpoints,
                                 segments=segments, jobs=jobs)

        reference_body = bytes(percycle.result["validation"].body)
        identical = (
            bytes(warp.result["validation"].body) == reference_body
            and bytes(sharded.validation.body) == reference_body)
        sim = warp.result["deployment"].sim
        rows.append(TimeWarpRow(
            label=spec.label,
            replay_cycles=warp.cycles,
            warped_cycles=sim.warped_cycles,
            percycle_cps=percycle.cycles / max(percycle_s, 1e-9),
            warp_cps=warp.cycles / max(warp_s, 1e-9),
            segments=sharded.segments,
            critical_path_cycles=sharded.critical_path_cycles,
            identical=identical,
        ))
    return rows


def render_time_warp(rows: Sequence[TimeWarpRow]) -> str:
    body = [[
        row.label,
        row.replay_cycles,
        f"{row.skip_ratio * 100:.1f}",
        f"{row.warp_speedup:.2f}x",
        row.segments,
        f"{row.shard_speedup:.2f}x",
        "yes" if row.identical else "NO",
    ] for row in rows]
    note = ("(skip% = replay cycles bridged by quiescent-gap warps; shard = "
            "replay-cycle reduction from checkpoint-sharded parallel replay; "
            "identical = per-cycle, warped and stitched validation traces "
            "agree byte-for-byte)")
    return render_table(
        "Replay acceleration: time warp and checkpoint sharding",
        ["App", "Cycles", "Skip%", "Warp", "Shards", "Shard", "Identical"],
        body) + "\n" + note


# ----------------------------------------------------------------------
# §6 — the Panopticon back-of-the-envelope comparison
# ----------------------------------------------------------------------


@dataclass
class PanopticonRow:
    """Cycle-accurate trace volume for one app at the paper's runtime."""

    label: str
    paper_exec_s: float
    cycle_accurate_bytes: float

    @property
    def exceeds_bram(self) -> bool:
        return self.cycle_accurate_bytes > 43 * 1024 * 1024


def run_panopticon() -> Tuple[object, List[PanopticonRow]]:
    """§6's envelope: seconds-to-loss plus per-app BRAM-overflow check."""
    envelope = panopticon_envelope()
    rows = []
    for spec in APPS.values():
        cycles = spec.paper.exec_time_s * 250e6
        rows.append(PanopticonRow(
            label=spec.label,
            paper_exec_s=spec.paper.exec_time_s,
            cycle_accurate_bytes=cycles * CYCLE_ACCURATE_BYTES_PER_CYCLE))
    return envelope, rows


def render_panopticon(envelope, rows: Sequence[PanopticonRow]) -> str:
    head = (
        "§6: physical-timestamp (Panopticon-style) trace-loss envelope\n"
        f"  peak tracing bandwidth : {envelope.peak_bandwidth_gbs:.1f} GB/s "
        "(paper: 18.5 GB/s)\n"
        f"  store drain bandwidth  : {envelope.drain_bandwidth_gbs:.1f} GB/s\n"
        f"  BRAM buffer            : {envelope.buffer_mb:.0f} MB\n"
        f"  burst until trace loss : {envelope.seconds_to_loss * 1e3:.1f} ms "
        "(paper: 3.3 ms)\n"
    )
    body = [[
        row.label, f"{row.paper_exec_s:.2f}s",
        fmt_bytes(row.cycle_accurate_bytes),
        "yes" if row.exceeds_bram else "no",
    ] for row in rows]
    exceeding = sum(r.exceeds_bram for r in rows)
    table = render_table(
        "Cycle-accurate trace volume at the paper's runtimes vs 43 MB BRAM",
        ["App", "ET(paper)", "CA trace", ">43MB?"], body)
    return head + table + (
        f"\n{exceeding}/10 applications exceed the on-chip buffer "
        "(paper: 9/10 by measured trace size)")
