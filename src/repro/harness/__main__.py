"""``python -m repro.harness`` — regenerate the paper's artefacts directly.

Each subcommand runs one experiment driver and prints its paper-style
artefact (optionally writing it to a file)::

    python -m repro.harness table2
    python -m repro.harness fig7 -o fig7.txt
    python -m repro.harness table1 --runs 10          # paper-grade sampling
    python -m repro.harness divergence --runs 3
    python -m repro.harness timewarp
    python -m repro.harness panopticon
    python -m repro.harness case-debugging
    python -m repro.harness case-testing
    python -m repro.harness all -o results.txt

Applications can also be recorded and replayed directly::

    python -m repro.harness record sha256 -o sha.trace --seed 7
    python -m repro.harness replay sha256 sha.trace

The always-on flight recorder records through a compressed, deduped ring
and emits a v3 container of the retained window (replayable from its
embedded re-anchor checkpoint even after the ring wrapped)::

    python -m repro.harness record dram_dma -o d.trace --flight-recorder \
        --retain-words 4096
    python -m repro.harness replay dram_dma d.trace

Every record/replay/campaign command takes ``--scheduler
{event,fixpoint,compiled}`` to pick the simulation kernel; the flag beats
the ``REPRO_SIM_SCHEDULER`` environment variable, which beats the
simulator default::

    python -m repro.harness record sha256 -o sha.trace --scheduler compiled

Long traces replay in parallel, sharded at quiescent checkpoints::

    python -m repro.harness record dram_dma -o d.trace --checkpoints d.ckpt
    python -m repro.harness replay dram_dma d.trace --jobs 4 --checkpoints d.ckpt

Fault injection rides on the same commands (see ``repro.faults``)::

    python -m repro.harness record sha256 -o bad.trace \
        --inject 'store-bitflip:flips=2;blob-truncate:keep=0.6'
    python -m repro.harness replay sha256 bad.trace --salvage
    python -m repro.harness replay dram_dma d.trace --jobs 4 \
        --checkpoints d.ckpt --inject 'worker-crash:crashes=1'
    python -m repro.harness campaign --faults 200

Parallel commands (``--jobs``, sharded replay, the campaign's crash
trials) run on one process-persistent warm worker pool. ``--cache-dir``
(also read from ``REPRO_SCHEDULE_CACHE``) persists compiled kernels so
later runs and their workers re-bind them instead of recompiling::

    python -m repro.harness campaign --faults 200 \
        --cache-dir /tmp/repro-schedules
    python -m repro.harness cache stats --cache-dir /tmp/repro-schedules
    python -m repro.harness cache clear --cache-dir /tmp/repro-schedules
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.harness import experiments as exp


def _artifact(name: str, runs: int, jobs: Optional[int] = None) -> str:
    if name == "table1":
        return exp.render_table1(exp.run_table1(runs=runs, jobs=jobs))
    if name == "table2":
        return exp.render_table2(exp.run_table2())
    if name == "fig7":
        return exp.render_fig7(exp.run_fig7())
    if name == "divergence":
        return exp.render_divergence(exp.run_divergence(runs=runs, jobs=jobs))
    if name == "panopticon":
        return exp.render_panopticon(*exp.run_panopticon())
    if name == "timewarp":
        return exp.render_time_warp(exp.run_time_warp(jobs=jobs))
    if name == "case-debugging":
        return exp.render_case_debugging(exp.run_case_debugging())
    if name == "case-testing":
        return exp.render_case_testing(exp.run_case_testing())
    raise ValueError(name)


FAST = ("table2", "fig7", "panopticon")
ALL = ("table1", "table2", "fig7", "divergence", "timewarp", "panopticon",
       "case-debugging", "case-testing")


def _cmd_record(args) -> int:
    """Record one application run to a trace file."""
    from repro.apps.registry import get_app
    from repro.core import VidiConfig
    from repro.harness.runner import bench_config, record_run

    spec = get_app(args.app)
    overrides = {}
    if args.flight_recorder:
        overrides = {
            "flight_recorder": True,
            "flight_retain_words": args.retain_words,
            "flight_dedup_slots": args.dedup_slots,
            "flight_compress_level": args.compress_level,
            "flight_anchor_stride": args.anchor_stride,
        }
        if args.checkpoints:
            print("--flight-recorder embeds checkpoints in its ANCHOR "
                  "frames; --checkpoints cannot combine with it",
                  file=sys.stderr)
            return 2
        if args.compress:
            print("--compress applies to v1/v2 containers; flight "
                  "recordings are already block-compressed (v3)",
                  file=sys.stderr)
            return 2
    before_run = None
    injector = None
    if args.inject:
        from repro.faults import FaultInjector

        injector = FaultInjector.from_text(args.inject, seed=args.inject_seed)
        before_run = injector.arm_recording
    if args.checkpoints:
        from repro.harness.sharded_replay import (
            record_with_checkpoints,
            save_checkpoints,
        )

        if before_run is not None:
            print("--inject and --checkpoints cannot combine (both hook "
                  "the recording deployment)", file=sys.stderr)
            return 2
        metrics, checkpoints = record_with_checkpoints(
            spec, bench_config(VidiConfig.r2), seed=args.seed,
            scale=args.scale, scheduler=args.scheduler)
        save_checkpoints(args.checkpoints, checkpoints)
        print(f"harvested {len(checkpoints)} quiescent checkpoint(s) "
              f"-> {args.checkpoints}")
    else:
        metrics = record_run(spec, bench_config(VidiConfig.r2, **overrides),
                             seed=args.seed,
                             scale=args.scale, profile=args.profile,
                             before_run=before_run,
                             scheduler=args.scheduler)
    trace = metrics.result["trace"]
    if args.flight_recorder:
        # The flight blob is the retained ring as a real v3 container —
        # every surviving re-anchor checkpoint stays a salvage resync
        # point (re-serializing the flat trace would collapse them).
        blob = metrics.result["flight_blob"]
        if injector is not None:
            blob = injector.mangle_blob(blob)
        Path(args.output).write_bytes(blob)
        if injector is not None:
            for entry in injector.log:
                print(f"fault: {entry}")
    elif injector is not None:
        blob = injector.mangle_blob(
            trace.to_bytes(compress=args.compress))
        Path(args.output).write_bytes(blob)
        for entry in injector.log:
            print(f"fault: {entry}")
    else:
        trace.save(args.output, compress=args.compress)
    print(f"recorded {spec.label}: {metrics.cycles} cycles, "
          f"{metrics.monitored_transactions} transactions, "
          f"{trace.size_bytes} trace bytes -> {args.output}")
    if args.flight_recorder:
        flight = metrics.result["flight"]
        print(f"flight recorder: {flight['retained_words']} of "
              f"{flight['retain_words']} word(s) retained, "
              f"{flight['anchors']} anchor(s), "
              f"{flight['evicted_epochs']} epoch(s) evicted, "
              f"dedup {flight['dedup_ratio']:.2f}x, "
              f"compressed {flight['compression_ratio']:.2f}x")
    if args.profile:
        print()
        print(_render_kernel_profile(metrics.result["kernel_profile"]))
        print()
        print(_render_kernel_stats(metrics.result["kernel_stats"]))
    return 0


def _render_kernel_profile(rows: List[dict], top: int = 20) -> str:
    """Per-module comb/seq time shares as a harness-style table."""
    from repro.analysis.tables import render_table

    body = [[
        r["module"],
        f"{r['comb_s'] * 1e3:.2f}", r["comb_calls"],
        f"{r['seq_s'] * 1e3:.2f}", r["seq_calls"],
        f"{r['share_pct']:.1f}",
    ] for r in rows[:top]]
    return render_table(
        f"Kernel profile: hottest {min(top, len(rows))} modules "
        "(comb/seq wall-clock)",
        ["Module", "comb ms", "evals", "seq ms", "calls", "share %"],
        body)


def _render_kernel_stats(stats: dict) -> str:
    """Scheduler-level counters; compiled-kernel lines only when relevant."""
    lines = [
        f"scheduler: {stats['scheduler']}",
        f"comb evals: {stats['comb_evals']}, "
        f"quiescent cycles: {stats['quiescent_cycles']}",
    ]
    if stats["scheduler"] == "compiled":
        lines.append(
            f"compile time: {stats['compile_s'] * 1e3:.2f} ms, "
            f"{stats['rank_count']} rank(s), "
            f"{stats['demoted_sccs']} SCC(s) demoted to iterative settling")
        evals = ", ".join(f"r{i}={n}" for i, n in
                          enumerate(stats["rank_evals"]))
        lines.append(f"per-rank comb evals: {evals or '(none)'}")
        cache = stats.get("schedule_cache")
        if cache is not None:
            hit = "hit" if stats.get("schedule_cache_hit") else "miss"
            lines.append(
                f"schedule cache: {hit} for this run "
                f"({cache['hits']} hit(s), {cache['misses']} miss(es), "
                f"{cache['entries']} cached schedule(s) in-process)")
            lines.extend(_render_cache_tiers(cache))
    return "\n".join(lines)


def _render_cache_tiers(cache: dict) -> List[str]:
    """Disk-tier and warm-pool lines of a schedule_cache_stats() dict."""
    lines = []
    if cache.get("disk_dir"):
        lines.append(
            f"disk tier: {cache['disk_hits']} hit(s), "
            f"{cache['disk_misses']} miss(es), "
            f"{cache['disk_invalidations']} invalidation(s), "
            f"{cache['disk_writes']} write(s); {cache['disk_entries']} "
            f"entr{'y' if cache['disk_entries'] == 1 else 'ies'} "
            f"({cache['disk_bytes']} bytes) in {cache['disk_dir']}")
    if cache.get("affinity_dispatches"):
        lines.append(
            f"warm pool: {cache['warm_pool_live']}/{cache['warm_pool_size']} "
            f"worker(s) live, affinity hit rate "
            f"{cache['affinity_hit_rate']:.0%} over "
            f"{cache['affinity_dispatches']} dispatch(es), "
            f"{cache['workers_recycled']} recycled")
    return lines


def _cmd_replay(args) -> int:
    """Replay a saved trace against an application and validate it."""
    from repro.apps.registry import get_app
    from repro.core import TraceFile, compare_traces
    from repro.harness.runner import replay_run

    spec = get_app(args.app)
    trace = TraceFile.load(args.trace, salvage=args.salvage)
    if trace.salvaged:
        info = trace.metadata["salvaged"]
        print(f"salvaged {info['packets']} packet(s) "
              f"({info['dropped_bytes']} byte(s) dropped): {info['reason']}")
    time_warp = False if args.no_time_warp else None
    injector = None
    if args.inject:
        from repro.faults import FaultInjector

        injector = FaultInjector.from_text(args.inject, seed=args.inject_seed)
    if args.jobs and args.jobs > 1:
        from repro.harness.sharded_replay import (
            load_checkpoints,
            replay_sharded,
        )

        if not args.checkpoints:
            print("sharded replay (--jobs > 1) needs --checkpoints from "
                  "`record --checkpoints`", file=sys.stderr)
            return 2
        checkpoints = load_checkpoints(args.checkpoints)
        result = replay_sharded(spec, trace, checkpoints, jobs=args.jobs,
                                time_warp=time_warp, injector=injector,
                                scheduler=args.scheduler)
        if injector is not None:
            for entry in injector.log:
                print(f"fault: {entry}")
        report = compare_traces(trace, result.validation)
        print(f"replayed {spec.label}: {result.segments} segment(s), "
              f"critical path {result.critical_path_cycles} of "
              f"{result.total_cycles} total cycles")
    else:
        if injector is not None:
            print("note: --inject on replay arms worker-crash faults, "
                  "which need sharded mode (--jobs > 1)", file=sys.stderr)
        metrics = replay_run(spec, trace, time_warp=time_warp,
                             scheduler=args.scheduler)
        report = compare_traces(trace, metrics.result["validation"])
        sim = metrics.result["deployment"].sim
        print(f"replayed {spec.label}: {metrics.cycles} cycles "
              f"({sim.warped_cycles} warped in {sim.warp_jumps} jump(s))")
    print(report.summary())
    return 0 if report.clean else 1


def _cmd_campaign(args) -> int:
    """Run a seeded fault-injection campaign and report containment."""
    from repro.faults import run_campaign

    report = run_campaign(app=args.app, n_faults=args.faults, seed=args.seed,
                          crash_app=args.crash_app,
                          scheduler=args.scheduler,
                          batch_size=args.batch_size,
                          flight_recorder=args.flight_recorder,
                          progress=lambda msg: print(f"  {msg}"))
    print(report.render())
    return 0 if not report.silent_accepts else 1


def _cmd_cache(args) -> int:
    """Inspect or clear the on-disk compiled-schedule cache."""
    from repro.sim import schedule_store
    from repro.sim.compile import schedule_cache_stats

    if schedule_store.cache_dir() is None:
        print("no schedule cache directory configured (use --cache-dir "
              "or set REPRO_SCHEDULE_CACHE)", file=sys.stderr)
        return 2
    if args.action == "clear":
        removed = schedule_store.clear()
        print(f"removed {removed} cached schedule(s) from "
              f"{schedule_store.cache_dir()}")
        return 0
    stats = schedule_cache_stats()
    print(f"schedule cache: {stats['hits']} hit(s), "
          f"{stats['misses']} miss(es), {stats['uncacheable']} "
          f"uncacheable, {stats['entries']} in-process entr"
          f"{'y' if stats['entries'] == 1 else 'ies'}")
    for line in _render_cache_tiers(stats):
        print(line)
    return 0


def _add_cache_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="two-level compiled-schedule cache directory (also set by "
             "the REPRO_SCHEDULE_CACHE environment variable): cold "
             "compiles persist kernels there, later runs and warm "
             "workers re-bind them without re-levelizing")


def _add_scheduler_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scheduler", choices=("event", "fixpoint", "compiled"),
        default=None,
        help="simulation kernel: 'event' (sensitivity work-list), "
             "'fixpoint' (blanket reference), 'compiled' (levelized, "
             "code-generated). Precedence: this flag, then the "
             "REPRO_SIM_SCHEDULER environment variable, then the "
             "simulator default")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's artefacts; record/replay apps")
    sub = parser.add_subparsers(dest="command")
    p_art = sub.add_parser("artifact", help="regenerate a paper artefact")
    p_art.add_argument("artifact", choices=ALL + ("all", "fast"))
    p_art.add_argument("--runs", type=int, default=3,
                       help="samples per configuration (paper: 10)")
    p_art.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="shard sweep cells across N worker processes "
                            "(table1/divergence; deterministic)")
    p_art.add_argument("-o", "--output",
                       help="also write the artefact(s) to this file")
    _add_cache_arg(p_art)
    p_rec = sub.add_parser("record", help="record one application run")
    p_rec.add_argument("app")
    p_rec.add_argument("-o", "--output", required=True)
    p_rec.add_argument("--seed", type=int, default=0)
    p_rec.add_argument("--scale", type=float, default=None)
    p_rec.add_argument("--compress", action="store_true")
    p_rec.add_argument("--profile", action="store_true",
                       help="report per-module comb/seq kernel time shares")
    p_rec.add_argument("--checkpoints", metavar="PATH",
                       help="also harvest quiescent checkpoints to this "
                            "sidecar file (enables sharded replay)")
    p_rec.add_argument("--inject", metavar="PLAN",
                       help="arm a fault plan while recording, e.g. "
                            "'store-bitflip:flips=2;channel-stall:cycles=200'")
    p_rec.add_argument("--inject-seed", type=int, default=0,
                       help="seed for the fault plan's random choices")
    from repro.core.config import (DEFAULT_FLIGHT_ANCHOR_STRIDE,
                                   DEFAULT_FLIGHT_COMPRESS_LEVEL,
                                   DEFAULT_FLIGHT_DEDUP_SLOTS,
                                   DEFAULT_FLIGHT_RETAIN_WORDS)

    p_rec.add_argument("--flight-recorder", action="store_true",
                       help="record through the always-on flight recorder "
                            "(dedup + compressed ring retention); the "
                            "output is a v3 container of the retained "
                            "window")
    p_rec.add_argument("--retain-words", type=int,
                       default=DEFAULT_FLIGHT_RETAIN_WORDS, metavar="N",
                       help="ring retention budget in 64-byte storage words")
    p_rec.add_argument("--dedup-slots", type=int,
                       default=DEFAULT_FLIGHT_DEDUP_SLOTS, metavar="N",
                       help="content-dedup dictionary capacity (1..65536)")
    p_rec.add_argument("--compress-level", type=int,
                       default=DEFAULT_FLIGHT_COMPRESS_LEVEL, metavar="L",
                       help="zlib level for the ring's RUN frames (1..9)")
    p_rec.add_argument("--anchor-stride", type=int,
                       default=DEFAULT_FLIGHT_ANCHOR_STRIDE, metavar="N",
                       help="cycles between re-anchor checkpoint attempts")
    _add_scheduler_arg(p_rec)
    _add_cache_arg(p_rec)
    p_rec.set_defaults(func=_cmd_record)
    p_rep = sub.add_parser("replay", help="replay and validate a trace")
    p_rep.add_argument("app")
    p_rep.add_argument("trace")
    p_rep.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="checkpoint-sharded parallel replay across N "
                            "worker processes (needs --checkpoints)")
    p_rep.add_argument("--checkpoints", metavar="PATH",
                       help="checkpoint sidecar written by "
                            "`record --checkpoints`")
    p_rep.add_argument("--no-time-warp", action="store_true",
                       help="disable quiescent-gap skipping (per-cycle "
                            "reference replay)")
    p_rep.add_argument("--salvage", action="store_true",
                       help="recover a damaged/partial trace before "
                            "replaying (v1/v2: longest valid packet "
                            "prefix; v3: most recent anchored window, "
                            "resyncing past torn frames)")
    p_rep.add_argument("--inject", metavar="PLAN",
                       help="arm a fault plan during replay, e.g. "
                            "'worker-crash:crashes=1' (sharded mode)")
    p_rep.add_argument("--inject-seed", type=int, default=0,
                       help="seed for the fault plan's random choices")
    _add_scheduler_arg(p_rep)
    _add_cache_arg(p_rep)
    p_rep.set_defaults(func=_cmd_replay)
    p_cam = sub.add_parser(
        "campaign", help="seeded fault-injection campaign: inject hundreds "
        "of faults, verify none is silently wrong-accepted")
    p_cam.add_argument("--app", default="sha256",
                       help="app hosting the per-trial record/replay faults")
    p_cam.add_argument("--crash-app", default="dram_dma",
                       help="checkpoint-yielding app for worker-crash trials")
    p_cam.add_argument("--faults", type=int, default=200)
    p_cam.add_argument("--seed", type=int, default=0)
    p_cam.add_argument("--batch-size", type=int, default=None, metavar="N",
                       help="pack the simulation-layer trials' faulted "
                            "record legs N at a time behind one batch "
                            "kernel (bit-identical verdicts, less "
                            "wall-clock)")
    p_cam.add_argument("--no-flight-recorder", action="store_false",
                       dest="flight_recorder",
                       help="opt out of the flight recorder (the campaign "
                            "default): flat record legs, v2 container "
                            "attacks")
    _add_scheduler_arg(p_cam)
    _add_cache_arg(p_cam)
    p_cam.set_defaults(func=_cmd_campaign)
    p_cache = sub.add_parser(
        "cache", help="inspect or clear the on-disk compiled-schedule "
        "cache shared by --cache-dir runs")
    p_cache.add_argument("action", choices=("stats", "clear"))
    _add_cache_arg(p_cache)
    p_cache.set_defaults(func=_cmd_cache)

    # Back-compat: `python -m repro.harness table2` without the
    # `artifact` keyword still works.
    argv = list(argv) if argv is not None else None
    import sys as _sys
    raw = argv if argv is not None else _sys.argv[1:]
    if raw and raw[0] in ALL + ("all", "fast"):
        raw = ["artifact"] + list(raw)
    args = parser.parse_args(raw)
    if args.command is None:
        parser.print_help()
        return 2
    if args.cache_dir:
        from repro.sim import schedule_store

        schedule_store.configure(args.cache_dir)
    if args.command != "artifact":
        return args.func(args)
    if args.artifact == "all":
        names: List[str] = list(ALL)
    elif args.artifact == "fast":
        names = list(FAST)
    else:
        names = [args.artifact]
    pieces = []
    for name in names:
        text = _artifact(name, args.runs, jobs=args.jobs)
        print(text)
        print()
        pieces.append(text)
    if args.output:
        Path(args.output).write_text("\n\n".join(pieces) + "\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:   # e.g. piping into `head`
        sys.exit(0)
