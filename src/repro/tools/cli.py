"""The ``vidi`` command line (also ``python -m repro.tools``).

One CLI for the record/replay runtime, the paper's artefacts, the
offline trace tools (the paper's §4.2 C++ suite: divergence validation,
trace mutation, plus inspection) and the trace-service daemon. Each run
command builds one job and runs it here through
:func:`repro.harness.jobs.execute_job`; ``vidi submit <kind>`` takes the
same arguments and runs the job on a daemon::

    vidi record dram_dma -o d.trace --seed 7 --checkpoints d.ckpt
    vidi replay dram_dma d.trace --jobs 4 --checkpoints d.ckpt
    vidi record sha256 -o f.trace --flight-recorder --retain-words 4096
    vidi record sha256 -o bad.trace --inject 'store-bitflip:flips=2'
    vidi replay sha256 bad.trace --salvage
    vidi divergence bnn --seed 3            # record, replay, compare
    vidi campaign --faults 200 --cache-dir /tmp/repro-schedules
    vidi artifact all -o results.txt        # the paper's tables/figures
    vidi diff     reference.trace validation.trace
    vidi serve    --data-dir /var/vidi --jobs 8
    vidi submit   record --data-dir /var/vidi sha256 --seed 7 --wait

Commands print to stdout and exit non-zero on divergences (``diff``,
``replay``, ``divergence``), silent wrong-accepts (``campaign``), policy
violations (``audit``), invalid mutations, bad arguments or failed jobs,
so they compose in scripts and CI.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.metrics import fmt_bytes
from repro.analysis.tables import render_table
from repro.core.divergence import compare_traces
from repro.core.mutation import EventRef, TraceMutator
from repro.core.trace_file import TraceFile
from repro.errors import ReproError
from repro.harness import jobs as harness_jobs


def _parse_event(text: str, kind: str) -> EventRef:
    """Parse ``channel:occurrence`` into an :class:`EventRef`."""
    try:
        channel, occurrence = text.rsplit(":", 1)
        return EventRef(kind, channel, int(occurrence))
    except ValueError:
        raise ReproError(
            f"expected CHANNEL:OCCURRENCE (e.g. pcim.w:0), got {text!r}"
        ) from None


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_info(args) -> int:
    trace = TraceFile.load(args.trace)
    packets = trace.packets()
    print(f"trace      : {args.trace}")
    print(f"format     : v{trace.format_version} "
          f"{'(CRC32-framed)' if trace.format_version >= 2 else '(legacy)'}")
    print(f"body       : {fmt_bytes(trace.size_bytes)} "
          f"({len(packets)} cycle packets)")
    print(f"validation : {'output contents recorded' if trace.with_validation else 'no'}")
    if trace.metadata:
        print(f"metadata   : {trace.metadata}")
    print(render_table(
        f"channel table ({trace.table.n} channels)",
        ["#", "Channel", "Dir", "Payload bits", "Content bytes"],
        [[c.index, c.name, c.direction, c.payload_bits, c.content_bytes]
         for c in trace.table.channels]))
    return 0


def cmd_stats(args) -> int:
    trace = TraceFile.load(args.trace)
    table = trace.table
    starts = [0] * table.n
    ends = [0] * table.n
    content_bytes = [0] * table.n
    for packet in trace.packets():
        for index in range(table.n):
            if (packet.starts >> index) & 1:
                starts[index] += 1
                content_bytes[index] += table[index].content_bytes
            if (packet.ends >> index) & 1:
                ends[index] += 1
    print(f"body         : {fmt_bytes(trace.size_bytes)} "
          f"({trace.packet_count} cycle packets, format v"
          f"{trace.format_version})")
    cycles = trace.metadata.get("cycles")
    if isinstance(cycles, int) and cycles > 0:
        print(f"bytes/cycle  : {trace.size_bytes / cycles:.3f} "
              f"(over {cycles} recorded cycles)")
    cs = trace.container_stats
    if cs:
        # v3 flight-recorder container: the loader kept expansion stats.
        refs = cs["backrefs"] + cs["literals"]
        if refs:
            print(f"dedup        : {cs['backrefs']} backref(s) / "
                  f"{refs} dedupable payload(s) "
                  f"({100.0 * cs['backrefs'] / refs:.1f}% hit rate, "
                  f"{cs['dedup_slots']}-slot dictionary)")
        if cs["frame_bytes"]:
            print(f"compression  : {fmt_bytes(cs['body_bytes'])} flat -> "
                  f"{fmt_bytes(cs['frame_bytes'])} framed "
                  f"({cs['body_bytes'] / cs['frame_bytes']:.2f}x, "
                  f"{cs['anchors']} anchor(s))")
    ring = trace.metadata.get("ring")
    if ring:
        print(f"ring window  : starts at packet {ring.get('ordinal')} "
              f"(cycle {ring.get('cycle')}), checkpoint "
              f"{'present' if ring.get('checkpoint') else 'absent'}")
    rows = []
    for index in range(table.n):
        if starts[index] == 0 and ends[index] == 0 and not args.all:
            continue
        rows.append([table[index].name, table[index].direction,
                     starts[index], ends[index],
                     fmt_bytes(content_bytes[index])])
    print(render_table("per-channel transaction statistics",
                       ["Channel", "Dir", "Starts", "Ends", "Content"],
                       rows))
    return 0


def cmd_dump(args) -> int:
    trace = TraceFile.load(args.trace)
    table = trace.table
    wanted: Optional[int] = None
    if args.channel:
        wanted = table.by_name(args.channel).index
    printed = 0
    for packet_index, packet in enumerate(trace.packets()):
        for index in range(table.n):
            if wanted is not None and index != wanted:
                continue
            events: List[str] = []
            if (packet.starts >> index) & 1:
                content = packet.contents.get(index, b"")
                events.append(f"start content={content.hex()}")
            if (packet.ends >> index) & 1:
                suffix = ""
                if index in packet.validation:
                    suffix = f" content={packet.validation[index].hex()}"
                events.append(f"end{suffix}")
            for event in events:
                print(f"packet {packet_index:6d}  {table[index].name:<12s} {event}")
                printed += 1
                if args.limit and printed >= args.limit:
                    return 0
    return 0


def cmd_diff(args) -> int:
    reference = TraceFile.load(args.reference)
    validation = TraceFile.load(args.validation)
    report = compare_traces(reference, validation)
    print(report.summary())
    return 0 if report.clean else 1


def cmd_mutate(args) -> int:
    trace = TraceFile.load(args.trace)
    mutator = TraceMutator(trace)
    for moved_text, anchor_text in args.move_end_before or []:
        mutator.move_end_before(_parse_event(moved_text, "end"),
                                _parse_event(anchor_text, "end"))
    for dropped in args.drop_end or []:
        mutator.drop_event(_parse_event(dropped, "end"))
    for dropped in args.drop_start or []:
        mutator.drop_event(_parse_event(dropped, "start"))
    for target, hex_content in args.rewrite_content or []:
        mutator.rewrite_start_content(_parse_event(target, "start"),
                                      bytes.fromhex(hex_content))
    problem = mutator.validate()
    if problem and not args.force:
        print(f"mutation produces an inconsistent trace: {problem}",
              file=sys.stderr)
        return 2
    mutator.build().save(args.output)
    print(f"mutated trace written to {args.output}")
    return 0


def cmd_profile(args) -> int:
    from repro.analysis.profile import profile_trace, render_profile

    trace = TraceFile.load(args.trace)
    print(render_profile(profile_trace(trace, timeline_buckets=args.buckets)))
    return 0


def _parse_window(text: str):
    """Parse ``interface:ops:base:length`` into (interface, MemoryWindow)."""
    from repro.analysis.audit import MemoryWindow

    try:
        interface, ops, base, length = text.split(":")
        return interface, MemoryWindow(
            base=int(base, 0), length=int(length, 0),
            allow_read="read" in ops or ops == "rw",
            allow_write="write" in ops or ops == "rw")
    except ValueError:
        raise ReproError(
            "expected IFACE:OPS:BASE:LEN (e.g. pcim:write:0x10000:0x1000), "
            f"got {text!r}") from None


def cmd_audit(args) -> int:
    from repro.analysis.audit import AuditPolicy, audit_trace, render_audit

    trace = TraceFile.load(args.trace)
    policies = {}
    for spec in args.allow or []:
        interface, window = _parse_window(spec)
        policies.setdefault(interface,
                            AuditPolicy(interface=interface)).windows.append(
                                window)
    violations = audit_trace(trace, list(policies.values()))
    print(render_audit(violations))
    return 0 if not violations else 1


def cmd_fuzz(args) -> int:
    """Fuzz an application with random mutations of one of its traces."""
    from repro.apps.registry import get_app
    from repro.tools.fuzz import fuzz_frames, fuzz_replay, render_fuzz

    trace = TraceFile.load(args.trace)
    if args.frames:
        outcomes = fuzz_frames(trace, n_mutants=args.mutants, seed=args.seed,
                               version=args.container)
        print(render_fuzz(outcomes))
        return 0 if not any(o.verdict == "silent-accept"
                            for o in outcomes) else 1
    if args.app is None:
        print("error: fuzz needs an app (or --frames)", file=sys.stderr)
        return 2
    spec = get_app(args.app)
    under_test = spec.make()[0]
    reference = None
    if args.reference_app:
        reference = get_app(args.reference_app).make()[0]
    outcomes = fuzz_replay(trace, under_test, n_mutants=args.mutants,
                           seed=args.seed, max_cycles=args.max_cycles,
                           reference_factory=reference)
    print(render_fuzz(outcomes))
    return 0 if not any(o.verdict == "deadlock" for o in outcomes) else 1


def cmd_coverage(args) -> int:
    from repro.analysis.coverage import OrderingCoverage, render_coverage

    coverage = OrderingCoverage(window=args.window)
    for path in args.traces:
        added = coverage.add_trace(TraceFile.load(path))
        print(f"{path}: +{added} ordering observation(s)")
    print(render_coverage(coverage))
    return 0


# ----------------------------------------------------------------------
# run commands: one job each, run here or submitted to the daemon
# ----------------------------------------------------------------------


def _job_params(kind: str, args) -> dict:
    """The job params an argv set: every given ``JOB_PARAMS[kind]`` dest."""
    names = harness_jobs.JOB_PARAMS[kind]
    return {n: getattr(args, n) for n in names
            if getattr(args, n, None) is not None}


def _exit_code(result: dict) -> int:
    """1 on a divergence or a silent wrong-accept, else 0."""
    return 1 if (result.get("clean") is False
                 or result.get("silent_accepts")) else 0


def cmd_run(args) -> int:
    """Run one record/replay/divergence/salvage/campaign job here."""
    kind = args.command
    params = _job_params(kind, args)
    if kind == "record" and "save_to" not in params:
        raise ReproError("record needs -o/--output")
    result = harness_jobs.execute_job(kind, params,
                                      progress=lambda m: print(f"  {m}"))
    _SHOW[kind](result, params)
    return _exit_code(result)


def _show_record(result: dict, params: dict) -> None:
    if "checkpoints" in result:
        print(f"harvested {result['checkpoints']} quiescent checkpoint(s) "
              f"-> {params['checkpoints']}")
    for entry in result.get("faults", ()):
        print(f"fault: {entry}")
    print(f"recorded {result['label']}: {result['cycles']} cycles, "
          f"{result['transactions']} transactions, "
          f"{result['body_bytes']} trace bytes -> {params['save_to']}")
    flight = result.get("flight")
    if flight:
        print(f"flight recorder: {flight['retained_words']} of "
              f"{flight['retain_words']} word(s) retained, "
              f"{flight['anchors']} anchor(s), "
              f"{flight['evicted_epochs']} epoch(s) evicted, "
              f"dedup {flight['dedup_ratio']:.2f}x, "
              f"compressed {flight['compression_ratio']:.2f}x")
    if "kernel_profile" in result:
        print(f"\n{_render_kernel_profile(result['kernel_profile'])}\n\n"
              f"{_render_kernel_stats(result['kernel_stats'])}")


def _show_replay(result: dict, params: dict) -> None:
    info = result.get("salvage_info")
    if info:
        print(f"salvaged {info['packets']} packet(s) "
              f"({info['dropped_bytes']} byte(s) dropped): {info['reason']}")
    for entry in result.get("faults", ()):
        print(f"fault: {entry}")
    if "segments" in result:
        print(f"replayed {result['label']}: {result['segments']} segment(s), "
              f"critical path {result['critical_path_cycles']} of "
              f"{result['cycles']} total cycles")
    else:
        print(f"replayed {result['label']}: {result['cycles']} cycles "
              f"({result['warped_cycles']} warped in "
              f"{result['warp_jumps']} jump(s))")
    print(result["summary"])


def _show_divergence(result: dict, params: dict) -> None:
    print(f"divergence {result['label']}: recorded "
          f"{result['record_cycles']} cycles, replayed "
          f"{result['replay_cycles']} cycles")
    print(result["summary"])


def _show_salvage(result: dict, params: dict) -> None:
    info = result.get("salvage_info")
    if info:
        print(f"salvaged   : {info['packets']} packet(s), "
              f"{fmt_bytes(info['bytes'])} "
              f"(dropped {fmt_bytes(info['dropped_bytes'])})")
        print(f"reason     : {info['reason']}")
    else:
        print("trace is intact; no salvage needed")
    if "saved_to" in result:
        print(f"written to : {result['saved_to']}")


_SHOW = {"record": _show_record, "replay": _show_replay,
         "divergence": _show_divergence, "salvage": _show_salvage,
         "campaign": lambda result, params: print(result["report"])}


def _render_kernel_profile(rows: List[dict], top: int = 20) -> str:
    """Per-module comb/seq time shares as a harness-style table."""
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


def _add_positional(parser: argparse.ArgumentParser, dest: str,
                    text: str) -> None:
    # `vidi replay sha256 t.trace` and `vidi replay --app sha256
    # --trace-path t.trace` set the same params.
    parser.add_argument(dest, metavar=dest.split("_")[0], nargs="?",
                        help=text)
    parser.add_argument("--" + dest.replace("_", "-"), help=argparse.SUPPRESS)


def _add_scheduler(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scheduler", choices=("event", "fixpoint", "compiled"),
        help="simulation kernel (beats REPRO_SIM_SCHEDULER, which beats "
        "the simulator default)")


def _add_inject(parser: argparse.ArgumentParser, text: str) -> None:
    parser.add_argument("--inject", metavar="PLAN", help=text)
    parser.add_argument("--inject-seed", type=int, metavar="N",
                        help="seed for the fault plan's random choices")


def _recording_args(parser: argparse.ArgumentParser) -> None:
    """divergence's arguments: what selects one recording."""
    _add_positional(parser, "app", "registry key of the application")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--scale", type=float)
    _add_scheduler(parser)
    parser.add_argument("--flight-recorder", action="store_true",
                        help="record through the always-on flight recorder "
                        "(dedup + compressed ring retention); the output "
                        "is a v3 container of the retained window")
    for flag, text in (
            ("--retain-words", "ring retention budget in 64-byte words"),
            ("--dedup-slots", "content-dedup dictionary capacity"),
            ("--compress-level", "zlib level for the ring's RUN frames"),
            ("--anchor-stride", "cycles between re-anchor attempts")):
        parser.add_argument(flag, type=int, metavar="N", help=text,
                            dest="flight_" + flag[2:].replace("-", "_"))


def _record_args(parser: argparse.ArgumentParser) -> None:
    _recording_args(parser)
    parser.add_argument("-o", "--output", "--save-to", dest="save_to",
                        metavar="PATH", help="write the trace file here")
    parser.add_argument("--compress", action="store_true")
    parser.add_argument("--profile", action="store_true",
                        help="report per-module comb/seq kernel time shares")
    parser.add_argument("--checkpoints", metavar="PATH",
                        help="also harvest quiescent checkpoints to this "
                        "sidecar file (enables sharded replay)")
    _add_inject(parser, "arm a fault plan while recording, e.g. "
                "'store-bitflip:flips=2;channel-stall:cycles=200'")


def _replay_args(parser: argparse.ArgumentParser) -> None:
    _add_positional(parser, "app", "registry key of the application")
    _add_positional(parser, "trace_path", "trace file")
    parser.add_argument("--jobs", type=int, metavar="N",
                        help="checkpoint-sharded parallel replay across N "
                        "worker processes (needs --checkpoints)")
    parser.add_argument("--checkpoints", metavar="PATH",
                        help="sidecar written by `record --checkpoints`")
    parser.add_argument("--no-time-warp", action="store_true",
                        help="disable quiescent-gap skipping")
    parser.add_argument("--salvage", action="store_true",
                        help="recover a damaged/partial trace first")
    _add_inject(parser, "arm a fault plan during replay, e.g. "
                "'worker-crash:crashes=1' (sharded mode)")
    _add_scheduler(parser)


def _salvage_args(parser: argparse.ArgumentParser) -> None:
    _add_positional(parser, "trace_path", "trace file")
    parser.add_argument("-o", "--output", "--save-to", dest="save_to",
                        metavar="PATH", help="write the recovered trace here")


def _campaign_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--app", help="app hosting the per-trial "
                        "record/replay faults (default sha256)")
    parser.add_argument("--crash-app", help="checkpoint-yielding app for "
                        "worker-crash trials (default dram_dma)")
    parser.add_argument("--faults", type=int, dest="n_faults",
                        help="fault count (default 200)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--batch-size", type=int, metavar="N",
                        help="run the faulted record legs N at a time on "
                        "one batch kernel (bit-identical verdicts)")
    parser.add_argument("--flight-recorder", action="store_true",
                        help="record legs through the flight recorder "
                        "(the default)")
    parser.add_argument("--no-flight-recorder", action="store_false",
                        dest="flight_recorder",
                        help="flat record legs, v2 container attacks")
    _add_scheduler(parser)


# Each run command's argument builder, shared by `vidi <kind>` and
# `vidi submit <kind>` (both parsers default every argument to absent);
# every dest is a JOB_PARAMS[kind] name.
_RUN_COMMANDS = {
    "record": (_record_args, "record one application run"),
    "replay": (_replay_args, "replay and validate a trace"),
    "divergence": (_recording_args, "record, replay and compare one run"),
    "salvage": (_salvage_args, "recover what survives of a damaged trace"),
    "campaign": (_campaign_args, "seeded fault-injection campaign "
                 "(exit 1 on any silent wrong-accept)"),
}


# ----------------------------------------------------------------------
# paper artefacts and the schedule cache
# ----------------------------------------------------------------------

FAST = ("table2", "fig7", "panopticon")
ALL = ("table1", "table2", "fig7", "divergence", "timewarp", "panopticon",
       "case-debugging", "case-testing")


def _artifact(name: str, runs: int, jobs: Optional[int] = None) -> str:
    from repro.harness import experiments as exp

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


def cmd_artifact(args) -> int:
    """Regenerate paper artefacts; print them, optionally save them."""
    names = {"all": ALL, "fast": FAST}.get(args.artifact, (args.artifact,))
    pieces = []
    for name in names:
        text = _artifact(name, args.runs, jobs=args.jobs)
        print(text)
        print()
        pieces.append(text)
    if args.output:
        Path(args.output).write_text("\n\n".join(pieces) + "\n")
    return 0


def cmd_cache(args) -> int:
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


# ----------------------------------------------------------------------
# trace service (daemon + client)
# ----------------------------------------------------------------------


def cmd_serve(args) -> int:
    """Run the trace-service daemon in the foreground."""
    from repro.service.server import TraceService

    service = TraceService(args.data_dir, jobs=args.jobs, host=args.host,
                           port=args.port, cache_dir=args.cache_dir,
                           retain_words=args.retain_words)
    print(f"trace service listening on {service.endpoint} "
          f"(data dir {service.data_dir}, {args.jobs} job slot(s))")
    sys.stdout.flush()
    service.serve_forever()
    return 0


def cmd_submit(args) -> int:
    """Submit one job to a running daemon; optionally wait for it."""
    import json as _json

    from repro.service.client import ServiceClient

    client = ServiceClient(data_dir=args.data_dir, endpoint=args.endpoint)
    job_id = client.submit(args.job_kind, _job_params(args.job_kind, args),
                           priority=args.priority)
    print(f"submitted {args.job_kind} as {job_id}")
    if not args.wait:
        return 0
    detail = client.wait(job_id, timeout=args.timeout)
    print(_json.dumps(detail["result"], indent=2, sort_keys=True))
    return _exit_code(detail["result"] or {})


def cmd_status(args) -> int:
    """Show a running daemon's queue/ingest/results summary."""
    import json as _json

    from repro.service.client import ServiceClient

    client = ServiceClient(data_dir=args.data_dir, endpoint=args.endpoint)
    status = client.status(args.job) if args.job else client.status()
    print(_json.dumps(status, indent=2, sort_keys=True))
    return 0


def cmd_results(args) -> int:
    """Query the persistent results store (live daemon or direct file)."""
    import json as _json

    if args.endpoint or (args.data_dir and _service_live(args.data_dir)):
        from repro.service.client import ServiceClient

        client = ServiceClient(data_dir=args.data_dir,
                               endpoint=args.endpoint)
        records = client.results(kind=args.kind, name=args.name,
                                 limit=args.limit)
    else:
        # No live daemon: read the store file directly (same framing).
        from repro.service.results import ResultsStore
        from repro.service.server import RESULTS_FILENAME

        store = ResultsStore(f"{args.data_dir}/{RESULTS_FILENAME}")
        records = store.records(kind=args.kind, name=args.name,
                                limit=args.limit)
    print(_json.dumps(records, indent=2, sort_keys=True))
    return 0


def _service_live(data_dir: str) -> bool:
    from repro.service.server import SERVICE_FILENAME

    return (Path(data_dir) / SERVICE_FILENAME).exists()


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    # Under `vidi submit <kind>` (argument_default SUPPRESS) these repeat
    # `vidi submit`'s own options without defaults, so a value given
    # before the kind survives the kind's parser.
    absent = parser.argument_default
    parser.add_argument("--data-dir", default=absent or ".vidi-service",
                        metavar="DIR",
                        help="the daemon's data directory (journals, "
                        "results store, service.json endpoint file)")
    parser.add_argument("--endpoint", default=absent, metavar="URL",
                        help="explicit http://host:port (overrides the "
                        "data dir's service.json)")


def _add_submit_args(parser: argparse.ArgumentParser) -> None:
    _add_service_args(parser)
    absent = parser.argument_default
    parser.add_argument("--priority", type=int, default=absent or 10,
                        help="lower runs first; FIFO within a level")
    parser.add_argument("--wait", action="store_true",
                        help="block until the job finishes and print its "
                        "result (exit 1 on divergence/silent-accepts)")
    parser.add_argument("--timeout", type=float, default=absent or 600.0)


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vidi", description="Record, replay and analyse Vidi traces; "
        "regenerate the paper's artefacts; run the trace service")
    sub = parser.add_subparsers(dest="command", required=True)

    for kind, (add_args, text) in _RUN_COMMANDS.items():
        p_run = sub.add_parser(kind, help=text,
                               argument_default=argparse.SUPPRESS)
        add_args(p_run)
        _add_cache_arg(p_run)
        p_run.set_defaults(func=cmd_run)

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
    p_art.set_defaults(func=cmd_artifact)

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the on-disk compiled-schedule "
        "cache shared by --cache-dir runs")
    p_cache.add_argument("action", choices=("stats", "clear"))
    _add_cache_arg(p_cache)
    p_cache.set_defaults(func=cmd_cache)

    p_info = sub.add_parser("info", help="header and channel table")
    p_info.add_argument("trace")
    p_info.set_defaults(func=cmd_info)

    p_stats = sub.add_parser("stats", help="per-channel transaction counts")
    p_stats.add_argument("trace")
    p_stats.add_argument("--all", action="store_true",
                         help="include channels with no traffic")
    p_stats.set_defaults(func=cmd_stats)

    p_dump = sub.add_parser("dump", help="list transaction events")
    p_dump.add_argument("trace")
    p_dump.add_argument("--channel", help="restrict to one channel name")
    p_dump.add_argument("--limit", type=int, default=0,
                        help="stop after N events (0 = all)")
    p_dump.set_defaults(func=cmd_dump)

    p_diff = sub.add_parser(
        "diff", help="compare a reference and a validation trace (§3.6)")
    p_diff.add_argument("reference")
    p_diff.add_argument("validation")
    p_diff.set_defaults(func=cmd_diff)

    p_mut = sub.add_parser("mutate", help="reorder/drop/rewrite events (§5.3)")
    p_mut.add_argument("trace")
    p_mut.add_argument("-o", "--output", required=True)
    p_mut.add_argument("--move-end-before", nargs=2, action="append",
                       metavar=("MOVED", "ANCHOR"),
                       help="reorder end MOVED (CH:OCC) before end ANCHOR")
    p_mut.add_argument("--drop-end", action="append", metavar="CH:OCC")
    p_mut.add_argument("--drop-start", action="append", metavar="CH:OCC")
    p_mut.add_argument("--rewrite-content", nargs=2, action="append",
                       metavar=("CH:OCC", "HEX"))
    p_mut.add_argument("--force", action="store_true",
                       help="write even if the result fails validation")
    p_mut.set_defaults(func=cmd_mutate)

    p_prof = sub.add_parser("profile",
                            help="per-channel throughput/latency profile")
    p_prof.add_argument("trace")
    p_prof.add_argument("--buckets", type=int, default=20)
    p_prof.set_defaults(func=cmd_profile)

    p_aud = sub.add_parser("audit",
                           help="check DMA addresses against a policy")
    p_aud.add_argument("trace")
    p_aud.add_argument("--allow", action="append",
                       metavar="IFACE:OPS:BASE:LEN",
                       help="allowed window, e.g. pcim:write:0x10000:0x1000")
    p_aud.set_defaults(func=cmd_audit)

    p_cov = sub.add_parser("coverage",
                           help="ordering coverage across traces")
    p_cov.add_argument("traces", nargs="+")
    p_cov.add_argument("--window", type=int, default=4)
    p_cov.set_defaults(func=cmd_coverage)

    p_fuzz = sub.add_parser(
        "fuzz", help="replay random mutations of a trace against an app "
        "(exit 1 when a deadlock bug is found)")
    p_fuzz.add_argument("app", nargs="?", default=None,
                        help="registry key of the design under test "
                        "(not needed with --frames)")
    p_fuzz.add_argument("trace")
    p_fuzz.add_argument("--mutants", type=int, default=20)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--max-cycles", type=int, default=20_000)
    p_fuzz.add_argument("--reference-app",
                        help="known-good design for causal triage")
    p_fuzz.add_argument("--frames", action="store_true",
                        help="fuzz the container framing instead of the "
                        "event semantics (exit 1 on any silent accept)")
    p_fuzz.add_argument("--container", type=int, default=2, choices=(2, 3),
                        help="container version --frames targets: 2 "
                        "(CRC-framed body) or 3 (flight-recorder frames, "
                        "incl. the CRC-refixed backref mutant)")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_serve = sub.add_parser(
        "serve", help="run the trace-service daemon (async ingest, job "
        "queue over the warm pool, persistent results store)")
    p_serve.add_argument("--data-dir", default=".vidi-service",
                         metavar="DIR")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="0 picks a free port (written to "
                         "service.json in the data dir)")
    p_serve.add_argument("--jobs", type=int, default=4,
                         help="warm-pool width = concurrent jobs")
    p_serve.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="compiled-schedule cache shared by workers")
    from repro.core.config import DEFAULT_FLIGHT_RETAIN_WORDS

    p_serve.add_argument("--retain-words", type=int,
                         default=DEFAULT_FLIGHT_RETAIN_WORDS,
                         help="per-tenant live ring retention budget")
    p_serve.set_defaults(func=cmd_serve)

    p_sub = sub.add_parser(
        "submit", help="submit a record/replay/divergence/salvage/"
        "campaign job to a running daemon")
    _add_submit_args(p_sub)
    submit_kinds = p_sub.add_subparsers(dest="job_kind", required=True)
    for kind, (add_args, text) in _RUN_COMMANDS.items():
        p_kind = submit_kinds.add_parser(
            kind, help=text, argument_default=argparse.SUPPRESS)
        add_args(p_kind)
        _add_submit_args(p_kind)
    p_sub.set_defaults(func=cmd_submit)

    p_stat = sub.add_parser(
        "status", help="a running daemon's queue/ingest/results summary")
    _add_service_args(p_stat)
    p_stat.add_argument("--job", default=None, metavar="JOB_ID",
                        help="show one job's full detail instead")
    p_stat.set_defaults(func=cmd_status)

    p_res = sub.add_parser(
        "results", help="query the persistent results store (live daemon "
        "or its on-disk file)")
    _add_service_args(p_res)
    p_res.add_argument("--kind", default=None,
                       help="filter: job | bench | ...")
    p_res.add_argument("--name", default=None,
                       help="filter: job kind or bench name")
    p_res.add_argument("--limit", type=int, default=None,
                       help="newest N records")
    p_res.set_defaults(func=cmd_results)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if getattr(args, "cache_dir", None):
        from repro.sim import schedule_store

        schedule_store.configure(args.cache_dir)
    try:
        return args.func(args)
    except (ReproError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:   # e.g. piping into `head`
        return 0
