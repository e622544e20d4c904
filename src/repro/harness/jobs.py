"""The one executor behind every record/replay/campaign command.

:func:`execute_job` runs one ``(kind, params)`` job: ``vidi <kind>`` in
the CLI's own process, ``vidi submit <kind>`` and the trace-service
daemon on a warm-pool worker — one implementation, so a job is
bit-identical whichever way it ran (the differential tests pin this with
content digests). Params and results are plain JSON-safe values.
:data:`JOB_PARAMS` declares each kind's param names and types once; the
CLI uses them as argparse ``dest``s and :func:`check_job` validates every
job against them, at daemon submit time and again before it runs.

``record`` returns the trace blob's SHA-256 and record metrics (with
``save_to`` it also writes the blob; ``inject`` arms a fault plan);
``replay`` replays ``trace_path``, sharded across ``jobs`` workers at the
flight trace's ANCHOR frames when asked, and returns the verdict and the
validation digest;
``divergence`` records then replays; ``salvage`` reports what survives
of a damaged container; ``campaign`` returns every fault trial's
verdict, a digest over them and the rendered report.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from repro.errors import ConfigError
from repro.sim.simulator import SCHEDULERS

__all__ = ["execute_job", "check_job", "JobParamError", "JOB_KINDS",
           "JOB_PARAMS"]

_RECORDING = {
    "app": str, "seed": int, "scale": float, "scheduler": str,
    "flight_recorder": bool, "flight_retain_words": int,
    "flight_dedup_slots": int, "flight_anchor_stride": int,
}
_INJECT = {"inject": str, "inject_seed": int}

JOB_PARAMS: Dict[str, Dict[str, type]] = {
    "record": {**_RECORDING, **_INJECT, "save_to": str, "profile": bool},
    "replay": {"app": str, "trace_path": str, "scheduler": str,
               "salvage": bool, "no_time_warp": bool, "jobs": int,
               **_INJECT},
    "divergence": _RECORDING,
    "salvage": {"trace_path": str, "save_to": str},
    "campaign": {"app": str, "n_faults": int, "seed": int, "crash_app": str,
                 "scheduler": str, "flight_recorder": bool},
}
JOB_KINDS = tuple(JOB_PARAMS)

_REQUIRED = {"record": ("app",), "replay": ("app", "trace_path"),
             "divergence": ("app",), "salvage": ("trace_path",)}


class JobParamError(ConfigError, ValueError):
    """An unknown job kind or invalid params (the daemon answers 400)."""


def check_job(kind: str, params: Dict[str, Any]) -> None:
    """Raise :class:`JobParamError` unless ``params`` fit job ``kind``."""
    if kind not in JOB_PARAMS:
        raise JobParamError(f"unknown job kind {kind!r} "
                            f"(expected one of {', '.join(JOB_KINDS)})")
    types = JOB_PARAMS[kind]
    for name, value in params.items():
        if name not in types:
            raise JobParamError(f"unknown {kind} job param {name!r} "
                                f"(expected any of {', '.join(types)})")
        want = types[name]
        if not (isinstance(value, (int, float) if want is float else want)
                and (want is bool or not isinstance(value, bool))):
            raise JobParamError(f"{kind} job param {name!r} must be "
                                f"{want.__name__}, got {value!r}")
    for name in _REQUIRED.get(kind, ()):
        if name not in params:
            raise JobParamError(f"{kind} job needs {name!r}")
    if "scheduler" in params and params["scheduler"] not in SCHEDULERS:
        raise JobParamError(f"{kind} job param 'scheduler' must be one of "
                            f"{', '.join(SCHEDULERS)}, got "
                            f"{params['scheduler']!r}")
    if (kind == "replay" and params.get("inject")
            and params.get("jobs", 0) <= 1):
        raise JobParamError("inject on replay arms worker-crash faults, "
                            "which need sharded mode (jobs > 1)")


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _injector(params: Dict[str, Any]):
    if not params.get("inject"):
        return None
    from repro.faults import FaultInjector

    return FaultInjector.from_text(params["inject"],
                                   seed=params.get("inject_seed", 0))


def _record(params: Dict[str, Any], out: Dict[str, Any], **kwargs):
    """``(spec, record_run(spec, config, ...))`` for the recording
    ``params`` select; notes the app and seed in ``out``.
    """
    from repro.apps.registry import get_app
    from repro.core import VidiConfig
    from repro.harness.runner import bench_config, record_run

    spec = get_app(params["app"])
    flight = {}
    if params.get("flight_recorder"):
        flight = {k: v for k, v in params.items() if k.startswith("flight_")}
    out.update(app=spec.key, label=spec.label, seed=params.get("seed", 0))
    return spec, record_run(
        spec, bench_config(VidiConfig.r2, **flight), seed=out["seed"],
        scale=params.get("scale"), scheduler=params.get("scheduler"),
        **kwargs)


def _verdict(trace, validation, out: Dict[str, Any]) -> Dict[str, Any]:
    """Compare ``validation`` to ``trace``; ``out`` gets digest + verdict."""
    from repro.core import compare_traces

    report = compare_traces(trace, validation)
    out.update(validation_sha256=_sha(bytes(validation.body)),
               clean=report.clean, divergences=len(report.divergences),
               output_transactions=report.output_transactions,
               channels_compared=report.channels_compared,
               summary=report.summary())
    return out


def _replay(spec, trace, params: Dict[str, Any],
            out: Dict[str, Any]) -> Dict[str, Any]:
    from repro.harness.runner import replay_run

    metrics = replay_run(spec, trace, scheduler=params.get("scheduler"),
                         time_warp=False if params.get("no_time_warp")
                         else None)
    sim = metrics.result["deployment"].sim
    out.update(cycles=metrics.cycles, warped_cycles=sim.warped_cycles,
               warp_jumps=sim.warp_jumps)
    return _verdict(trace, metrics.result["validation"], out)


def _load(params: Dict[str, Any], salvage: bool, out: Dict[str, Any]):
    """Load ``trace_path``, noting in ``out`` whether it was salvaged."""
    from repro.core import TraceFile

    trace = TraceFile.load(params["trace_path"], salvage=salvage)
    out["salvaged"] = trace.salvaged
    if trace.salvaged:
        out["salvage_info"] = trace.metadata["salvaged"]
    return trace


def _job_record(params: Dict[str, Any], progress) -> Dict[str, Any]:
    out: Dict[str, Any] = {"kind": "record"}
    injector = _injector(params)
    _, metrics = _record(
        params, out, profile=params.get("profile", False),
        before_run=injector.arm_recording if injector else None)
    trace = metrics.result["trace"]
    if params.get("flight_recorder"):
        # The retained ring verbatim: its frames as the recorder cut them.
        blob = metrics.result["flight_blob"]
        out["flight"] = metrics.result["flight"]
    else:
        blob = trace.to_bytes()
    if injector is not None:
        blob = injector.mangle_blob(blob)
        out["faults"] = list(injector.log)
    out.update(cycles=metrics.cycles,
               transactions=metrics.monitored_transactions,
               body_bytes=trace.size_bytes, trace_bytes=len(blob),
               trace_sha256=_sha(blob))
    if params.get("profile"):
        out.update(kernel_profile=metrics.result["kernel_profile"],
                   kernel_stats=metrics.result["kernel_stats"])
    if params.get("save_to"):
        Path(params["save_to"]).write_bytes(blob)
        out["saved_to"] = params["save_to"]
    return out


def _job_replay(params: Dict[str, Any], progress) -> Dict[str, Any]:
    from repro.apps.registry import get_app

    spec = get_app(params["app"])
    out: Dict[str, Any] = {"kind": "replay", "app": spec.key,
                           "label": spec.label}
    trace = _load(params, params.get("salvage", False), out)
    if params.get("jobs", 0) <= 1:
        return _replay(spec, trace, params, out)
    from repro.harness.sharded_replay import replay_sharded
    from repro.harness.worker_pool import shutdown_pool

    injector = _injector(params)
    try:
        result = replay_sharded(
            spec, trace, jobs=params["jobs"], injector=injector,
            time_warp=False if params.get("no_time_warp") else None,
            scheduler=params.get("scheduler"))
    finally:
        # In a daemon worker the shards ran on a pool of its own; stop
        # it rather than keep idle grandchildren alive between jobs.
        shutdown_pool()
    if injector is not None:
        out["faults"] = list(injector.log)
    out.update(cycles=result.total_cycles, segments=result.segments,
               critical_path_cycles=result.critical_path_cycles)
    return _verdict(trace, result.validation, out)


def _job_divergence(params: Dict[str, Any], progress) -> Dict[str, Any]:
    out: Dict[str, Any] = {"kind": "divergence"}
    spec, metrics = _record(params, out)
    trace = metrics.result["trace"]
    out.update(record_cycles=metrics.cycles,
               trace_sha256=_sha(bytes(trace.body)))
    _replay(spec, trace, params, out)
    out["replay_cycles"] = out.pop("cycles")
    return out


def _job_salvage(params: Dict[str, Any], progress) -> Dict[str, Any]:
    out: Dict[str, Any] = {"kind": "salvage"}
    trace = _load(params, True, out)
    out.update(packets=trace.packet_count,
               body_sha256=_sha(bytes(trace.body)))
    if params.get("save_to"):
        trace.save(params["save_to"])
        out["saved_to"] = params["save_to"]
    return out


def _job_campaign(params: Dict[str, Any], progress) -> Dict[str, Any]:
    from repro.faults import run_campaign
    from repro.harness.worker_pool import shutdown_pool

    try:
        # The campaign params are run_campaign's keyword arguments.
        report = run_campaign(progress=progress, **params)
    finally:
        # Inside a daemon worker the crash trials' sharded replays build
        # a pool of their own; stop it now rather than keep its idle
        # processes alive until the worker exits.
        shutdown_pool()
    trials = [[t.index, t.kind, t.seed, t.outcome, t.detail]
              for t in report.trials]
    digest = hashlib.sha256()
    for row in trials:
        digest.update(repr(row).encode())
    return {"kind": "campaign", "app": report.app, "seed": report.seed,
            "faults": len(report.trials),
            "kinds_exercised": report.kinds_exercised,
            "silent_accepts": len(report.silent_accepts), "trials": trials,
            "trials_sha256": digest.hexdigest(), "report": report.render()}


_HANDLERS = {
    "record": _job_record,
    "replay": _job_replay,
    "divergence": _job_divergence,
    "salvage": _job_salvage,
    "campaign": _job_campaign,
}


def execute_job(kind: str, params: Dict[str, Any],
                progress: Optional[Callable[[str], None]] = None,
                ) -> Dict[str, Any]:
    """Validate and run one job in the calling process.

    Top-level and picklable by construction: the warm pool ships
    ``(execute_job, kind, params)`` to a worker whose ``_warm_init`` has
    already pre-imported the harness and preloaded the disk schedules.
    ``progress`` receives a campaign's progress lines.
    """
    params = dict(params or {})
    check_job(kind, params)
    return _HANDLERS[kind](params, progress)

