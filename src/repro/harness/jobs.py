"""Picklable job adapters for the trace-service daemon.

The daemon's job queue dispatches work onto the process-persistent warm
pool (:mod:`repro.harness.worker_pool`), which means every job must be a
top-level function taking and returning plain picklable values. This
module is that boundary: one entry point, :func:`execute_job`, that maps
a ``(kind, params)`` pair onto the same harness code paths the CLI runs —
*the same* paths, not re-implementations, so a job submitted through the
daemon is bit-identical to its CLI equivalent (the differential tests
pin this with content digests).

Job kinds:

``record``
    Record one app run (optionally through the flight recorder) and
    return the serialized trace's SHA-256 plus record metrics; with
    ``save_to`` the blob is also written to disk, byte-identical to
    ``python -m repro.harness record``'s output file.
``replay``
    Replay a saved trace (``trace_path``) or inline blob (``trace_hex``)
    and return the divergence verdict plus the validation body digest.
``divergence``
    Record then replay in one job; returns both digests and the verdict.
``salvage``
    Salvage-load a damaged container and report what survived.
``campaign``
    A seeded fault campaign; returns every trial verdict (index, kind,
    seed, outcome, detail) plus a digest over the trial tuples.

All results are JSON-safe dicts — the daemon persists them verbatim into
the results store.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

__all__ = ["execute_job", "job_affinity", "JOB_KINDS"]

JOB_KINDS = ("record", "replay", "divergence", "salvage", "campaign")


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _record_config(params: Dict[str, Any]):
    """The exact config the CLI record path builds for these params."""
    from repro.core import VidiConfig
    from repro.harness.runner import bench_config

    overrides: Dict[str, Any] = {}
    if params.get("flight_recorder"):
        overrides["flight_recorder"] = True
        for key in ("flight_retain_words", "flight_dedup_slots",
                    "flight_compress_level", "flight_anchor_stride"):
            if params.get(key) is not None:
                overrides[key] = params[key]
    return bench_config(VidiConfig.r2, **overrides)


def _job_record(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.apps.registry import get_app
    from repro.harness.runner import record_run

    spec = get_app(params["app"])
    metrics = record_run(spec, _record_config(params),
                         seed=int(params.get("seed", 0)),
                         scale=params.get("scale"),
                         scheduler=params.get("scheduler"))
    trace = metrics.result["trace"]
    if params.get("flight_recorder"):
        blob = metrics.result["flight_blob"]
    else:
        blob = trace.to_bytes(compress=bool(params.get("compress", False)))
    out: Dict[str, Any] = {
        "kind": "record",
        "app": spec.key,
        "seed": int(params.get("seed", 0)),
        "cycles": metrics.cycles,
        "transactions": metrics.monitored_transactions,
        "trace_bytes": len(blob),
        "trace_sha256": _sha(blob),
    }
    if params.get("flight_recorder"):
        out["flight"] = metrics.result["flight"]
    if params.get("save_to"):
        Path(params["save_to"]).write_bytes(blob)
        out["saved_to"] = str(params["save_to"])
    return out


def _load_trace(params: Dict[str, Any], salvage: bool = False):
    from repro.core import TraceFile

    if params.get("trace_hex") is not None:
        return TraceFile.from_bytes(bytes.fromhex(params["trace_hex"]),
                                    salvage=salvage)
    return TraceFile.load(params["trace_path"], salvage=salvage)


def _verdict(report) -> Dict[str, Any]:
    return {
        "clean": report.clean,
        "divergences": len(report.divergences),
        "output_transactions": report.output_transactions,
        "channels_compared": report.channels_compared,
        "summary": report.summary(),
    }


def _job_replay(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.apps.registry import get_app
    from repro.core import compare_traces
    from repro.harness.runner import replay_run

    spec = get_app(params["app"])
    trace = _load_trace(params, salvage=bool(params.get("salvage", False)))
    time_warp = False if params.get("no_time_warp") else None
    metrics = replay_run(spec, trace, time_warp=time_warp,
                         scheduler=params.get("scheduler"))
    validation = metrics.result["validation"]
    report = compare_traces(trace, validation)
    out: Dict[str, Any] = {
        "kind": "replay",
        "app": spec.key,
        "cycles": metrics.cycles,
        "validation_sha256": _sha(bytes(validation.body)),
        "salvaged": trace.salvaged,
    }
    out.update(_verdict(report))
    return out


def _job_divergence(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.apps.registry import get_app
    from repro.core import compare_traces
    from repro.harness.runner import record_run, replay_run

    spec = get_app(params["app"])
    metrics = record_run(spec, _record_config(params),
                         seed=int(params.get("seed", 0)),
                         scale=params.get("scale"),
                         scheduler=params.get("scheduler"))
    trace = metrics.result["trace"]
    replay = replay_run(spec, trace, scheduler=params.get("scheduler"))
    validation = replay.result["validation"]
    report = compare_traces(trace, validation)
    out: Dict[str, Any] = {
        "kind": "divergence",
        "app": spec.key,
        "seed": int(params.get("seed", 0)),
        "record_cycles": metrics.cycles,
        "replay_cycles": replay.cycles,
        "trace_sha256": _sha(bytes(trace.body)),
        "validation_sha256": _sha(bytes(validation.body)),
    }
    out.update(_verdict(report))
    return out


def _job_salvage(params: Dict[str, Any]) -> Dict[str, Any]:
    trace = _load_trace(params, salvage=True)
    out: Dict[str, Any] = {
        "kind": "salvage",
        "salvaged": trace.salvaged,
        "packets": trace.packet_count,
        "body_sha256": _sha(bytes(trace.body)),
    }
    if trace.salvaged:
        out["salvage_info"] = trace.metadata.get("salvaged")
    return out


def _job_campaign(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.faults import run_campaign
    from repro.harness.worker_pool import shutdown_pool

    try:
        report = run_campaign(
            app=params.get("app", "sha256"),
            n_faults=int(params.get("n_faults", 200)),
            seed=int(params.get("seed", 0)),
            crash_app=params.get("crash_app", "dram_dma"),
            scheduler=params.get("scheduler"),
            batch_size=params.get("batch_size"),
            flight_recorder=params.get("flight_recorder"),
        )
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
    return {
        "kind": "campaign",
        "app": report.app,
        "seed": report.seed,
        "faults": len(report.trials),
        "kinds_exercised": report.kinds_exercised,
        "silent_accepts": len(report.silent_accepts),
        "trials": trials,
        "trials_sha256": digest.hexdigest(),
    }


_HANDLERS = {
    "record": _job_record,
    "replay": _job_replay,
    "divergence": _job_divergence,
    "salvage": _job_salvage,
    "campaign": _job_campaign,
}


def execute_job(kind: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job in the calling process; see the module docstring.

    Top-level and picklable by construction: the warm pool ships
    ``(execute_job, kind, params)`` to a worker whose ``_warm_init`` has
    already pre-imported the harness and pre-bound the disk schedules.
    """
    if kind not in _HANDLERS:
        raise ValueError(f"unknown job kind {kind!r} "
                         f"(expected one of {', '.join(JOB_KINDS)})")
    return _HANDLERS[kind](dict(params or {}))


def job_affinity(kind: str, params: Dict[str, Any]) -> Optional[Tuple]:
    """Topology-affinity key for the daemon's warm-pool routing.

    Everything that feeds the compiled-schedule key — app, scale,
    scheduler, flight mode — without per-job noise like seeds, so jobs
    that share a kernel land on a worker that has already bound it.
    """
    params = params or {}
    if kind == "salvage":
        return None    # pure parsing, no kernel to share
    return ("job", kind if kind != "divergence" else "record",
            params.get("app", "sha256"), params.get("scale"),
            params.get("scheduler"),
            bool(params.get("flight_recorder")))
