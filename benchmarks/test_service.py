"""Trace-service bench — daemon batch throughput + ingest overhead.

Not a paper artefact: gates the two perf claims the fleet-scale daemon
makes (the trace-service daemon), in ``BENCH_service.json``:

* **Daemon batch speedup.** A 32-job mixed batch (record sweeps, replays
  of a shared trace, small fault campaigns) submitted to an embedded
  daemon and executed over the warm worker pool, versus the same 32 jobs
  as sequential CLI invocations — each paying interpreter start-up,
  ``repro`` import and kernel compilation from scratch. The daemon is
  resident: a short warm-up batch (one job of each kind, outside the
  timer) stands in for the fleet steady state, where thousands of queued
  jobs share one set of live workers and warm compiled kernels instead
  of recompiling per CLI call. The daemon must win by ≥2×. Record jobs
  cross-check digests against the CLI's output files: a speedup bought
  with different bytes is a failure, not a win.

* **Ingest overhead.** A flight recording streamed live into the daemon
  (`FlightStreamer` observer + background sender) versus the same
  recording standalone. Streaming must stay within the flight recorder's
  own ≤1.15× record-overhead budget — the observer only appends bytes to
  a buffer; all network latency lands on the sender thread.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from conftest import RESULTS_DIR

from repro.harness import worker_pool
from repro.sim import schedule_store

BATCH_SPEEDUP_FLOOR = 2.0
INGEST_OVERHEAD_CEILING = 1.15
N_RECORD, N_REPLAY, N_CAMPAIGN = 16, 8, 8    # the 32-job mixed batch
DAEMON_JOBS = 4

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _merge_report(section, payload):
    """BENCH_service.json carries both gates; update one section in place."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_service.json"
    report = {}
    if path.exists():
        try:
            report = json.loads(path.read_text())
        except ValueError:
            report = {}
    report[section] = payload
    path.write_text(json.dumps(report, indent=2) + "\n")


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_cli(args, env):
    proc = subprocess.run([sys.executable, "-m", "repro.tools"] + args,
                          env=env, capture_output=True)
    assert proc.returncode == 0, (
        f"CLI baseline failed: {args}\n{proc.stderr.decode()}")


def test_daemon_batch_beats_sequential_cli(emit, tmp_path):
    from repro.service.client import ServiceClient
    from repro.service.server import TraceService

    env = _cli_env()
    cli_dir = tmp_path / "cli"
    cli_dir.mkdir()

    # Shared replay input, recorded once up front (outside both timers).
    shared_trace = tmp_path / "shared.trace"
    _run_cli(["record", "sha256", "-o", str(shared_trace), "--seed", "99",
              "--scheduler", "compiled"], env)

    # Campaigns host the crash trials on sha256 (no checkpoint support →
    # the crash legs resolve cheaply) so the batch stays a *mix* instead
    # of 8 jobs of multi-second checkpointed dram_dma shard replays that
    # would drown the per-invocation costs this bench is about.
    campaign_cli = ["--faults", "2", "--crash-app", "sha256"]
    campaign_params = {"n_faults": 2, "crash_app": "sha256"}

    # -- baseline: 32 sequential CLI invocations --------------------------
    t0 = perf_counter()
    for i in range(N_RECORD):
        _run_cli(["record", "sha256", "-o", str(cli_dir / f"r{i}.trace"),
                  "--seed", str(i), "--scheduler", "compiled"], env)
    for _ in range(N_REPLAY):
        _run_cli(["replay", "sha256", str(shared_trace),
                  "--scheduler", "compiled"], env)
    for i in range(N_CAMPAIGN):
        _run_cli(["campaign", "--seed", str(i)] + campaign_cli, env)
    t_cli = perf_counter() - t0
    cli_shas = {i: hashlib.sha256(
        (cli_dir / f"r{i}.trace").read_bytes()).hexdigest()
        for i in range(N_RECORD)}

    # -- daemon: the same 32 jobs through the queue + warm pool -----------
    worker_pool.shutdown_pool()
    prev_cache = schedule_store.cache_dir()
    service = TraceService(tmp_path / "svc", jobs=DAEMON_JOBS,
                           cache_dir=str(tmp_path / "sched")).run_in_thread()
    try:
        client = ServiceClient(data_dir=service.data_dir)
        # Warm-up: one job of each kind, outside the timer. The daemon is
        # long-lived — in steady state its workers are already imported
        # and its kernels already compiled; the sequential CLI rebuilds
        # that state on every invocation by construction.
        for job_id in [
            client.submit("record", {"app": "sha256", "seed": 999,
                                     "scheduler": "compiled"}),
            client.submit("replay", {"app": "sha256",
                                     "trace_path": str(shared_trace),
                                     "scheduler": "compiled"}),
            client.submit("campaign", dict(campaign_params, seed=999)),
        ]:
            client.wait(job_id, timeout=600.0)

        t0 = perf_counter()
        ids = []
        for i in range(N_RECORD):
            ids.append(("record", i, client.submit(
                "record", {"app": "sha256", "seed": i,
                           "scheduler": "compiled"})))
        for _ in range(N_REPLAY):
            ids.append(("replay", None, client.submit(
                "replay", {"app": "sha256", "trace_path": str(shared_trace),
                           "scheduler": "compiled"})))
        for i in range(N_CAMPAIGN):
            ids.append(("campaign", i, client.submit(
                "campaign", dict(campaign_params, seed=i))))
        details = {job_id: client.wait(job_id, timeout=600.0)
                   for _, _, job_id in ids}
        t_daemon = perf_counter() - t0

        # Bit-identity: daemon record jobs == CLI record outputs.
        for kind, i, job_id in ids:
            result = details[job_id]["result"]
            if kind == "record":
                assert result["trace_sha256"] == cli_shas[i], (
                    f"daemon record seed={i} diverged from the CLI blob")
            elif kind == "replay":
                assert result["clean"], result["summary"]
            else:
                assert result["silent_accepts"] == 0
    finally:
        service.shutdown()
        # The embedded daemon set this process's schedule-cache directory.
        schedule_store.configure(prev_cache)

    speedup = t_cli / t_daemon
    _merge_report("daemon_batch", {
        "jobs": N_RECORD + N_REPLAY + N_CAMPAIGN,
        "mix": {"record": N_RECORD, "replay": N_REPLAY,
                "campaign": N_CAMPAIGN},
        "daemon_slots": DAEMON_JOBS,
        "sequential_cli_s": round(t_cli, 2),
        "daemon_s": round(t_daemon, 2),
        "speedup": round(speedup, 2),
        "speedup_floor": BATCH_SPEEDUP_FLOOR,
    })
    emit("service_daemon_batch", "\n".join([
        f"Daemon batch speedup ({N_RECORD + N_REPLAY + N_CAMPAIGN} mixed "
        f"jobs, {DAEMON_JOBS} slots)",
        f"  sequential CLI: {t_cli:7.1f}s",
        f"  daemon + pool:  {t_daemon:7.1f}s   {speedup:.2f}x  "
        f"(floor {BATCH_SPEEDUP_FLOOR}x)",
        "[also saved to benchmarks/results/BENCH_service.json]",
    ]))
    assert speedup >= BATCH_SPEEDUP_FLOOR, (
        f"daemon batch speedup regressed: {speedup:.2f}x")


def test_ingest_overhead_within_flight_budget(emit, tmp_path):
    from repro.apps.registry import get_app
    from repro.core import TraceFile, VidiConfig
    from repro.harness.runner import bench_config, record_run
    from repro.service.client import FlightStreamer, ServiceClient
    from repro.service.server import TraceService

    spec = get_app("dram_dma")
    config = bench_config(VidiConfig.r2, flight_recorder=True)

    def _plain():
        t0 = perf_counter()
        record_run(spec, config, seed=5)
        return perf_counter() - t0

    plain = min(_plain() for _ in range(3))

    service = TraceService(tmp_path / "svc", jobs=1).run_in_thread()
    try:
        client = ServiceClient(data_dir=service.data_dir)
        streamed = []
        journal = None
        for i in range(3):
            streamer = FlightStreamer(client, f"bench-{i}")
            t0 = perf_counter()
            record_run(spec, config, seed=5, before_run=streamer.attach)
            streamed.append(perf_counter() - t0)
            journal = streamer.detach()["journal"]
        t_streamed = min(streamed)
        # The streamed journal must be a loadable v3 container — overhead
        # numbers for a broken stream would be meaningless.
        assert TraceFile.load(journal, salvage=True).packet_count > 0
    finally:
        service.shutdown()

    ratio = t_streamed / plain
    _merge_report("ingest_overhead", {
        "app": "dram_dma",
        "plain_record_s": round(plain, 3),
        "streamed_record_s": round(t_streamed, 3),
        "overhead_ratio": round(ratio, 3),
        "overhead_ceiling": INGEST_OVERHEAD_CEILING,
    })
    emit("service_ingest_overhead", "\n".join([
        "Live-ingest record overhead (dram_dma, flight recorder)",
        f"  standalone: {plain * 1e3:7.0f}ms",
        f"  streaming:  {t_streamed * 1e3:7.0f}ms   {ratio:.3f}x  "
        f"(ceiling {INGEST_OVERHEAD_CEILING}x)",
        "[also saved to benchmarks/results/BENCH_service.json]",
    ]))
    assert ratio <= INGEST_OVERHEAD_CEILING, (
        f"live ingest overhead regressed: {ratio:.3f}x")
