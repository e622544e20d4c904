"""Trace-service smoke test: daemon subprocess, real jobs, real verdicts.

``make serve-smoke`` (and the CI leg behind it) runs this module as a
script. It exercises the full deployment shape — a daemon in its own
process, clients over HTTP — rather than the in-thread embedding the
unit tests use:

1. start ``vidi serve`` as a subprocess on a scratch data dir;
2. submit a record job (saving the trace), a replay job of that trace,
   and a small fault campaign; wait for all three;
3. stream one flight recording into the daemon's ingest endpoint and
   check the journal salvages;
4. assert the results store holds a verdict record for every job;
5. shut the daemon down gracefully and verify nothing leaked.

Exit code 0 only when every assertion holds. A passing smoke removes its
scratch data dir; a failing one keeps it and prints its path.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.service.client import FlightStreamer, ServiceClient
from repro.service.server import SERVICE_FILENAME


def _wait_for_service(data_dir: Path, proc: subprocess.Popen,
                      timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    path = data_dir / SERVICE_FILENAME
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"daemon exited early with code {proc.returncode}")
        if path.exists():
            try:
                ServiceClient(data_dir=data_dir).health()
                return
            except Exception:
                pass
        time.sleep(0.1)
    raise RuntimeError("daemon did not come up in time")


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="vidi-serve-smoke-"))
    data_dir = tmp / "service"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.tools", "serve",
         "--data-dir", str(data_dir), "--jobs", "2",
         "--cache-dir", str(tmp / "schedules")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    passed = False
    try:
        _wait_for_service(data_dir, proc)
        client = ServiceClient(data_dir=data_dir)
        print(f"daemon up at {client.endpoint}")

        trace_path = tmp / "smoke.trace"
        rec = client.submit("record", {"app": "sha256", "seed": 11,
                                       "save_to": str(trace_path)})
        cam = client.submit("campaign", {"n_faults": 6, "seed": 3},
                            priority=20)
        rec_detail = client.wait(rec)
        assert trace_path.exists(), "record job did not save its trace"
        rep = client.submit("replay", {"app": "sha256",
                                       "trace_path": str(trace_path)})
        rep_detail = client.wait(rep)
        cam_detail = client.wait(cam)
        assert rep_detail["result"]["clean"], (
            f"replay diverged: {rep_detail['result']['summary']}")
        assert rep_detail["result"]["validation_sha256"], "missing digest"
        assert cam_detail["result"]["silent_accepts"] == 0, (
            "campaign produced silent wrong-accepts")
        print(f"jobs ok: record {rec_detail['result']['trace_sha256'][:12]}, "
              f"replay clean, campaign "
              f"{cam_detail['result']['faults']} fault(s) contained")

        # Ingest leg: stream one flight recording, then salvage-load the
        # daemon-side journal.
        from repro.apps.registry import get_app
        from repro.core import TraceFile, VidiConfig
        from repro.harness.runner import bench_config, record_run

        streamer = FlightStreamer(client, "smoke-tenant")
        record_run(get_app("dram_dma"),
                   bench_config(VidiConfig.r2, flight_recorder=True),
                   seed=5, before_run=streamer.attach)
        info = streamer.detach()
        journal = TraceFile.load(info["journal"], salvage=True)
        assert journal.packet_count > 0, "ingest journal holds no packets"
        print(f"ingest ok: {info['frames']} frame(s) -> "
              f"{journal.packet_count} packet(s) in {info['journal']}")

        # Every finished job must have left a verdict in the results store.
        job_records = client.results(kind="job")
        recorded_ids = {r["payload"]["id"] for r in job_records}
        assert {rec, rep, cam} <= recorded_ids, (
            f"results store missing job verdicts: {recorded_ids}")
        print(f"results store ok: {len(job_records)} job record(s)")

        client.shutdown()
        proc.wait(timeout=60)
        assert proc.returncode == 0, (
            f"daemon exited {proc.returncode} after graceful shutdown")
        assert not (data_dir / SERVICE_FILENAME).exists(), (
            "service.json not cleaned up on shutdown")
        print("serve-smoke: OK")
        passed = True
        return 0
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
        out = proc.stdout.read().decode() if proc.stdout else ""
        if out:
            print("--- daemon output ---")
            print(out)
        if passed:
            shutil.rmtree(tmp, ignore_errors=True)
        else:
            print(f"serve-smoke: data dir kept at {tmp}")


if __name__ == "__main__":
    sys.exit(main())
