"""Trace-service tests: ingest, job queue, results store, crash recovery.

Covers the fleet-scale daemon (ROADMAP item 2's deployability follow-on)
at three levels:

* unit — the `FrameRing` retention policy and `FrameStreamParser`
  chunk reassembly shared between the flight recorder and daemon-side
  ingest; the CRC-framed `ResultsStore` (including torn-tail
  tolerance); `IngestManager` journal-before-parse semantics and
  tenant-name hygiene; `JobQueue` priority order and drain;
* differential — a record job submitted through a live daemon must
  produce byte-for-byte the same trace as the CLI, and a campaign job
  the same trial verdicts as an in-process `run_campaign`;
* crash — SIGKILL a daemon subprocess mid-ingest with concurrent
  tenant streams (one cut mid-frame) and check every tenant's journal
  still salvages to a valid anchor-led window.

The warm pool's graceful-drain contract (no leaked worker processes
after `shutdown_pool(wait=True)`) is pinned here too, since the daemon
relies on it for clean exit.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

import pytest

from repro.core.trace_file import (FRAME_ANCHOR, FRAME_END, FRAME_RUN,
                                   build_v3_container, encode_end_frame,
                                   encode_frame)
from repro.core.trace_ring import FrameRing, FrameStreamParser
from repro.errors import TraceFormatError
from repro.harness import worker_pool
from repro.service.ingest import IngestManager
from repro.service.queue import JobQueue
from repro.service.results import ResultsStore, record_bench

_HDR = 9   # v3 frame header: kind + len + crc32


def _mk_run(n: int) -> bytes:
    return bytes((n + i) % 251 for i in range(40))


# ----------------------------------------------------------------------
# FrameRing — the shared retention policy
# ----------------------------------------------------------------------

class TestFrameRing:
    def test_evicts_whole_epochs_from_the_front(self):
        ring = FrameRing(retain_bytes=3 * (_HDR + 40) + 2 * _HDR)
        for epoch in range(4):
            ring.append(FRAME_ANCHOR, b"")
            ring.append(FRAME_RUN, _mk_run(epoch))
        frames = ring.frame_list()
        # Whatever survives must lead with an ANCHOR (salvageable window).
        assert frames[0][0] == FRAME_ANCHOR
        assert ring.evicted_epochs > 0
        # Eviction removed anchor+runs together, never a bare run prefix.
        kinds = [k for k, _ in frames]
        assert kinds.count(FRAME_ANCHOR) == ring.retained_anchors

    def test_last_epoch_is_never_evicted(self):
        ring = FrameRing(retain_bytes=1)    # absurdly small budget
        ring.append(FRAME_ANCHOR, b"")
        for i in range(5):
            ring.append(FRAME_RUN, _mk_run(i))
        # Over budget, but with a single anchor there is nothing safe to
        # drop: the ring overshoots instead of destroying the only window.
        assert ring.retained_anchors == 1
        assert len(ring.frame_list()) == 6

    def test_observer_sees_every_frame_before_eviction(self):
        seen = []
        ring = FrameRing(retain_bytes=_HDR + 40,
                         observer=lambda k, p: seen.append((k, p)))
        appended = []
        for epoch in range(3):
            for frame in ((FRAME_ANCHOR, b""), (FRAME_RUN, _mk_run(epoch))):
                ring.append(*frame)
                appended.append(frame)
        # Local retention evicted, but the observer saw the full stream.
        assert ring.evicted_frames > 0
        assert seen == appended

    def test_frame_stream_round_trips_through_parser(self):
        ring = FrameRing(retain_bytes=1 << 20)
        ring.append(FRAME_ANCHOR, b"")
        ring.append(FRAME_RUN, _mk_run(1))
        parser = FrameStreamParser()
        frames = parser.feed(ring.frame_stream(end=True))
        assert [k for k, _ in frames] == [FRAME_ANCHOR, FRAME_RUN, FRAME_END]
        assert parser.end_seen


class TestFrameStreamParser:
    def test_reassembles_across_arbitrary_chunk_boundaries(self):
        stream = (encode_frame(FRAME_ANCHOR, b"") +
                  encode_frame(FRAME_RUN, _mk_run(0)) +
                  encode_end_frame())
        for step in (1, 3, 7, len(stream)):
            parser = FrameStreamParser()
            frames = []
            for i in range(0, len(stream), step):
                frames.extend(parser.feed(stream[i:i + step]))
            assert [k for k, _ in frames] == [FRAME_ANCHOR, FRAME_RUN,
                                              FRAME_END]
            assert parser.pending_bytes == 0
            assert parser.bytes_consumed == len(stream)

    def test_crc_damage_raises(self):
        frame = bytearray(encode_frame(FRAME_RUN, _mk_run(0)))
        frame[-1] ^= 0xFF
        with pytest.raises(TraceFormatError, match="CRC32"):
            FrameStreamParser().feed(bytes(frame))

    def test_unknown_kind_raises(self):
        with pytest.raises(TraceFormatError, match="unknown frame kind"):
            FrameStreamParser().feed(b"\x7f" + b"\x00" * 8)


# ----------------------------------------------------------------------
# ResultsStore — append-only, CRC-framed, torn-tail tolerant
# ----------------------------------------------------------------------

class TestResultsStore:
    def test_append_and_filtered_query(self, tmp_path):
        store = ResultsStore(tmp_path / "r.vrs")
        store.append("job", "record", {"id": "job-1"}, t=1.0)
        store.append("job", "replay", {"id": "job-2"}, t=2.0)
        store.append("bench", "kernel", {"speedup": 3.0}, t=3.0)
        assert len(store.records()) == 3
        assert [r["payload"]["id"] for r in store.records(kind="job")] == \
            ["job-1", "job-2"]
        assert store.records(kind="job", limit=1)[0]["payload"]["id"] == \
            "job-2"
        assert store.bench_history("kernel")[0]["payload"]["speedup"] == 3.0
        # A second handle over the same file sees everything (persistence).
        assert len(ResultsStore(store.path).records()) == 3

    def test_torn_tail_is_skipped_not_propagated(self, tmp_path):
        store = ResultsStore(tmp_path / "r.vrs")
        for i in range(3):
            store.append("job", "record", {"i": i}, t=float(i))
        blob = store.path.read_bytes()
        # Tear the file mid-way through the last record (daemon killed
        # mid-append): the scan must serve the intact prefix.
        store.path.write_bytes(blob[:len(blob) - 5])
        fresh = ResultsStore(store.path)
        assert [r["payload"]["i"] for r in fresh.records()] == [0, 1]
        assert fresh.skipped_corrupt == 1
        # And appends still land after the damage is truncated away.

    def test_flipped_byte_stops_scan_at_damage(self, tmp_path):
        store = ResultsStore(tmp_path / "r.vrs")
        store.append("job", "record", {"i": 0}, t=0.0)
        store.append("job", "record", {"i": 1}, t=1.0)
        blob = bytearray(store.path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        store.path.write_bytes(bytes(blob))
        records = ResultsStore(store.path).records()
        assert all(zlib.crc32(b"") == 0 for _ in [0])   # sanity anchor
        assert len(records) <= 1   # damage never yields garbage records

    def test_record_bench_is_best_effort(self, tmp_path):
        ok = record_bench("kernel", {"speedup": 2.0}, tmp_path / "h.vrs")
        assert ok
        assert ResultsStore(tmp_path / "h.vrs").bench_history("kernel")
        # An unwritable path reports failure instead of raising.
        assert record_bench("kernel", {}, "/proc/nope/h.vrs") is False


# ----------------------------------------------------------------------
# IngestManager — journals first, parses second
# ----------------------------------------------------------------------

class TestIngestManager:
    def _stream(self):
        return (encode_frame(FRAME_ANCHOR, b"") +
                encode_frame(FRAME_RUN, _mk_run(0)))

    def test_tenant_names_are_path_safe(self, tmp_path):
        ingest = IngestManager(tmp_path)
        for bad in ("../evil", "a/b", "", "x" * 65, "a\x00b"):
            with pytest.raises(ValueError):
                ingest.begin(bad, b"")
        assert ingest.begin("tenant-0.a_b", b"")["tenant"] == "tenant-0.a_b"

    def test_unknown_tenant_rejected(self, tmp_path):
        with pytest.raises(KeyError, match="no begin"):
            IngestManager(tmp_path).frames("ghost", b"")

    def test_journal_gets_damaged_bytes_before_parser_rejects(self, tmp_path):
        ingest = IngestManager(tmp_path)
        ingest.begin("t", b"PFX!")
        bad = bytearray(self._stream())
        bad[-1] ^= 0xFF
        with pytest.raises(TraceFormatError):
            ingest.frames("t", bytes(bad))
        # The evidence is on disk even though the parser refused it.
        journal = Path(ingest.journal_path("t"))
        assert journal.read_bytes() == b"PFX!" + bytes(bad)
        assert ingest.status()["t"]["error"] is not None

    def test_end_appends_missing_end_frame(self, tmp_path):
        ingest = IngestManager(tmp_path)
        ingest.begin("t", b"")
        ingest.frames("t", self._stream())
        info = ingest.end("t")
        journal = Path(info["journal"]).read_bytes()
        assert journal == self._stream() + encode_end_frame()
        # A clean close with END already streamed appends nothing extra.
        ingest.begin("u", b"")
        ingest.frames("u", self._stream() + encode_end_frame())
        ingest.end("u")
        assert Path(ingest.journal_path("u")).read_bytes() == \
            self._stream() + encode_end_frame()

    def test_begin_after_end_starts_a_fresh_journal(self, tmp_path):
        from repro.core import TraceFile

        prefix, frames = _flight_frames()
        stream = b"".join(frames)
        ingest = IngestManager(tmp_path)
        ingest.begin("t", prefix)
        ingest.frames("t", frames[0])
        ingest.end("t")
        # The recorder starts a new stream under the same tenant name.
        ingest.begin("t", prefix)
        ingest.frames("t", stream)
        info = ingest.end("t")
        journal = Path(info["journal"]).read_bytes()
        assert journal == prefix + stream + encode_end_frame()
        assert TraceFile.load(info["journal"]).packet_count > 0


# ----------------------------------------------------------------------
# Warm pool drain + job queue scheduling
# ----------------------------------------------------------------------

def _pids_alive(pids):
    alive = []
    for pid in pids:
        try:
            os.kill(pid, 0)
            alive.append(pid)
        except OSError:
            pass
    return alive


def test_warm_pool_graceful_shutdown_leaks_no_workers(tmp_path):
    worker_pool.shutdown_pool()
    try:
        pool = worker_pool.get_pool(2)
        # Touch both slots so both worker processes actually exist.
        futures = [pool.submit(os.getpid, affinity=("slot", i))
                   for i in range(4)]
        for fut in futures:
            fut.result(timeout=120)
        pids = pool.worker_pids()
        assert pids, "warm pool reported no live workers"
    finally:
        worker_pool.shutdown_pool(wait=True)
    deadline = time.monotonic() + 10.0
    while _pids_alive(pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _pids_alive(pids) == [], (
        f"worker processes survived graceful shutdown: {_pids_alive(pids)}")


@pytest.fixture
def small_trace(tmp_path):
    """A tiny valid trace file for cheap salvage jobs."""
    from repro.apps.registry import get_app
    from repro.core import VidiConfig
    from repro.harness.runner import bench_config, record_run

    metrics = record_run(get_app("sha256"), bench_config(VidiConfig.r2),
                         seed=1)
    path = tmp_path / "small.trace"
    path.write_bytes(metrics.result["trace"].to_bytes())
    return path


class TestJobQueue:
    def test_priority_order_and_results_persistence(self, tmp_path,
                                                    small_trace):
        worker_pool.shutdown_pool()
        store = ResultsStore(tmp_path / "results.vrs")
        queue = JobQueue(jobs=1, results=store)
        try:
            params = {"trace_path": str(small_trace)}
            # Let the blocker occupy the single slot (the worker cold
            # start keeps it busy for a while), then queue the rest:
            # with the slot taken, their order is decided purely by the
            # heap, not by submission timing.
            blocker = queue.submit("salvage", params)
            deadline = time.monotonic() + 60.0
            while queue.get(blocker).state == "queued":
                assert time.monotonic() < deadline, "blocker never started"
                time.sleep(0.005)
            low = queue.submit("salvage", params, priority=30)
            mid = queue.submit("salvage", params, priority=10)
            high = queue.submit("salvage", params, priority=1)
            assert queue.drain(timeout=300.0)
            for job_id in (blocker, low, mid, high):
                job = queue.get(job_id)
                assert job.state == "done", job.error
                assert job.result["packets"] > 0
            # The store append happens just after the finish notification;
            # poll briefly for the last record.
            deadline = time.monotonic() + 10.0
            while (len(store.records(kind="job")) < 4
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            finished = [r["payload"]["id"] for r in store.records(kind="job")]
            assert finished == [blocker, high, mid, low], (
                "queue did not honour priorities (lower number first)")
        finally:
            queue.stop(drain=True, timeout=60.0)
            worker_pool.shutdown_pool()

    def test_failed_job_reports_error_and_queue_survives(self, tmp_path,
                                                         small_trace):
        worker_pool.shutdown_pool()
        queue = JobQueue(jobs=1)
        try:
            bad = queue.submit("replay", {"app": "sha256",
                                          "trace_path": "/nonexistent"})
            job = queue.wait(bad, timeout=300.0)
            assert job.state == "failed"
            assert job.error
            # The scheduler is still alive after a failure.
            ok = queue.wait(queue.submit(
                "salvage", {"trace_path": str(small_trace)}), timeout=300.0)
            assert ok.state == "done"
            assert queue.status()["failed"] == 1
        finally:
            queue.stop(drain=True, timeout=60.0)
            worker_pool.shutdown_pool()

    def test_finished_job_carries_its_timestamps(self, tmp_path,
                                                 small_trace):
        from repro.service.client import ServiceClient
        from repro.service.server import TraceService

        worker_pool.shutdown_pool()
        service = TraceService(tmp_path / "svc", jobs=1).run_in_thread()
        try:
            client = ServiceClient(data_dir=service.data_dir)
            job_id = client.submit("salvage",
                                   {"trace_path": str(small_trace)})
            detail = client.wait(job_id, timeout=300.0)
            deadline = time.monotonic() + 10.0
            while (not client.results(kind="job")
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            (record,) = client.results(kind="job")
            for job in (detail, record["payload"]):
                assert job["id"] == job_id
                assert 0 < job["submitted_t"] <= job["started_t"] \
                    <= job["finished_t"]
        finally:
            service.shutdown()

    def test_rejects_unknown_kind_and_submit_after_stop(self, tmp_path):
        queue = JobQueue(jobs=1)
        with pytest.raises(ValueError, match="unknown job kind"):
            queue.submit("mine-bitcoin", {})
        queue.stop(drain=True, timeout=60.0)
        with pytest.raises(RuntimeError):
            queue.submit("salvage", {})


# ----------------------------------------------------------------------
# Daemon differential: jobs through the daemon == the CLI, bit for bit
# ----------------------------------------------------------------------

def _cli_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def test_daemon_jobs_match_cli_bit_for_bit(tmp_path):
    import hashlib

    from repro.faults import run_campaign
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.server import TraceService

    worker_pool.shutdown_pool()
    service = TraceService(tmp_path / "svc", jobs=2).run_in_thread()
    try:
        client = ServiceClient(data_dir=service.data_dir)
        assert client.health()["ok"]

        # Record: daemon job blob == the CLI's output file, byte for byte.
        cli_out = tmp_path / "cli.trace"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.tools", "record", "sha256",
             "-o", str(cli_out), "--seed", "7"],
            env=_cli_env(), capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        daemon_out = tmp_path / "daemon.trace"
        detail = client.wait(client.submit(
            "record", {"app": "sha256", "seed": 7,
                       "save_to": str(daemon_out)}))
        cli_sha = hashlib.sha256(cli_out.read_bytes()).hexdigest()
        assert detail["result"]["trace_sha256"] == cli_sha
        assert daemon_out.read_bytes() == cli_out.read_bytes()

        # Campaign: daemon trial verdicts == in-process run_campaign.
        params = {"n_faults": 3, "seed": 2, "crash_app": "sha256"}
        report = run_campaign(app="sha256", n_faults=3, seed=2,
                              crash_app="sha256")
        expected = [[t.index, t.kind, t.seed, t.outcome, t.detail]
                    for t in report.trials]
        detail = client.wait(client.submit("campaign", params))
        assert detail["result"]["trials"] == expected
        assert detail["result"]["silent_accepts"] == \
            len(report.silent_accepts)

        # Both verdicts landed in the persistent results store.
        kinds = {r["name"] for r in client.results(kind="job")}
        assert {"record", "campaign"} <= kinds

        # Unknown job kinds are rejected at the HTTP boundary.
        with pytest.raises(ServiceError, match="unknown job kind"):
            client.submit("mine-bitcoin", {})
    finally:
        service.shutdown()
        worker_pool.shutdown_pool()


def _children(pid):
    """PIDs whose parent is ``pid`` (a /proc scan)."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == pid:
            kids.append(int(entry))
    return kids


def test_daemon_campaign_shards_crash_trials_in_its_worker(tmp_path):
    """Crash trials on a checkpointed app shard inside a daemon worker.

    The worker builds a pool of its own for the sharded replays; the
    verdicts must equal an in-process campaign's, the job must leave the
    worker without children, and the daemon must still shut down.
    """
    from repro.faults import run_campaign
    from repro.service.client import ServiceClient
    from repro.service.server import TraceService

    params = {"n_faults": 3, "seed": 2, "crash_app": "dram_dma"}
    report = run_campaign(app="sha256", **params)
    expected = [[t.index, t.kind, t.seed, t.outcome, t.detail]
                for t in report.trials]
    assert {t.kind for t in report.trials} == {"worker-crash"}
    assert all(t.detail.startswith("recovered") for t in report.trials)

    worker_pool.shutdown_pool()
    service = TraceService(tmp_path / "svc", jobs=1).run_in_thread()
    stopper = threading.Thread(target=service.shutdown, daemon=True)
    workers = []
    try:
        client = ServiceClient(data_dir=service.data_dir)
        detail = client.wait(client.submit("campaign", params),
                             timeout=45.0)
        assert detail["result"]["trials"] == expected
        workers = worker_pool.get_pool(1).worker_pids()
        assert workers, "the campaign job ran on no pool worker"
        assert [_children(pid) for pid in workers] == [[]] * len(workers)
        stopper.start()
        stopper.join(timeout=30.0)
        assert not stopper.is_alive(), "daemon shutdown hung"
        assert _pids_alive(workers) == []
    finally:
        if stopper.ident is None or stopper.is_alive():
            # Never leave a hung process tree behind for the next test.
            workers = workers or worker_pool.get_pool(1).worker_pids()
            for pid in workers + [c for w in workers for c in _children(w)]:
                os.kill(pid, signal.SIGKILL)
            if stopper.ident is None:
                service.shutdown(drain=False)


# ----------------------------------------------------------------------
# Crash recovery: SIGKILL the daemon mid-ingest, salvage every journal
# ----------------------------------------------------------------------

def _flight_frames():
    """One real flight recording as (container prefix, encoded frames)."""
    from repro.apps.registry import get_app
    from repro.core import VidiConfig
    from repro.harness.runner import bench_config, record_run

    captured = {"frames": []}

    def hook(deployment):
        shim = deployment.shim
        captured["prefix"] = build_v3_container(
            shim.table, shim.encoder.record_output_contents, {}, b"",
            shim.config.flight_dedup_slots)
        shim.store.set_observer(
            lambda kind, payload: captured["frames"].append(
                encode_frame(kind, payload)))

    config = bench_config(VidiConfig.r2, flight_recorder=True,
                          flight_retain_words=512, flight_anchor_stride=512)
    record_run(get_app("dram_dma"), config, seed=5, before_run=hook)
    assert len(captured["frames"]) >= 3, "recording emitted too few frames"
    return captured["prefix"], captured["frames"]


def _wait_for_daemon(data_dir, proc, timeout=60.0):
    from repro.service.client import ServiceClient
    from repro.service.server import SERVICE_FILENAME

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        assert proc.poll() is None, "daemon exited before coming up"
        if (data_dir / SERVICE_FILENAME).exists():
            try:
                client = ServiceClient(data_dir=data_dir)
                client.health()
                return client
            except Exception:
                pass
        time.sleep(0.1)
    raise AssertionError("daemon did not come up in time")


def test_concurrent_ingest_survives_daemon_sigkill(tmp_path):
    from repro.core import TraceFile

    prefix, frames = _flight_frames()
    stream = b"".join(frames)

    data_dir = tmp_path / "svc"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.tools", "serve",
         "--data-dir", str(data_dir), "--jobs", "1"],
        env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        client = _wait_for_daemon(data_dir, proc)

        # Two concurrent tenants, chunks interleaved mid-frame: tenant-a
        # is cut inside a frame (recorder still mid-stream at the kill),
        # tenant-b has received its whole stream but no clean close.
        client.ingest_begin("tenant-a", prefix)
        client.ingest_begin("tenant-b", prefix)
        step = max(1, len(stream) // 7)
        offsets = list(range(0, len(stream), step))
        for i, off in enumerate(offsets):
            client.ingest_frames("tenant-b", stream[off:off + step])
            if i < len(offsets) - 2:
                client.ingest_frames("tenant-a", stream[off:off + step])
        # tenant-a's last chunk stops partway through a frame header.
        torn_at = offsets[-2] + 4
        client.ingest_frames("tenant-a", stream[offsets[-2]:torn_at])

        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

    # Every tenant's journal must salvage to a valid anchor-led window.
    journals = {p.stem: p for p in (data_dir / "tenants").glob("*.vtrc3")}
    assert set(journals) == {"tenant-a", "tenant-b"}

    complete = TraceFile.from_bytes(prefix + stream + encode_end_frame())
    for tenant, path in journals.items():
        salvaged = TraceFile.load(path, salvage=True)
        assert salvaged.packet_count > 0, f"{tenant}: empty salvage window"
        assert salvaged.packet_count <= complete.packet_count
    # tenant-b received every frame: nothing may be lost to the kill.
    full = TraceFile.load(journals["tenant-b"], salvage=True)
    assert full.packet_count == complete.packet_count
    assert bytes(full.body) == bytes(complete.body)
