"""Thin HTTP client for the trace-service daemon, plus the live streamer.

:class:`ServiceClient` wraps the daemon's JSON/bytes endpoints with
urllib (stdlib only). The endpoint is resolved from the daemon's data
directory (``service.json``, written atomically once the socket is
bound), so callers address the service by path — the same way the CLI
does — instead of tracking ports.

:class:`FlightStreamer` is the recording-side half of async ingest: it
attaches to a flight-recorder deployment via the ring store's frame
observer and forwards every emitted v3 frame to the daemon from a
background sender thread. The observer itself only appends bytes to a
buffer — a few microseconds per ~64 KiB RUN frame — so streaming stays
inside the flight recorder's ≤1.15× record-overhead budget; all network
latency lands on the sender thread, never on the simulation loop.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Dict, Optional

from repro.core.trace_file import build_v3_container, encode_frame
from repro.errors import ReproError
from repro.service.server import SERVICE_FILENAME

__all__ = ["ServiceClient", "FlightStreamer", "ServiceError"]

DEFAULT_CHUNK_BYTES = 64 << 10


class ServiceError(ReproError):
    """The daemon rejected a request or cannot be reached."""


class ServiceClient:
    """JSON/bytes HTTP client for one trace-service daemon."""

    def __init__(self, data_dir: "str | Path | None" = None,
                 endpoint: Optional[str] = None, timeout: float = 120.0):
        if endpoint is None:
            if data_dir is None:
                raise ServiceError("need a data_dir or an explicit endpoint")
            info_path = Path(data_dir) / SERVICE_FILENAME
            try:
                info = json.loads(info_path.read_text())
            except (OSError, ValueError):
                raise ServiceError(
                    f"no live service found at {info_path} "
                    "(is `vidi serve` running for this data dir?)")
            endpoint = f"http://{info['host']}:{info['port']}"
        self.endpoint = endpoint.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str,
                 body: Optional[bytes] = None) -> Dict[str, Any]:
        req = urllib.request.Request(
            self.endpoint + path, data=body, method=method,
            headers={"Content-Type": "application/octet-stream"})
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read().decode("utf-8"))["error"]
            except Exception:
                detail = str(exc)
            raise ServiceError(f"{method} {path}: {detail}")
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach trace service at {self.endpoint}: "
                f"{exc.reason}")

    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/health")

    def submit(self, kind: str, params: Optional[Dict[str, Any]] = None,
               priority: int = 10) -> str:
        body = json.dumps({"kind": kind, "params": params or {},
                           "priority": priority}).encode("utf-8")
        return self._request("POST", "/submit", body)["id"]

    def status(self, job_id: Optional[str] = None) -> Dict[str, Any]:
        return self._request(
            "GET", "/status" if job_id is None else f"/status/{job_id}")

    def wait(self, job_id: str, timeout: float = 600.0) -> Dict[str, Any]:
        """Block until one job finishes; raises on job failure/timeout.

        Each request waits server-side (``/status/<id>?wait=S``), so a
        short job costs one request and returns as soon as it is done.
        """
        deadline = time.monotonic() + timeout
        while True:
            left = min(deadline - time.monotonic(), self.timeout / 2)
            detail = self._request("GET", f"/status/{job_id}?wait={left:.3f}")
            if detail["state"] == "done":
                return detail
            if detail["state"] == "failed":
                raise ServiceError(
                    f"job {job_id} failed: {detail.get('error')}")
            if time.monotonic() >= deadline:
                raise ServiceError(f"timed out waiting for job {job_id}")

    def results(self, kind: Optional[str] = None, name: Optional[str] = None,
                limit: Optional[int] = None) -> list:
        query = "&".join(f"{k}={v}" for k, v in
                         (("kind", kind), ("name", name), ("limit", limit))
                         if v is not None)
        path = "/results" + (f"?{query}" if query else "")
        return self._request("GET", path)["records"]

    def shutdown(self) -> None:
        self._request("POST", "/shutdown")

    # -- ingest ---------------------------------------------------------
    def ingest_begin(self, tenant: str, prefix: bytes) -> Dict[str, Any]:
        return self._request("POST", f"/ingest/{tenant}/begin", prefix)

    def ingest_frames(self, tenant: str, chunk: bytes) -> Dict[str, Any]:
        return self._request("POST", f"/ingest/{tenant}/frames", chunk)

    def ingest_end(self, tenant: str) -> Dict[str, Any]:
        return self._request("POST", f"/ingest/{tenant}/end")


class FlightStreamer:
    """Stream a live flight recording's frames to the daemon as emitted.

    Usage — attach as the ``before_run`` hook of a flight-recorder
    record run, detach when the run is done::

        streamer = FlightStreamer(client, "tenant-a")
        metrics = record_run(spec, config, seed=7,
                             before_run=streamer.attach)
        streamer.detach()

    ``attach`` sends the container prefix (header + channel table, zero
    frames) as the tenant's ``begin``, then installs a ring-store
    observer that buffers each encoded frame; a background thread posts
    the buffer whenever it exceeds ``chunk_bytes``. ``detach`` flushes
    the remainder and closes the stream — after which the daemon-side
    journal is a complete v3 container of the *whole* recording (the
    observer sees every frame; the local ring's eviction only bounds
    what the recorder itself retains).
    """

    def __init__(self, client: ServiceClient, tenant: str,
                 chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                 metadata: Optional[dict] = None):
        self.client = client
        self.tenant = tenant
        self.chunk_bytes = chunk_bytes
        self.metadata = dict(metadata or {})
        self._buf = bytearray()
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._closing = False
        self._store = None
        self._thread: Optional[threading.Thread] = None
        self.chunks_sent = 0
        self.bytes_sent = 0
        self.error: Optional[str] = None

    # ------------------------------------------------------------------
    def attach(self, deployment) -> None:
        shim = deployment.shim
        store = shim.store
        if not getattr(store, "is_ring", False):
            raise ServiceError(
                "FlightStreamer needs a flight-recorder deployment "
                "(config.flight_recorder=True)")
        prefix = build_v3_container(
            shim.table, shim.encoder.record_output_contents,
            self.metadata, b"", shim.config.flight_dedup_slots)
        self.client.ingest_begin(self.tenant, prefix)
        self._store = store
        self._thread = threading.Thread(target=self._sender_loop,
                                        name=f"vidi-ingest-{self.tenant}",
                                        daemon=True)
        self._thread.start()
        store.set_observer(self._on_frame)

    def _on_frame(self, kind: int, payload: bytes) -> None:
        # Runs on the simulation thread: append + (rarely) set an event.
        with self._lock:
            self._buf += encode_frame(kind, payload)
            full = len(self._buf) >= self.chunk_bytes
        if full:
            self._wake.set()

    def _take(self) -> bytes:
        with self._lock:
            chunk = bytes(self._buf)
            self._buf.clear()
        return chunk

    def _sender_loop(self) -> None:
        while True:
            self._wake.wait(timeout=0.2)
            self._wake.clear()
            # Read once, before the take: ``detach`` unhooks the observer
            # before it sets ``_closing``, so this take drains the last
            # frame and the loop may exit without another poll.
            closing = self._closing
            chunk = self._take()
            if chunk:
                try:
                    self.client.ingest_frames(self.tenant, chunk)
                    self.chunks_sent += 1
                    self.bytes_sent += len(chunk)
                except ServiceError as exc:
                    self.error = str(exc)   # keep recording; drop streaming
                    return
            if closing:
                return

    def detach(self) -> Dict[str, Any]:
        """Stop observing, flush the remainder, close the tenant stream."""
        if self._store is not None:
            self._store.set_observer(None)
            self._store = None
        self._closing = True
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
        if self.error is not None:
            raise ServiceError(f"ingest stream failed mid-run: {self.error}")
        remainder = self._take()
        if remainder:
            self.client.ingest_frames(self.tenant, remainder)
            self.chunks_sent += 1
            self.bytes_sent += len(remainder)
        return self.client.ingest_end(self.tenant)
