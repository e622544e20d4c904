"""The trace-service daemon: one HTTP endpoint for ingest, jobs, results.

A deliberately small HTTP surface (stdlib ``ThreadingHTTPServer``, JSON
in/out, raw bytes for ingest) — the daemon is local infrastructure bound
to loopback, not an internet service:

==========================  ==========================================
``GET  /health``            liveness + pid + pool stats
``POST /submit``            ``{"kind", "params", "priority"}`` → job id
``GET  /status``            queue + ingest + pool summary
``GET  /status/<job-id>``   one job's full detail (params, result);
                            ``?wait=S`` first blocks until the job
                            finishes or S seconds (at most 60) pass
``GET  /results``           results-store records (``?kind=&name=&limit=``)
``POST /ingest/<t>/begin``  open tenant stream (body: container prefix)
``POST /ingest/<t>/frames`` append frame bytes (body: raw chunk)
``POST /ingest/<t>/end``    clean-close the tenant stream
``POST /shutdown``          graceful: drain queue, close journals, stop
==========================  ==========================================

``service.json`` (host, port, pid) is written atomically into the data
directory once the socket is bound, so clients discover the endpoint by
data dir instead of racing the port choice. Shutdown is graceful by
construction: drain the job queue, fsync every tenant journal, drain the
warm worker pool (``shutdown_pool(wait=True)``) — no leaked workers, no
torn results records.
"""

from __future__ import annotations

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.core.config import DEFAULT_FLIGHT_RETAIN_WORDS
from repro.harness import worker_pool
from repro.service.ingest import IngestManager
from repro.service.queue import JobQueue
from repro.service.results import ResultsStore
from repro.sim import schedule_store

__all__ = ["TraceService", "RESULTS_FILENAME", "SERVICE_FILENAME"]

RESULTS_FILENAME = "results.vrs"
SERVICE_FILENAME = "service.json"
_MAX_BODY = 256 << 20
_MAX_WAIT_S = 60.0


class TraceService:
    """Assembles ingest + queue + results behind one HTTP server."""

    def __init__(self, data_dir: "str | Path", jobs: int = 4,
                 host: str = "127.0.0.1", port: int = 0,
                 cache_dir: Optional[str] = None,
                 retain_words: int = DEFAULT_FLIGHT_RETAIN_WORDS):
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        if cache_dir is not None:
            schedule_store.configure(cache_dir)
        import repro.harness.runner  # noqa: F401  (pool workers inherit it)
        self.results = ResultsStore(self.data_dir / RESULTS_FILENAME)
        self.ingest = IngestManager(self.data_dir, retain_words=retain_words)
        self.queue = JobQueue(jobs=jobs, results=self.results)
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = self
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        self._shutdown_done = threading.Event()
        self._write_service_file()

    # ------------------------------------------------------------------
    def _write_service_file(self) -> None:
        payload = json.dumps({"host": self.host, "port": self.port,
                              "pid": os.getpid()}) + "\n"
        tmp = self.data_dir / f"{SERVICE_FILENAME}.part.{os.getpid()}"
        tmp.write_text(payload)
        os.replace(tmp, self.data_dir / SERVICE_FILENAME)

    @property
    def endpoint(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def run_in_thread(self) -> "TraceService":
        """Serve from a background thread (tests, benches, embedding)."""
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="vidi-trace-service",
                                        daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve in the foreground (the ``vidi serve`` path)."""
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            # An HTTP /shutdown stops the serve loop from a background
            # thread; wait for that thread's cleanup (journal fsyncs,
            # pool drain, service.json removal) before letting the
            # process exit and kill it mid-teardown.
            self.shutdown()
            self._shutdown_done.wait(timeout=300.0)

    def shutdown(self, drain: bool = True) -> None:
        """Graceful stop: drain jobs, close journals, drain the pool."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        self.queue.stop(drain=drain, timeout=300.0 if drain else None)
        self.ingest.close_all()
        worker_pool.shutdown_pool(wait=True)
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        try:
            (self.data_dir / SERVICE_FILENAME).unlink()
        except OSError:
            pass
        self._shutdown_done.set()

    def request_shutdown(self) -> None:
        """Async shutdown for the HTTP handler (can't join its own server)."""
        threading.Thread(target=self.shutdown, daemon=True).start()

    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        return {
            "endpoint": self.endpoint,
            "pid": os.getpid(),
            "data_dir": str(self.data_dir),
            "queue": self.queue.status(),
            "ingest": self.ingest.status(),
            "results": self.results.stats(),
        }


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------
    @property
    def service(self) -> TraceService:
        return self.server.service

    def log_message(self, fmt, *args):   # quiet: the daemon logs verdicts,
        pass                             # not per-request access lines

    def _body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0 or length > _MAX_BODY:
            raise ValueError(f"unreasonable request body: {length} bytes")
        return self.rfile.read(length) if length else b""

    def _json(self, status: int, payload: Any) -> None:
        blob = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def _error(self, status: int, message: str) -> None:
        self._json(status, {"error": message})

    # -- routes ---------------------------------------------------------
    def do_GET(self) -> None:               # noqa: N802 (http.server API)
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        query = parse_qs(parsed.query)

        def one(key):
            return query[key][0] if key in query else None

        try:
            if parts == ["health"]:
                stats = worker_pool.pool_stats()
                self._json(200, {"ok": True, "pid": os.getpid(),
                                 "pool": stats})
            elif parts == ["status"]:
                self._json(200, self.service.status())
            elif len(parts) == 2 and parts[0] == "status":
                wait = min(float(one("wait") or 0), _MAX_WAIT_S)
                queue = self.service.queue
                job = (queue.wait(parts[1], timeout=wait) if wait > 0
                       else queue.get(parts[1]))
                self._json(200, job.detail())
            elif parts == ["results"]:
                limit = one("limit")
                records = self.service.results.records(
                    kind=one("kind"), name=one("name"),
                    limit=int(limit) if limit is not None else None)
                self._json(200, {"records": records})
            else:
                self._error(404, f"no such endpoint: GET {parsed.path}")
        except KeyError as exc:
            self._error(404, str(exc))
        except ValueError as exc:
            self._error(400, str(exc))
        except Exception as exc:
            self._error(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:              # noqa: N802 (http.server API)
        parts = [p for p in urlparse(self.path).path.split("/") if p]
        try:
            body = self._body()
            if parts == ["submit"]:
                req = json.loads(body.decode("utf-8") or "{}")
                job_id = self.service.queue.submit(
                    req.get("kind", ""), req.get("params") or {},
                    priority=int(req.get("priority", 10)))
                self._json(200, {"id": job_id})
            elif len(parts) == 3 and parts[0] == "ingest":
                self._ingest(parts[1], parts[2], body)
            elif parts == ["shutdown"]:
                self._json(200, {"ok": True, "stopping": True})
                self.service.request_shutdown()
            else:
                self._error(404, f"no such endpoint: POST {self.path}")
        except (ValueError, KeyError) as exc:
            self._error(400, str(exc))
        except Exception as exc:
            self._error(500, f"{type(exc).__name__}: {exc}")

    def _ingest(self, tenant: str, action: str, body: bytes) -> None:
        ingest = self.service.ingest
        if action == "begin":
            self._json(200, ingest.begin(tenant, body))
        elif action == "frames":
            self._json(200, ingest.frames(tenant, body))
        elif action == "end":
            self._json(200, ingest.end(tenant))
        else:
            self._error(404, f"no such ingest action: {action}")
