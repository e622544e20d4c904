"""Async ingest of concurrent flight-recorder streams, one journal per tenant.

Recording deployments stream their v3 flight frames to the daemon as
they are emitted (via :class:`repro.service.client.FlightStreamer`); the
daemon journals every tenant's stream to disk and mirrors it into a
bounded in-memory :class:`~repro.core.trace_ring.FrameRing` for live
stats. Two properties carry the whole design:

* **The journal is always a salvageable v3 container.** ``begin`` writes
  the client-supplied container prefix (header + channel table, zero
  frames); every chunk is appended raw *before* it is parsed; ``end``
  appends the clean-close END frame. Kill the daemon at any byte and
  ``TraceFile.load(journal, salvage=True)`` recovers the most recent
  anchor-led window through the standard v3 resync path — the crash
  property the concurrent-ingest recovery tests pin.
* **Ingest never perturbs the recording.** All framing happens on the
  recorder's side exactly as without streaming; the daemon only appends
  and parses copies. Back-pressure, handshakes and the recorded packet
  stream are bit-identical with or without a streamer attached.

Tenant names are restricted to ``[A-Za-z0-9_.-]`` — they become file
names under ``data_dir/tenants/``, so anything fancier is a path
traversal attempt and is rejected.
"""

from __future__ import annotations

import os
import re
import threading
from pathlib import Path
from typing import Any, Dict, Optional

from repro.core.config import DEFAULT_FLIGHT_RETAIN_WORDS
from repro.core.store import STORAGE_WORD_BYTES
from repro.core.trace_file import encode_end_frame
from repro.core.trace_ring import FrameRing, FrameStreamParser
from repro.errors import TraceFormatError

_TENANT_RE = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")

__all__ = ["IngestManager"]


class _Tenant:
    """One tenant's live ingest state: journal handle + parser + ring."""

    def __init__(self, name: str, path: Path, retain_bytes: int):
        self.name = name
        self.path = path
        self.fh = open(path, "wb")
        self.parser = FrameStreamParser()
        self.ring = FrameRing(retain_bytes)
        self.lock = threading.Lock()
        self.bytes_received = 0
        self.chunks = 0
        self.closed = False
        self.error: Optional[str] = None


class IngestManager:
    """Per-tenant journals + live rings for concurrent recording streams."""

    def __init__(self, data_dir: "str | Path",
                 retain_words: int = DEFAULT_FLIGHT_RETAIN_WORDS):
        self.tenant_dir = Path(data_dir) / "tenants"
        self.tenant_dir.mkdir(parents=True, exist_ok=True)
        self.retain_bytes = retain_words * STORAGE_WORD_BYTES
        self._tenants: Dict[str, _Tenant] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _get(self, tenant: str) -> _Tenant:
        with self._lock:
            try:
                return self._tenants[tenant]
            except KeyError:
                raise KeyError(f"unknown ingest tenant {tenant!r} "
                               "(no begin received)")

    def journal_path(self, tenant: str) -> Path:
        if not _TENANT_RE.match(tenant):
            raise ValueError(f"invalid tenant name {tenant!r}")
        return self.tenant_dir / f"{tenant}.vtrc3"

    # ------------------------------------------------------------------
    def begin(self, tenant: str, prefix: bytes) -> Dict[str, Any]:
        """Open a tenant stream; ``prefix`` is a zero-frame v3 container.

        A re-begin for a live tenant closes the old journal first (the
        recorder restarted); the old stream's bytes stay on disk until
        overwritten by the new journal of the same name. A tenant whose
        stream already ended simply starts a new one.
        """
        path = self.journal_path(tenant)
        with self._lock:
            old = self._tenants.pop(tenant, None)
        if old is not None:
            with old.lock:
                if not old.closed:
                    self._close(old, append_end=not old.parser.end_seen)
        state = _Tenant(tenant, path, self.retain_bytes)
        state.fh.write(prefix)
        state.fh.flush()
        os.fsync(state.fh.fileno())
        state.bytes_received = len(prefix)
        with self._lock:
            self._tenants[tenant] = state
        return {"tenant": tenant, "journal": str(path)}

    def frames(self, tenant: str, chunk: bytes) -> Dict[str, Any]:
        """Append one chunk of frame bytes; journal first, parse second.

        The write hits the journal before the parser sees a byte, so even
        a chunk the parser rejects (CRC damage in flight) is preserved on
        disk for salvage — the daemon refuses to *interpret* a stream it
        cannot trust, but never discards the evidence.
        """
        state = self._get(tenant)
        with state.lock:
            if state.closed:
                raise TraceFormatError(
                    f"tenant {tenant!r} stream already closed")
            state.fh.write(chunk)
            state.fh.flush()
            state.bytes_received += len(chunk)
            state.chunks += 1
            try:
                for kind, payload in state.parser.feed(chunk):
                    state.ring.append(kind, payload)
            except TraceFormatError as exc:
                state.error = str(exc)
                raise
        return {"tenant": tenant, "frames": state.parser.frames_parsed}

    def end(self, tenant: str) -> Dict[str, Any]:
        """Close a tenant stream cleanly (fsync + END frame if missing)."""
        state = self._get(tenant)
        with state.lock:
            if not state.closed:
                self._close(state, append_end=not state.parser.end_seen)
        return {"tenant": tenant, "journal": str(state.path),
                "frames": state.parser.frames_parsed}

    @staticmethod
    def _close(state: _Tenant, append_end: bool) -> None:
        if append_end:
            state.fh.write(encode_end_frame())
        state.fh.flush()
        os.fsync(state.fh.fileno())
        state.fh.close()
        state.closed = True

    def close_all(self) -> None:
        """Daemon shutdown: fsync and close every live journal."""
        with self._lock:
            tenants = list(self._tenants.values())
        for state in tenants:
            with state.lock:
                if not state.closed:
                    self._close(state, append_end=not state.parser.end_seen)

    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        with self._lock:
            tenants = dict(self._tenants)
        out: Dict[str, Any] = {}
        for name, state in tenants.items():
            out[name] = {
                "journal": str(state.path),
                "bytes": state.bytes_received,
                "chunks": state.chunks,
                "frames": state.parser.frames_parsed,
                "pending_bytes": state.parser.pending_bytes,
                "retained_bytes": state.ring.retained_bytes,
                "anchors": state.ring.anchors_emitted,
                "evicted_epochs": state.ring.evicted_epochs,
                "closed": state.closed,
                "end_seen": state.parser.end_seen,
                "error": state.error,
            }
        return out
