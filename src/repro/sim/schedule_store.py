"""On-disk tier of the compiled-step cache.

:mod:`repro.sim.compile` caches compiled kernels *in-process*: every
simulator generates its step source, and only the first one to generate
a given source pays ``compile()`` for it. That cache dies with the
process — and campaigns, sweeps and sharded replays are built out of
many short-lived worker processes that each re-pay ``compile()`` for a
source some earlier worker (or an earlier invocation of the whole
harness) already compiled.

This module persists the code object so ``compile()`` is paid once per
generated source, not once per process:

* **What is stored.** The pair ``(source, code)``: the generated step
  source and its ``marshal``-ed code object. Nothing else — ranks and the
  namespace the code runs in are rebuilt for every simulator.

* **Key derivation.** The file name is a SHA-256 over (store format
  version, the Python implementation cache tag, the source). A codegen
  change that alters the emitted source, or another interpreter, looks
  up another key, so an entry is only ever found by the source it was
  compiled from. Equal source compiles to equal code, so a hit can never
  bind code a cold compile would not have made.

* **Write discipline.** Entries are written crash-safely: payload
  framed as ``magic + crc32 + length + marshal``, written to a ``.part``
  sibling, fsynced, then atomically renamed into place. Concurrent
  writers of the same key race benignly — they write identical bytes.

* **Corruption policy.** A truncated, CRC-failing, unreadable or stale
  entry — one whose stored source does not hash to its file name — is
  *silently* discarded (and best-effort deleted): the caller falls back
  to a cold compile. The cache can make a compile slower, never a kernel
  wrong.

The store is off unless configured — by :func:`configure`, or by the
``REPRO_SCHEDULE_CACHE`` environment variable (which is how warm pool
worker processes inherit it under the ``spawn`` start method; under
``fork`` they inherit the configured module state directly).
"""

from __future__ import annotations

import hashlib
import marshal
import os
import sys
import zlib
from pathlib import Path
from typing import Dict, Optional

#: Bump when the key derivation or payload layout changes; entries of
#: another format never validate.
FORMAT_VERSION = 2

_MAGIC = b"RSC1"
_SUFFIX = ".sched"

_ENV_VAR = "REPRO_SCHEDULE_CACHE"

_DIR: Optional[Path] = None
_ENV_CHECKED = False

#: RAM mirror of disk entries (filled by :func:`preload` in warm workers)
#: so a warm worker's first compile needs no file I/O at all.
_PRELOADED: Dict[str, tuple] = {}

_STATS = {
    "disk_hits": 0,
    "disk_misses": 0,
    "disk_invalidations": 0,
    "disk_writes": 0,
}


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


def configure(path) -> Optional[Path]:
    """Enable the disk tier at ``path`` (created on demand); ``None`` disables.

    Returns the resolved directory. Also mirrors the choice into the
    ``REPRO_SCHEDULE_CACHE`` environment variable so worker processes
    started under any multiprocessing start method see the same tier.
    """
    global _DIR, _ENV_CHECKED
    _ENV_CHECKED = True
    if path is None:
        _DIR = None
        os.environ.pop(_ENV_VAR, None)
        return None
    _DIR = Path(path)
    os.environ[_ENV_VAR] = str(_DIR)
    return _DIR


def cache_dir() -> Optional[Path]:
    """The active cache directory, or ``None`` when the tier is off.

    First call picks up ``REPRO_SCHEDULE_CACHE`` from the environment, so
    processes that never call :func:`configure` (forked/spawned workers,
    subprocess CLI invocations) still share the tier.
    """
    global _ENV_CHECKED, _DIR
    if not _ENV_CHECKED:
        _ENV_CHECKED = True
        env = os.environ.get(_ENV_VAR)
        if env:
            _DIR = Path(env)
    return _DIR


# ----------------------------------------------------------------------
# key derivation
# ----------------------------------------------------------------------


def _python_tag() -> str:
    return sys.implementation.cache_tag or sys.version


def store_key(source: str) -> str:
    """The disk key (file stem) for one generated step source."""
    digest = hashlib.sha256(f"{FORMAT_VERSION}\x00{_python_tag()}\x00".encode())
    digest.update(source.encode())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# framing (shared with the tests, which craft hostile entries)
# ----------------------------------------------------------------------


def _encode(payload) -> bytes:
    # The payload is a source string and one code object, so marshal —
    # several times faster than pickle to deserialize, and
    # deserialization is the disk-hit hot path — handles it natively. A
    # serializer tag byte leads the framed body.
    body = b"M" + marshal.dumps(payload)
    return (_MAGIC
            + zlib.crc32(body).to_bytes(4, "little")
            + len(body).to_bytes(8, "little")
            + body)


def _decode(blob: bytes):
    """Parse a framed entry; raises on any damage (caller treats as stale)."""
    if len(blob) < 16 or blob[:4] != _MAGIC:
        raise ValueError("bad schedule-store magic")
    crc = int.from_bytes(blob[4:8], "little")
    length = int.from_bytes(blob[8:16], "little")
    body = blob[16:]
    if len(body) != length:
        raise ValueError("schedule-store entry truncated")
    if zlib.crc32(body) != crc:
        raise ValueError("schedule-store CRC32 mismatch")
    if body[:1] != b"M":
        raise ValueError("unknown schedule-store serializer tag")
    return marshal.loads(body[1:])


# ----------------------------------------------------------------------
# save / load
# ----------------------------------------------------------------------


def save(source: str, code) -> Optional[Path]:
    """Persist one compiled step; returns the path, or ``None``.

    Failures (read-only dir, full disk) are swallowed — a cache write
    must never break a compile. Uses atomic rename so a crash mid-write
    leaves either the previous entry or none, never a torn file.
    """
    directory = cache_dir()
    if directory is None:
        return None
    key = store_key(source)
    payload = (source, code)
    try:
        framed = _encode(payload)
        directory.mkdir(parents=True, exist_ok=True)
        final = directory / (key + _SUFFIX)
        part = directory / (key + f".part.{os.getpid()}")
        with open(part, "wb") as handle:
            handle.write(framed)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(part, final)
    except Exception:
        return None
    _STATS["disk_writes"] += 1
    _PRELOADED[key] = payload
    return final


def _validate(payload, key: str) -> tuple:
    """Reject anything but a ``(source, code)`` pair stored under its key."""
    if not (isinstance(payload, tuple) and len(payload) == 2
            and isinstance(payload[0], str)):
        raise ValueError("schedule-store payload is not (source, code)")
    if store_key(payload[0]) != key:
        raise ValueError("schedule-store source does not match its key")
    if not hasattr(payload[1], "co_code"):
        raise ValueError("schedule-store entry holds no code object")
    return payload


def _discard(path: Path) -> None:
    _STATS["disk_invalidations"] += 1
    try:
        path.unlink()
    except OSError:
        pass


def load(source: str):
    """Look one generated source up in the disk tier.

    Returns its code object, or ``None`` (cold compile). Every failure
    mode — absent file, torn bytes, a stale or mismatched entry — lands
    on the ``None`` path; damaged files are unlinked best-effort so they
    are not re-parsed forever.
    """
    directory = cache_dir()
    if directory is None:
        return None
    key = store_key(source)
    payload = _PRELOADED.get(key)
    if payload is None:
        path = directory / (key + _SUFFIX)
        try:
            blob = path.read_bytes()
        except OSError:
            _STATS["disk_misses"] += 1
            return None
        try:
            payload = _validate(_decode(blob), key)
        except Exception:
            _discard(path)
            return None
    _STATS["disk_hits"] += 1
    return payload[1]


def preload() -> int:
    """Read every valid entry into the RAM mirror; returns the count.

    Warm pool workers call this from their initializer so the first
    ``compile_kernel`` of a known source finds its code without touching
    the filesystem.
    """
    directory = cache_dir()
    if directory is None:
        return 0
    loaded = 0
    try:
        paths = sorted(directory.glob("*" + _SUFFIX))
    except OSError:
        return 0
    for path in paths:
        key = path.name[:-len(_SUFFIX)]
        if key in _PRELOADED:
            loaded += 1
            continue
        try:
            payload = _validate(_decode(path.read_bytes()), key)
        except Exception:
            _discard(path)
            continue
        _PRELOADED[key] = payload
        loaded += 1
    return loaded


# ----------------------------------------------------------------------
# observability / maintenance
# ----------------------------------------------------------------------


def stats() -> Dict[str, object]:
    """Disk-tier counters plus the on-disk entry count and byte volume."""
    out: Dict[str, object] = dict(_STATS)
    directory = cache_dir()
    entries = size = 0
    if directory is not None:
        try:
            for path in directory.glob("*" + _SUFFIX):
                entries += 1
                size += path.stat().st_size
        except OSError:
            pass
    out["disk_entries"] = entries
    out["disk_bytes"] = size
    out["disk_dir"] = str(directory) if directory is not None else None
    return out


def reset_stats() -> None:
    for key in _STATS:
        _STATS[key] = 0


def clear() -> int:
    """Delete every entry in the active directory; returns entries removed."""
    _PRELOADED.clear()
    directory = cache_dir()
    if directory is None:
        return 0
    removed = 0
    try:
        paths = list(directory.glob("*" + _SUFFIX))
    except OSError:
        return 0
    for path in paths:
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed
