"""On-disk tier of the compiled-schedule cache.

:mod:`repro.sim.compile` caches compiled kernels *in-process*: the first
simulator of a topology pays levelization + codegen + ``compile()``, every
later one re-binds the cached code object in microseconds. That cache dies
with the process — and campaigns, sweeps and sharded replays are built out
of many short-lived worker processes that each re-pay the full cold
compile for a topology some earlier worker (or an earlier invocation of
the whole harness) already compiled.

This module persists the compiled artifact so the work is paid once per
*deployment topology*, not once per process:

* **What is stored.** Everything ``_CacheEntry`` holds that survives
  serialization: the generated step source, the ``marshal``-ed code
  object, the binding recipe (structural addresses only — the recipe of a
  cacheable kernel never references live objects), the stage shapes,
  fallback-list orders and the schedule statistics. A disk hit re-binds
  via ``exec`` exactly like an in-process hit; it never re-levelizes.

* **Key derivation.** The file name is a SHA-256 over (store format
  version, ``repro.__version__``, the Python implementation cache tag,
  a fingerprint of the *codegen source itself* — the bytes of
  ``sim/compile.py`` — and ``repr(schedule_key(sim))``). Upgrading the
  package, changing the codegen, or switching interpreters therefore
  changes every key: an old cached step function can never be bound by a
  newer codegen (it is simply never found). The structural
  ``schedule_key`` part is the same fingerprint the in-process cache
  trusts.

* **Write discipline.** Entries are written crash-safely: payload
  framed as ``magic + crc32 + length + marshal``, written to a ``.part``
  sibling, fsynced, then atomically renamed into place. Concurrent
  writers of the same key race benignly — they write identical bytes.

* **Corruption policy.** A missing, truncated, CRC-failing, unreadable
  or version-stale entry is *silently* discarded (and best-effort
  deleted): the caller falls back to a cold compile. The cache can make
  a compile slower, never a kernel wrong.

The store is off unless configured — by :func:`configure`, or by the
``REPRO_SCHEDULE_CACHE`` environment variable (which is how warm pool
worker processes inherit it under the ``spawn`` start method; under
``fork`` they inherit the configured module state directly).
"""

from __future__ import annotations

import marshal
import os
import zlib
from pathlib import Path
from typing import Dict, Optional

import repro

#: Bump when the payload layout changes; stale-format entries never load.
FORMAT_VERSION = 1

_MAGIC = b"RSC1"
_SUFFIX = ".sched"

_ENV_VAR = "REPRO_SCHEDULE_CACHE"

_DIR: Optional[Path] = None
_ENV_CHECKED = False

#: RAM mirror of disk entries (filled by :func:`preload` in warm workers)
#: so a pre-bound worker's first compile needs no file I/O at all.
_PRELOADED: Dict[str, dict] = {}

_STATS = {
    "disk_hits": 0,
    "disk_misses": 0,
    "disk_invalidations": 0,
    "disk_writes": 0,
}

# The payload fields a valid entry must carry (everything _CacheEntry
# needs plus the self-describing version/identity fields).
_REQUIRED = (
    "format", "repro_version", "python_tag", "key", "source", "source_sha",
    "code", "recipe", "stage_shapes", "always_orders", "dynamic_orders",
    "guarded_seq", "total_seq", "rank_count", "demoted_sccs",
)


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

_CODEGEN_SHA: Optional[str] = None


def _codegen_fingerprint() -> str:
    """SHA-256 of the codegen implementation (``sim/compile.py``) itself.

    Folding the generator's own source into every key means a future PR
    that changes what the generated step function looks like invalidates
    the whole store implicitly — an old entry can never be bound against
    a newer codegen's expectations.
    """
    global _CODEGEN_SHA
    if _CODEGEN_SHA is None:
        import hashlib

        src = (Path(__file__).parent / "compile.py").read_bytes()
        _CODEGEN_SHA = hashlib.sha256(src).hexdigest()
    return _CODEGEN_SHA


def store_key(schedule_key: tuple) -> str:
    """The disk key (file stem) for one structural fingerprint.

    ``schedule_key`` is built from class qualnames, ints, bools, ``None``
    and nested tuples; hashing its marshalled form is the cheapest stable
    serialization available (marshal bytes only vary across interpreter
    builds, and the interpreter cache tag is already part of the hashed
    material). The key derivation is on the disk-hit path, so it has to
    stay cheap.
    """
    import hashlib
    import sys

    digest = hashlib.sha256("\x00".join((
        str(FORMAT_VERSION),
        repro.__version__,
        sys.implementation.cache_tag or sys.version,
        _codegen_fingerprint(),
    )).encode())
    digest.update(marshal.dumps(schedule_key))
    return digest.hexdigest()


def _source_sha(source: str) -> str:
    import hashlib

    return hashlib.sha256(source.encode()).hexdigest()


# ----------------------------------------------------------------------
# framing (shared with the tests, which craft hostile entries)
# ----------------------------------------------------------------------


def _encode(payload: dict) -> bytes:
    # The payload is plain data (str/int/bool/None/tuple/dict) and one code
    # object, so marshal — several times faster than pickle to
    # deserialize, and deserialization is the disk-hit hot path — handles
    # it natively. A serializer tag byte leads the framed body.
    body = b"M" + marshal.dumps(payload)
    return (_MAGIC
            + zlib.crc32(body).to_bytes(4, "little")
            + len(body).to_bytes(8, "little")
            + body)


def _decode(blob: bytes) -> dict:
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
    payload = marshal.loads(body[1:])
    if not isinstance(payload, dict):
        raise ValueError("schedule-store payload is not a dict")
    return payload


# ----------------------------------------------------------------------
# save / load
# ----------------------------------------------------------------------


def save(schedule_key: tuple, source: str, code, recipe: dict,
         stage_shapes: tuple, always_orders: tuple, dynamic_orders: tuple,
         guarded_seq: int, total_seq: int, rank_count: int,
         demoted_sccs: int) -> Optional[Path]:
    """Persist one compiled artifact; returns the path, or ``None``.

    Failures (read-only dir, full disk) are swallowed — a cache write
    must never break a compile. Uses atomic rename so a crash mid-write
    leaves either the previous entry or none, never a torn file.
    """
    directory = cache_dir()
    if directory is None:
        return None
    key = store_key(schedule_key)
    payload = {
        "format": FORMAT_VERSION,
        "repro_version": repro.__version__,
        "python_tag": _python_tag(),
        "key": key,
        "source": source,
        "source_sha": _source_sha(source),
        # Raw code object: the marshal frame serializes it natively.
        "code": code,
        "recipe": recipe,
        "stage_shapes": stage_shapes,
        "always_orders": always_orders,
        "dynamic_orders": dynamic_orders,
        "guarded_seq": guarded_seq,
        "total_seq": total_seq,
        "rank_count": rank_count,
        "demoted_sccs": demoted_sccs,
    }
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


def _python_tag() -> str:
    import sys

    return sys.implementation.cache_tag or sys.version


def _validate(payload: dict, key: str) -> dict:
    """Reject entries written by a different package/codegen/interpreter."""
    for field in _REQUIRED:
        if field not in payload:
            raise ValueError(f"schedule-store entry missing {field!r}")
    if payload["format"] != FORMAT_VERSION:
        raise ValueError("schedule-store format version mismatch")
    if payload["repro_version"] != repro.__version__:
        raise ValueError("schedule-store repro version mismatch")
    if payload["python_tag"] != _python_tag():
        raise ValueError("schedule-store python tag mismatch")
    if payload["key"] != key:
        raise ValueError("schedule-store key mismatch")
    if payload["source_sha"] != _source_sha(payload["source"]):
        raise ValueError("schedule-store generated-source hash mismatch")
    if not hasattr(payload["code"], "co_code"):
        raise ValueError("schedule-store entry holds no code object")
    return payload


def load(schedule_key: tuple) -> Optional[dict]:
    """Look one fingerprint up in the disk tier.

    Returns the validated payload dict, whose ``payload['code']`` is a
    code object, or ``None`` (cold compile).
    Every failure mode — absent file, torn bytes, stale versions — lands
    on the ``None`` path; damaged files are unlinked best-effort so they
    are not re-parsed forever.
    """
    directory = cache_dir()
    if directory is None:
        return None
    key = store_key(schedule_key)
    payload = _PRELOADED.get(key)
    path = directory / (key + _SUFFIX)
    if payload is None:
        try:
            blob = path.read_bytes()
        except OSError:
            _STATS["disk_misses"] += 1
            return None
        try:
            payload = _validate(_decode(blob), key)
        except Exception:
            _STATS["disk_invalidations"] += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
    _STATS["disk_hits"] += 1
    return payload


def preload() -> int:
    """Read every valid entry into the RAM mirror; returns the count.

    Warm pool workers call this from their initializer so the first
    ``compile_kernel`` of a known topology binds without touching the
    filesystem.
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
            _STATS["disk_invalidations"] += 1
            try:
                path.unlink()
            except OSError:
                pass
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
