"""Disk tier of the compiled-step cache: correctness and corruption.

The contract under test is the one the module docstring promises: the
generated source is the key, a disk hit skips ``compile()`` and produces
a kernel bit-identical to a cold compile, equal source shares one code
object, while *any* damaged or stale entry — truncated, garbage,
CRC-flipped, of another format, interpreter or source — silently falls
back to the cold path. The cache may make a compile slower; it must
never make a kernel wrong.
"""

import marshal
import pickle
import zlib

import pytest

from repro.sim import schedule_store
from repro.sim import compile as compile_mod
from repro.sim.compile import clear_schedule_cache, schedule_cache_stats
from repro.sim.module import Module
from repro.sim.simulator import Simulator

from tests.test_scheduler_equivalence import _run_with_history


@pytest.fixture
def store_dir(tmp_path):
    """A fresh, empty disk tier; both cache tiers cleaned around the test."""
    prev = schedule_store.cache_dir()
    clear_schedule_cache()
    schedule_store.clear()
    directory = tmp_path / "sched"
    schedule_store.configure(directory)
    yield directory
    clear_schedule_cache()
    schedule_store.clear()
    schedule_store.configure(str(prev) if prev is not None else None)


class Stage(Module):
    """src -> +1 chain element (a deterministic, cacheable topology)."""

    def __init__(self, name, src=None):
        super().__init__(name)
        self.src = src
        self.out = self.signal("out", width=32)
        if src is not None:
            self.sensitive_to(src)
        else:
            self.sensitive_to()
        self.drives(self.out)

    def comb(self):
        base = self.src.value if self.src is not None else 7
        self.out.drive(base + 1)


def _chain_sim(depth=3, name="chain"):
    sim = Simulator(name, scheduler="compiled")
    prev = None
    for i in range(depth):
        stage = Stage(f"s{i}", prev.out if prev is not None else None)
        sim.add(stage)
        prev = stage
    sim.elaborate()
    return sim, prev


def _entry_files(directory):
    return sorted(directory.glob("*" + schedule_store._SUFFIX))


# ----------------------------------------------------------------------
# cold write → disk hit
# ----------------------------------------------------------------------


def test_cold_compile_persists_entry(store_dir):
    sim, tail = _chain_sim()
    sim.run(3)
    assert tail.out.value == 10
    assert sim.schedule_cache_tier == "cold"
    stats = schedule_cache_stats()
    assert stats["disk_writes"] == 1
    assert len(_entry_files(store_dir)) == 1


def test_disk_hit_skips_levelization(store_dir, monkeypatch):
    sim1, tail1 = _chain_sim()
    sim1.run(3)
    clear_schedule_cache()   # kill the in-process tier; disk files survive

    # A disk hit must find the stored code without compiling the source.
    def boom(*_a, **_k):
        raise AssertionError("disk hit ran compile()")

    monkeypatch.setattr(compile_mod, "compile", boom, raising=False)
    sim2, tail2 = _chain_sim()
    sim2.run(3)
    assert sim2.schedule_cache_tier == "disk"
    assert tail2.out.value == tail1.out.value
    stats = schedule_cache_stats()
    assert stats["disk_hits"] == 1
    assert stats["disk_misses"] == 0


def test_disk_hit_promotes_to_memory_tier(store_dir):
    sim1, _ = _chain_sim()
    sim1.run(1)
    clear_schedule_cache()
    sim2, _ = _chain_sim()
    sim2.run(1)
    assert sim2.schedule_cache_tier == "disk"
    sim3, _ = _chain_sim()
    sim3.run(1)
    assert sim3.schedule_cache_tier == "memory"
    assert schedule_cache_stats()["disk_hits"] == 1


def test_preload_serves_hits_without_file_io(store_dir):
    sim1, _ = _chain_sim()
    sim1.run(1)
    clear_schedule_cache()
    assert schedule_store.preload() == 1
    for path in _entry_files(store_dir):
        path.unlink()   # RAM mirror must now be the only copy
    sim2, _ = _chain_sim()
    sim2.run(1)
    assert sim2.schedule_cache_tier == "disk"


def test_disabled_tier_stays_cold(store_dir):
    schedule_store.configure(None)
    sim, _ = _chain_sim()
    sim.run(1)
    assert sim.schedule_cache_tier == "cold"
    assert schedule_cache_stats()["disk_writes"] == 0


# ----------------------------------------------------------------------
# bit-identity: cold vs disk-hit kernels against the audited event kernel
# ----------------------------------------------------------------------


@pytest.mark.parametrize("app_key", ("sha256", "dram_dma"))
def test_disk_hit_kernel_bit_identical_across_schedulers(store_dir, app_key):
    """The equivalence matrix, with the compiled kernel bound from disk.

    The audited event kernel is the reference; a *cold* compiled run
    writes the disk entry, then the in-process cache is wiped so the
    second compiled run must bind from it. All three runs must agree on
    every per-cycle signal hash, the serialized trace bytes, and the app
    result.
    """
    event = _run_with_history(app_key, "event")
    cold = _run_with_history(app_key, "compiled")
    assert schedule_cache_stats()["disk_writes"] >= 1

    clear_schedule_cache()
    warm = _run_with_history(app_key, "compiled")
    assert schedule_cache_stats()["disk_hits"] >= 1, (
        "second compiled run did not bind from the disk tier")

    for name, run in (("compiled-cold", cold), ("compiled-disk", warm)):
        assert run["cycles"] == event["cycles"], name
        assert run["history"] == event["history"], name
        assert run["trace_bytes"] == event["trace_bytes"], name
        assert run["result"] == event["result"], name


# ----------------------------------------------------------------------
# corruption: every damage mode must fall back to a cold compile
# ----------------------------------------------------------------------


def _damage_and_recompile(store_dir, damage):
    """Cold-compile, apply ``damage`` to the entry file, recompile."""
    sim1, tail1 = _chain_sim()
    sim1.run(3)
    (path,) = _entry_files(store_dir)
    damage(path)
    clear_schedule_cache()
    sim2, tail2 = _chain_sim()
    sim2.run(3)
    assert tail2.out.value == tail1.out.value
    return sim2


def test_truncated_entry_falls_back_cold(store_dir):
    sim = _damage_and_recompile(
        store_dir, lambda p: p.write_bytes(p.read_bytes()[:10]))
    assert sim.schedule_cache_tier == "cold"
    stats = schedule_cache_stats()
    assert stats["disk_invalidations"] == 1
    # The damaged file was unlinked and the cold compile re-wrote it
    # (clear_schedule_cache zeroed the counters between the two runs, so
    # this write is the fallback compile's, not the original's).
    assert stats["disk_writes"] == 1
    assert len(_entry_files(store_dir)) == 1


def test_garbage_entry_falls_back_cold(store_dir):
    """Garbage, and well-framed entries the marshal-only store does not
    write: a pickle (``P``) body, a code field that is not code."""
    def pickled(path):
        source, code = schedule_store._decode(path.read_bytes())
        body = b"P" + pickle.dumps((source, marshal.dumps(code)))
        path.write_bytes(schedule_store._MAGIC
                         + zlib.crc32(body).to_bytes(4, "little")
                         + len(body).to_bytes(8, "little") + body)

    def codeless(path):
        source, code = schedule_store._decode(path.read_bytes())
        path.write_bytes(schedule_store._encode((source, marshal.dumps(code))))

    for damage in (lambda p: p.write_bytes(b"\xde\xad" * 512), pickled,
                   codeless):
        sim = _damage_and_recompile(store_dir, damage)
        assert sim.schedule_cache_tier == "cold"
        assert schedule_cache_stats()["disk_invalidations"] == 1


def test_crc_flip_falls_back_cold(store_dir):
    def flip(path):
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF   # payload byte: CRC32 check must catch it
        path.write_bytes(bytes(blob))

    sim = _damage_and_recompile(store_dir, flip)
    assert sim.schedule_cache_tier == "cold"
    assert schedule_cache_stats()["disk_invalidations"] == 1


def test_stale_format_version_falls_back_cold(store_dir):
    """An entry in the first format's layout (a dict payload)."""
    def stale(path):
        source, code = schedule_store._decode(path.read_bytes())
        path.write_bytes(schedule_store._encode(
            {"format": 1, "source": source, "code": code}))

    sim = _damage_and_recompile(store_dir, stale)
    assert sim.schedule_cache_tier == "cold"
    assert schedule_cache_stats()["disk_invalidations"] == 1


def test_tampered_source_hash_falls_back_cold(store_dir):
    """A stored source that differs from the lookup's never binds."""
    def tamper(path):
        source, code = schedule_store._decode(path.read_bytes())
        path.write_bytes(schedule_store._encode(
            (source + "\n# tampered\n", code)))

    sim = _damage_and_recompile(store_dir, tamper)
    assert sim.schedule_cache_tier == "cold"
    assert schedule_cache_stats()["disk_invalidations"] == 1


# ----------------------------------------------------------------------
# the key is the generated source
# ----------------------------------------------------------------------


def test_store_key_depends_on_package_version(store_dir):
    """Records of two apps, flight on and off, generate one source."""
    from repro.apps.registry import get_app
    from repro.core import VidiConfig
    from repro.harness.runner import bench_config, build_record_deployment

    kernels, tiers = [], []
    for app in ("sha256", "dram_dma"):
        for flight in (False, True):
            dep, _, _ = build_record_deployment(
                get_app(app), bench_config(VidiConfig.r2,
                                           flight_recorder=flight),
                seed=1, scheduler="compiled")
            dep.sim._step_callable()
            kernels.append(dep.sim._compiled)
            tiers.append(dep.sim.schedule_cache_tier)
    assert tiers == ["cold", "memory", "memory", "memory"]
    code = kernels[0].step.__code__
    assert all(k.step.__code__ is code for k in kernels)
    assert schedule_cache_stats()["entries"] == 1


def test_store_key_depends_on_codegen_source(store_dir, monkeypatch):
    """A codegen change that alters the emitted source misses both
    tiers: an entry compiled from other source is never found."""
    sim, _ = _chain_sim()
    sim.run(1)
    emit_settle = compile_mod._emit_settle

    def changed(emit, *args):
        emit("    pass  # a codegen change")
        emit_settle(emit, *args)

    monkeypatch.setattr(compile_mod, "_emit_settle", changed)
    schedule_store.reset_stats()
    sim, tail = _chain_sim()
    sim.run(3)
    assert sim.schedule_cache_tier == "cold"
    assert tail.out.value == 10
    assert schedule_cache_stats()["disk_misses"] == 1
    assert len(_entry_files(store_dir)) == 2


def test_version_skewed_entry_never_loads(store_dir, monkeypatch):
    """An entry written under another interpreter tag is invisible: the
    tag is part of the key, so neither a lookup nor a preload takes it."""
    monkeypatch.setattr(schedule_store, "_python_tag", lambda: "other-tag")
    sim1, _ = _chain_sim()
    sim1.run(1)
    monkeypatch.undo()
    clear_schedule_cache()
    sim2, _ = _chain_sim()
    sim2.run(1)
    assert sim2.schedule_cache_tier == "cold"
    assert schedule_cache_stats()["disk_misses"] == 1
    clear_schedule_cache()
    assert schedule_store.preload() == 1   # the current tag's entry only
