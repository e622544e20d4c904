"""Unit tests for the trace store: staging, bandwidth, words, arbitration."""

import random
from collections import deque

import pytest

from repro.core.store import STORAGE_WORD_BYTES, TraceStore
from repro.errors import SimulationError
from repro.platform.pcie import PcieArbiter
from repro.sim import Module, Simulator


def make_store(**kwargs):
    sim = Simulator()
    store = TraceStore("store", **kwargs)
    sim.add(store)
    return sim, store


class TestStaging:
    def test_accept_and_drain(self):
        sim, store = make_store(staging_bytes=256,
                                bandwidth_bytes_per_cycle=8.0)
        store.accept(b"\x01" * 40)
        assert store.free == 256 - 40
        sim.run(5)
        assert store.free == 256
        assert store.trace_bytes == b"\x01" * 40

    def test_fractional_bandwidth_accumulates(self):
        sim, store = make_store(staging_bytes=256,
                                bandwidth_bytes_per_cycle=0.5)
        store.accept(b"\xAB")
        sim.run(1)
        assert len(store.trace_bytes) == 0
        sim.run(1)
        assert store.trace_bytes == b"\xAB"

    def test_overflow_rejected(self):
        _, store = make_store(staging_bytes=64)
        with pytest.raises(SimulationError):
            store.accept(b"\x00" * 65)

    def test_order_preserved_across_packets(self):
        sim, store = make_store(staging_bytes=256,
                                bandwidth_bytes_per_cycle=3.0)
        store.accept(b"AAAA")
        store.accept(b"BB")
        sim.run(10)
        assert store.trace_bytes == b"AAAABB"

    def test_flush_drains_instantly(self):
        _, store = make_store(staging_bytes=256,
                              bandwidth_bytes_per_cycle=0.1)
        store.accept(b"XYZ")
        store.flush()
        assert store.trace_bytes == b"XYZ"

    def test_stall_cycles_counted_when_full(self):
        sim, store = make_store(staging_bytes=64,
                                bandwidth_bytes_per_cycle=0.25)
        store.accept(b"\x00" * 64)
        sim.run(8)
        assert store.stall_cycles > 0

    def test_minimum_staging_enforced(self):
        with pytest.raises(SimulationError):
            TraceStore("s", staging_bytes=32)


class TestStorageWords:
    def test_word_rounding(self):
        _, store = make_store()
        store.accept(b"\x00" * 70)
        store.flush()
        assert store.storage_words == 2
        assert store.stored_size_bytes == 2 * STORAGE_WORD_BYTES

    def test_exact_multiple(self):
        _, store = make_store()
        store.accept(b"\x00" * 128)
        store.flush()
        assert store.storage_words == 2

    def test_total_packet_bytes_tracks_exact_length(self):
        _, store = make_store()
        store.accept(b"\x00" * 10)
        store.accept(b"\x00" * 7)
        assert store.total_packet_bytes == 17


class TestArbitratedStore:
    def test_store_uses_leftover_bandwidth(self):
        sim = Simulator()
        arbiter = PcieArbiter("pcie", capacity=8.0)
        store = TraceStore("store", staging_bytes=256,
                           bandwidth_bytes_per_cycle=100.0, arbiter=arbiter)
        sim.add(arbiter)
        sim.add(store)
        store.accept(b"\x00" * 64)
        # Saturate the application side of the link every cycle.
        class Hog:
            pass
        drained_with_hog = []
        for _ in range(6):
            sim.step()
            arbiter.request_app(8)   # app eats the full capacity
            drained_with_hog.append(len(store.trace_bytes))
        # First cycle had full budget (no app usage yet); later cycles see
        # the application's usage and drain nothing.
        assert len(store.trace_bytes) < 64
        before = len(store.trace_bytes)
        sim.run(2)   # no more app traffic
        assert len(store.trace_bytes) > before

    def test_arbiter_accounts_store_bytes(self):
        sim = Simulator()
        arbiter = PcieArbiter("pcie", capacity=16.0)
        store = TraceStore("store", staging_bytes=256,
                           bandwidth_bytes_per_cycle=16.0, arbiter=arbiter)
        sim.add(arbiter)
        sim.add(store)
        store.accept(b"\x00" * 32)
        sim.run(4)
        assert arbiter.total_store_bytes == 32


class TestPcieArbiter:
    def test_credit_accumulates_and_caps(self):
        sim = Simulator()
        arbiter = PcieArbiter("pcie", capacity=22.0)
        sim.add(arbiter)
        sim.run(100)
        # Capped at 4 beats: can grant at most 4 beats back to back.
        grants = sum(1 for _ in range(10) if arbiter.request_app(64))
        assert grants == 4

    def test_beat_pacing_matches_capacity(self):
        sim = Simulator()
        arbiter = PcieArbiter("pcie", capacity=22.0)
        sim.add(arbiter)
        granted = 0
        for _ in range(300):
            sim.step()
            if arbiter.request_app(64):
                granted += 1
        # ~22 bytes/cycle over 300 cycles = ~103 beats of 64 bytes.
        assert 95 <= granted <= 110

    def test_store_budget_reflects_app_usage(self):
        sim = Simulator()
        arbiter = PcieArbiter("pcie", capacity=22.0)
        sim.add(arbiter)
        sim.run(3)
        arbiter.request_app(64)
        sim.step()   # rolls the ledger
        assert arbiter.store_budget() == 0.0
        sim.step()
        assert arbiter.store_budget() == 22.0


class TestFixedPointCredit:
    """The drain credit is exact integer fixed-point (×CREDIT_SCALE)."""

    def test_credit_stays_integral(self):
        from repro.core.store import CREDIT_SCALE

        sim, store = make_store(staging_bytes=256,
                                bandwidth_bytes_per_cycle=0.3)
        store.accept(b"\x11" * 16)
        for _ in range(20):
            sim.run(1)
            assert isinstance(store._drain_credit, int)
            assert 0 <= store._drain_credit
        assert CREDIT_SCALE == 256

    def test_drain_schedule_is_exact(self):
        """0.25 B/cycle drains exactly one byte every fourth cycle, and a
        random arbitrated run drains, stalls and stores exactly like the
        per-byte chunk drain the credit arithmetic replaced."""
        sim, store = make_store(staging_bytes=1024,
                                bandwidth_bytes_per_cycle=0.25)
        store.accept(b"\xEE" * 10)
        drained = []
        for _ in range(40):
            sim.run(1)
            drained.append(len(store.trace_bytes))
        assert drained == [k // 4 for k in range(1, 41)]

        from repro.core.store import CREDIT_SCALE

        class ChunkDrainStore(Module):
            """Reference: copies each cycle's drain out of a chunk deque."""

            has_comb = False

            def __init__(self, arbiter):
                super().__init__("ref")
                self.arbiter = arbiter
                self.chunks = deque()
                self.head_offset = self.staged = self.credit = 0
                self.stall_cycles = 0
                self.data = bytearray()

            def accept(self, packet):
                self.chunks.append(packet)
                self.staged += len(packet)

            def seq(self):
                bw_fp = round(min(22.0, self.arbiter.store_budget())
                              * CREDIT_SCALE)
                if not self.chunks:
                    self.credit = min(self.credit + bw_fp,
                                      round(4 * 22.0 * CREDIT_SCALE))
                    return
                if self.staged == 1024:
                    self.stall_cycles += 1
                self.credit += bw_fp
                budget = self.credit // CREDIT_SCALE
                spent = 0
                while self.chunks and spent < budget:
                    head = self.chunks[0]
                    take = min(len(head) - self.head_offset, budget - spent)
                    self.data += head[self.head_offset:
                                      self.head_offset + take]
                    self.head_offset += take
                    if self.head_offset == len(head):
                        self.chunks.popleft()
                        self.head_offset = 0
                    spent += take
                self.staged -= spent
                self.credit -= spent * CREDIT_SCALE
                if spent:
                    self.arbiter.note_store_bytes(spent)

        rigs = []
        for reference in (False, True):
            rig_sim = Simulator()
            arbiter = rig_sim.add(PcieArbiter("pcie", capacity=22.0))
            rig_store = (ChunkDrainStore(arbiter) if reference else
                         TraceStore("store", staging_bytes=1024,
                                    bandwidth_bytes_per_cycle=22.0,
                                    arbiter=arbiter))
            rig_sim.add(rig_store)
            rigs.append((rig_sim, arbiter, rig_store))
        (sim, arbiter, store), (ref_sim, ref_arbiter, ref) = rigs
        rng = random.Random(2024)
        for cycle in range(3000):
            # Alternate busy and quiet phases so staging both fills up
            # (back-pressure) and empties (idle credit).
            if rng.random() < (0.6 if cycle // 300 % 2 == 0 else 0.05):
                # Clipped to the free space, so staging runs exactly full.
                packet = rng.randbytes(rng.randint(1, 300))[:store.free]
                if packet:
                    store.accept(packet)
                    ref.accept(packet)
            for _ in range(rng.randrange(3)):
                assert arbiter.request_app() == ref_arbiter.request_app()
            sim.step()
            ref_sim.step()
            assert store.free == 1024 - ref.staged
            assert store.stall_cycles == ref.stall_cycles
            assert arbiter.total_store_bytes == ref_arbiter.total_store_bytes
            if cycle % 97 == 0:
                assert store.trace_bytes == bytes(ref.data)
                assert store.storage_words == -(-len(ref.data) // 64)
        assert store.stall_cycles > 100 and store.total_packet_bytes > 20_000
        store.flush()
        assert store.trace_bytes == bytes(ref.data) + b"".join(
            bytes(chunk) for chunk in ref.chunks)[ref.head_offset:]

    def test_no_drift_over_long_runs(self):
        """floor(k * bandwidth) bytes after k cycles, even for bandwidths
        a float accumulator would drift on."""
        sim, store = make_store(staging_bytes=4096,
                                bandwidth_bytes_per_cycle=0.375)
        store.accept(b"\xCD" * 1500)
        for k in (100, 1000, 4000):
            target = k - sim.cycle
            sim.run(target)
            expected = min(1500, (k * 96) // 256)   # 0.375 == 96/256 exactly
            assert len(store.trace_bytes) == expected

    def test_idle_credit_caps_at_burst_allowance(self):
        """A long-idle store may burst at most 4 cycles' worth of credit."""
        sim, store = make_store(staging_bytes=256,
                                bandwidth_bytes_per_cycle=2.0)
        sim.run(100)                    # idle: credit saturates at 4x2 bytes
        store.accept(b"\x55" * 64)
        sim.run(1)
        assert len(store.trace_bytes) == 8 + 2   # cap + this cycle's accrual
