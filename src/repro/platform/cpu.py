"""CPU model: host programs driving the environment side of the interfaces.

A *host program* is a Python generator that yields operations —
MMIO register accesses, PCIe DMA transfers, waits — and receives each
operation's result back at the yield point, e.g.::

    def program(host):
        yield DmaWrite(0x0, payload)                 # pcis burst DMA
        yield MmioWrite("ocl", CTRL, 1)              # start the accelerator
        status = yield MmioRead("ocl", STATUS)       # poll
        data = yield DmaRead(0x1000, len(payload))   # read results back

The :class:`CpuModel` executes one or more such programs concurrently
("threads"), dispatching their operations onto per-interface engines with
seeded think-time jitter — the host-side scheduling non-determinism that
produces bugs like §5.2's delayed start. The vendor-simulation environment
mode refuses multi-threaded programs, mirroring the F1 simulator's
limitation.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Tuple

from repro.channels.axi import AXI4_SPECS, AxiInterface
from repro.channels.handshake import ChannelSink, ChannelSource
from repro.errors import SimulationError
from repro.platform.env import EnvironmentMode
from repro.sim.memory import WordMemory
from repro.sim.module import NEVER, Module

# ----------------------------------------------------------------------
# host-program operations
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MmioWrite:
    """Write a 32-bit register over an AXI-Lite interface."""

    interface: str
    addr: int
    value: int


@dataclass(frozen=True)
class MmioRead:
    """Read a 32-bit register; the yield returns the value."""

    interface: str
    addr: int


@dataclass(frozen=True)
class DmaWrite:
    """PCIe DMA from host to FPGA over pcis (byte-accurate, may be unaligned)."""

    addr: int
    data: bytes


@dataclass(frozen=True)
class DmaRead:
    """PCIe DMA from FPGA to host over pcis; the yield returns bytes."""

    addr: int
    length: int


@dataclass(frozen=True)
class WaitCycles:
    """Sleep for a fixed number of cycles (e.g. a polling interval)."""

    cycles: int


@dataclass(frozen=True)
class HostMemRead:
    """Read host DRAM directly (a plain CPU load; no FPGA transaction)."""

    addr: int
    length: int


@dataclass(frozen=True)
class WaitHostWord:
    """Spin until a predicate holds on a host-DRAM word (no FPGA traffic).

    This models a CPU waiting on a completion flag the FPGA DMA-writes into
    host memory — synchronization *outside* the record/replay boundary.
    """

    addr: int
    predicate: Callable[[int], bool]


HostProgram = Generator[Any, Any, None]


# ----------------------------------------------------------------------
# MMIO port engine (one per AXI-Lite interface)
# ----------------------------------------------------------------------


class MmioPort(Module):
    """Executes queued register reads/writes on one AXI-Lite interface."""

    has_comb = False  # behaviour lives in the child sources/sinks

    def __init__(self, name: str, interface: AxiInterface):
        super().__init__(name)
        self.interface = interface
        self.aw_src = self.submodule(ChannelSource(f"{name}.aw", interface.aw))
        self.w_src = self.submodule(ChannelSource(f"{name}.w", interface.w))
        self.ar_src = self.submodule(ChannelSource(f"{name}.ar", interface.ar))
        self.b_sink = self.submodule(ChannelSink(f"{name}.b", interface.b))
        self.r_sink = self.submodule(ChannelSink(f"{name}.r", interface.r))
        self._queue: Deque[Tuple[Any, Callable[[Any], None]]] = deque()
        self._active: Optional[Tuple[Any, Callable[[Any], None], int]] = None
        self.seq_idle_when(("none", "_active"), ("falsy", "_queue"))

    def submit(self, op, on_complete: Callable[[Any], None]) -> None:
        """Queue one MmioWrite/MmioRead for execution."""
        self._queue.append((op, on_complete))

    @property
    def idle(self) -> bool:
        return self._active is None and not self._queue

    def seq(self) -> None:
        if self._active is None and self._queue:
            op, callback = self._queue.popleft()
            if isinstance(op, MmioWrite):
                self.aw_src.send({"addr": op.addr})
                self.w_src.send({"data": op.value, "strb": 0xF})
                baseline = len(self.b_sink.received)
            else:
                self.ar_src.send({"addr": op.addr})
                baseline = len(self.r_sink.received)
            self._active = (op, callback, baseline)
            return
        if self._active is not None:
            op, callback, baseline = self._active
            if isinstance(op, MmioWrite):
                if len(self.b_sink.received) > baseline:
                    self._active = None
                    callback(None)
            else:
                if len(self.r_sink.received) > baseline:
                    word = self.r_sink.received[-1]
                    value = self.interface.r.spec.extract(word, "data")
                    self._active = None
                    callback(value)


# ----------------------------------------------------------------------
# pcis DMA engine
# ----------------------------------------------------------------------

# Cycles the engine idles after each burst completes: BURST_GAP plus a
# seeded draw from 0..GAP_JITTER.
BURST_GAP = 4
GAP_JITTER = 3

# A W beat is packed once, by shifts, when its burst is issued (id 0).
_W_DATA_AT, _W_DATA_MASK, _W_STRB_AT, _W_STRB_MASK = (
    AXI4_SPECS["w"].slots("data", "strb"))
_W_LAST_AT = AXI4_SPECS["w"].slots("last")[0]


class PcisDmaEngine(Module):
    """Executes byte-accurate burst DMA on the CPU-managed pcis interface."""

    has_comb = False
    WORD = 64
    MAX_BURST = 8

    def __init__(self, name: str, interface: AxiInterface,
                 model_strobes: bool = True,
                 seed: Optional[int] = 0, pcie=None):
        super().__init__(name)
        self.interface = interface
        self.model_strobes = model_strobes
        self.pcie = pcie
        self._rng = random.Random(seed)
        self.aw_src = self.submodule(ChannelSource(f"{name}.aw", interface.aw))
        self.w_src = self.submodule(ChannelSource(f"{name}.w", interface.w))
        self.ar_src = self.submodule(ChannelSource(f"{name}.ar", interface.ar))
        self.b_sink = self.submodule(ChannelSink(f"{name}.b", interface.b))
        # Read-data consumption is paced by the shared PCIe link: the sink
        # raises READY only when a beat's worth of link credit is granted.
        self.r_sink = self.submodule(ChannelSink(
            f"{name}.r", interface.r, policy=self._r_ready_policy))
        # With no read burst awaited the READY policy short-circuits to
        # False before touching PCIe credit, so while READY is already low
        # and nothing fires the sink's seq() cannot do anything.
        self.r_sink.seq_idle_when(("nofire", interface.r),
                                  ("falsy", "_ready_now"),
                                  ("none", self, "_await_r"))
        self._w_beats_left: List[int] = []   # packed W words
        self._queue: Deque[Tuple[Any, Callable[[Any], None]]] = deque()
        self._bursts: List[Tuple] = []     # remaining bursts of the active op
        self._callback: Optional[Callable[[Any], None]] = None
        self._kind = ""                    # 'write' or 'read'
        self._await_b: Optional[int] = None
        self._await_r: Optional[Tuple[int, int]] = None  # (baseline, expected beats)
        self._gap = 0
        self._read_data: List[Tuple[int, int]] = []      # (word, data)
        self._read_op: Optional[DmaRead] = None
        self._bursts_done_addr = 0
        # Fully drained engine: no beats dribbling, no gap counting down,
        # no burst awaited, no op active or queued.
        self.seq_idle_when(("falsy", "_w_beats_left"), ("falsy", "_gap"),
                           ("none", "_await_b"), ("none", "_await_r"),
                           ("none", "_callback"), ("falsy", "_queue"))

    # ------------------------------------------------------------------
    def submit(self, op, on_complete: Callable[[Any], None]) -> None:
        """Queue one DmaWrite/DmaRead for execution."""
        self._queue.append((op, on_complete))

    @property
    def idle(self) -> bool:
        return (self._callback is None and not self._queue)

    def _r_ready_policy(self, _cycle: int, _count: int) -> bool:
        """READY for read-data beats, gated on PCIe link credit."""
        if self._await_r is None:
            return False
        return self.pcie is None or self.pcie.request_app()

    # ------------------------------------------------------------------
    def _plan_write(self, op: DmaWrite) -> List[Tuple[int, List[Tuple[int, int]]]]:
        """Split a byte-accurate write into aligned bursts of (data, strobe).

        The data is zero-padded to whole words, so only the first and last
        beat can carry a partial strobe. An empty write issues no burst at
        any address and completes without bus traffic.
        """
        if not op.data:
            return []
        word = self.WORD
        # Vendor-sim inaccuracy: without strobe modelling, addresses are
        # force-aligned and strobes are full, silently corrupting
        # unaligned transfers.
        head = op.addr & (word - 1) if self.model_strobes else 0
        addr = op.addr & ~(word - 1)
        tail = -(head + len(op.data)) % word
        padded = bytes(head) + op.data + bytes(tail)
        full = (1 << word) - 1
        strobes = [full] * (len(padded) // word)
        if strobes and self.model_strobes:
            strobes[0] &= full << head
            strobes[-1] &= full >> tail
        beats = [(int.from_bytes(padded[i * word:(i + 1) * word], "little"),
                  strobe) for i, strobe in enumerate(strobes)]
        return [(addr + i * word, beats[i:i + self.MAX_BURST])
                for i in range(0, len(beats), self.MAX_BURST)]

    def _plan_read(self, op: DmaRead) -> List[Tuple[int, int]]:
        """Split a read into aligned (addr, n_beats) bursts covering it."""
        first_word = op.addr & ~(self.WORD - 1)
        last_word = (op.addr + op.length - 1) & ~(self.WORD - 1)
        n_words = (last_word - first_word) // self.WORD + 1
        return [(first_word + i * self.WORD, min(n_words - i, self.MAX_BURST))
                for i in range(0, n_words, self.MAX_BURST)]

    # ------------------------------------------------------------------
    def seq(self) -> None:
        # Dribble write-data beats of the in-flight burst at link rate.
        if self._w_beats_left and len(self.w_src.queue) < 2:
            if self.pcie is None or self.pcie.request_app():
                self.w_src.send_packed(self._w_beats_left.pop(0))
        if self._gap > 0:
            self._gap -= 1
            return
        # Completion checks for the in-flight burst.
        if self._await_b is not None:
            if self._w_beats_left:
                return   # burst data still streaming
            if len(self.b_sink.received) > self._await_b:
                self._await_b = None
                self._gap = BURST_GAP + self._rng.randrange(GAP_JITTER + 1)
            else:
                return
        if self._await_r is not None:
            baseline, expected = self._await_r
            if len(self.r_sink.received) >= baseline + expected:
                base_addr = self._bursts_done_addr
                for i in range(expected):
                    word = self.r_sink.received[baseline + i]
                    data = self.interface.r.spec.extract(word, "data")
                    self._read_data.append((base_addr + i * self.WORD, data))
                self._await_r = None
                self._gap = BURST_GAP + self._rng.randrange(GAP_JITTER + 1)
            else:
                return
        # Issue the next burst of the active op.
        if self._callback is not None and self._bursts:
            if self._kind == "write":
                burst_addr, beats = self._bursts.pop(0)
                self.aw_src.send({"addr": burst_addr, "len": len(beats) - 1,
                                  "size": 6, "id": 0})
                self._w_beats_left = [
                    ((data & _W_DATA_MASK) << _W_DATA_AT)
                    | ((strobe & _W_STRB_MASK) << _W_STRB_AT)
                    | ((1 if i == len(beats) - 1 else 0) << _W_LAST_AT)
                    for i, (data, strobe) in enumerate(beats)
                ]
                self._await_b = len(self.b_sink.received)
            else:
                burst_addr, n_beats = self._bursts.pop(0)
                self.ar_src.send({"addr": burst_addr, "len": n_beats - 1,
                                  "size": 6, "id": 0})
                self._await_r = (len(self.r_sink.received), n_beats)
                self._bursts_done_addr = burst_addr
            return
        # Finish the active op.
        if self._callback is not None and not self._bursts:
            callback = self._callback
            self._callback = None
            if self._kind == "read":
                op = self._read_op
                image = bytearray()
                for word_addr, data in sorted(self._read_data):
                    image.extend(data.to_bytes(self.WORD, "little"))
                first_word = op.addr & ~(self.WORD - 1)
                start = op.addr - first_word
                callback(bytes(image[start:start + op.length]))
            else:
                callback(None)
            return
        # Start the next queued op.
        if self._queue:
            op, callback = self._queue.popleft()
            self._callback = callback
            if isinstance(op, DmaWrite):
                self._kind = "write"
                self._bursts = self._plan_write(op)
            else:
                self._kind = "read"
                self._read_op = op
                self._read_data = []
                self._bursts = self._plan_read(op)

    def reset_state(self) -> None:
        super().reset_state()
        self._queue.clear()
        self._bursts = []
        self._callback = None
        self._await_b = None
        self._await_r = None
        self._gap = 0
        self._read_data = []
        self._read_op = None
        self._w_beats_left = []


# ----------------------------------------------------------------------
# the CPU itself
# ----------------------------------------------------------------------


class CpuModel(Module):
    """Runs host-program threads against the environment-side interfaces.

    Each thread keeps ``due``, the cycle it next acts: it resumes its
    program, dispatches an operation once its think time is over, ends a
    ``WaitCycles`` sleep or reads a ``WaitHostWord`` flag. A thread that
    waits on an engine, or on a flag no write has touched since it last
    read it, is due at :data:`~repro.sim.module.NEVER` until the engine's
    completion callback or a host-memory write makes it due at once.
    ``_wake_at``, the earliest ``due``, is the idle guard's deadline;
    ``_live`` counts threads not done, for ``done``.
    """

    has_comb = False

    def __init__(self, name: str, interfaces: Dict[str, AxiInterface],
                 host_memory: WordMemory,
                 mode: EnvironmentMode = EnvironmentMode.HARDWARE,
                 think_jitter: int = 3, seed: Optional[int] = 0, pcie=None):
        super().__init__(name)
        self.mode = mode
        self.host_memory = host_memory
        self.think_jitter = think_jitter
        self._rng = random.Random(seed)
        self.mmio_ports: Dict[str, MmioPort] = {}
        for iface_name in ("sda", "ocl", "bar1"):
            if iface_name in interfaces:
                port = MmioPort(f"{name}.{iface_name}", interfaces[iface_name])
                self.mmio_ports[iface_name] = port
                self.submodule(port)
        self.dma: Optional[PcisDmaEngine] = None
        if "pcis" in interfaces:
            self.dma = PcisDmaEngine(
                f"{name}.pcis", interfaces["pcis"],
                model_strobes=mode.models_strobes,
                seed=None if seed is None else seed + 1, pcie=pcie)
            self.submodule(self.dma)
        self._threads: List[dict] = []
        self._flag_waiters: List[dict] = []   # threads in a WaitHostWord
        self._live = 0
        self._wake_at = NEVER
        host_memory.on_write(self._host_written)
        self.seq_idle_when(("until", "_wake_at"))

    # ------------------------------------------------------------------
    def add_thread(self, program: HostProgram, name: str = "") -> None:
        """Register one host-program thread (created before the run starts)."""
        if self._threads and not self.mode.supports_threads:
            raise SimulationError(
                "the vendor simulation framework does not support "
                "multi-threaded CPU programs (it segfaults on F1)"
            )
        self._threads.append({
            "name": name or f"T{len(self._threads) + 1}",
            "gen": program,
            # ready | thinking | sleeping | flag | engine | done
            "state": "ready",
            "due": 0,           # the cycle the thread next acts
            "result": None,
            "op": None,
        })
        self._live += 1
        self._wake_at = 0

    def is_done(self) -> bool:
        """All threads finished and all engines drained."""
        return (not self._live
                and all(p.idle for p in self.mmio_ports.values())
                and (self.dma is None or self.dma.idle))

    done = property(is_done)

    # ------------------------------------------------------------------
    @staticmethod
    def _resume(thread: dict, result, due: int) -> None:
        thread["state"] = "ready"
        thread["result"] = result
        thread["due"] = due

    def _host_written(self) -> None:
        """Host memory changed: every flag waiter reads its word again at
        the next ``seq()``."""
        if self._flag_waiters:
            for thread in self._flag_waiters:
                thread["due"] = 0
            self._wake_at = 0

    def _flag(self, op: WaitHostWord) -> Optional[int]:
        """The flag word if ``op``'s predicate holds on it, else ``None``."""
        word = int.from_bytes(self.host_memory.read_bytes(op.addr, 8),
                              "little")
        return word if op.predicate(word) else None

    def _dispatch(self, thread: dict, op, cycle: int) -> None:
        """Hand one operation to the right engine, or start its wait."""
        def complete(result):
            self._resume(thread, result, 0)
            self._wake_at = 0

        if isinstance(op, (MmioWrite, MmioRead)):
            port = self.mmio_ports.get(op.interface)
            if port is None:
                raise SimulationError(f"no MMIO port {op.interface!r}")
            thread["state"], thread["due"] = "engine", NEVER
            port.submit(op, complete)
        elif isinstance(op, (DmaWrite, DmaRead)):
            if self.dma is None:
                raise SimulationError("no pcis DMA engine in this deployment")
            thread["state"], thread["due"] = "engine", NEVER
            self.dma.submit(op, complete)
        elif isinstance(op, HostMemRead):
            # A plain load; the thread resumes next cycle.
            self._resume(thread,
                         self.host_memory.read_bytes(op.addr, op.length),
                         cycle + 1)
        elif isinstance(op, WaitCycles):
            thread["state"] = "sleeping"
            thread["due"] = cycle + max(op.cycles, 1)
        elif isinstance(op, WaitHostWord):
            # The flag is first read next cycle; until a write touches
            # host memory, a flag that does not hold now cannot hold then.
            thread["state"] = "flag"
            thread["due"] = NEVER if self._flag(op) is None else cycle + 1
            self._flag_waiters.append(thread)
        else:
            raise SimulationError(f"unknown host operation {op!r}")

    def seq(self) -> None:
        cycle = self._sim.cycle
        if cycle < self._wake_at:
            return
        for thread in self._threads:
            if thread["due"] <= cycle:
                self._act(thread, cycle)
        self._wake_at = min(thread["due"] for thread in self._threads)

    def _act(self, thread: dict, cycle: int) -> None:
        """The step of one thread that is due at ``cycle``."""
        state = thread["state"]
        if state == "sleeping":
            # A finished wait resumes the program next cycle, like a
            # completion callback.
            self._resume(thread, None, cycle + 1)
            return
        if state == "flag":
            word = self._flag(thread["op"])
            if word is None:
                thread["due"] = NEVER   # until the next host-memory write
            else:
                self._flag_waiters.remove(thread)
                self._resume(thread, word, cycle + 1)
            return
        if state == "ready":
            try:
                op = thread["gen"].send(thread["result"])
            except StopIteration:
                thread["state"], thread["due"] = "done", NEVER
                self._live -= 1
                return
            thread["result"] = None
            thread["op"] = op
            think = self._rng.randrange(self.think_jitter + 1) \
                if self.think_jitter > 0 else 0
            if think:
                thread["state"] = "thinking"
                thread["due"] = cycle + think
                return
        self._dispatch(thread, thread["op"], cycle)
