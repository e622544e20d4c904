"""Memory models: on-FPGA DRAM/BRAM and host (CPU-side) DRAM.

Memories are word-addressed with byte-granular write strobes, matching the
AXI ``WSTRB`` semantics the debugging case study depends on (§5.2's
"unaligned DMA access" bug is precisely a mishandled strobe mask).

Memories are plain Python objects, not :class:`~repro.sim.module.Module`
instances: in RTL terms they are the storage arrays inside modules, accessed
from the owning module's ``seq()`` process with single-cycle latency (BRAM)
or via a latency model (DRAM, handled by the platform's DMA engine).
"""

from __future__ import annotations

from typing import Dict

from repro.errors import SimulationError


class WordMemory:
    """A sparse, word-addressed memory with byte write strobes.

    ``word_bytes`` is the width of one storage word (64 for the 512-bit data
    paths used on F1's pcim/pcis interfaces, 4 for AXI-Lite register files).
    """

    def __init__(self, name: str, size_bytes: int, word_bytes: int = 64):
        if size_bytes % word_bytes:
            raise SimulationError(
                f"memory {name!r}: size {size_bytes} not a multiple of "
                f"word size {word_bytes}"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.word_bytes = word_bytes
        self._words: Dict[int, int] = {}
        self._full_strobe = (1 << word_bytes) - 1
        self._strobe_masks: Dict[int, int] = {}  # strobe -> byte mask
        # Modules whose comb() reads this memory (AXI read-data paths)
        # register a callback so writes from *any* party — DMA engines,
        # host threads, accelerators — re-schedule them.
        self._write_listeners: list = []

    def on_write(self, callback) -> None:
        """Register a callback invoked after every mutation of the storage."""
        self._write_listeners.append(callback)

    # ------------------------------------------------------------------
    def _check(self, addr: int) -> int:
        if addr % self.word_bytes:
            raise SimulationError(
                f"memory {self.name!r}: unaligned word access at {addr:#x}"
            )
        if not 0 <= addr < self.size_bytes:
            raise SimulationError(
                f"memory {self.name!r}: address {addr:#x} out of range "
                f"(size {self.size_bytes:#x})"
            )
        return addr // self.word_bytes

    def read_word(self, addr: int) -> int:
        """Read one word; uninitialised storage reads as zero."""
        # _check's tests, inline: it is called only to raise its error.
        if addr % self.word_bytes or not 0 <= addr < self.size_bytes:
            self._check(addr)
        return self._words.get(addr // self.word_bytes, 0)

    def write_word(self, addr: int, data: int, strobe: int | None = None) -> None:
        """Write one word, honouring the byte strobe mask.

        Bit *i* of ``strobe`` enables byte *i* (little-endian) of the word.
        ``None`` means all bytes enabled.
        """
        if addr % self.word_bytes or not 0 <= addr < self.size_bytes:
            self._check(addr)   # raises
        index = addr // self.word_bytes
        if strobe is None:
            strobe = self._full_strobe
        strobe &= self._full_strobe
        if strobe == self._full_strobe:
            self._words[index] = data & ((1 << (8 * self.word_bytes)) - 1)
        else:
            byte_mask = self._strobe_masks.get(strobe)
            if byte_mask is None:
                byte_mask = 0
                for i in range(self.word_bytes):
                    if (strobe >> i) & 1:
                        byte_mask |= 0xFF << (8 * i)
                self._strobe_masks[strobe] = byte_mask
            old = self._words.get(index, 0)
            self._words[index] = (old & ~byte_mask) | (data & byte_mask)
        for callback in self._write_listeners:
            callback()

    # ------------------------------------------------------------------
    # byte-level convenience used by host programs and golden models
    # ------------------------------------------------------------------
    def read_bytes(self, addr: int, length: int) -> bytes:
        """Read ``length`` bytes starting at arbitrary byte address ``addr``."""
        if length <= 0:
            return b""
        wb = self.word_bytes
        first = (addr // wb) * wb
        last = ((addr + length - 1) // wb) * wb
        get = self._words.get
        check = self._check
        blob = b"".join(
            get(check(word_addr), 0).to_bytes(wb, "little")
            for word_addr in range(first, last + wb, wb))
        offset = addr - first
        return blob[offset:offset + length]

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Write raw bytes starting at arbitrary byte address ``addr``.

        Whole-word runs collapse into one strobed word write each; the
        resulting storage (and the write-listener wakes) match the
        byte-at-a-time AXI semantics exactly.
        """
        wb = self.word_bytes
        pos = 0
        length = len(data)
        while pos < length:
            byte_addr = addr + pos
            word_addr = (byte_addr // wb) * wb
            lane = byte_addr - word_addr
            n = min(wb - lane, length - pos)
            value = int.from_bytes(data[pos:pos + n], "little") << (8 * lane)
            self.write_word(word_addr, value,
                            strobe=((1 << n) - 1) << lane)
            pos += n

    def clear(self) -> None:
        """Zero the whole memory (power-on state)."""
        self._words.clear()
        for callback in self._write_listeners:
            callback()


class RegisterFile:
    """A small 32-bit register file behind an AXI-Lite interface.

    Accelerators expose control/status registers through one of these; the
    host reads and writes them via MMIO transactions on sda/ocl/bar1.
    """

    REG_BYTES = 4

    def __init__(self, name: str, num_regs: int):
        self.name = name
        self.num_regs = num_regs
        self._regs = [0] * num_regs

    def _index(self, addr: int) -> int:
        if addr % self.REG_BYTES:
            raise SimulationError(f"{self.name}: unaligned register access {addr:#x}")
        index = addr // self.REG_BYTES
        if not 0 <= index < self.num_regs:
            raise SimulationError(f"{self.name}: register address {addr:#x} out of range")
        return index

    def read(self, addr: int) -> int:
        """MMIO read of the 32-bit register at byte address ``addr``."""
        return self._regs[self._index(addr)]

    def write(self, addr: int, value: int) -> None:
        """MMIO write of the 32-bit register at byte address ``addr``."""
        self._regs[self._index(addr)] = value & 0xFFFF_FFFF

    def __getitem__(self, index: int) -> int:
        return self._regs[index]

    def __setitem__(self, index: int, value: int) -> None:
        self._regs[index] = value & 0xFFFF_FFFF

    def clear(self) -> None:
        """Zero all registers."""
        for i in range(self.num_regs):
            self._regs[i] = 0
