"""Signals: the wires of the simulated hardware.

A :class:`Signal` carries an unsigned integer value of a fixed bit width.
Two update disciplines exist, mirroring synthesizable RTL:

* ``drive(value)`` — *combinational* assignment. The new value is visible
  immediately (within the current delta pass). Modules must drive all of
  their combinational outputs on every ``comb()`` call, otherwise the signal
  latches its previous value.
* ``set_next(value)`` — *registered* assignment. The value is staged and
  becomes visible only after every module's ``seq()`` has run for the current
  cycle, emulating a flip-flop clocked on the rising edge.

Signals must be bound to a :class:`~repro.sim.simulator.Simulator` (normally
via :class:`~repro.sim.module.Module`) before the first ``step``.

``value`` is a plain slot, not a property, because per-cycle code reads it
more than any other attribute. It is read-only by convention: write it
only with ``drive`` or ``set_next``, which also schedule the readers.

Scheduling: every signal carries a *fanout* list — the modules that declared
combinational sensitivity to it via
:meth:`~repro.sim.module.Module.sensitive_to`. A value change enqueues
exactly those modules onto the simulator's work-list and raises its dirty
flag (which settles the modules that declared no sensitivity).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SimulationError


class Signal:
    """A fixed-width hardware signal with combinational and registered updates."""

    __slots__ = ("name", "width", "reset", "_mask", "value", "_next", "_sim",
                 "_fanout")

    def __init__(self, name: str, width: int = 1, reset: int = 0):
        if width < 1:
            raise SimulationError(f"signal {name!r}: width must be >= 1, got {width}")
        self.name = name
        self.width = width
        self.reset = reset & ((1 << width) - 1)
        self._mask = (1 << width) - 1
        self.value = self.reset   # visible now; read-only by convention
        self._next: Optional[int] = None
        self._sim = None
        # Modules combinationally sensitive to this signal, populated at
        # elaboration.
        self._fanout: list = []

    # ------------------------------------------------------------------
    # binding and reset
    # ------------------------------------------------------------------
    def bind(self, sim) -> None:
        """Attach this signal to a simulator (done once, at elaboration)."""
        if self._sim is not None and self._sim is not sim:
            raise SimulationError(f"signal {self.name!r} bound to two simulators")
        self._sim = sim

    def reset_value(self) -> None:
        """Restore the power-on value."""
        self.value = self.reset
        self._next = None

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def __bool__(self) -> bool:
        return self.value != 0

    def bit(self, index: int) -> int:
        """Return bit ``index`` (0 = LSB) of the current value."""
        return (self.value >> index) & 1

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def drive(self, value: int) -> None:
        """Combinational drive: the value becomes visible immediately.

        On a value change the simulator is marked dirty and every module
        in this signal's fanout is enqueued for re-evaluation.
        """
        value &= self._mask
        if value != self.value:
            self.value = value
            sim = self._sim
            if sim is not None:
                sim._dirty = True
                for module in self._fanout:
                    if not module._comb_scheduled:
                        module._comb_scheduled = True
                        sim._pending.append(module)

    def set_next(self, value: int) -> None:
        """Registered drive: the value is committed at the end of the cycle."""
        value &= self._mask
        if self._next is None:
            sim = self._sim
            if sim is None:
                raise SimulationError(
                    f"signal {self.name!r} used before elaboration; "
                    "add its module to a Simulator first"
                )
            sim._staged.append(self)
        self._next = value

    def _commit(self) -> None:
        nxt = self._next
        if nxt is None:
            return
        self._next = None
        if nxt != self.value:
            self.value = nxt
            sim = self._sim
            for module in self._fanout:
                if not module._comb_scheduled:
                    module._comb_scheduled = True
                    sim._pending.append(module)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Signal({self.name!r}, width={self.width}, value={self.value:#x})"
