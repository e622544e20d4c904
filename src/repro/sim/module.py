"""Module: the unit of simulated hardware.

A module groups signals and behaviour. Subclasses override:

* ``comb()`` — drive combinational outputs from current signal values. Called
  one or more times per cycle until all signals settle. Must be idempotent
  for a given set of input values and must drive *all* combinational outputs
  unconditionally.
* ``seq()`` — clocked behaviour. Called exactly once per cycle, after the
  combinational settle, with all signals stable. State updates that other
  modules observe must go through ``Signal.set_next``; private Python state
  may be mutated directly (it plays the role of registers that never feed
  combinational paths of other modules).

Set ``has_comb = False`` on subclasses with no combinational process; the
simulator then skips them during delta iteration, which is a significant
speedup for large designs.

Scheduling declarations (event-driven kernel)
---------------------------------------------

By default a module's ``comb()`` is assumed to depend on *anything* — the
simulator's safe fallback re-runs it on every delta pass of every cycle.
Modules opt in to event-driven scheduling by declaring what their
combinational process reads:

* ``self.sensitive_to(sig, ...)`` — register the input signals ``comb()``
  reads. Whenever one of them changes value (combinational drive or register
  commit), the module is enqueued for re-evaluation.
* ``self.wake()`` — request a ``comb()`` re-evaluation explicitly. Required
  whenever *non-signal* state that ``comb()`` reads changes (Python-level
  registers mutated in ``seq()``, items pushed into a queue the comb process
  presents, ...). ``wake()`` is idempotent and cheap; calling it
  conservatively is always sound.

Declaring sensitivity asserts that the two mechanisms cover *every* input
of ``comb()``: a declared module is evaluated on the first cycle and
afterwards only when one of them schedules it. A module that declares
sensitivity but reads an undeclared signal in ``comb()`` will compute
stale outputs. The tests' declaration audit
(``tests/declaration_audit.py``) catches exactly that: on every executed
cycle of the event kernel it re-runs each ``comb()`` on the settled
design and fails if anything moves.

Static-scheduling declarations (compiled kernel)
------------------------------------------------

The ``"compiled"`` scheduler ranks the declared sensitivity graph at its
first step and generates a fused per-cycle step function
(:mod:`repro.sim.compile`). Two further declarations feed it; both are
optional and purely performance hints — undeclared modules stay
correct, they just get the conservative treatment:

* ``self.drives(sig, ...)`` — the signals ``comb()`` combinationally
  drives. Together with ``sensitive_to`` this yields the module-level
  dependency edges whose walk orders the settle (drivers rank before
  their readers); a module without ``drives()`` simply contributes no
  out-edges (its readers may settle one delta pass later, which the
  settle's work-list loop absorbs).
* ``self.seq_idle_when(term, ...)`` — a conjunction of conditions under
  which this module's ``seq()`` is provably a no-op, letting the compiled
  kernel skip the call entirely on idle cycles. Terms:

  - ``("low", signal)`` — the signal's current value is 0;
  - ``("nofire", channel)`` — the channel handshake does not complete
    this cycle (VALID and READY not both high);
  - ``("falsy", "attr.path")`` / ``("truthy", "attr.path")`` — a Python
    attribute chain on the module is falsy / truthy;
  - ``("none", "attr.path")`` — the attribute chain is ``None``;
  - ``("sync", "attr.a", "attr.b")`` — two attribute chains compare equal
    (a credit counter sitting at its cap, say);
  - ``("until", "attr.path")`` — the simulator's cycle is below the
    attribute: a *deadline*, the cycle ``seq()`` next acts. A module that
    counts time keeps such an absolute cycle instead of a per-cycle
    countdown, and its ``seq()`` returns at once while ``cycle < attr``.
    :data:`NEVER` says "not until a callback moves the deadline".

  Declaring a condition that can be true while ``seq()`` still has work
  is a correctness bug. The declaration audit catches it: around every
  ``seq()`` call whose guard holds, the call must stage no signal, wake
  no module and leave the module's attributes as they were. A guard
  describes the ``seq()`` of the class that declares it, so a subclass
  that overrides ``seq()`` declares its own guard or none.

Time warp (quiescent-gap skipping)
----------------------------------

On cycles where the comb work-list is empty the event and compiled
kernels can go one step further than skipping settling: they can skip
the cycle *entirely* — provided every sequential process agrees it has
nothing to do. The idle guard is the only declaration they read: each
module's wake hint is derived from it
(:func:`repro.sim.compile.guard_hint`):

* the guard does not hold — ``seq()`` has work now — so the hint is the
  current cycle, which blocks warping;
* the guard holds and its ``until`` deadline (if any) lies ahead — the
  hint is that deadline, the earliest cycle ``seq()`` can matter;
* the guard holds and has no deadline, or its deadline is
  :data:`NEVER` — no hint: the module waits on something external (a
  signal change, a ``wake()``, a callback).

When the design has been fully quiet for a cycle, the kernel jumps the
cycle counter straight to the earliest hint. Nothing executes inside the
skipped cycles, so a guard that held at the quiet cycle keeps holding
across them, and a deadline is an absolute cycle: no module needs a
catch-up call after a jump. A sequential module without a guard is
*opaque* and disables warping for the whole simulation — the safe
default. Record and replay deployments declare a guard on every module,
so both warp; a sink with an impure READY policy (the stream collector
of ``packet_filter``) keeps its design stepping.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.signal import Signal

NEVER = 1 << 62
"""An ``("until", attr)`` deadline that no cycle reaches: the module waits
on a callback, not on a cycle, and gives the time warp no hint."""


class Module:
    """Base class for simulated hardware modules."""

    has_comb: bool = True

    def __init__(self, name: str):
        self.name = name
        self._signals: List[Signal] = []
        self._children: List["Module"] = []
        self._sensitivity: Optional[List[Signal]] = None
        self._drives: Optional[List[Signal]] = None
        self._seq_idle: Optional[List[tuple]] = None
        self._sim = None
        # True while the module sits on the simulator's comb work-list.
        # The scheduler clears it as it evaluates; undeclared (always)
        # modules keep it pinned True so that wake() stays a no-op for
        # them.
        self._comb_scheduled = False
        self._order = 0   # elaboration index; stabilizes evaluation order

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def signal(self, name: str, width: int = 1, reset: int = 0) -> Signal:
        """Create a signal owned by this module and register it."""
        sig = Signal(f"{self.name}.{name}", width=width, reset=reset)
        self._signals.append(sig)
        return sig

    def adopt(self, sig: Signal) -> Signal:
        """Register an externally created signal so it binds with this module."""
        self._signals.append(sig)
        return sig

    def submodule(self, module: "Module") -> "Module":
        """Register a child module; the simulator flattens the hierarchy."""
        self._children.append(module)
        return module

    # ------------------------------------------------------------------
    # scheduling declarations
    # ------------------------------------------------------------------
    def sensitive_to(self, *signals: Signal) -> None:
        """Declare the signals this module's ``comb()`` reads.

        May be called several times (each call appends). Declaring an empty
        sensitivity set is meaningful: it opts the module into event-driven
        scheduling with ``wake()`` as its only trigger.
        """
        if self._sensitivity is None:
            self._sensitivity = []
        self._sensitivity.extend(signals)

    def drives(self, *signals: Signal) -> None:
        """Declare the signals this module's ``comb()`` drives.

        Only orders the compiled scheduler's rank walk; see the module
        docstring. May be called several times (each call appends).
        """
        if self._drives is None:
            self._drives = []
        self._drives.extend(signals)

    def seq_idle_when(self, *terms: tuple) -> None:
        """Declare conditions under which ``seq()`` is provably a no-op.

        The conjunction of all declared terms gates the generated
        ``seq()`` call in the compiled kernel, and both kernels derive
        the module's time-warp hint from it; see the module docstring
        for the term grammar. May be called several times (appends).
        """
        if self._seq_idle is None:
            self._seq_idle = []
        self._seq_idle.extend(terms)

    def wake(self) -> None:
        """Schedule a ``comb()`` re-evaluation (idempotent).

        Call whenever non-signal state read by ``comb()`` may have changed.
        A no-op before elaboration (every comb module is evaluated on the
        first cycle anyway) and for modules the scheduler already re-runs
        unconditionally.
        """
        if not self._comb_scheduled:
            sim = self._sim
            if sim is not None:
                self._comb_scheduled = True
                sim._pending.append(self)

    # ------------------------------------------------------------------
    # elaboration
    # ------------------------------------------------------------------
    def bind(self, sim) -> None:
        """Bind all owned signals to the simulator (called at elaboration)."""
        self._sim = sim
        for sig in self._signals:
            sig.bind(sim)

    def flatten(self) -> List["Module"]:
        """This module followed by all descendants, depth-first."""
        out = [self]
        for child in self._children:
            out.extend(child.flatten())
        return out

    # ------------------------------------------------------------------
    # behaviour (overridden by subclasses)
    # ------------------------------------------------------------------
    def comb(self) -> None:
        """Combinational process; default does nothing."""

    def seq(self) -> None:
        """Sequential (clocked) process; default does nothing."""

    def reset_state(self) -> None:
        """Restore power-on state; subclasses with Python-state registers extend."""
        for sig in self._signals:
            sig.reset_value()
        for child in self._children:
            child.reset_state()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
