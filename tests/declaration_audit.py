"""A test-only audit of the scheduling declarations the fast kernels trust.

The event and compiled kernels decide *when* a module runs from what the
module declares: ``sensitive_to()``/``wake()`` say when ``comb()`` must
re-run, and a ``seq_idle_when`` guard says when ``seq()`` is a no-op
(the compiled kernel skips the call, and both kernels warp past it to
the guard's ``until`` deadline, if it has one). A declaration that lies
makes the kernels compute something else, silently. :func:`audit` checks the
declarations directly on an event :class:`~repro.sim.Simulator`, cycle by
cycle:

* **Settle.** Before each executed cycle's seq phase every comb module
  runs once more. A settled design must not move: a signal change or a
  module woken means some ``comb()`` read an input it did not declare,
  some state change forgot its ``wake()``, or the quiescent fast path
  skipped a settle it needed.
* **Idle guards.** Around each ``seq()`` whose guard holds — including a
  call before the guard's ``until`` deadline — the call must stage no
  signal, wake no module and leave the module's own attributes as they
  were (scalars by value, containers by identity and length). The guard
  is read just before the call, where the compiled kernel reads it.

The audit sees only what a module owns. A write into an object the
module does not own (another module's queue, a callback's closure) is
left to the differential tests, which compare the audited event kernel
against the compiled one cycle by cycle.

Install it after building the simulator and before the first step; the
audit elaborates the simulator and wraps the ``seq`` of its sequential
modules, so the kernel itself runs unchanged. It is never installed on a
compiled simulator: that kernel skips a guarded ``seq()`` whose guard
holds, so the idle check would have no call to watch.
"""

from __future__ import annotations

from collections import deque

from repro.sim import Simulator
from repro.sim.compile import guard_hint

_CONTAINERS = frozenset((list, dict, set, deque, bytearray))


def audit(sim: Simulator) -> dict:
    """Install the declaration audit on the event simulator ``sim``.

    Returns the audit's counters, ``{"settles": n, "idle_calls": m}``:
    the settled cycles it re-ran and the guarded-idle ``seq()`` calls it
    watched.
    """
    if sim.scheduler != "event":
        raise ValueError(f"the audit runs on the event kernel, "
                         f"not {sim.scheduler!r}")
    sim.elaborate()
    counts = {"settles": 0, "idle_calls": 0}
    signals = list(sim.signals())
    for i, module in enumerate(sim._seq_modules):
        if i == 0 or module._seq_idle:
            module.seq = _audited_seq(sim, module, counts,
                                      signals if i == 0 else None)
    return counts


def audit_event_sims(monkeypatch) -> None:
    """Audit every event simulator elaborated for the rest of the test."""
    elaborate = Simulator.elaborate

    def elaborate_audited(sim: Simulator) -> None:
        if sim._elaborated:
            return
        elaborate(sim)
        if sim.scheduler == "event":
            audit(sim)

    monkeypatch.setattr(Simulator, "elaborate", elaborate_audited)


def _audited_seq(sim: Simulator, module, counts: dict, signals):
    """``module.seq`` wrapped in the guard check (and, for the first
    sequential module, preceded by the settle check over ``signals``)."""
    seq = module.seq
    hint = guard_hint(module)
    state = module.__dict__
    # The container attributes, re-listed after every call that may act.
    containers = _containers(state)

    def audited_seq() -> None:
        nonlocal containers
        if signals is not None:
            _check_settled(sim, signals)
            counts["settles"] += 1
        cycle = sim.cycle
        if hint(cycle) == cycle:   # the guard does not hold
            seq()
            containers = _containers(state)
            return
        counts["idle_calls"] += 1
        before = state.copy()
        sizes = _sizes(before, containers)
        staged, pending = len(sim._staged), len(sim._pending)
        seq()
        after = _sizes(state, containers)
        if state != before or after != sizes \
                or len(sim._staged) != staged \
                or len(sim._pending) != pending:
            changed = sorted(
                name for name in state.keys() | before.keys()
                if state.get(name, _MISSING) != before.get(name, _MISSING))
            changed += [name for name, size, now
                        in zip(containers, sizes, after) if size != now]
            raise AssertionError(
                f"cycle {sim.cycle}: {module.name} seq() acted while its "
                f"seq_idle_when guard held (changed {changed}, staged "
                f"{len(sim._staged) - staged}, woke "
                f"{len(sim._pending) - pending})")

    return audited_seq


def _check_settled(sim: Simulator, signals: list) -> None:
    """Re-run every comb module once; a settled design does not move."""
    values = [sig.value for sig in signals]
    for module in sim._comb_modules:
        sim._dirty = False
        module.comb()
        if sim._dirty or sim._pending:
            moved = [sig.name for sig, value in zip(signals, values)
                     if sig.value != value]
            woken = [m.name for m in sim._pending]
            raise AssertionError(
                f"cycle {sim.cycle}: re-running {module.name} comb() on a "
                f"settled design changed {moved} and woke {woken}")


_MISSING = object()


def _containers(state: dict) -> list:
    """The names of the container attributes in ``state``."""
    return [name for name, value in state.items()
            if type(value) in _CONTAINERS]


def _sizes(state: dict, names: list) -> list:
    """The length of each named attribute that is a container."""
    return [len(value) if type(value) in _CONTAINERS else None
            for value in map(state.get, names)]
