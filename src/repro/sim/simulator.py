"""The delta-cycle synchronous simulator.

Each call to :meth:`Simulator.step` simulates one clock cycle:

1. **Combinational settling.** Modules' ``comb()`` processes run until all
   signal values settle, up to ``max_delta`` passes. Failure to settle
   raises :class:`~repro.errors.CombinationalLoopError`.
2. **Sequential update.** Every module's ``seq()`` runs exactly once against
   the settled signal values.
3. **Commit.** All values staged with ``Signal.set_next`` become visible
   simultaneously, emulating a single rising clock edge.

Two interchangeable kernels (:data:`SCHEDULERS`) implement a cycle:

* ``"event"`` (the default) — sensitivity-driven. At elaboration every
  signal gets a fanout list of the modules that declared
  :meth:`~repro.sim.module.Module.sensitive_to` it; a value change enqueues
  exactly those modules onto a work-list, so each delta pass re-evaluates
  only modules whose inputs changed. Modules that declared no sensitivity
  fall back to every-pass evaluation (always safe). Cycles on which the
  work-list is empty — no external input, no changed register commit, no
  ``wake()`` from a host-side event — skip settling entirely (the
  *quiescent-cycle fast path*, common in polling-host applications).
  Every ``seq()`` runs every cycle, so this kernel trusts only the comb
  declarations; it is the reference the tests audit
  (``tests/declaration_audit.py``: a settled design must not move when
  every ``comb()`` re-runs, and a ``seq()`` whose idle guard holds must
  do nothing).
* ``"compiled"`` — static scheduling. At the first ``step()`` the declared
  comb modules are ranked (:mod:`repro.sim.compile`) — one walk over their
  ``drives()`` → ``sensitive_to()`` edges puts every module after the
  modules upstream of it — and a fused per-cycle step function is
  generated (``exec`` of assembled source, its code shared by every
  simulator that generates the same source):
  the event kernel's work-list settle with each pass sorted by rank,
  straight-line ``seq()`` calls, each skipped while its module's
  ``seq_idle_when`` guard holds, an inlined commit, the same quiescent
  fast path, and a call to the same time-warp poll
  (:meth:`Simulator._warp`). Bit-identical to the event kernel (the
  differential tests in ``tests/test_scheduler_equivalence.py`` compare
  per-cycle signal histories over every app), faster on designs with
  declared scheduling.

Select with the ``scheduler=`` argument, the ``REPRO_SIM_SCHEDULER``
environment variable, or the ``Simulator.DEFAULT_SCHEDULER`` class
attribute (argument > environment > class default).

Time-warping (quiescent-gap skipping)
-------------------------------------

The event kernel's quiescent fast path still pays one Python iteration per
simulated cycle. When every sequential module declares a
``seq_idle_when`` guard, the kernel can do better: on a cycle that (a)
has an empty work-list, (b) follows a *fully quiet* cycle — no settling,
no register commits — and (c) has no cycle hooks registered, it polls
every module's guard for the earliest cycle its ``seq()`` could matter
(:func:`~repro.sim.compile.guard_hint`: the current cycle while the
guard fails, the guard's ``("until", attr)`` deadline while it holds).
Both kernels run that poll as one method, :meth:`Simulator._warp`. The
hint that refused the last warp is polled first, so a busy stretch
costs one call per quiet cycle. If the earliest deadline lies in the
future, the cycle counter jumps straight there
(``warped_cycles``/``warp_jumps`` count the savings). The skipped cycles
are provably no-ops: nothing combinational was pending, nothing was
committed the cycle before, and every guard holds until the target.
Deadlines are absolute cycles, so no module needs a catch-up call.
Record runs (host CPU model, host memory, trace store) and replay runs
warp alike.

If *no* guard has a deadline ahead (each holds with none, or at
:data:`~repro.sim.module.NEVER`) the kernel ticks normally — a fully
idle design still advances one cycle per step, so the
:class:`~repro.errors.WatchdogTimeout` deadlock detector keeps working.
Disable warping with ``time_warp=False`` or ``REPRO_SIM_TIMEWARP=0``
(the differential tests record and replay both ways and compare
bit-for-bit).

The simulator intentionally supports only a single clock domain: the paper's
prototype likewise requires all recorded/replayed interfaces to share one
clock (AWS F1 enforces this).
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import CombinationalLoopError, SimulationError, WatchdogTimeout
from repro.sim.module import Module
from repro.sim.signal import Signal

SCHEDULERS = ("event", "compiled")


class Simulator:
    """Owns a flattened set of modules and advances them cycle by cycle."""

    DEFAULT_SCHEDULER = "event"

    def __init__(self, name: str = "sim", max_delta: int = 64,
                 scheduler: Optional[str] = None,
                 time_warp: Optional[bool] = None):
        if scheduler is None:
            scheduler = os.environ.get("REPRO_SIM_SCHEDULER") \
                or self.DEFAULT_SCHEDULER
        if scheduler not in SCHEDULERS:
            raise SimulationError(
                f"unknown scheduler {scheduler!r}; expected one of {SCHEDULERS}")
        if time_warp is None:
            time_warp = os.environ.get("REPRO_SIM_TIMEWARP", "1") != "0"
        self.name = name
        self.max_delta = max_delta
        self.scheduler = scheduler
        self.time_warp = bool(time_warp)
        self.cycle = 0
        self.modules: List[Module] = []
        self._comb_modules: List[Module] = []
        self._seq_modules: List[Module] = []
        self._always_comb: List[Module] = []    # no sensitivity: every pass
        self._event_comb: List[Module] = []     # all declared comb modules
        self._pending: List[Module] = []        # the scheduler's work-list
        self._staged: List[Signal] = []
        self._dirty = False
        self._elaborated = False
        self._compiled = None   # CompiledKernel, built lazily at first step
        self._cycle_hooks: List[Callable[[int], None]] = []
        self._profile: Optional[Dict[str, list]] = None
        # Time-warp state: _warp_ok is frozen at elaboration (every seq
        # module must declare a guard); _hints holds one guard hint per
        # seq module and _veto the one that refused the last warp;
        # _quiet_streak records that the previous executed cycle neither
        # settled nor committed anything, which makes the *current* empty
        # work-list trustworthy for warping.
        self._warp_ok = False
        self._hints: Optional[tuple] = None
        self._veto: Callable[[int], Optional[int]] = _no_hint
        self._quiet_streak = False
        # Kernel counters (cheap; useful for the throughput bench and the
        # --profile report).
        self.comb_evals = 0
        self.quiescent_cycles = 0
        self.warped_cycles = 0
        self.warp_jumps = 0
        # Compiled-kernel stats: time spent building the kernel, and which
        # cache tier served its code ("memory"/"disk"/"cold").
        self.compile_s = 0.0
        self.schedule_cache_tier = "none"

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, module: Module) -> Module:
        """Register a module tree; returns the module for chaining."""
        if self._elaborated:
            raise SimulationError("cannot add modules after elaboration")
        self.modules.extend(module.flatten())
        return module

    def add_cycle_hook(self, hook: Callable[[int], None]) -> None:
        """Run ``hook(cycle)`` after each committed cycle (used by waveforms)."""
        self._cycle_hooks.append(hook)

    def signals(self) -> Iterator[Signal]:
        """Every signal owned by registered modules, in module order."""
        for module in self.modules:
            yield from module._signals

    def elaborate(self) -> None:
        """Bind signals, build sensitivity fanout, freeze the module set.

        Idempotent.
        """
        if self._elaborated:
            return
        for order, module in enumerate(self.modules):
            module._order = order
            module.bind(self)
        self._seq_modules = [m for m in self.modules
                             if type(m).seq is not Module.seq]
        # Default-comb (no-op) modules never need evaluation; undeclared
        # real-comb modules go to the always list.
        self._comb_modules = [
            m for m in self.modules
            if m.has_comb and type(m).comb is not Module.comb
        ]
        for module in self.modules:
            module._comb_scheduled = True
        for module in self._comb_modules:
            if module._sensitivity is None:
                self._always_comb.append(module)   # stays pinned: always runs
                continue
            self._event_comb.append(module)
            seen = set()
            for sig in module._sensitivity:
                if id(sig) not in seen:
                    seen.add(id(sig))
                    sig.bind(self)   # tolerate sensitivity to foreign signals
                    sig._fanout.append(module)
        # Everything evaluates on the first cycle.
        self._pending = list(self._event_comb)
        # Time-warp eligibility: every sequential module must declare an
        # idle guard; one opaque module disables warping for the design.
        self._warp_ok = self.time_warp and all(
            m._seq_idle for m in self._seq_modules)
        self._elaborated = True

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self, warp_limit: Optional[int] = None) -> None:
        """Simulate one clock cycle.

        With time-warping enabled this may *represent* many cycles: when the
        design is provably quiescent the cycle counter jumps ahead to the
        earliest guard deadline before the (single) executed cycle runs.
        ``warp_limit`` caps the jump so that ``run(n)`` never overshoots its
        window; the executed cycle always lies strictly below the limit.
        """
        if not self._elaborated:
            self.elaborate()
        if self.scheduler == "compiled":
            kernel = self._compiled
            if kernel is None:
                kernel = self._compile()
            kernel.step(warp_limit)
            return
        # --- combinational settling (event-driven) ---
        if self._pending or self._always_comb:
            self._settle()
            settled = True
        else:
            self.quiescent_cycles += 1
            settled = False
            if self._warp_ok and self._quiet_streak and not self._cycle_hooks:
                self._warp(warp_limit)
        # --- sequential phase ---
        for module in self._seq_modules:
            module.seq()
        # --- commit ---
        staged = self._staged
        if staged:
            committed = True
            for sig in staged:
                sig._commit()
            staged.clear()
        else:
            committed = False
        self._quiet_streak = not settled and not committed
        self.cycle += 1
        for hook in self._cycle_hooks:
            hook(self.cycle)

    def _warp(self, warp_limit: Optional[int]) -> None:
        """Jump the cycle counter to the earliest guard deadline.

        Both kernels call this on a cycle that starts with an empty
        work-list, follows a fully quiet cycle and has no cycle hooks. The
        quiet cycle before matters: it gave polling ``seq()`` processes a
        chance to observe commits and shared-Python-state changes
        (coordinator bumps, queue appends) the hints cannot see. The hint
        that refused the last warp is polled first, so a busy stretch
        costs one call per quiet cycle. The jump stops below
        ``warp_limit``.
        """
        cycle = self.cycle
        target = self._veto(cycle)
        if target is not None and target <= cycle:
            return
        for hint_of in self._hints or self._warp_hints():
            hint = hint_of(cycle)
            if hint is None:
                continue
            if hint <= cycle:
                self._veto = hint_of
                return
            if target is None or hint < target:
                target = hint
        if target is None:
            return
        if warp_limit is not None and target > warp_limit - 1:
            target = warp_limit - 1
        if target > cycle:
            self.cycle = target
            self.warped_cycles += target - cycle
            self.warp_jumps += 1

    def _warp_hints(self) -> tuple:
        """One guard hint (:func:`~repro.sim.compile.guard_hint`) per
        sequential module.

        The compiled kernel builds them at its first step and the event
        kernel at its first warp poll, so a malformed guard fails there.
        """
        if self._hints is None:
            from repro.sim.compile import guard_hint
            self._hints = tuple(guard_hint(m) for m in self._seq_modules)
        return self._hints

    def _settle(self) -> None:
        """Run delta passes until the work-list drains and always-modules
        stop changing signals."""
        always = self._always_comb
        for _ in range(self.max_delta):
            batch = self._pending
            self._pending = []
            self._dirty = False
            if batch:
                if len(batch) > 1:
                    # Evaluate in elaboration order.
                    batch.sort(key=_order_key)
                for module in batch:
                    module._comb_scheduled = False
                    module.comb()
                self.comb_evals += len(batch)
            for module in always:
                module.comb()
            self.comb_evals += len(always)
            if not self._pending and not (always and self._dirty):
                return
        raise CombinationalLoopError(
            f"{self.name}: combinational logic did not settle in "
            f"{self.max_delta} delta passes at cycle {self.cycle}"
        )

    def _compile(self):
        """Build the compiled kernel (lazily, at the first step).

        Lazy so that ``enable_profiling`` wrappers installed before the run
        are the ``seq`` methods the generated step binds; enabling
        profiling after stepping invalidates the kernel and forces a
        rebind.
        """
        from repro.sim.compile import compile_kernel
        t0 = perf_counter()
        if self._warp_ok:
            self._warp_hints()
        kernel = compile_kernel(self)
        self.compile_s += perf_counter() - t0
        self._compiled = kernel
        return kernel

    def _step_callable(self) -> Callable:
        """The per-cycle callable ``run``/``run_until`` should loop over.

        For the compiled scheduler this is the generated step function
        itself, skipping one dispatch layer per simulated cycle.
        """
        if self.scheduler == "compiled":
            if not self._elaborated:
                self.elaborate()
            kernel = self._compiled
            if kernel is None:
                kernel = self._compile()
            return kernel.step
        return self.step

    def run(self, cycles: int) -> None:
        """Simulate a fixed number of cycles (warp never overshoots the end)."""
        step = self._step_callable()
        end = self.cycle + cycles
        while self.cycle < end:
            step(warp_limit=end)

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_cycles: int,
        what: Optional[str] = None,
    ) -> int:
        """Step until ``predicate()`` is true; return cycles consumed.

        The predicate is evaluated exactly once per executed cycle boundary
        — including the starting boundary (0 cycles consumed) and the final
        one (true exactly at ``max_cycles`` succeeds); it is *not*
        re-evaluated on the timeout path. Raises
        :class:`~repro.errors.WatchdogTimeout` after ``max_cycles`` cycles
        without the predicate holding — the reproduction's deadlock
        detector. Warped gaps cannot change the predicate (nothing executes
        inside them), so skipping their boundary evaluations is sound and
        the consumed-cycle count stays bit-identical to per-cycle stepping.
        """
        start = self.cycle
        if predicate():
            return 0
        step = self._step_callable()
        end = start + max_cycles
        while self.cycle < end:
            step(warp_limit=end)
            if predicate():
                return self.cycle - start
        raise WatchdogTimeout(
            f"{self.name}: {what or 'condition'} not reached within "
            f"{max_cycles} cycles (cycle {self.cycle})"
        )

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return every module and signal to power-on state; cycle goes to 0.

        Also clears all scheduler state — the work-list, staged ``set_next``
        values and the dirty flag — so a reset taken mid-cycle can never
        leak a pending commit or a stale wake into the next run. The kernel
        counters are zeroed too, so back-to-back runs in one process report
        clean numbers.
        """
        for module in self.modules:
            module.reset_state()
        for sig in self._staged:
            sig._next = None   # belt and braces against partial reset_state()
        self._staged.clear()
        self._dirty = False
        self._quiet_streak = False
        if self._elaborated:
            for module in self._event_comb:
                module._comb_scheduled = True
            self._pending = list(self._event_comb)
        self.cycle = 0
        self.comb_evals = 0
        self.quiescent_cycles = 0
        self.warped_cycles = 0
        self.warp_jumps = 0

    # ------------------------------------------------------------------
    # profiling
    # ------------------------------------------------------------------
    def enable_profiling(self) -> None:
        """Accumulate per-module wall-clock time for comb/seq processes.

        Instruments every scheduled process with ``perf_counter`` wrappers;
        costs nothing until enabled. Idempotent.
        """
        if self._profile is not None:
            return
        if not self._elaborated:
            self.elaborate()
        self._profile = {}
        for module in self._comb_modules:
            cell = self._profile.setdefault(module.name, [0.0, 0, 0.0, 0])
            module.comb = _timed(module.comb, cell, 0)
        for module in self._seq_modules:
            cell = self._profile.setdefault(module.name, [0.0, 0, 0.0, 0])
            module.seq = _timed(module.seq, cell, 2)
        # The compiled kernel bakes bound seq methods into its generated
        # code; rebuild it so the wrappers above are the ones it calls.
        self._compiled = None

    def profile_report(self) -> List[dict]:
        """Per-module time shares, hottest first.

        Rows: ``{"module", "comb_s", "comb_calls", "seq_s", "seq_calls",
        "total_s", "share_pct"}``. Requires :meth:`enable_profiling`.
        """
        if self._profile is None:
            raise SimulationError("profiling was not enabled on this simulator")
        rows = []
        grand = sum(c[0] + c[2] for c in self._profile.values()) or 1e-12
        for name, (comb_s, comb_calls, seq_s, seq_calls) in self._profile.items():
            total = comb_s + seq_s
            rows.append({
                "module": name,
                "comb_s": comb_s,
                "comb_calls": comb_calls,
                "seq_s": seq_s,
                "seq_calls": seq_calls,
                "total_s": total,
                "share_pct": 100.0 * total / grand,
            })
        rows.sort(key=lambda r: r["total_s"], reverse=True)
        return rows


def _no_hint(cycle: int) -> None:
    """The initial veto: no hint has refused a warp yet."""
    return None


def _order_key(module: Module) -> int:
    return module._order


def _timed(fn: Callable[[], None], cell: list, slot: int) -> Callable[[], None]:
    def timed() -> None:
        t0 = perf_counter()
        fn()
        cell[slot] += perf_counter() - t0
        cell[slot + 1] += 1
    return timed
