"""Unit tests for the simulation kernel: signals, modules, scheduler."""

import pytest

from repro.errors import CombinationalLoopError, SimulationError, WatchdogTimeout
from repro.sim import Module, Signal, Simulator


@pytest.fixture(params=["event", "compiled"])
def scheduler(request):
    """Run kernel-semantics tests under both kernels."""
    return request.param


class Counter(Module):
    """Registered counter used to validate seq/commit semantics."""

    has_comb = False

    def __init__(self, name="counter", width=8):
        super().__init__(name)
        self.count = self.signal("count", width=width)

    def seq(self):
        self.count.set_next(self.count.value + 1)


class Inverter(Module):
    """Combinational inverter: out = ~inp (1 bit)."""

    def __init__(self, name, inp, out):
        super().__init__(name)
        self.inp = inp
        self.out = out

    def comb(self):
        self.out.drive(0 if self.inp.value else 1)


class TestSignal:
    def test_width_masking_on_drive(self):
        sim = Simulator()
        mod = Module("m")
        sig = mod.signal("s", width=4)
        sim.add(mod)
        sim.elaborate()
        sig.drive(0x1F)
        assert sig.value == 0xF

    def test_set_next_not_visible_until_commit(self):
        sim = Simulator()
        counter = Counter()
        sim.add(counter)
        sim.elaborate()
        assert counter.count.value == 0
        sim.step()
        assert counter.count.value == 1
        sim.step()
        assert counter.count.value == 2

    def test_counter_wraps_at_width(self):
        sim = Simulator()
        counter = Counter(width=2)
        sim.add(counter)
        sim.run(5)
        assert counter.count.value == 1  # 5 mod 4

    def test_invalid_width_rejected(self):
        with pytest.raises(SimulationError):
            Signal("bad", width=0)

    def test_set_next_before_elaboration_rejected(self):
        mod = Module("m")
        sig = mod.signal("s")
        with pytest.raises(SimulationError):
            sig.set_next(1)

    def test_bit_accessor(self):
        sim = Simulator()
        mod = Module("m")
        sig = mod.signal("s", width=8)
        sim.add(mod)
        sim.elaborate()
        sig.drive(0b1010_0001)
        assert sig.bit(0) == 1
        assert sig.bit(1) == 0
        assert sig.bit(7) == 1

    def test_double_bind_rejected(self):
        sig = Signal("s")
        sig.bind(Simulator())
        with pytest.raises(SimulationError):
            sig.bind(Simulator())

    def test_rebind_same_simulator_ok(self):
        sim = Simulator()
        sig = Signal("s")
        sig.bind(sim)
        sig.bind(sim)  # idempotent


class SensInverter(Module):
    """Inverter with a declared sensitivity list (event-scheduled)."""

    def __init__(self, name, inp, out):
        super().__init__(name)
        self.inp = inp
        self.out = out
        self.sensitive_to(inp)

    def comb(self):
        self.out.drive(0 if self.inp.value else 1)


class TestCombinationalSettling:
    def test_chain_of_inverters_settles(self, scheduler):
        """A 3-deep comb chain needs multiple delta passes to settle."""
        sim = Simulator(scheduler=scheduler)
        top = Module("top")
        a = top.signal("a")
        b = top.signal("b")
        c = top.signal("c")
        d = top.signal("d")
        # Deliberately add in reverse dependency order to force delta passes.
        top.submodule(Inverter("i3", c, d))
        top.submodule(Inverter("i2", b, c))
        top.submodule(Inverter("i1", a, b))
        sim.add(top)
        sim.step()
        assert (b.value, c.value, d.value) == (1, 0, 1)
        a.drive(1)
        sim.step()
        assert (b.value, c.value, d.value) == (0, 1, 0)

    def test_declared_chain_of_inverters_settles(self, scheduler):
        """Same chain, but every stage declares its sensitivity."""
        sim = Simulator(scheduler=scheduler)
        top = Module("top")
        a = top.signal("a")
        b = top.signal("b")
        c = top.signal("c")
        d = top.signal("d")
        top.submodule(SensInverter("i3", c, d))
        top.submodule(SensInverter("i2", b, c))
        top.submodule(SensInverter("i1", a, b))
        sim.add(top)
        sim.step()
        assert (b.value, c.value, d.value) == (1, 0, 1)
        a.drive(1)
        sim.step()
        assert (b.value, c.value, d.value) == (0, 1, 0)

    def test_cross_coupled_inverters_settle_as_latch(self, scheduler):
        """x=~y, y=~x has stable solutions; the delta loop finds one."""
        sim = Simulator(max_delta=8, scheduler=scheduler)
        top = Module("top")
        x = top.signal("x")
        y = top.signal("y")
        top.submodule(Inverter("i1", x, y))
        top.submodule(Inverter("i2", y, x))
        sim.add(top)
        sim.step()
        assert x.value != y.value

    def test_combinational_loop_detected(self, scheduler):
        """x = ~x oscillates forever and must be flagged."""
        sim = Simulator(max_delta=8, scheduler=scheduler)
        top = Module("top")
        x = top.signal("x")
        top.submodule(Inverter("i", x, x))
        sim.add(top)
        with pytest.raises(CombinationalLoopError):
            sim.step()

    def test_declared_combinational_loop_detected(self):
        """The event work-list also bounds oscillation at max_delta."""
        sim = Simulator(max_delta=8)
        top = Module("top")
        x = top.signal("x")
        top.submodule(SensInverter("i", x, x))
        sim.add(top)
        with pytest.raises(CombinationalLoopError):
            sim.step()


class TestSimulatorControl:
    def test_run_until_returns_elapsed_cycles(self):
        sim = Simulator()
        counter = Counter()
        sim.add(counter)
        elapsed = sim.run_until(lambda: counter.count.value == 10, max_cycles=100)
        assert elapsed == 10

    def test_run_until_raises_watchdog(self):
        sim = Simulator()
        counter = Counter(width=2)
        sim.add(counter)
        with pytest.raises(WatchdogTimeout):
            sim.run_until(lambda: counter.count.value == 9, max_cycles=50)

    def test_add_after_elaborate_rejected(self):
        sim = Simulator()
        sim.add(Counter("c1"))
        sim.elaborate()
        with pytest.raises(SimulationError):
            sim.add(Counter("c2"))

    def test_reset_restores_power_on_state(self):
        sim = Simulator()
        counter = Counter()
        sim.add(counter)
        sim.run(7)
        sim.reset()
        assert sim.cycle == 0
        assert counter.count.value == 0
        sim.run(3)
        assert counter.count.value == 3

    def test_cycle_hook_called_each_cycle(self):
        sim = Simulator()
        sim.add(Counter())
        seen = []
        sim.add_cycle_hook(seen.append)
        sim.run(4)
        assert seen == [1, 2, 3, 4]

    def test_submodule_flattening(self):
        sim = Simulator()
        top = Module("top")
        inner = top.submodule(Counter("inner"))
        sim.add(top)
        sim.run(2)
        assert inner.count.value == 2


class TestSchedulerSelection:
    def test_default_is_event(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_SCHEDULER", raising=False)
        assert Simulator.DEFAULT_SCHEDULER == "event"
        assert Simulator().scheduler == "event"

    def test_environment_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_SCHEDULER", "compiled")
        assert Simulator().scheduler == "compiled"

    def test_argument_overrides_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_SCHEDULER", "compiled")
        assert Simulator(scheduler="event").scheduler == "event"

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(scheduler="speculative")


class PythonStateComb(Module):
    """Comb process reading module-level Python state, not signals.

    The module opts into event scheduling with an empty sensitivity list
    and wakes itself whenever the state it reads changes — the pattern the
    platform models (AXI endpoints, host memory) use.
    """

    def __init__(self, name, out):
        super().__init__(name)
        self.out = out
        self.level = 0
        self.comb_calls = 0
        self.sensitive_to()

    def set_level(self, value):
        self.level = value
        self.wake()

    def comb(self):
        self.comb_calls += 1
        self.out.drive(self.level)


class TestEventScheduling:
    def test_quiescent_cycles_skip_settling(self):
        """Stable inputs: after the first cycle the work-list stays empty,
        settling is skipped entirely, and seq() still runs every cycle."""
        sim = Simulator(scheduler="event")
        top = Module("top")
        a = top.signal("a")
        b = top.signal("b")
        top.submodule(SensInverter("inv", a, b))
        counter = top.submodule(Counter())
        sim.add(top)
        sim.run(10)
        assert b.value == 1
        assert counter.count.value == 10   # seq is never skipped
        assert sim.quiescent_cycles == 9   # only the first cycle settled

    def test_signal_change_ends_quiescence(self):
        sim = Simulator(scheduler="event")
        top = Module("top")
        a = top.signal("a")
        b = top.signal("b")
        top.submodule(SensInverter("inv", a, b))
        sim.add(top)
        sim.run(5)
        quiescent_before = sim.quiescent_cycles
        a.drive(1)   # enqueues the inverter via the fanout list
        sim.step()
        assert b.value == 0
        assert sim.quiescent_cycles == quiescent_before

    def test_undeclared_module_evaluates_every_cycle(self):
        """Safety fallback: no sensitivity declaration means every pass."""
        sim = Simulator(scheduler="event")
        top = Module("top")
        a = top.signal("a")
        b = top.signal("b")
        top.submodule(Inverter("inv", a, b))
        sim.add(top)
        sim.run(5)
        assert sim.quiescent_cycles == 0

    def test_wake_reschedules_python_state_comb(self):
        sim = Simulator(scheduler="event")
        top = Module("top")
        out = top.signal("out", width=8)
        mod = top.submodule(PythonStateComb("m", out))
        sim.add(top)
        sim.step()
        assert out.value == 0
        calls = mod.comb_calls
        sim.run(3)   # no wake: the module must not re-evaluate
        assert mod.comb_calls == calls
        mod.set_level(7)
        sim.step()
        assert out.value == 7
        assert mod.comb_calls == calls + 1

    def test_wake_before_elaboration_is_safe(self):
        top = Module("top")
        out = top.signal("out", width=8)
        mod = PythonStateComb("m", out)
        top.submodule(mod)
        mod.set_level(3)   # wake() before bind(): must be a no-op, not a crash
        sim = Simulator(scheduler="event")
        sim.add(top)
        sim.step()
        assert out.value == 3


class TestRunUntilSemantics:
    def test_true_exactly_at_max_cycles_succeeds(self):
        """The boundary case: satisfied on the very last permitted step."""
        sim = Simulator()
        counter = Counter()
        sim.add(counter)
        elapsed = sim.run_until(lambda: counter.count.value == 5, max_cycles=5)
        assert elapsed == 5

    def test_predicate_evaluated_once_per_boundary(self):
        sim = Simulator()
        counter = Counter()
        sim.add(counter)
        calls = []

        def predicate():
            calls.append(sim.cycle)
            return counter.count.value == 3

        assert sim.run_until(predicate, max_cycles=10) == 3
        assert calls == [0, 1, 2, 3]   # start boundary + one per step

    def test_timeout_does_not_reevaluate_predicate(self):
        sim = Simulator()
        counter = Counter()
        sim.add(counter)
        calls = []

        def predicate():
            calls.append(sim.cycle)
            return False

        with pytest.raises(WatchdogTimeout):
            sim.run_until(predicate, max_cycles=4)
        assert calls == [0, 1, 2, 3, 4]   # exactly once per boundary

    def test_already_true_consumes_no_cycles(self):
        sim = Simulator()
        counter = Counter()
        sim.add(counter)
        assert sim.run_until(lambda: True, max_cycles=5) == 0
        assert sim.cycle == 0


class TestResetSchedulerState:
    def test_reset_discards_staged_next_values(self, scheduler):
        """A set_next staged before reset must not leak into the next run."""
        sim = Simulator(scheduler=scheduler)
        counter = Counter()
        sim.add(counter)
        sim.elaborate()
        counter.count.set_next(42)   # staged but never committed
        sim.reset()
        sim.step()
        assert counter.count.value == 1   # not 43, not 42

    def test_reset_reseeds_event_worklist(self):
        """After reset every declared module re-evaluates on the first step,
        even though its inputs are back at their power-on values."""
        sim = Simulator(scheduler="event")
        top = Module("top")
        a = top.signal("a")
        b = top.signal("b")
        top.submodule(SensInverter("inv", a, b))
        sim.add(top)
        sim.run(3)
        assert b.value == 1
        sim.reset()
        assert b.value == 0   # power-on state
        sim.step()
        assert b.value == 1   # recomputed without any input edge

    def test_reset_clears_pending_wake(self):
        sim = Simulator(scheduler="event")
        top = Module("top")
        out = top.signal("out", width=8)
        mod = top.submodule(PythonStateComb("m", out))
        sim.add(top)
        sim.run(2)
        mod.set_level(9)   # wakes the module...
        sim.reset()        # ...but reset discards the pending evaluation
        assert mod.level == 9   # reset_state does not touch app state here
        sim.step()
        assert out.value == 9   # re-seeded work-list evaluates everything once
