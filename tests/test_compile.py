"""Unit tests for the compiled scheduler's rank walk and code generation.

The app-level differential harness (``tests/test_scheduler_equivalence.py``)
proves the compiled kernel bit-identical on whole deployments; these tests
pin down the pieces on purpose-built micro-designs: topological rank
ordering, combinational cycles settling across passes, the
undeclared-sensitivity fallback, seq-idle guard inlining, guard-term
validation, and counter hygiene across ``reset()``.
"""

import pytest

from repro.errors import SimulationError
from repro.faults import run_campaign
from repro.sim.module import Module
from repro.sim.simulator import Simulator


class Const(Module):
    """Drives a constant onto its output; woken only explicitly."""

    def __init__(self, name, value=1):
        super().__init__(name)
        self.value = value
        self.out = self.signal("out", width=32)
        self.sensitive_to()
        self.drives(self.out)

    def comb(self):
        self.out.drive(self.value)

    def set(self, value):
        self.value = value
        self.wake()


class Inc(Module):
    """out = src + 1, combinationally."""

    def __init__(self, name, src):
        super().__init__(name)
        self.src = src
        self.out = self.signal("out", width=32)
        self.sensitive_to(src)
        self.drives(self.out)

    def comb(self):
        self.out.drive(self.src.value + 1)


class MaxOf(Module):
    """out = max(src, floor) — two of these cross-coupled form a settling
    combinational cycle (each pass can only raise the values, bounded by
    the largest floor, so the fixpoint exists)."""

    def __init__(self, name, floor=0):
        super().__init__(name)
        self.floor = floor
        self.src = None
        self.out = self.signal("out", width=32)
        self.drives(self.out)

    def couple(self, other):
        self.src = other.out
        self.sensitive_to(other.out)

    def comb(self):
        self.out.drive(max(self.src.value, self.floor))

    def set_floor(self, floor):
        self.floor = floor
        self.wake()


class SelfRamp(Module):
    """Counts up to ``target`` by re-triggering on its own output — a
    combinational self-loop that settles in ``target`` delta passes."""

    def __init__(self, name, target):
        super().__init__(name)
        self.target = target
        self.out = self.signal("out", width=32)
        self.sensitive_to(self.out)
        self.drives(self.out)

    def comb(self):
        if self.out.value < self.target:
            self.out.drive(self.out.value + 1)


class Sum(Module):
    """out = a + b, combinationally (the join of a diamond)."""

    def __init__(self, name, a, b):
        super().__init__(name)
        self.a, self.b = a, b
        self.out = self.signal("out", width=32)
        self.sensitive_to(a, b)
        self.drives(self.out)

    def comb(self):
        self.out.drive(self.a.value + self.b.value)


class Undeclared(Module):
    """Real comb process with no sensitivity declaration at all — must get
    the conservative every-pass treatment under every scheduler."""

    def __init__(self, name, src):
        super().__init__(name)
        self.src = src
        self.out = self.signal("out", width=32)

    def comb(self):
        self.out.drive(self.src.value * 2)


class CountSeq(Module):
    """Pure seq module counting its calls, optionally guardable."""

    has_comb = False

    def __init__(self, name, guard=None):
        super().__init__(name)
        self.calls = 0
        self.idle = False
        if guard is not None:
            self.seq_idle_when(*guard)

    def seq(self):
        self.calls += 1


def _compiled_sim(*modules, name="t"):
    sim = Simulator(name, scheduler="compiled")
    for m in modules:
        sim.add(m)
    sim.elaborate()
    return sim


# ----------------------------------------------------------------------
# rank walk
# ----------------------------------------------------------------------

class TestRankWalk:
    def test_chain_ranks_follow_the_graph_not_elaboration_order(self):
        a = Const("a", value=10)
        b = Inc("b", a.out)
        c = Inc("c", b.out)
        # Added in reverse: ranks must come from drives→sensitivity edges.
        sim = _compiled_sim(c, b, a)
        sim.step()
        assert a._rank < b._rank < c._rank
        # Drivers evaluate before their readers: one pass settles it.
        assert sim.comb_evals == 3
        assert c.out.value == 12

    def test_independent_modules_keep_order(self):
        a, b, c = Const("a"), Const("b"), Const("c")
        sim = _compiled_sim(a, b, c)
        sim.step()
        assert a._rank < b._rank < c._rank

    def test_cross_coupled_cycle_settles_before_reader(self):
        a, b = MaxOf("a"), MaxOf("b")
        a.couple(b)
        b.couple(a)
        tail = Inc("tail", a.out)
        sim = _compiled_sim(tail, a, b)
        sim.step()
        # The downstream reader ranks after every cycle member.
        assert tail._rank > max(a._rank, b._rank)
        # The cycle actually settles: raising one floor lifts both outputs.
        a.set_floor(5)
        sim.step()
        assert a.out.value == 5
        assert b.out.value == 5
        assert tail.out.value == 6

    def test_self_loop_still_settles(self):
        ramp = SelfRamp("ramp", target=7)
        tail = Inc("tail", ramp.out)
        sim = _compiled_sim(tail, ramp)
        sim.step()
        assert ramp._rank < tail._rank
        assert ramp.out.value == 7
        assert tail.out.value == 8

    def test_undeclared_module_falls_back_to_every_pass(self):
        a = Const("a", value=3)
        u = Undeclared("u", a.out)
        sim = _compiled_sim(a, u)
        sim.step()
        assert sim._always_comb == [u]
        assert not hasattr(u, "_rank")
        sim.run(2)
        assert u.out.value == 6
        # Always-fallback modules force settling every cycle: the quiescent
        # fast path must stay off, exactly as under the event kernel.
        assert sim.quiescent_cycles == 0
        # A value change still propagates through the fallback evaluation.
        a.set(8)
        sim.step()
        assert u.out.value == 16

    def test_diamond_settles_in_one_pass(self):
        a = Const("a", value=1)
        left, right = Inc("left", a.out), Inc("right", a.out)
        join = Sum("join", left.out, right.out)
        sim = _compiled_sim(join, right, left, a)
        sim.step()
        assert a._rank < min(left._rank, right._rank)
        assert join._rank > max(left._rank, right._rank)
        assert sim.comb_evals == 4
        assert join.out.value == 4


# ----------------------------------------------------------------------
# seq-idle guards
# ----------------------------------------------------------------------

class TestSeqIdleGuards:
    def test_truthy_guard_skips_seq_calls(self):
        gated = CountSeq("gated", guard=(("truthy", "idle"),))
        free = CountSeq("free")
        sim = _compiled_sim(gated, free)
        sim.run(10)
        assert gated.calls == 10
        assert free.calls == 10
        gated.idle = True
        sim.run(10)
        assert gated.calls == 10    # guard held: every call skipped
        assert free.calls == 20

    def test_bad_attribute_path_is_rejected_at_compile(self):
        bad = CountSeq("bad", guard=(("falsy", "no spaces allowed"),))
        sim = _compiled_sim(bad)
        with pytest.raises(SimulationError):
            sim.step()

    def test_unknown_term_kind_is_rejected_at_compile(self):
        bad = CountSeq("bad", guard=(("sometimes", "idle"),))
        sim = _compiled_sim(bad)
        with pytest.raises(SimulationError):
            sim.step()


# ----------------------------------------------------------------------
# counter hygiene + campaign smoke
# ----------------------------------------------------------------------

class TestResetAndCampaign:
    def test_reset_zeroes_kernel_counters(self):
        a = Const("a")
        b = Inc("b", a.out)
        sim = _compiled_sim(a, b)
        sim.run(5)
        assert sim.comb_evals > 0
        sim.reset()
        assert (sim.comb_evals, sim.quiescent_cycles,
                sim.warped_cycles, sim.warp_jumps) == (0, 0, 0, 0)
        # The kernel survives the reset and settles from power-on again.
        sim.run(5)
        assert sim.comb_evals == 2
        assert b.out.value == 2

    def test_event_scheduler_reset_zeroes_counters_too(self):
        a = Const("a")
        sim = Simulator("e", scheduler="event")
        sim.add(a)
        sim.run(5)
        assert sim.comb_evals > 0
        sim.reset()
        assert (sim.comb_evals, sim.quiescent_cycles,
                sim.warped_cycles, sim.warp_jumps) == (0, 0, 0, 0)

    def test_fault_campaign_smoke_on_compiled_kernel(self):
        report = run_campaign(app="sha256", n_faults=6, seed=4,
                              scheduler="compiled")
        assert len(report.trials) == 6
        assert not report.silent_accepts


class TestReplayDatapath:
    """The compiled kernel calls the replayer's own seq() behind its guard."""

    @staticmethod
    def _record_trace():
        from repro.apps.registry import get_app
        from repro.core import VidiConfig
        from repro.platform import F1Deployment

        spec = get_app("sha256")
        acc_factory, host_factory = spec.make()
        recording = F1Deployment("inl_rec", acc_factory, VidiConfig.r2(),
                                 seed=1, scheduler="compiled")
        recording.cpu.add_thread(host_factory({}, seed=1))
        recording.run_to_completion()
        return spec, recording.recorded_trace({"app": "sha256", "seed": 1})

    @staticmethod
    def _replay_deployment(spec, trace):
        from repro.core import VidiConfig
        from repro.harness.runner import trace_interfaces
        from repro.platform import F1Deployment

        acc_factory, _host = spec.make()
        return F1Deployment(
            "inl_rep", acc_factory,
            VidiConfig.r3(interfaces=trace_interfaces(trace)),
            replay_trace=trace, scheduler="compiled")

    def _replay(self, spec, trace, profiled=False):
        replaying = self._replay_deployment(spec, trace)
        if profiled:
            replaying.sim.enable_profiling()
        cycles = replaying.run_replay()
        return replaying, cycles, replaying.recorded_trace().to_bytes()

    def test_class_seq_wrapper_sees_replayer_calls(self, monkeypatch):
        """A class-level wrapper, the benchmark tracer's kind, sees every
        replayer call the compiled step makes."""
        from repro.core.replayer import ChannelReplayer

        spec, trace = self._record_trace()
        _, cycles, validation = self._replay(spec, trace)
        calls = []
        seq = ChannelReplayer.seq

        def counted(replayer):
            calls.append(replayer)
            seq(replayer)

        monkeypatch.setattr(ChannelReplayer, "seq", counted)
        _, wrapped_cycles, wrapped_validation = self._replay(spec, trace)
        assert len(calls) > 0
        assert wrapped_cycles == cycles
        assert wrapped_validation == validation

    def test_profiled_replay_binds_unprofiled_schedule(self):
        """Profiling wraps seq() per instance; the namespace binds the
        wrappers, so the generated source (the cache key) does not split."""
        spec, trace = self._record_trace()
        reference, cycles, validation = self._replay(spec, trace)
        profiled, profiled_cycles, profiled_validation = self._replay(
            spec, trace, profiled=True)
        assert profiled.sim.schedule_cache_tier == "memory"
        assert profiled.sim._compiled.source == reference.sim._compiled.source
        assert profiled_cycles == cycles
        assert profiled_validation == validation
        rows = [row for row in profiled.sim.profile_report()
                if "rep." in row["module"]]
        assert rows and any(row["seq_calls"] > 0 for row in rows)
