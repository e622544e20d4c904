"""Record-mode time warp: record runs skip their quiet cycles too.

Recording warps on the same scalar kernels as replay, from the one
declaration every module makes: its ``seq_idle_when`` guard, whose
``until`` deadline says when timed work is due (host think time and
waits, the accelerator's cycle budget). Warping is a pure wall-clock
optimisation, so a warped record must be bit-identical to per-cycle
stepping on every kernel and under the declaration audit — cycles, stall
cycles, stored bytes, trace body and flight blob — while the sparse apps
skip most of their cycles.
"""

import functools

import pytest

from repro.apps.registry import get_app
from repro.core import VidiConfig
from repro.core.store import TraceStore
from repro.faults import FaultInjector, run_campaign
from repro.harness.runner import bench_config, record_run
from repro.platform.cpu import CpuModel, HostMemRead, WaitCycles, WaitHostWord
from repro.platform.pcie import PcieArbiter
from repro.sim import Module, Simulator
from repro.sim.compile import guard_hint
from repro.sim.memory import WordMemory
from repro.sim.module import NEVER

from tests.declaration_audit import audit


@functools.lru_cache(maxsize=None)
def _record(app, scheduler, time_warp, flight):
    """``(facts, warped_cycles, cycles)`` of one seed-5 record of ``app``.

    ``scheduler="audit"`` records on the event kernel under the
    declaration audit.
    """
    deployments = []

    def before_run(deployment):
        deployments.append(deployment)
        if scheduler == "audit":
            audit(deployment.sim)

    metrics = record_run(
        get_app(app), bench_config(VidiConfig.r2, flight_recorder=flight),
        seed=5, scheduler="event" if scheduler == "audit" else scheduler,
        time_warp=time_warp, before_run=before_run)
    facts = (metrics.cycles, metrics.store_stall_cycles,
             metrics.stored_bytes, bytes(metrics.result["trace"].body),
             metrics.result.get("flight_blob"))
    sim = deployments[0].sim
    return facts, sim.warped_cycles, sim.cycle


@pytest.mark.parametrize("scheduler", ["event", "audit", "compiled"])
@pytest.mark.parametrize("app", ["sha256", "mobilenet", "bnn"])
def test_record_warp_matches_per_cycle(app, scheduler):
    """Warp on == warp off, flat and flight, on each kernel and with the
    audit checking every executed cycle; most cycles skip."""
    for flight in (False, True):
        reference, unwarped, _ = _record(app, "event", False, flight)
        assert unwarped == 0
        facts, warped, cycles = _record(app, scheduler, True, flight)
        assert facts == reference, (app, scheduler, flight)
        assert warped > cycles // 2, (warped, cycles)


def test_campaign_verdicts_match_without_warp(monkeypatch):
    """Warped record legs (brownout and stall windows included) change no
    verdict: trial for trial the same report as per-cycle stepping."""
    def rows(report):
        return [(t.index, t.kind, t.seed, t.outcome, t.detail)
                for t in report.trials]

    warped = run_campaign(app="sha256", n_faults=10, seed=7)
    assert {"store-brownout", "channel-stall"} <= {
        t.kind for t in warped.trials}
    monkeypatch.setenv("REPRO_SIM_TIMEWARP", "0")
    assert rows(run_campaign(app="sha256", n_faults=10, seed=7)) == \
        rows(warped)


class _FlagWriter(Module):
    """Sets a host-memory flag word at cycle ``at`` (a deadline guard)."""

    has_comb = False

    def __init__(self, memory, at):
        super().__init__("flag")
        self.memory = memory
        self.at = at
        self.seq_idle_when(("until", "at"))

    def seq(self):
        if self._sim.cycle >= self.at:
            self.memory.write_bytes(0x40, (1).to_bytes(8, "little"))
            self.at = NEVER


def test_cpu_countdowns_carry_across_warp():
    """Think jitter, WaitCycles countdowns and a WaitHostWord flag land
    every host action on the same cycle, warped or stepped."""
    def run(scheduler, time_warp):
        sim = Simulator("cpu", scheduler=scheduler, time_warp=time_warp)
        memory = WordMemory("host", 1 << 12)
        cpu = CpuModel("cpu", {}, memory, think_jitter=7, seed=3)
        sim.add(cpu)
        sim.add(_FlagWriter(memory, at=700))
        log = []

        def program(tag, last):
            for wait in (40, 1, 0, 25, 300):
                yield WaitCycles(wait)
                log.append((tag, sim.cycle))
                yield HostMemRead(0, 8)
                log.append((tag, sim.cycle))
            log.append((tag, (yield last), sim.cycle))

        # The flag lands while the other thread still counts down, so a
        # hint that slept through it would warp past thread a's wake-up.
        cpu.add_thread(program("a", WaitHostWord(0x40, bool)))
        cpu.add_thread(program("b", WaitCycles(1500)))
        cycles = sim.run_until(lambda: cpu.done, 10_000)
        return (cycles, log), sim.warped_cycles

    stepped_run, stepped = run("event", False)
    assert stepped == 0
    for scheduler in ("event", "compiled"):
        warped_run, warped = run(scheduler, True)
        assert warped_run == stepped_run, scheduler
        assert warped > warped_run[0] // 2, scheduler


class _Guarded(Module):
    """Idle (guard holds) while ``work`` is 0 and cycle ``due`` lies ahead."""

    has_comb = False

    def __init__(self, name="g", work=0):
        super().__init__(name)
        self.work = work
        self.due = NEVER
        self.seq_idle_when(("falsy", "work"), ("until", "due"))

    def seq(self):
        if self._sim.cycle >= self.due:
            self.due = NEVER
        if self.work:
            self.work -= 1


class _Bare(Module):
    has_comb = False

    def seq(self):
        pass


def test_guard_derived_hint():
    """The warp hint is read off the seq_idle_when guard: no hint while it
    holds with no deadline ahead, its deadline while that lies ahead, the
    current cycle when it fails; a module without a guard stays opaque."""
    guarded = _Guarded()
    hint = guard_hint(guarded)
    assert hint(7) is None
    guarded.due = 12
    assert (hint(7), hint(12)) == (12, 12)
    guarded.work = 2
    assert hint(7) == 7
    assert guard_hint(_Bare("b"))(7) == 7
    sim = Simulator("declared", scheduler="event")
    sim.add(_Guarded())
    sim.elaborate()
    assert sim._warp_ok
    sim = Simulator("opaque", scheduler="event")
    sim.add(_Guarded())
    sim.add(_Bare("b"))
    sim.elaborate()
    assert not sim._warp_ok


def test_fault_windows_stop_the_record_run():
    """Brownout and stall windows act at their edges without a cycle hook,
    so their record legs warp; an edge at cycle 0 acts at cycle 1."""
    spec = get_app("sha256")
    for plan in ("store-brownout:factor=0.1,start=0,cycles=900",
                 "channel-stall:start=120,cycles=300"):
        runs = []
        for time_warp in (True, False):
            injector = FaultInjector.from_text(plan, seed=3)
            deployments, seen = [], []

            def arm(deployment):
                deployments.append(deployment)
                injector.arm_recording(deployment)
                deployment.stop_at([0, 37], seen.append)

            metrics = record_run(spec, bench_config(VidiConfig.r2), seed=5,
                                 scheduler="compiled", time_warp=time_warp,
                                 before_run=arm)
            assert seen == [1, 37]
            assert not deployments[0].sim._cycle_hooks
            runs.append((metrics.cycles, metrics.store_stall_cycles,
                         bytes(metrics.result["trace"].body), injector.log,
                         deployments[0].sim.warped_cycles > 0))
        assert runs[0][:4] == runs[1][:4], plan
        assert (runs[0][4], runs[1][4]) == (True, False), plan


def test_store_vetoes_warp_while_idle_credit_refills():
    """An idle store refuses to warp until seq() has topped its drain
    credit up to the cap, at the effective bandwidth: brownout factor and
    arbiter budget included."""
    for factor, capacity, refill in ((1.0, None, 4), (0.25, None, 16),
                                     (0.5, 9.0, 10)):
        arbiter = capacity and PcieArbiter("p", capacity)
        store = TraceStore("s", arbiter=arbiter)
        store.fault_bandwidth_factor = factor
        hint = guard_hint(store)
        for _ in range(refill):
            assert hint(7) == 7, factor
            store.seq()
        assert hint(7) is None, factor


def test_veto_polled_first():
    """A module that refuses every warp is asked first: after one full
    sweep the idle modules are not polled again."""
    for scheduler in ("event", "compiled"):
        sim = Simulator("dense", scheduler=scheduler)
        for i in range(10):
            sim.add(_Guarded(f"p{i}"))
        sim.add(_Guarded("busy", work=10_000))   # its guard never holds
        sim.elaborate()
        polls = [0] * 11

        def counted(i, hint):
            def polled(cycle):
                polls[i] += 1
                return hint(cycle)
            return polled

        sim._hints = tuple(counted(i, hint)
                           for i, hint in enumerate(sim._warp_hints()))
        sim.run(200)
        assert sim.warped_cycles == 0
        assert polls[:10] == [1] * 10, scheduler
