"""Tests for quiescent-gap time warping: kernel semantics and replay equivalence.

The kernel half exercises the warp machinery directly with small modules
declaring their wake-up cycles; the application half replays recorded traces
with the warp on and off and checks the two executions are indistinguishable
— same cycle counts, same validation trace bytes, same divergence verdicts,
and identical cycle-by-cycle signal histories.
"""

import pytest

from repro.apps.registry import get_app
from repro.core import VidiConfig, compare_traces
from repro.errors import WatchdogTimeout
from repro.harness.runner import (
    bench_config,
    record_run,
    replay_run,
    trace_interfaces,
)
from repro.platform.shell import F1Deployment
from repro.sim import Module, Simulator
from repro.sim.module import NEVER


class Ticker(Module):
    """Fires every ``period`` cycles; its guard's deadline is the next fire."""

    has_comb = False

    def __init__(self, name="ticker", period=10):
        super().__init__(name)
        self.period = period
        self.out = self.signal("out", width=32)
        self.fire_at = period - 1
        self.fires = 0
        self.fire_cycles = []
        self.seq_idle_when(("until", "fire_at"))

    def seq(self):
        cycle = self._sim.cycle
        if cycle < self.fire_at:
            return
        self.fires += 1
        self.fire_cycles.append(cycle)
        self.out.set_next(self.fires)
        self.fire_at = cycle + self.period


class Opaque(Module):
    """A sequential module without an idle guard."""

    has_comb = False

    def __init__(self, name="opaque"):
        super().__init__(name)
        self.count = self.signal("count", width=16)

    def seq(self):
        self.count.set_next(self.count.value + 1)


def _ticker_sim(periods, time_warp=None):
    sim = Simulator(time_warp=time_warp)
    tickers = [Ticker(f"t{i}", period=p) for i, p in enumerate(periods)]
    for ticker in tickers:
        sim.add(ticker)
    return sim, tickers


class TestWarpKernel:
    def test_single_ticker_skips_quiescent_gaps(self):
        sim, (ticker,) = _ticker_sim([100])
        sim.run(1000)
        assert sim.cycle == 1000
        assert ticker.fires == 10
        assert ticker.out.value == 10
        assert sim.warped_cycles >= 900
        assert sim.warp_jumps == 10

    def test_equivalent_to_per_cycle_execution(self):
        periods = [5, 7, 13]
        warp_sim, warp_tickers = _ticker_sim(periods, time_warp=True)
        ref_sim, ref_tickers = _ticker_sim(periods, time_warp=False)
        warp_sim.run(500)
        ref_sim.run(500)
        assert ref_sim.warped_cycles == 0
        for warped, ref in zip(warp_tickers, ref_tickers):
            assert warped.fires == ref.fires
            assert warped.out.value == ref.out.value
        # Every fire landed on its deadline, with no catch-up call.
        for warped, ref in zip(warp_tickers, ref_tickers):
            assert warped.fire_cycles == ref.fire_cycles
        assert warp_sim.warped_cycles > 0

    def test_run_boundary_never_overshot(self):
        sim, (ticker,) = _ticker_sim([1000])
        sim.run(50)
        assert sim.cycle == 50
        assert ticker.fires == 0
        sim.run(950)
        assert sim.cycle == 1000
        assert ticker.fires == 1

    def test_run_until_elapsed_matches_per_cycle(self):
        warp_sim, (warp_ticker,) = _ticker_sim([40], time_warp=True)
        ref_sim, (ref_ticker,) = _ticker_sim([40], time_warp=False)
        warp_elapsed = warp_sim.run_until(
            lambda: warp_ticker.fires == 3, max_cycles=10_000)
        ref_elapsed = ref_sim.run_until(
            lambda: ref_ticker.fires == 3, max_cycles=10_000)
        assert warp_elapsed == ref_elapsed
        assert warp_sim.warped_cycles > 0

    def test_watchdog_timeout_preserved(self):
        sim, (ticker,) = _ticker_sim([10_000])
        with pytest.raises(WatchdogTimeout):
            sim.run_until(lambda: ticker.fires == 5, max_cycles=500)
        assert sim.cycle == 500

    def test_opaque_seq_module_disables_warp(self):
        sim = Simulator(time_warp=True)
        sim.add(Ticker(period=50))
        sim.add(Opaque())
        sim.run(300)
        assert sim.warped_cycles == 0
        assert sim.warp_jumps == 0

    def test_cycle_hooks_disable_warp(self):
        sim, (ticker,) = _ticker_sim([50])
        seen = []
        sim.add_cycle_hook(seen.append)
        sim.run(200)
        assert sim.warped_cycles == 0
        assert len(seen) == 200         # hooks observe every cycle
        assert ticker.fires == 4

    def test_pure_reactive_modules_never_warp(self):
        """A guard that always holds, with no deadline, gives no hint:
        nothing is scheduled, so each step still ticks one cycle."""

        class Reactive(Module):
            has_comb = False

            def __init__(self):
                super().__init__("reactive")
                self.wake_at = NEVER
                self.seq_idle_when(("until", "wake_at"))

            def seq(self):
                pass

        sim = Simulator(time_warp=True)
        sim.add(Reactive())
        for _ in range(200):
            sim.step()
        assert sim.cycle == 200
        assert sim.warped_cycles == 0


class TestWarpSwitch:
    def test_disabled_by_argument(self):
        sim, (ticker,) = _ticker_sim([100], time_warp=False)
        sim.run(500)
        assert sim.warped_cycles == 0
        assert ticker.fires == 5

    def test_default_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_TIMEWARP", raising=False)
        assert Simulator().time_warp is True

    def test_environment_disables_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_TIMEWARP", "0")
        assert Simulator().time_warp is False

    def test_argument_overrides_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_TIMEWARP", "0")
        assert Simulator(time_warp=True).time_warp is True


# ----------------------------------------------------------------------
# replay equivalence on real applications
# ----------------------------------------------------------------------

EQUIVALENCE_APPS = ("sha256", "dram_dma", "digit_recognition")


def _record(app, seed=11):
    spec = get_app(app)
    metrics = record_run(spec, bench_config(VidiConfig.r2), seed=seed)
    return spec, metrics.result["trace"]


def _replay_history(spec, trace, time_warp, max_cycles=500_000):
    """Replay stepwise, reconstructing the dense per-cycle signal history.

    During a warp nothing executes, so every bridged cycle holds the values
    from before the jump; expanding the gaps that way must reproduce the
    per-cycle run's history exactly.
    """
    acc_factory, _host = spec.make()
    config = VidiConfig.r3(interfaces=trace_interfaces(trace))
    deployment = F1Deployment(f"hist_{spec.key}_{int(bool(time_warp))}",
                              acc_factory, config, replay_trace=trace,
                              time_warp=time_warp)
    signals = [
        signal
        for interface in deployment.app_interfaces.values()
        for channel in interface.channels.values()
        for signal in (channel.valid, channel.ready, channel.payload)
    ]
    deployment.sim.elaborate()
    history = []
    last = tuple(s.value for s in signals)
    while not deployment.shim.replay_done:
        start = deployment.sim.cycle
        deployment.sim.step()
        values = tuple(s.value for s in signals)
        history.extend([last] * (deployment.sim.cycle - start - 1))
        history.append(values)
        last = values
        assert deployment.sim.cycle < max_cycles, "replay did not converge"
    return history


class TestReplayEquivalence:
    @pytest.mark.parametrize("app", EQUIVALENCE_APPS)
    def test_cycles_validation_and_verdicts_identical(self, app):
        spec, trace = _record(app)
        percycle = replay_run(spec, trace, time_warp=False)
        warped = replay_run(spec, trace, time_warp=True)
        assert warped.cycles == percycle.cycles
        assert bytes(warped.result["validation"].body) == \
            bytes(percycle.result["validation"].body)
        ref_report = compare_traces(trace, percycle.result["validation"])
        warp_report = compare_traces(trace, warped.result["validation"])
        assert [(d.kind, d.channel, d.occurrence, d.detail)
                for d in warp_report.divergences] == \
            [(d.kind, d.channel, d.occurrence, d.detail)
             for d in ref_report.divergences]
        assert percycle.result["deployment"].sim.warped_cycles == 0

    @pytest.mark.parametrize("app", EQUIVALENCE_APPS)
    def test_signal_histories_identical(self, app):
        spec, trace = _record(app)
        reference = _replay_history(spec, trace, time_warp=False)
        warped = _replay_history(spec, trace, time_warp=True)
        assert warped == reference

    def test_sparse_trace_actually_warps(self):
        """sha256's replay is mostly quiescent compute gaps — the warp must
        bridge a large share of them (the perf claim, pinned loosely)."""
        spec, trace = _record("sha256")
        warped = replay_run(spec, trace, time_warp=True)
        sim = warped.result["deployment"].sim
        assert sim.warp_jumps > 0
        assert sim.warped_cycles / warped.cycles > 0.5
