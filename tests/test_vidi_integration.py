"""End-to-end Vidi tests on the F1 deployment: R1 -> R2 -> R3 workflows."""

import hashlib

import pytest

from repro.apps.dram_dma import check, make
from repro.apps.registry import get_app
from repro.core import VidiConfig, VidiMode, compare_traces
from repro.errors import ConfigError
from repro.harness.runner import bench_config, record_run, trace_interfaces
from repro.platform import EnvironmentMode, F1Deployment


def run_host(config, seed, host_seed=7, scale=0.25, polling=True, **dep_kwargs):
    acc_factory, host_factory = make(polling=polling)
    dep = F1Deployment("t", acc_factory, config, seed=seed, **dep_kwargs)
    result = {}
    dep.cpu.add_thread(host_factory(result, seed=host_seed, scale=scale))
    cycles = dep.run_to_completion(max_cycles=400_000)
    return dep, result, cycles


def run_replay(trace, polling=True):
    acc_factory, _ = make(polling=polling)
    dep = F1Deployment("r", acc_factory, VidiConfig.r3(), replay_trace=trace)
    cycles = dep.run_replay(max_cycles=400_000)
    return dep, cycles


WAKEUP_APPS = ("dram_dma", "sha256", "bnn", "mobilenet", "packet_filter",
               "dram_dma_axi")

# Validation-trace pins (cycles, SHA-256) at seed 5. Every kernel runs the
# same gated seq(), so a release landing a cycle late on all of them at
# once passes the kernel differential tests; it fails here.
PINNED = {
    "dram_dma": (8604, "45127148e835ff4e87fd2392f4970be296c322d6"
                       "2a21ebb8187f59f7805744e6"),
    "sha256": (2179, "d648c868d04381742cbe171ff1d531bedb303a73"
                     "b296b2d812f32528b765dd94"),
}


def prefix_sum_clocks(trace):
    """Per channel, the full ``T_expected`` of each of its replay actions
    (input starts, output ends): the sum of the ``Ends`` bitvectors of
    every packet before the action's own."""
    table = trace.table
    counts = [0] * table.n
    clocks = [[] for _ in range(table.n)]
    for packet in trace.packets():
        for i in range(table.n):
            acts = packet.starts if table.is_input(i) else packet.ends
            if (acts >> i) & 1:
                clocks[i].append(tuple(counts))
        for i in range(table.n):
            counts[i] += (packet.ends >> i) & 1
    return clocks


def replay_checking_wakeups(app, seed=5):
    """Record ``app``, then replay it under event and compiled while a cycle
    hook asserts at every cycle boundary that no gated replayer could
    already act and that ``live`` counts exactly the replayers not done.
    The ``T_expected`` a gated replayer rebuilds from its needs must equal
    the prefix-sum clock; rebuilding costs O(position), so that is checked
    at the first gated action in each power-of-two band of positions.
    Returns ``{kernel: (cycles, validation-trace SHA-256)}``."""
    spec = get_app(app)
    trace = record_run(spec, bench_config(VidiConfig.r2), seed=seed,
                       scheduler="compiled").result["trace"]
    clocks = prefix_sum_clocks(trace)
    outs = {}
    for kernel in ("event", "compiled"):
        dep = F1Deployment(
            f"rep_{app}", spec.make()[0],
            VidiConfig.r3(interfaces=trace_interfaces(trace)),
            replay_trace=trace, scheduler=kernel)
        shim = dep.shim
        counts = shim.coordinator.current.counts
        rebuilt = set()

        def audit(cycle, shim=shim, counts=counts, kernel=kernel,
                  rebuilt=rebuilt):
            for r in shim.replayers:
                pos = r._action_pos
                if r._gated and pos < len(r.actions):
                    expected = clocks[r.index][pos]
                    band = (r.index, pos.bit_length())
                    if band not in rebuilt:
                        rebuilt.add(band)
                        assert r.expected_at(pos) == expected, (
                            f"{app}/{kernel}: {r.name} action {pos}")
                    assert any(c < e for c, e in zip(counts, expected)), (
                        f"{app}/{kernel}: {r.name} gated but ready "
                        f"at cycle {cycle}")
            live = sum(not r.done for r in shim.replayers)
            assert shim.coordinator.live == live, (app, kernel, cycle)

        dep.sim.add_cycle_hook(audit)
        cycles = dep.run_replay()
        body = dep.recorded_trace().body
        outs[kernel] = (cycles, hashlib.sha256(body).hexdigest())
    return outs


class TestRecordTransparency:
    """§5.4 'Recording': R1 and R2 must produce identical application output."""

    def test_r1_produces_correct_output(self):
        _, result, _ = run_host(VidiConfig.r1(), seed=3)
        check(result)

    def test_r2_produces_correct_output(self):
        _, result, _ = run_host(VidiConfig.r2(), seed=3)
        check(result)

    def test_r1_r2_same_cycles_same_seed(self):
        """With ample store bandwidth, recording adds zero cycles."""
        _, _, c1 = run_host(VidiConfig.r1(), seed=5)
        _, _, c2 = run_host(VidiConfig.r2(), seed=5)
        assert c1 == c2

    def test_recording_deterministic_given_seed(self):
        dep_a, _, _ = run_host(VidiConfig.r2(), seed=11)
        dep_b, _, _ = run_host(VidiConfig.r2(), seed=11)
        assert dep_a.recorded_trace().body == dep_b.recorded_trace().body


class TestReplay:
    def test_replay_completes_and_validates(self):
        dep, result, _ = run_host(VidiConfig.r2(), seed=2)
        check(result)
        trace = dep.recorded_trace({"app": "dram_dma"})
        rdep, _ = run_replay(trace)
        report = compare_traces(trace, rdep.recorded_trace())
        assert report.output_transactions > 0
        # Polling can legitimately diverge in content; ordering and counts
        # must always hold under transaction determinism.
        assert not report.of_kind("count")
        assert not report.of_kind("ordering")
        # Replayers wake only when released; none may miss its release.
        for app in WAKEUP_APPS:
            for kernel, out in replay_checking_wakeups(app).items():
                if app in PINNED:
                    assert out == PINNED[app], (app, kernel)

    def test_replay_recreates_internal_state(self):
        """Replay reconstructs on-FPGA DRAM contents from the trace alone."""
        dep, result, _ = run_host(VidiConfig.r2(), seed=4)
        trace = dep.recorded_trace()
        rdep, _ = run_replay(trace)
        from repro.apps.dram_dma import DST_BASE
        expected = result["expected"]
        replayed = rdep.accelerator.dram.read_bytes(DST_BASE, len(expected))
        assert replayed == expected

    def test_interrupt_patched_app_never_diverges(self):
        """§3.6: the 10-line interrupt patch removes all content divergence."""
        dep, result, _ = run_host(VidiConfig.r2(), seed=6, polling=False)
        check(result)
        trace = dep.recorded_trace()
        rdep, _ = run_replay(trace, polling=False)
        report = compare_traces(trace, rdep.recorded_trace())
        assert report.clean, report.summary()

    def test_replay_is_deterministic(self):
        dep, _, _ = run_host(VidiConfig.r2(), seed=8)
        trace = dep.recorded_trace()
        a, cycles = run_replay(trace)
        b, _ = run_replay(trace)
        body = a.recorded_trace().body
        assert body == b.recorded_trace().body
        # Simulator.reset() rewinds the replay coordinator with the design:
        # the same deployment replays again to the same cycles and body.
        a.sim.reset()
        assert a.run_replay(max_cycles=400_000) == cycles
        assert a.recorded_trace().body == body
        assert cycles > 0

    def test_replay_needs_trace(self):
        acc_factory, _ = make()
        with pytest.raises(ConfigError):
            F1Deployment("x", acc_factory, VidiConfig.r3())

    def test_replay_faster_than_record(self):
        """Replay delivers inputs as early as orderings allow."""
        dep, _, rec_cycles = run_host(VidiConfig.r2(), seed=9)
        trace = dep.recorded_trace()
        _, rep_cycles = run_replay(trace)
        assert rep_cycles <= rec_cycles


class TestInterfaceSubsets:
    def test_partial_monitoring_records_only_selected(self):
        config = VidiConfig.r2(interfaces=("ocl",))
        dep, result, _ = run_host(config, seed=3)
        check(result)
        trace = dep.recorded_trace()
        assert len(trace.table) == 5  # one interface, five channels
        assert all(info.name.endswith(ch)
                   for info, ch in zip(trace.table.channels,
                                       ("aw", "w", "b", "ar", "r")))

    def test_unknown_interface_rejected(self):
        with pytest.raises(ConfigError):
            VidiConfig.r2(interfaces=("sda", "nvme"))

    def test_mode_enum_values(self):
        assert VidiConfig.r1().mode is VidiMode.TRANSPARENT
        assert VidiConfig.r2().mode is VidiMode.RECORD
        assert VidiConfig.r3().mode is VidiMode.REPLAY


class TestEnvironmentModes:
    def test_vendor_sim_rejects_second_thread(self):
        from repro.errors import SimulationError
        acc_factory, host_factory = make()
        dep = F1Deployment("s", acc_factory, VidiConfig.r1(),
                           env_mode=EnvironmentMode.VENDOR_SIM, seed=0)
        dep.cpu.add_thread(host_factory({}, seed=1))
        with pytest.raises(SimulationError):
            dep.cpu.add_thread(host_factory({}, seed=2))

    def test_hardware_supports_threads(self):
        acc_factory, host_factory = make()
        dep = F1Deployment("h", acc_factory, VidiConfig.r1(),
                           env_mode=EnvironmentMode.HARDWARE, seed=0)
        r1, r2 = {}, {}
        dep.cpu.add_thread(host_factory(r1, seed=1))
        # A second, trivial thread that only waits.
        from repro.platform import WaitCycles

        def idler():
            yield WaitCycles(10)

        dep.cpu.add_thread(idler())
        dep.run_to_completion(max_cycles=400_000)
        check(r1)
