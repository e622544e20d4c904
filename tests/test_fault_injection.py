"""Tests for the fault-injection subsystem: plans, injector, containment.

The load-bearing test is the corruption grid
(:class:`TestCorruptionGrid`): seeded byte flips across every region
class of a real recorded trace, each asserting the outcome lands in
{masked, typed rejection, detected divergence} — never a hang (the
conftest alarm guard would catch one) and never a silent wrong-accept.
"""

import random
from pathlib import Path

import pytest

from repro.apps.registry import get_app
from repro.core import VidiConfig, compare_traces
from repro.core.trace_file import TraceFile
from repro.errors import (
    FaultPlanError,
    ReplayStallError,
    ReproError,
    ShardReplayError,
    TraceFormatError,
    WatchdogTimeout,
)
from repro.faults import FAULT_KINDS, FaultInjector, FaultPlan, run_campaign
from repro.harness.runner import bench_config, record_run, replay_run
from repro.platform.shell import DEFAULT_REPLAY_STALL_BUDGET
from tests.test_vidi_integration import prefix_sum_clocks


@pytest.fixture(scope="module")
def reference():
    """One fault-free sha256 recording plus its replay outputs."""
    spec = get_app("sha256")
    metrics = record_run(spec, bench_config(VidiConfig.r2), seed=3)
    trace = metrics.result["trace"]
    replay = replay_run(spec, trace)
    return spec, metrics, trace, bytes(replay.result["validation"].body)


class TestFaultPlan:
    def test_parse_round_trip(self):
        text = "store-bitflip:flips=3;channel-stall:start=100,cycles=40"
        plan = FaultPlan.parse(text, seed=7)
        assert plan.seed == 7
        assert [s.kind for s in plan.specs] == ["store-bitflip",
                                                "channel-stall"]
        assert plan.specs[0]["flips"] == 3
        assert plan.specs[1]["cycles"] == 40
        assert plan.render() == text

    def test_defaults_apply(self):
        plan = FaultPlan.parse("store-brownout")
        assert plan.specs[0]["factor"] == 0.1

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse("store-meltdown")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse("store-bitflip:zaps=1")

    def test_bad_value_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse("store-bitflip:flips=lots")

    def test_empty_plan_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(" ; ")

    def test_every_kind_constructs(self):
        for kind in FAULT_KINDS:
            assert FaultPlan.single(kind).specs[0].kind == kind

    def test_injector_is_seed_deterministic(self, reference):
        _spec, _metrics, trace, _val = reference
        blob = trace.to_bytes()
        one = FaultInjector(FaultPlan.parse("blob-corrupt:bytes=3", seed=9))
        two = FaultInjector(FaultPlan.parse("blob-corrupt:bytes=3", seed=9))
        assert one.mangle_blob(blob) == two.mangle_blob(blob)
        other = FaultInjector(FaultPlan.parse("blob-corrupt:bytes=3", seed=10))
        assert one.mangle_blob(blob) != other.mangle_blob(blob)


class TestCorruptionGrid:
    """Seeded byte flips across every region of the legacy containers of a
    real trace (the sha256 seed-3 recording, ``tests/data``): every
    outcome must be masked, a typed rejection, or a detected divergence —
    never a silent wrong-accept."""

    REGIONS = ("magic", "length", "header", "body", "footer")

    def pristine(self, version):
        """The fixture's bytes and the trace they hold (the reference)."""
        blob = (Path(__file__).parent / "data"
                / f"sha256_s3_v{version}.trace").read_bytes()
        return blob, TraceFile.from_bytes(blob)

    def classify(self, spec, trace, original, damaged):
        try:
            loaded = TraceFile.from_bytes(damaged)
        except TraceFormatError:
            return "rejected"
        if bytes(loaded.body) == bytes(trace.body):
            return "masked"
        try:
            replay = replay_run(spec, loaded, max_cycles=400_000)
            report = compare_traces(loaded, replay.result["validation"])
        except ReproError:
            return "rejected"
        if not report.clean:
            return "divergence"
        return "silent-accept"

    def test_grid_over_all_regions(self, reference):
        from repro.core.mutation import corrupt_frame

        spec = reference[0]
        blob, trace = self.pristine(2)
        rng = random.Random(42)
        outcomes = {}
        for i in range(40):
            region = self.REGIONS[i % len(self.REGIONS)]
            _desc, damaged = corrupt_frame(blob, rng, region=region)
            verdict = self.classify(spec, trace, blob, damaged)
            outcomes.setdefault(region, set()).add(verdict)
            assert verdict != "silent-accept", (region, _desc)
        # Every region class was exercised and every flip was contained.
        assert set(outcomes) == set(self.REGIONS)
        for verdicts in outcomes.values():
            assert verdicts <= {"masked", "rejected", "divergence"}

    def test_grid_on_v1_still_contained(self, reference):
        """v1 has no CRCs, but framing checks still reject whole regions;
        body flips must surface as decode errors or divergence."""
        spec = reference[0]
        blob, trace = self.pristine(1)
        rng = random.Random(7)
        for _ in range(10):
            damaged = bytearray(blob)
            position = rng.randrange(16)    # magic + header length words
            damaged[position] ^= 1 << rng.randrange(8)
            verdict = self.classify(spec, trace, blob, bytes(damaged))
            assert verdict in ("masked", "rejected")


class TestStoreFaults:
    def test_bitflip_lands_in_containment(self, reference):
        spec, _metrics, trace, ref_val = reference
        injector = FaultInjector(FaultPlan.single("store-bitflip", seed=1,
                                                  flips=2))
        metrics = record_run(spec, bench_config(VidiConfig.r2), seed=3,
                             before_run=injector.arm_recording)
        corrupted = metrics.result["trace"]
        assert bytes(corrupted.body) != bytes(trace.body)
        assert any("store-bitflip" in entry for entry in injector.log)
        try:
            replay = replay_run(spec, corrupted, max_cycles=400_000)
            report = compare_traces(corrupted, replay.result["validation"])
            detected = not report.clean
            if not detected:
                # Semantically invisible flip: outputs must match reference.
                assert bytes(replay.result["validation"].body) == ref_val
        except ReproError:
            detected = True
        # Either verdict is fine; a hang or wrong-accept is not, and both
        # were excluded above / by the alarm guard.

    def test_word_drop_detected(self, reference):
        spec, _metrics, trace, _val = reference
        injector = FaultInjector(FaultPlan.single("store-drop", seed=2,
                                                  words=1))
        metrics = record_run(spec, bench_config(VidiConfig.r2), seed=3,
                             before_run=injector.arm_recording)
        corrupted = metrics.result["trace"]
        assert len(corrupted.body) == len(trace.body) - 64
        with pytest.raises(ReproError):
            replay = replay_run(spec, corrupted, max_cycles=400_000)
            report = compare_traces(corrupted, replay.result["validation"])
            if not report.clean:
                raise ReproError("divergence detected")   # accepted verdict

    def test_corruption_is_idempotent_across_flushes(self, reference):
        spec, _metrics, _trace, _val = reference
        injector = FaultInjector(FaultPlan.single("store-bitflip", seed=4))
        metrics = record_run(spec, bench_config(VidiConfig.r2), seed=3,
                             before_run=injector.arm_recording)
        deployment_trace = metrics.result["trace"]
        assert len(injector.log) == 1   # one flip despite repeated flush()


class TestTimingFaults:
    """Brownouts and channel stalls perturb timing only; the paper's
    back-pressure argument (§3.3) says recording must mask them
    losslessly: the run still completes, the host result still checks
    out, and the recorded trace still replays without divergence."""

    @pytest.mark.parametrize("plan_text", [
        "store-brownout:factor=0.05,start=100,cycles=1500",
        "store-brownout:factor=0.0,start=0,cycles=800",
        "channel-stall:start=200,cycles=300",
        "channel-stall:start=50,cycles=120;channel-stall:start=700,cycles=90",
    ])
    def test_masked_losslessly(self, reference, plan_text):
        spec, _metrics, _trace, _val = reference
        injector = FaultInjector(FaultPlan.parse(plan_text, seed=5))
        metrics = record_run(spec, bench_config(VidiConfig.r2), seed=3,
                             before_run=injector.arm_recording)
        trace = metrics.result["trace"]
        replay = replay_run(spec, trace, max_cycles=400_000)
        report = compare_traces(trace, replay.result["validation"])
        assert report.clean

    def test_brownout_slows_the_recording(self, reference):
        spec, metrics, _trace, _val = reference
        injector = FaultInjector(FaultPlan.parse(
            "store-brownout:factor=0.0,start=0,cycles=2000", seed=6))
        throttled = record_run(spec, bench_config(VidiConfig.r2), seed=3,
                               before_run=injector.arm_recording)
        assert throttled.store_stall_cycles >= metrics.store_stall_cycles
        assert throttled.cycles >= metrics.cycles


class TestReplayStall:
    def livelocked_trace(self, trace):
        """Append an end nobody will ever complete before the last packet."""
        from repro.core.mutation import TraceMutator
        from repro.core.packets import CyclePacket

        mutator = TraceMutator(trace)
        mutator.packets.insert(len(mutator.packets) - 1, CyclePacket(ends=1))
        return mutator.build()

    def test_livelock_raises_structured_stall_error(self, reference):
        spec, _metrics, trace, _val = reference
        bad = self.livelocked_trace(trace)
        with pytest.raises(ReplayStallError) as excinfo:
            replay_run(spec, bad, max_cycles=1_000_000)
        err = excinfo.value
        assert err.cycle is not None
        assert err.last_progress_cycle is not None
        assert err.cycle > err.last_progress_cycle
        assert err.current_clock is not None
        assert err.channels
        stuck = err.channels[0]
        assert stuck["waiting_on"]
        assert "needs" in stuck["waiting_on"][0]
        # The stuck action's T_expected, rebuilt from its replayer's needs,
        # is the full prefix-sum clock of the trace.
        full = prefix_sum_clocks(bad)[stuck["index"]]
        assert stuck["next_expected"] == full[stuck["actions_consumed"]]
        assert stuck["waiting_on"] == [
            f"{bad.table[i].name} (has {have}, needs {need})"
            for i, (have, need) in enumerate(zip(err.current_clock,
                                                 stuck["next_expected"]))
            if have < need]

    def test_stall_error_is_watchdog_timeout(self, reference):
        """Existing except-WatchdogTimeout handlers keep working."""
        spec, _metrics, trace, _val = reference
        bad = self.livelocked_trace(trace)
        with pytest.raises(WatchdogTimeout):
            replay_run(spec, bad, max_cycles=1_000_000)

    def test_clean_replay_unaffected_by_watchdog(self, reference):
        """Chunked stepping must keep cycle counts bit-identical."""
        spec, _metrics, trace, _val = reference
        acc_factory, _host = spec.make()
        from repro.harness.runner import trace_interfaces
        from repro.platform.shell import F1Deployment

        config = VidiConfig.r3(interfaces=trace_interfaces(trace))
        plain = F1Deployment("stall_ref", acc_factory, config,
                             replay_trace=trace)
        cycles_plain = plain.run_replay(stall_budget=10**9)
        chunked = F1Deployment("stall_chk", acc_factory, config,
                               replay_trace=trace)
        # sha256 computes internally for ~2000 cycles with no channel
        # activity; 2048 stays above that legitimate gap while still
        # splitting the run across more than one watchdog chunk.
        cycles_chunked = chunked.run_replay(stall_budget=2048)
        assert cycles_plain == cycles_chunked
        assert bytes(plain.recorded_trace().body) \
            == bytes(chunked.recorded_trace().body)
        # sssp at its default scale computes for ~38k cycles with no
        # transaction: a computing kernel is progress, not a stall.
        sssp = get_app("sssp")
        for seed, scheduler in ((0, "event"), (5, "compiled")):
            trace = record_run(sssp, bench_config(VidiConfig.r2), seed=seed,
                               scheduler=scheduler).result["trace"]
            replay = replay_run(sssp, trace, scheduler=scheduler)
            assert replay.cycles > 2 * DEFAULT_REPLAY_STALL_BUDGET
            assert compare_traces(trace, replay.result["validation"]).clean


class TestWorkerCrash:
    def test_inline_crash_raises_not_exits(self):
        """Outside a pool worker the crash must not kill the process."""
        from repro.faults.injector import CrashingWorker

        calls = []

        def worker(cell):
            calls.append(cell)
            return {"cell": cell}

        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            crashing = CrashingWorker(worker, [repr("a")], tmp)
            with pytest.raises(ShardReplayError):
                crashing("a")
            assert crashing("a") == {"cell": "a"}   # retry succeeds
            assert crashing("b") == {"cell": "b"}   # untargeted cell fine


class TestCampaign:
    def test_small_campaign_has_no_silent_accepts(self):
        report = run_campaign(app="sha256", n_faults=12, seed=2)
        assert len(report.trials) == 12
        assert not report.silent_accepts
        assert report.kinds_exercised >= 5
        rendered = report.render()
        assert "no silent wrong-accepts" in rendered

    def test_campaign_is_deterministic(self):
        one = run_campaign(app="sha256", n_faults=6, seed=3)
        two = run_campaign(app="sha256", n_faults=6, seed=3)
        assert [(t.kind, t.seed, t.outcome) for t in one.trials] \
            == [(t.kind, t.seed, t.outcome) for t in two.trials]

    def test_flight_recorder_is_the_campaign_default(self):
        """The default (None) resolves to flight-recorder record legs.

        Campaign fleets are the deployments the always-on recorder exists
        for, so ``run_campaign`` now defaults it on. The regression pinned
        here: the default is trial-for-trial identical to an explicit
        ``flight_recorder=True``, and the opt-out still contains every
        fault (same schedule — the fault plans are drawn before any leg
        runs — with v2 flat containers under attack instead of v3).
        """
        default = run_campaign(app="sha256", n_faults=8, seed=5)
        explicit = run_campaign(app="sha256", n_faults=8, seed=5,
                                flight_recorder=True)
        assert [(t.index, t.kind, t.seed, t.outcome, t.detail)
                for t in default.trials] \
            == [(t.index, t.kind, t.seed, t.outcome, t.detail)
                for t in explicit.trials]
        opt_out = run_campaign(app="sha256", n_faults=8, seed=5,
                               flight_recorder=False)
        assert [(t.index, t.kind, t.seed) for t in opt_out.trials] \
            == [(t.index, t.kind, t.seed) for t in default.trials]
        assert not opt_out.silent_accepts
        assert not default.silent_accepts
