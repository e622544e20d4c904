"""Tests for anchor-sharded parallel replay."""

import pytest

from repro.apps.registry import get_app
from repro.core import TraceFile, VidiConfig, compare_traces
from repro.errors import ConfigError
from repro.harness.runner import bench_config, record_run, replay_run
from repro.harness.sharded_replay import (
    SHARD_ANCHOR_STRIDE,
    plan_shards,
    replay_sharded,
)


def _always_dies(cell):
    """Module-level so the process pool can pickle it."""
    raise RuntimeError("persistent fault")


def _flight_record(spec, seed, **overrides):
    config = bench_config(VidiConfig.r2, flight_recorder=True,
                          flight_anchor_stride=SHARD_ANCHOR_STRIDE,
                          **overrides)
    return record_run(spec, config, seed=seed)


def _assert_shards_like_sequential(spec, trace, segments=3, scheduler=None):
    result = replay_sharded(spec, trace, segments=segments,
                            scheduler=scheduler)
    assert result.segments == segments
    sequential = replay_run(spec, trace, scheduler=scheduler)
    assert bytes(result.validation.body) == \
        bytes(sequential.result["validation"].body)


@pytest.fixture(scope="module")
def recorded():
    """One DRAM-DMA flight recording at the shard anchor stride plus its
    sequential replay — the reference every sharded variant must match."""
    spec = get_app("dram_dma")
    metrics = _flight_record(spec, seed=5)
    trace = metrics.result["trace"]
    sequential = replay_run(spec, trace)
    return spec, metrics, trace, sequential


class TestAnchorShardPoints:
    def test_anchors_are_in_body_shard_points(self, recorded):
        _spec, metrics, trace, _seq = recorded
        assert len(trace.anchors) >= 2
        n = trace.packet_count
        for ordinal, anchor in trace.anchors.items():
            assert 0 < ordinal < n
            assert anchor["ordinal"] == ordinal     # window starts at 0
            assert anchor["checkpoint"]["dram_words"]
            assert anchor["cycle"] > 0
        loaded = TraceFile.from_bytes(metrics.result["flight_blob"])
        assert loaded.anchors == trace.anchors

    def test_wrapped_window(self, recorded):
        """The first shard restores the window's own anchor (at this
        retention the window's first packets read DRAM written before
        it, so a shard that skips the restore replays them wrong)."""
        spec = recorded[0]
        trace = _flight_record(spec, seed=5, flight_retain_words=3072
                               ).result["trace"]
        assert trace.metadata["ring"]["ordinal"] > 0
        assert len(trace.anchors) >= 2
        _assert_shards_like_sequential(spec, trace)
        # A rewrite (TraceFile.save, vidi salvage -o) keeps the window
        # and every anchor, so it shards the same on every kernel.
        blob = trace.to_bytes()
        header = blob[20:20 + int.from_bytes(blob[8:16], "little")]
        assert b'"ring"' not in header      # the genesis anchor has it
        rewritten = TraceFile.from_bytes(blob)
        assert rewritten.anchors == trace.anchors
        assert rewritten.metadata["ring"] == trace.metadata["ring"]
        assert bytes(rewritten.body) == bytes(trace.body)
        for scheduler in ("event", "compiled"):
            _assert_shards_like_sequential(spec, rewritten,
                                           scheduler=scheduler)

    def test_salvaged_torn_container(self, recorded):
        spec, metrics, _trace, _seq = recorded
        blob = metrics.result["flight_blob"]
        torn = TraceFile.from_bytes(blob[:len(blob) * 2 // 3], salvage=True)
        assert torn.salvaged and len(torn.anchors) >= 2
        _assert_shards_like_sequential(spec, torn)


class TestPlanShards:
    CPS = {k: {"ordinal": k, "cycle": k, "checkpoint": {}}
           for k in (10, 20, 30)}

    def test_single_segment_needs_no_checkpoint(self):
        assert plan_shards(40, self.CPS, 1) == [(0, 40, None)]

    def test_even_split_picks_nearest_boundary(self):
        plan = plan_shards(40, self.CPS, 2)
        assert [(a, b) for a, b, _cp in plan] == [(0, 20), (20, 40)]
        assert plan[1][2] is self.CPS[20]

    def test_more_segments_than_candidates(self):
        plan = plan_shards(40, self.CPS, 10)
        bounds = [a for a, _b, _cp in plan]
        assert bounds == [0, 10, 20, 30]

    def test_bounds_cover_trace_and_increase(self):
        plan = plan_shards(40, self.CPS, 3)
        assert plan[0][0] == 0 and plan[-1][1] == 40
        for (_a, b, _cp), (a2, _b2, _cp2) in zip(plan, plan[1:]):
            assert b == a2

    def test_no_checkpoints_degenerates_to_sequential(self):
        assert plan_shards(40, {}, 4) == [(0, 40, None)]

    def test_zero_segments_rejected(self):
        with pytest.raises(ConfigError):
            plan_shards(40, self.CPS, 0)


class TestShardedReplay:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_stitched_identical_to_sequential(self, recorded, jobs):
        spec, _metrics, trace, sequential = recorded
        result = replay_sharded(spec, trace, segments=max(jobs, 2),
                                jobs=jobs)
        assert result.segments >= 2
        reference = sequential.result["validation"]
        assert bytes(result.validation.body) == bytes(reference.body)

    def test_divergence_verdicts_identical(self, recorded):
        spec, _metrics, trace, sequential = recorded
        result = replay_sharded(spec, trace, segments=3)
        sharded_report = compare_traces(trace, result.validation)
        reference_report = compare_traces(
            trace, sequential.result["validation"])
        assert [(d.kind, d.channel, d.occurrence, d.detail)
                for d in sharded_report.divergences] == \
            [(d.kind, d.channel, d.occurrence, d.detail)
             for d in reference_report.divergences]

    def test_segments_cut_replay_critical_path(self, recorded):
        spec, _metrics, trace, sequential = recorded
        result = replay_sharded(spec, trace, segments=3)
        assert result.segments == 3
        assert result.critical_path_cycles < sequential.cycles

    def test_per_cycle_shards_also_identical(self, recorded):
        """Sharding composes with the warp switch in either position."""
        spec, _metrics, trace, sequential = recorded
        result = replay_sharded(spec, trace, segments=2,
                                time_warp=False)
        assert bytes(result.validation.body) == \
            bytes(sequential.result["validation"].body)


class TestCrashRecovery:
    """Injected worker crashes must be absorbed by the retry/fallback
    machinery and leave the stitched validation trace bit-identical."""

    def test_single_crash_recovers_bit_identically(self, recorded):
        from repro.faults import FaultInjector, FaultPlan

        spec, _metrics, trace, sequential = recorded
        injector = FaultInjector(
            FaultPlan.single("worker-crash", seed=1, crashes=1))
        result = replay_sharded(spec, trace, segments=3,
                                jobs=2, injector=injector)
        assert any("worker-crash" in entry for entry in injector.log)
        assert bytes(result.validation.body) == \
            bytes(sequential.result["validation"].body)

    def test_every_shard_crashing_still_recovers(self, recorded):
        """Even with every worker dying once, retries (and ultimately the
        inline fallback) reconstruct the full validation trace."""
        from repro.faults import FaultInjector, FaultPlan

        spec, _metrics, trace, sequential = recorded
        injector = FaultInjector(
            FaultPlan.single("worker-crash", seed=2, crashes=99))
        result = replay_sharded(spec, trace, segments=3,
                                jobs=2, injector=injector)
        assert bytes(result.validation.body) == \
            bytes(sequential.result["validation"].body)

    def test_exhausted_retries_raise_typed_error(self, recorded):
        """A persistent (non-transient) crash surfaces as ShardReplayError
        rather than an opaque pool exception."""
        from repro.errors import ShardReplayError
        from repro.harness.runner import run_cells

        with pytest.raises(ShardReplayError):
            run_cells([1, 2], _always_dies, jobs=2, retries=1)

