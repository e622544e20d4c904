"""Tests for extension applications flowing through the standard harness."""

import pytest

from repro.apps.registry import EXTRA_APPS, get_app
from repro.core import VidiConfig, compare_traces
from repro.errors import ConfigError
from repro.harness.runner import (
    bench_config,
    record_run,
    replay_run,
    trace_interfaces,
)


class TestExtraRegistry:
    def test_extras_registered(self):
        assert set(EXTRA_APPS) == {"dram_dma_axi", "packet_filter"}
        assert get_app("packet_filter").stream_workload is not None
        assert "ddr4" in get_app("dram_dma_axi").interfaces

    def test_extras_not_in_table1_set(self):
        from repro.apps.registry import APPS

        assert "packet_filter" not in APPS
        assert len(APPS) == 10

    def test_paper_row_absent_for_extras(self):
        assert get_app("packet_filter").paper is None


class TestRunnerWithExtras:
    @pytest.mark.parametrize("key", ["dram_dma_axi", "packet_filter"])
    def test_record_and_replay_via_runner(self, key):
        """The process-default kernel and compiled, with warp on and off,
        record and replay each extension app to the same bytes. Compiled
        skips a module's seq() on its guard and warp skips quiet cycles;
        event with warp off, the per-cycle reference, runs every one."""
        spec = get_app(key)
        config = bench_config(VidiConfig.r2)
        digests = set()
        for kernel, warp in ((None, None), ("compiled", None),
                             ("event", False)):
            metrics = record_run(spec, config, seed=12, scale=0.6,
                                 scheduler=kernel, time_warp=warp)
            trace = metrics.result["trace"]
            # The runner widened the boundary to the spec's interfaces.
            assert set(trace_interfaces(trace)) == set(spec.interfaces)
            replay = replay_run(spec, trace, scheduler=kernel)
            validation = replay.result["validation"]
            report = compare_traces(trace, validation)
            assert report.clean, (kernel, report.summary())
            digests.add((bytes(trace.body), bytes(validation.body)))
        assert len(digests) == 1

    def test_trace_interfaces_from_table(self):
        spec = get_app("sha256")
        metrics = record_run(spec, bench_config(VidiConfig.r2), seed=1,
                             scale=0.3)
        assert trace_interfaces(metrics.result["trace"]) == (
            "sda", "ocl", "bar1", "pcim", "pcis")

    def test_unknown_key_lists_extras(self):
        with pytest.raises(ConfigError) as excinfo:
            get_app("missing")
        assert "packet_filter" in str(excinfo.value)
