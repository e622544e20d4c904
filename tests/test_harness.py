"""Tests for the harness: runner metrics, experiment drivers, and the CLI."""

import pytest

from repro.apps.registry import get_app
from repro.core import VidiConfig
from repro.errors import ConfigError
from repro.harness.runner import (
    OverheadStats,
    SweepCell,
    bench_config,
    record_run,
    replay_run,
    run_cells,
    run_record_cell,
)


class TestRunner:
    def test_record_run_metrics_fields(self):
        spec = get_app("sha256")
        metrics = record_run(spec, bench_config(VidiConfig.r2), seed=9,
                             scale=0.3)
        assert metrics.app == "sha256"
        assert metrics.mode == "record"
        assert metrics.cycles > 0
        assert metrics.trace_bytes > 0
        assert metrics.stored_bytes >= metrics.trace_bytes
        assert metrics.monitored_transactions > 0
        assert metrics.seconds == pytest.approx(metrics.cycles / 250e6)

    def test_r1_run_has_no_trace(self):
        spec = get_app("sha256")
        metrics = record_run(spec, bench_config(VidiConfig.r1), seed=9,
                             scale=0.3)
        assert metrics.trace_bytes == 0
        assert "trace" not in metrics.result

    def test_record_run_rejects_replay_config(self):
        spec = get_app("sha256")
        with pytest.raises(ConfigError):
            record_run(spec, VidiConfig.r3(), seed=1)

    def test_replay_run_returns_validation(self):
        spec = get_app("sha256")
        metrics = record_run(spec, bench_config(VidiConfig.r2), seed=9,
                             scale=0.3)
        replay = replay_run(spec, metrics.result["trace"])
        assert replay.mode == "replay"
        assert "validation" in replay.result
        assert replay.result["validation"].size_bytes > 0

    def test_overhead_stats_math(self):
        stats = OverheadStats(app="x", r1_cycles=[100, 100],
                              r2_cycles=[110, 110])
        assert stats.mean_overhead_pct == pytest.approx(10.0)
        assert stats.std_overhead_pct == pytest.approx(0.0)

    def test_overhead_experiment_sampling(self):
        """Table 1 samples R1 at base_seed + i and R2 at base_seed + 500 + i
        as separate runs."""
        from repro.harness.experiments import run_table1

        spec = get_app("sha256")
        (row,) = run_table1(runs=2, apps=["sha256"], base_seed=400)
        stats = OverheadStats(
            app="sha256",
            r1_cycles=[record_run(spec, bench_config(VidiConfig.r1),
                                  seed=400 + i).cycles for i in range(2)],
            r2_cycles=[record_run(spec, bench_config(VidiConfig.r2),
                                  seed=900 + i).cycles for i in range(2)])
        assert row.native_cycles == sum(stats.r1_cycles) / 2
        assert row.overhead_pct == stats.mean_overhead_pct
        assert row.overhead_std == stats.std_overhead_pct


class TestExperimentDrivers:
    def test_cycle_accurate_constant(self):
        from repro.harness.experiments import (
            CYCLE_ACCURATE_BITS_PER_CYCLE,
            CYCLE_ACCURATE_BYTES_PER_CYCLE,
        )
        # 14 input channels' payload+VALID plus 11 output READYs.
        assert CYCLE_ACCURATE_BITS_PER_CYCLE == 1649
        assert CYCLE_ACCURATE_BYTES_PER_CYCLE == 207

    def test_table2_driver(self):
        from repro.harness.experiments import render_table2, run_table2

        rows = run_table2()
        assert len(rows) == 10
        text = render_table2(rows)
        assert "DMA" in text and "paper" in text

    def test_fig7_driver(self):
        from repro.harness.experiments import run_fig7

        points = run_fig7()
        assert [p.monitored_bits for p in points][0] == 136

    def test_panopticon_driver(self):
        from repro.harness.experiments import run_panopticon

        envelope, rows = run_panopticon()
        assert envelope.loses_data
        assert len(rows) == 10


class TestParallelSweeps:
    CELLS = [
        SweepCell("sha256", "r1", 700, scale=0.3),
        SweepCell("sha256", "r2", 701, scale=0.3),
        SweepCell("sha256", "r2", 702, scale=0.3),
    ]

    def test_record_cell_worker_is_picklable_metrics(self):
        row = run_record_cell(self.CELLS[1])
        assert row["app"] == "sha256" and row["config"] == "r2"
        assert row["cycles"] > 0 and row["trace_bytes"] > 0

    def test_inline_matches_sequential(self):
        inline = run_cells(self.CELLS, run_record_cell, jobs=1)
        assert inline == [run_record_cell(c) for c in self.CELLS]

    def test_parallel_matches_inline_in_order(self):
        """Sharding across processes must not change a single number, and
        results must come back in cell order."""
        inline = run_cells(self.CELLS, run_record_cell, jobs=None)
        parallel = run_cells(self.CELLS, run_record_cell, jobs=2)
        assert parallel == inline
        assert [r["seed"] for r in parallel] == [700, 701, 702]

    def test_table1_results_independent_of_jobs(self):
        from repro.harness.experiments import run_table1

        seq = run_table1(runs=1, apps=["sha256"], base_seed=800, jobs=1)
        par = run_table1(runs=1, apps=["sha256"], base_seed=800, jobs=2)
        assert [(r.app.key, r.native_cycles, r.overhead_pct, r.trace_bytes)
                for r in seq] == \
               [(r.app.key, r.native_cycles, r.overhead_pct, r.trace_bytes)
                for r in par]


class TestHarnessCli:
    def test_fast_artifacts(self, capsys, tmp_path):
        from repro.tools import main

        out_file = tmp_path / "fast.txt"
        assert main(["artifact", "fast", "-o", str(out_file)]) == 0
        printed = capsys.readouterr().out
        assert "Table 2" in printed
        assert "Fig. 7" in printed
        assert "Panopticon" in printed or "envelope" in printed
        assert out_file.exists()
        assert "Table 2" in out_file.read_text()

    def test_single_artifact(self, capsys):
        from repro.tools import main

        assert main(["artifact", "table2"]) == 0
        assert "BRAM" in capsys.readouterr().out

    def test_unknown_artifact_rejected(self, capsys):
        from repro.tools import main

        with pytest.raises(SystemExit):
            main(["artifact", "table9"])
        assert "vidi artifact: error: argument artifact: invalid choice: " \
            "'table9'" in capsys.readouterr().err
