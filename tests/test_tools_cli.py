"""Tests for the offline trace tool CLI (``python -m repro.tools``)."""

import pytest

from repro.apps.sha256 import make
from repro.core import VidiConfig, compare_traces
from repro.core.trace_file import TraceFile
from repro.platform import F1Deployment
from repro.tools import main


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    """One recorded SHA-256 trace shared by every CLI test."""
    accelerator_factory, host_factory = make()
    deployment = F1Deployment("cli", accelerator_factory, VidiConfig.r2(),
                              seed=1)
    result = {}
    deployment.cpu.add_thread(host_factory(result, seed=2, scale=0.3))
    deployment.run_to_completion()
    assert result["ok"]
    path = tmp_path_factory.mktemp("traces") / "sha.trace"
    deployment.recorded_trace({"app": "sha256"}).save(path)
    return str(path)


class TestInfoStatsDump:
    def test_info(self, trace_path, capsys):
        assert main(["info", trace_path]) == 0
        out = capsys.readouterr().out
        assert "25 channels" in out
        assert "pcis.w" in out and "593" in out

    def test_stats_hides_idle_channels(self, trace_path, capsys):
        assert main(["stats", trace_path]) == 0
        out = capsys.readouterr().out
        assert "ocl.w" in out
        assert "bar1.aw" not in out   # no traffic on bar1

    def test_stats_all_includes_idle(self, trace_path, capsys):
        assert main(["stats", trace_path, "--all"]) == 0
        assert "bar1.aw" in capsys.readouterr().out

    def test_dump_limit(self, trace_path, capsys):
        assert main(["dump", trace_path, "--limit", "3"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 3

    def test_dump_filters_by_channel(self, trace_path, capsys):
        assert main(["dump", trace_path, "--channel", "ocl.w"]) == 0
        out = capsys.readouterr().out
        assert "ocl.w" in out
        assert "pcis.w" not in out

    def test_dump_unknown_channel_fails_cleanly(self, trace_path, capsys):
        assert main(["dump", trace_path, "--channel", "nvme.q"]) == 2
        assert "error: unknown channel 'nvme.q'" in capsys.readouterr().err

    def test_missing_file_fails_cleanly(self, capsys):
        assert main(["info", "/nonexistent.trace"]) == 2
        assert "No such file or directory: '/nonexistent.trace'" in \
            capsys.readouterr().err


class TestDiff:
    def test_identical_traces_exit_zero(self, trace_path, capsys):
        assert main(["diff", trace_path, trace_path]) == 0
        assert "no divergences" in capsys.readouterr().out

    def test_divergent_traces_exit_one(self, trace_path, tmp_path, capsys):
        trace = TraceFile.load(trace_path)
        packets = trace.packets()
        # Corrupt one output content in a copy.
        for packet in packets:
            if packet.validation:
                index = next(iter(packet.validation))
                packet.validation[index] = b"\xFF" * len(
                    packet.validation[index])
                break
        other = TraceFile.from_packets(trace.table, packets,
                                       with_validation=True)
        other_path = tmp_path / "other.trace"
        other.save(other_path)
        assert main(["diff", trace_path, str(other_path)]) == 1
        assert "content" in capsys.readouterr().out


class TestMutate:
    def test_legal_reorder(self, trace_path, tmp_path, capsys):
        out_path = tmp_path / "mut.trace"
        assert main(["mutate", trace_path, "-o", str(out_path),
                     "--move-end-before", "pcim.w:0", "pcim.aw:0"]) == 0
        assert capsys.readouterr().out == \
            f"mutated trace written to {out_path}\n"
        mutated = TraceFile.load(out_path)
        assert mutated.metadata["mutated"] is True

    def test_illegal_mutation_refused(self, trace_path, tmp_path, capsys):
        out_path = tmp_path / "bad.trace"
        # Moving an input channel's end before its own start is refused.
        assert main(["mutate", trace_path, "-o", str(out_path),
                     "--move-end-before", "pcis.w:0", "pcis.aw:0"]) == 2
        assert "mutation produces an inconsistent trace: pcis.w: end #0 " \
            "precedes its start" in capsys.readouterr().err
        assert not out_path.exists()

    def test_force_overrides_validation(self, trace_path, tmp_path, capsys):
        out_path = tmp_path / "forced.trace"
        assert main(["mutate", trace_path, "-o", str(out_path), "--force",
                     "--move-end-before", "pcis.w:0", "pcis.aw:0"]) == 0
        assert capsys.readouterr().out == \
            f"mutated trace written to {out_path}\n"
        assert out_path.exists()

    def test_drop_and_rewrite(self, trace_path, tmp_path, capsys):
        out_path = tmp_path / "edit.trace"
        new_content = "ab" * 5   # ocl.w content is 5 bytes
        assert main(["mutate", trace_path, "-o", str(out_path),
                     "--drop-end", "pcim.b:0",
                     "--rewrite-content", "ocl.w:0", new_content]) == 0
        assert capsys.readouterr().out == \
            f"mutated trace written to {out_path}\n"
        mutated = TraceFile.load(out_path)
        ocl_w = mutated.table.by_name("ocl.w").index
        first = next(p for p in mutated.packets()
                     if (p.starts >> ocl_w) & 1)
        assert first.contents[ocl_w] == bytes.fromhex(new_content)

    def test_bad_event_syntax(self, trace_path, tmp_path, capsys):
        assert main(["mutate", trace_path, "-o", str(tmp_path / "x"),
                     "--drop-end", "nocolon"]) == 2
        assert "error: expected CHANNEL:OCCURRENCE (e.g. pcim.w:0), got " \
            "'nocolon'" in capsys.readouterr().err


class TestFuzzCommand:
    def test_triage_reduces_false_deadlocks(self, trace_path, capsys):
        # Without a reference, causally impossible mutants read as
        # deadlocks; triaging against the same (correct) design clears them.
        exit_untriaged = main(["fuzz", "sha256", trace_path,
                               "--mutants", "6", "--max-cycles", "4000"])
        out_untriaged = capsys.readouterr().out
        exit_triaged = main(["fuzz", "sha256", trace_path,
                             "--mutants", "6", "--max-cycles", "4000",
                             "--reference-app", "sha256"])
        out_triaged = capsys.readouterr().out
        assert "fuzz summary" in out_triaged
        assert "deadlock" not in out_triaged
        assert exit_triaged == 0
        if "deadlock" in out_untriaged:
            assert exit_untriaged == 1
        # --frames attacks the trace's v3 container, every region class.
        assert main(["fuzz", "--frames", trace_path, "--mutants", "14"]) == 0
        assert "silent-accept" not in capsys.readouterr().out
