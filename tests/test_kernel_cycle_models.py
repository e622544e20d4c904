"""Cycle-cost model tests: kernels occupy hardware-plausible time.

Table 1's trace-reduction and overhead shapes depend on each kernel's
compute:I/O ratio, so the cycle models are load-bearing. These tests pin
each kernel's busy time to its analytic model within loose bounds, and
check that compute time scales the right way with workload size.
"""

import pytest

from repro.apps.registry import get_app
from repro.core import VidiConfig
from repro.harness.runner import bench_config, record_run


def busy_cycles(key, scale, seed=60):
    spec = get_app(key)
    # Reuse the deployment via record_run; the accelerator tracks busy time.
    acc_factory, host_factory = spec.make()
    from repro.platform import F1Deployment

    deployment = F1Deployment("cyc", acc_factory,
                              bench_config(VidiConfig.r1), seed=seed)
    result = {}
    deployment.cpu.add_thread(host_factory(result, seed=seed, scale=scale))
    deployment.run_to_completion(max_cycles=4_000_000)
    spec.check(result)
    return deployment.accelerator.busy_cycles


class TestAbsoluteModels:
    def test_sha256_about_64_cycles_per_block(self):
        # scale 1.0 -> 2048-byte message -> 33 padded blocks.
        busy = busy_cycles("sha256", 1.0)
        blocks = (2048 + 9 + 63) // 64
        assert 0.8 * 64 * blocks <= busy <= 1.6 * 64 * blocks

    def test_sssp_about_edges_times_rounds(self):
        busy = busy_cycles("sssp", 1.0)
        n_verts, n_edges = 48, 240   # scale 1.0 registry workload
        expected = n_edges + (n_verts - 1) * n_edges
        assert 0.9 * expected <= busy <= 1.3 * expected

    def test_digitr_about_train_times_test(self):
        busy = busy_cycles("digit_recognition", 1.0)
        expected = 64 + 12 * 64      # load + scans
        assert 0.8 * expected <= busy <= 1.5 * expected


class TestScaling:
    @pytest.mark.parametrize("key,expected_ratio_min", [
        ("sha256", 1.6),             # linear in message size
        ("spam_filter", 1.6),        # linear in samples
        ("bnn", 1.5),                # linear in inference count
    ])
    def test_compute_scales_linearly(self, key, expected_ratio_min):
        small = busy_cycles(key, 0.5)
        large = busy_cycles(key, 1.0)
        assert large / small >= expected_ratio_min

    def test_sssp_scales_superlinearly(self):
        """Fixed |V|-1 rounds over an edge list: ~quadratic in scale."""
        small = busy_cycles("sssp", 0.5)
        large = busy_cycles("sssp", 1.0)
        assert large / small > 2.5


class TestHarnessRecordReplayCli:
    def test_record_then_replay_roundtrip(self, tmp_path, capsys):
        from repro.tools import main

        path = tmp_path / "cli.trace"
        assert main(["record", "sha256", "-o", str(path), "--seed", "4",
                     "--scale", "0.4", "--compress"]) == 0
        assert path.exists()
        assert main(["replay", "sha256", str(path)]) == 0
        out = capsys.readouterr().out
        assert "no divergences" in out

    def test_record_unknown_app(self, tmp_path, capsys):
        from repro.tools import main

        assert main(["record", "quantum", "-o", str(tmp_path / "x")]) == 2
        assert "unknown application 'quantum'" in capsys.readouterr().err
