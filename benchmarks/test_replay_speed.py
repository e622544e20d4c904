"""E8b — replay speed: hardware-rate replay vs the recorded execution.

§5.2 notes that simulation-based replay "could not finish within a
reasonable time", which is why Vidi replays on hardware. In the
reproduction both record and replay run on the same simulated hardware,
so the comparable metric is cycle count: replay needs no host think time,
no polling intervals and no PCIe pacing, so it completes in at most — and
usually far fewer than — the recorded cycles, while preserving every
happens-before relation.
"""

import json
from time import perf_counter

from conftest import RESULTS_DIR

from repro.analysis.tables import render_table
from repro.apps.registry import APPS, get_app
from repro.core import VidiConfig
from repro.harness.runner import bench_config, record_run, replay_run
from repro.harness.sharded_replay import SHARD_ANCHOR_STRIDE, replay_sharded


def measure():
    rows = []
    for key, spec in APPS.items():
        metrics = record_run(spec, bench_config(VidiConfig.r2), seed=100,
                             scale=0.6)
        replay = replay_run(spec, metrics.result["trace"])
        rows.append((spec.label, metrics.cycles, replay.cycles,
                     metrics.cycles / max(replay.cycles, 1)))
    return rows


def test_replay_never_slower_than_record(benchmark, emit):
    rows = benchmark.pedantic(measure, iterations=1, rounds=1)
    emit("replay_speed", render_table(
        "Replay speed: recorded vs replayed cycles",
        ["App", "Recorded", "Replayed", "Speedup"],
        [[label, rec, rep, f"{speedup:.2f}x"]
         for label, rec, rep, speedup in rows]))
    for label, rec, rep, speedup in rows:
        assert rep <= rec, label
    # The I/O-bound applications gain the most: their recordings are full
    # of host think time and PCIe pacing that replay does not reproduce.
    by_label = {label: speedup for label, _r, _p, speedup in rows}
    assert by_label["DMA"] > 1.3
    speedups = [s for *_x, s in rows]
    assert sum(speedups) / len(speedups) > 1.05


# ----------------------------------------------------------------------
# Time-warp replay throughput (BENCH_replay.json)
# ----------------------------------------------------------------------

WARP_ROUNDS = 3
WARP_APPS = ("sha256", "dram_dma", "bnn")


def _timed_replay(spec, trace, time_warp):
    """Best-of-N wall-clock cycles/sec for one replay configuration."""
    best, metrics = 0.0, None
    for _ in range(WARP_ROUNDS):
        t0 = perf_counter()
        metrics = replay_run(spec, trace, time_warp=time_warp)
        best = max(best, metrics.cycles / (perf_counter() - t0))
    return best, metrics


def test_time_warp_throughput(emit):
    """Per-cycle vs quiescent-gap-skipping replay on real recordings.

    The sparse sha256 trace — mostly on-fabric compute gaps between five
    monitored interfaces — is the acceptance case: the warp must deliver
    at least 3x replayed cycles/second over stepping every cycle.
    """
    report = {}
    lines = [f"Replay throughput (cycles/second, best of {WARP_ROUNDS})"]
    for app in WARP_APPS:
        spec = get_app(app)
        recording = record_run(spec, bench_config(VidiConfig.r2), seed=100)
        trace = recording.result["trace"]
        percycle_cps, percycle = _timed_replay(spec, trace, time_warp=False)
        warp_cps, warped = _timed_replay(spec, trace, time_warp=True)
        assert warped.cycles == percycle.cycles
        assert bytes(warped.result["validation"].body) == \
            bytes(percycle.result["validation"].body)
        sim = warped.result["deployment"].sim
        skip_ratio = sim.warped_cycles / warped.cycles
        speedup = warp_cps / percycle_cps
        report[app] = {
            "config": "r2(five-interface)",
            "cycles": warped.cycles,
            "percycle_cycles_per_sec": round(percycle_cps),
            "timewarp_cycles_per_sec": round(warp_cps),
            "skip_ratio": round(skip_ratio, 3),
            "speedup": round(speedup, 2),
        }
        lines.append(
            f"  {spec.label:<12} per-cycle {percycle_cps:>10,.0f}   "
            f"time-warp {warp_cps:>10,.0f}   skip {skip_ratio:5.1%}   "
            f"speedup {speedup:.2f}x")

    # Sharded replay: split a DMA flight trace at its ANCHOR frames and
    # report how much of the sequential critical path the shards remove.
    spec = get_app("dram_dma")
    trace = record_run(
        spec, bench_config(VidiConfig.r2, flight_recorder=True,
                           flight_anchor_stride=SHARD_ANCHOR_STRIDE),
        seed=100).result["trace"]
    sequential = replay_run(spec, trace)
    sharded = replay_sharded(spec, trace, segments=3, jobs=3)
    assert bytes(sharded.validation.body) == \
        bytes(sequential.result["validation"].body)
    shard_speedup = sequential.cycles / max(sharded.critical_path_cycles, 1)
    report["sharded_dram_dma"] = {
        "config": f"r2(five-interface) flight, anchor stride "
                  f"{SHARD_ANCHOR_STRIDE}, 3 segments",
        "sequential_cycles": sequential.cycles,
        "critical_path_cycles": sharded.critical_path_cycles,
        "anchors": len(trace.anchors),
        "speedup": round(shard_speedup, 2),
    }
    lines.append(
        f"  DMA sharded  sequential {sequential.cycles:>7,} cycles   "
        f"critical path {sharded.critical_path_cycles:>7,}   "
        f"speedup {shard_speedup:.2f}x")

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_replay.json").write_text(
        json.dumps(report, indent=2) + "\n")
    lines.append("[also saved to benchmarks/results/BENCH_replay.json]")
    emit("replay_throughput", "\n".join(lines))

    # Acceptance: >= 3x replayed cycles/sec on the sparse sha256 trace.
    assert report["sha256"]["speedup"] >= 3.0, report["sha256"]
