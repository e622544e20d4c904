"""Infrastructure bench — record-mode time warp over per-cycle stepping.

Not a paper artefact: documents what quiet-gap skipping buys a sweep of
N structurally-identical record runs differing only in their seed,
which is exactly the shape of a fault campaign or a Table-1 sweep. The
baseline is N :func:`record_run` calls on the compiled kernel stepping
every cycle (``time_warp=False``); the measured side is the same N calls
with the warp on (the default), which jumps each record's quiet gaps.

The equivalence suite (``tests/test_record_warp.py``) proves the two
paths bit-identical; this bench additionally cross-checks the recorded
trace bytes seed by seed so the speedup is never bought with divergence.
Results land in ``benchmarks/results/BENCH_record_warp.json``; the ≥4×
floor at N=16 is part of ``make check``.
"""

import json
from time import perf_counter

from conftest import RESULTS_DIR

from repro.apps.registry import get_app
from repro.core import VidiConfig
from repro.harness.runner import bench_config, record_run

SWEEP_N = 16        # records per sweep
DEPLOY_SCALE = 4.0  # long enough that stepping dominates construction
SPEEDUP_FLOOR = 4.0


def _sweep(spec, config, seeds, time_warp):
    t0 = perf_counter()
    metrics = [record_run(spec, config, seed, scale=DEPLOY_SCALE,
                          scheduler="compiled", time_warp=time_warp)
               for seed in seeds]
    return metrics, perf_counter() - t0


def test_record_warp_throughput(emit):
    spec = get_app("mobilenet")
    config = bench_config(VidiConfig.r2)
    seeds = list(range(SWEEP_N))

    stepped_metrics, t_stepped = _sweep(spec, config, seeds, False)
    warped_metrics, t_warped = _sweep(spec, config, seeds, None)

    # The speedup must never be bought with divergence: same cycles, same
    # trace bytes, seed by seed.
    for stepped, warped in zip(stepped_metrics, warped_metrics):
        assert warped.cycles == stepped.cycles
        assert (warped.result["trace"].to_bytes()
                == stepped.result["trace"].to_bytes())

    total_cycles = sum(m.cycles for m in stepped_metrics)
    speedup = t_stepped / t_warped
    report = {
        "record_warp_sweep": {
            "app": "mobilenet",
            "config": "r2(five-interface)",
            "records": SWEEP_N,
            "cycles_per_record": total_cycles // SWEEP_N,
            "stepped_s": round(t_stepped, 3),
            "warped_s": round(t_warped, 3),
            "stepped_cycles_per_sec": round(total_cycles / t_stepped),
            "warped_cycles_per_sec": round(total_cycles / t_warped),
            "speedup": round(speedup, 2),
            "speedup_floor": SPEEDUP_FLOOR,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_record_warp.json").write_text(
        json.dumps(report, indent=2) + "\n")

    emit("record_warp", "\n".join([
        f"Record-mode time warp (N={SWEEP_N} compiled record runs, "
        f"mobilenet, scale {DEPLOY_SCALE})",
        f"  every cycle stepped: {t_stepped:6.2f}s  "
        f"({total_cycles / t_stepped:>12,.0f} cycles/s)",
        f"  quiet gaps warped:   {t_warped:6.2f}s  "
        f"({total_cycles / t_warped:>12,.0f} cycles/s)",
        f"  speedup {speedup:.2f}x  (floor {SPEEDUP_FLOOR}x)",
        "[also saved to benchmarks/results/BENCH_record_warp.json]",
    ]))

    # The acceptance bar for record-mode warping: at least 4x over the
    # same N records stepped cycle by cycle.
    assert speedup >= SPEEDUP_FLOOR, (
        f"record warp speedup regressed: {speedup:.2f}x")
