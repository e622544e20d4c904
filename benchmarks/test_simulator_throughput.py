"""Infrastructure bench — simulation-kernel throughput.

Not a paper artefact: documents the substrate's speed so absolute
runtimes elsewhere are interpretable. Measures cycles/second for (a) a
minimal design and (b) a full five-interface deployment with Vidi
recording — the configuration every Table-1 experiment runs in — under
both the event-driven scheduler and the legacy fixpoint kernel, and
records the comparison in ``benchmarks/results/BENCH_kernel.json``.

The event/fixpoint speedup on the full deployment is the headline number
of the sensitivity-scheduling work; the differential harness
(``tests/test_scheduler_equivalence.py``) proves the two kernels produce
bit-identical results, so the speedup is free.
"""

import json
from time import perf_counter

from conftest import RESULTS_DIR

from repro.apps.registry import get_app
from repro.core import VidiConfig
from repro.harness.runner import bench_config
from repro.platform import F1Deployment
from repro.sim import Module, Simulator

CYCLES = 3_000
ROUNDS = 3          # best-of-N to shed host-scheduler noise
DEPLOY_SCALE = 4.0  # long enough that stepping dominates construction


class _Counter(Module):
    has_comb = False

    def __init__(self):
        super().__init__("counter")
        self.count = self.signal("count", width=32)

    def seq(self):
        self.count.set_next(self.count.value + 1)


def _minimal_cps(scheduler):
    best = 0.0
    for _ in range(ROUNDS):
        sim = Simulator(scheduler=scheduler)
        counter = _Counter()
        sim.add(counter)
        sim.elaborate()
        t0 = perf_counter()
        sim.run(CYCLES)
        best = max(best, CYCLES / (perf_counter() - t0))
        assert counter.count.value == CYCLES
    return best


def _deployment_cps(scheduler):
    """Best-of-N cycles/sec for a full five-interface R2 recording run.

    Construction happens outside the timed region: the bench measures
    kernel stepping, not Python object creation. Time warp is off (the
    fixpoint kernel never warps), so event vs fixpoint stays a
    per-cycle stepping rate.
    """
    spec = get_app("sha256")
    acc_factory, host_factory = spec.make()
    best, cycles = 0.0, 0
    for _ in range(ROUNDS):
        deployment = F1Deployment("thr", acc_factory,
                                  bench_config(VidiConfig.r2), seed=1,
                                  scheduler=scheduler, time_warp=False)
        result = {}
        deployment.cpu.add_thread(
            host_factory(result, seed=1, scale=DEPLOY_SCALE))
        t0 = perf_counter()
        cycles = deployment.run_to_completion()
        best = max(best, cycles / (perf_counter() - t0))
        spec.check(result)
    return best, cycles


def test_kernel_throughput(emit):
    min_event = _minimal_cps("event")
    min_fix = _minimal_cps("fixpoint")
    dep_event, cycles_event = _deployment_cps("event")
    dep_fix, cycles_fix = _deployment_cps("fixpoint")

    # Same design, same seed: the schedulers must agree on the cycle count
    # (the differential tests check far more than this).
    assert cycles_event == cycles_fix

    speedup = dep_event / dep_fix
    report = {
        "minimal": {
            "cycles": CYCLES,
            "event_cycles_per_sec": round(min_event),
            "fixpoint_cycles_per_sec": round(min_fix),
        },
        "full_deployment_recording": {
            "app": "sha256",
            "config": "r2(five-interface)",
            "cycles": cycles_event,
            "event_cycles_per_sec": round(dep_event),
            "fixpoint_cycles_per_sec": round(dep_fix),
            "speedup": round(speedup, 2),
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_kernel.json").write_text(
        json.dumps(report, indent=2) + "\n")

    emit("kernel_throughput", "\n".join([
        f"Kernel throughput (cycles/second, best of {ROUNDS})",
        f"  minimal design:      event {min_event:>12,.0f}   "
        f"fixpoint {min_fix:>12,.0f}",
        f"  full R2 deployment:  event {dep_event:>12,.0f}   "
        f"fixpoint {dep_fix:>12,.0f}   speedup {speedup:.2f}x",
        "[also saved to benchmarks/results/BENCH_kernel.json]",
    ]))

    # The acceptance bar for the event kernel: at least 2x on the full
    # five-interface recording deployment.
    assert speedup >= 2.0, f"event kernel speedup regressed: {speedup:.2f}x"
