"""Differential harness: the audited event kernel against the compiled one.

The event and compiled kernels are pure scheduling optimisations — they
decide *when* ``comb()``/``seq()`` processes run, never *what* they
compute. The event kernel runs every ``seq()`` every cycle and trusts only
the comb declarations, which the declaration audit
(``tests/declaration_audit.py``) checks as it runs; the compiled kernel
also skips every ``seq()`` whose idle guard holds, which the audit checks
too. These tests record and replay every registered application under
both kernels and compare everything observable:

* the per-cycle hash of every signal value in the design (so a divergence
  is caught in the exact cycle it appears, not just at the end),
* the serialized trace bytes (the paper's artefact — must be bit-identical)
  and the replay's validation trace bytes,
* the final cycle count and the application's own output/result dict.

One test also checks tier-1's slice of the pinned determinism digests
(``tests/digests.py``): every app at seed 5, compiled, flight on.

The comparison still covers what the audit cannot see, such as a
``seq()`` that writes into an object its module does not own.
"""

import json

import pytest

from repro.apps.registry import EXTRA_APPS, app_keys, get_app
from repro.core import VidiConfig
from repro.harness.runner import (bench_config, build_record_deployment,
                                  trace_interfaces)
from repro.platform import F1Deployment
from repro.sim import Module, Simulator

from tests.declaration_audit import audit
from tests.digests import PINNED, run_case

# Every registered application, in groups of three per test.
APPS = app_keys() + tuple(EXTRA_APPS)
APP_GROUPS = [APPS[i:i + 3] for i in range(0, len(APPS), 3)]
SEED = 5
SCALE = 0.1


def _watch(sim, scheduler: str) -> list:
    """Audit an event ``sim``; return its per-cycle signal-state history."""
    if scheduler == "event":
        audit(sim)
    signals = list(sim.signals())
    history = []
    sim.add_cycle_hook(lambda _cycle: history.append(
        hash(tuple(sig.value for sig in signals))))
    return history


def _run_with_history(app_key: str, scheduler: str, seed: int = SEED) -> dict:
    """One R2 recording run, stepped every cycle, with its history."""
    spec = get_app(app_key)
    deployment, result, _config = build_record_deployment(
        spec, bench_config(VidiConfig.r2), seed, scale=SCALE,
        scheduler=scheduler, time_warp=False)
    sim = deployment.sim
    history = _watch(sim, scheduler)
    cycles = deployment.run_to_completion()
    spec.check(result)
    trace = deployment.recorded_trace({"app": app_key, "seed": seed})
    return {
        "cycles": cycles,
        "history": history,
        "trace": trace,
        "trace_bytes": trace.to_bytes(),
        "result": result,
        "comb_evals": sim.comb_evals,
        # One pass over every comb module per executed cycle.
        "blanket_evals": (sim.cycle - sim.warped_cycles)
        * len(sim._comb_modules),
    }


def _replay_with_history(app_key: str, trace, scheduler: str) -> dict:
    """One R3 replay of ``trace``, stepped every cycle, with its history."""
    acc_factory, _host = get_app(app_key).make()
    deployment = F1Deployment(
        f"replay_{app_key}", acc_factory,
        VidiConfig.r3(interfaces=trace_interfaces(trace)),
        replay_trace=trace, scheduler=scheduler, time_warp=False)
    history = _watch(deployment.sim, scheduler)
    cycles = deployment.run_replay()
    validation = deployment.recorded_trace({"app": app_key})
    return {"cycles": cycles, "history": history,
            "trace_bytes": validation.to_bytes(), "result": None}


def _assert_same(what: str, event: dict, compiled: dict) -> None:
    assert compiled["cycles"] == event["cycles"], f"{what}: cycle count"
    if compiled["history"] != event["history"]:
        first = next(i for i, (a, b) in enumerate(
            zip(compiled["history"], event["history"])) if a != b)
        pytest.fail(f"{what}: signal state diverged at cycle {first + 1}")
    assert compiled["trace_bytes"] == event["trace_bytes"], \
        f"{what}: trace bytes"
    assert compiled["result"] == event["result"], f"{what}: app result"


@pytest.mark.parametrize("apps", APP_GROUPS, ids="+".join)
def test_schedulers_bit_identical(apps):
    """The audited event kernel and the compiled kernel record and replay
    each app bit for bit alike."""
    for app_key in apps:
        event = _run_with_history(app_key, "event")
        _assert_same(f"{app_key} record", event,
                     _run_with_history(app_key, "compiled"))
        replays = [_replay_with_history(app_key, event["trace"], scheduler)
                   for scheduler in ("event", "compiled")]
        _assert_same(f"{app_key} replay", *replays)


def test_event_scheduler_actually_skips_work():
    """The equivalence above must not be vacuous: the event kernel has to
    evaluate far fewer comb processes than one blanket pass per cycle."""
    event = _run_with_history("sha256", "event")
    assert event["comb_evals"] < event["blanket_evals"] / 10


def test_compiled_scheduler_actually_skips_work():
    """Same non-vacuousness check for the compiled kernel: rank-sorted
    sweeps plus quiescence must cut comb evaluations by an order of
    magnitude versus one blanket pass per cycle. And the pinned digests'
    tier-1 slice: every app's seed-5 compiled flight record and replay
    (warp on) computes exactly the facts in ``tests/data/digests.json``."""
    compiled = _run_with_history("sha256", "compiled")
    assert compiled["comb_evals"] < compiled["blanket_evals"] / 10
    with open(PINNED) as fh:
        pinned = json.load(fh)
    for app_key in APPS:
        facts, _warped = run_case(app_key, SEED, "compiled", True, True)
        assert facts == pinned[f"{app_key}/s{SEED}/compiled/flight"], app_key


class _Toggler(Module):
    """A registered bit that flips every cycle."""

    has_comb = False

    def __init__(self):
        super().__init__("toggler")
        self.q = self.signal("q")

    def seq(self):
        self.q.set_next(1 - self.q.value)


class _Follower(Module):
    """``out = inp``; ``honest`` decides whether it declares reading inp."""

    comb_static = True

    def __init__(self, inp, honest):
        super().__init__("follower")
        self.inp = inp
        self.out = self.signal("out")
        self.sensitive_to(*([inp] if honest else []))
        self.drives(self.out)

    def comb(self):
        self.out.drive(self.inp.value)


class _Counter(Module):
    """Counts its busy cycles, idle while not busy; a liar counts all."""

    has_comb = False

    def __init__(self, honest):
        super().__init__("counter")
        self.honest = honest
        self.busy = False
        self.count = 0
        self.seq_idle_when(("falsy", "busy"))

    def seq(self):
        if self.busy or not self.honest:
            self.count += 1


def test_audit_catches_a_missing_sensitivity():
    """A comb() reading an undeclared signal fails on the first settled
    cycle after that signal moves."""
    for honest in (True, False):
        sim = Simulator("follow", scheduler="event")
        toggler = sim.add(_Toggler())
        sim.add(_Follower(toggler.q, honest))
        audit(sim)
        if honest:
            sim.run(4)
            continue
        with pytest.raises(AssertionError, match=r"cycle 1: re-running "
                           r"follower comb\(\).*\['follower.out'\]"):
            sim.run(4)


def test_audit_catches_a_lying_guard():
    """A seq() that acts while its idle guard holds fails at once; the
    audit refuses the compiled kernel, which skips such calls unseen."""
    for honest in (True, False):
        sim = Simulator("count", scheduler="event")
        sim.add(_Counter(honest))
        counts = audit(sim)
        if honest:
            sim.run(4)
            assert counts == {"settles": 4, "idle_calls": 4}
            continue
        with pytest.raises(AssertionError, match=r"cycle 0: counter seq\(\) "
                           r"acted while its seq_idle_when guard held "
                           r"\(changed \['count'\]"):
            sim.run(4)
    with pytest.raises(ValueError):
        audit(Simulator("compiled", scheduler="compiled"))
