"""Determinism digests: the record and replay facts of every registered app.

The determinism contract says warping and the choice of kernel are pure
scheduling: they change when modules run, never what a run computes.
This script records and replays 96 cases -- every registered app, seeds
0 and 5, the event and compiled kernels, flight recorder off and on --
and compares each case's facts with ``tests/data/digests.json``, once
with time warp on and once with it off:

* record cycles, store stall cycles and stored bytes;
* the SHA-256 of the trace body and of the flight blob (flight cases);
* replay cycles and the SHA-256 of the validation trace body;
* the divergence list, as ``[kind, channel, occurrence, detail]`` rows.

Warp counters are not facts and are not pinned; ``--warped PATH`` writes
each case's record and replay ``warped_cycles`` to a JSON file, so two
trees can be compared by hand. ``--calls PATH`` likewise writes each
case's Python function calls for the record and for the replay (warp
on), counted as ``sys.setprofile`` "call" events: a cost that repeats
exactly, so two trees can be compared by it where timings are noise.

    PYTHONPATH=src python tests/digests.py            # check (make digests)
    PYTHONPATH=src python tests/digests.py --write    # re-pin the file

The file is named so that pytest does not collect it: the matrix takes
tens of seconds, and tier-1 checks one slice of it, every app at seed 5,
compiled, flight on (``tests/test_scheduler_equivalence.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import time

from repro.apps.registry import EXTRA_APPS, app_keys, get_app
from repro.core import VidiConfig, compare_traces
from repro.harness.runner import bench_config, record_run, replay_run
from repro.sim.simulator import SCHEDULERS

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "data", "digests.json")
APPS = app_keys() + tuple(EXTRA_APPS)
SEEDS = (0, 5)


def _sha(blob) -> str:
    return hashlib.sha256(bytes(blob)).hexdigest()


def _counted(fn, calls):
    """``fn()``, appending to ``calls`` the Python calls it made, if a list."""
    if calls is None:
        return fn()
    count = 0

    def profile(_frame, event, _arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    calls.append(count)
    return result


def run_case(app: str, seed: int, scheduler: str, flight: bool,
             time_warp: bool, calls: list | None = None) -> tuple:
    """``(facts, warped)`` of one record and replay of ``app``; a
    ``calls`` list receives the record's and the replay's call counts."""
    spec = get_app(app)
    deployments = []
    record = _counted(lambda: record_run(
        spec, bench_config(VidiConfig.r2, flight_recorder=flight),
        seed=seed, scheduler=scheduler, time_warp=time_warp,
        before_run=deployments.append), calls)
    trace = record.result["trace"]
    blob = record.result.get("flight_blob")
    replay = _counted(lambda: replay_run(
        spec, trace, scheduler=scheduler, time_warp=time_warp), calls)
    validation = replay.result["validation"]
    report = compare_traces(trace, validation)
    facts = {
        "record_cycles": record.cycles,
        "stall_cycles": record.store_stall_cycles,
        "stored_bytes": record.stored_bytes,
        "body_sha256": _sha(trace.body),
        "flight_sha256": None if blob is None else _sha(blob),
        "replay_cycles": replay.cycles,
        "validation_sha256": _sha(validation.body),
        "divergences": [[d.kind, d.channel, d.occurrence, d.detail]
                        for d in report.divergences],
    }
    warped = [deployments[0].sim.warped_cycles,
              replay.result["deployment"].sim.warped_cycles]
    return facts, warped


def _cases():
    for case in itertools.product(APPS, SEEDS, SCHEDULERS, (False, True)):
        app, seed, scheduler, flight = case
        mode = "flight" if flight else "flat"
        yield f"{app}/s{seed}/{scheduler}/{mode}", case


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="re-pin tests/data/digests.json (warp on)")
    parser.add_argument("--warped", metavar="PATH",
                        help="also write each case's warped cycles here")
    parser.add_argument("--calls", metavar="PATH",
                        help="also write each case's Python calls here")
    args = parser.parse_args(argv)
    pinned = {}
    if not args.write:
        with open(PINNED) as fh:
            pinned = json.load(fh)
    digests, warped_counts, call_counts, failures = {}, {}, {}, []
    t0 = time.perf_counter()
    for time_warp in ((True,) if args.write else (True, False)):
        for key, case in _cases():
            calls = [] if args.calls and time_warp else None
            facts, warped = run_case(*case, time_warp=time_warp, calls=calls)
            if time_warp:
                digests[key] = facts
                warped_counts[key] = warped
                call_counts[key] = calls
            if not args.write and facts != pinned.get(key):
                failures.append((key, time_warp, facts, pinned.get(key)))
    for path, dump in ((PINNED if args.write else None, digests),
                       (args.warped, warped_counts),
                       (args.calls, call_counts)):
        if path:
            with open(path, "w") as fh:
                json.dump(dump, fh, indent=1, sort_keys=True)
                fh.write("\n")
    for key, time_warp, facts, want in failures:
        moved = sorted(name for name in facts
                       if want is None or facts[name] != want.get(name))
        print(f"MISMATCH {key} (time_warp={time_warp}): {moved}")
    runs = len(digests) * (1 if args.write else 2)
    print(f"{runs} record+replay runs of {len(digests)} cases in "
          f"{time.perf_counter() - t0:.1f} s: "
          f"{'pinned' if args.write else f'{len(failures)} mismatches'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
