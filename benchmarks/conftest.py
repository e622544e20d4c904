"""Shared benchmark plumbing.

Every benchmark regenerates one paper artefact (a table or figure) and
both prints it and writes it to ``benchmarks/results/<name>.txt``, so the
paper-vs-measured comparison survives the run. ``REPRO_BENCH_RUNS``
controls the per-configuration sample count of the overhead experiments
(default 3; the paper used 10).
"""

import json
import os
import sys
import time
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

RESULTS_DIR = Path(__file__).resolve().parent / "results"
# Same filename the daemon's store uses, so `vidi results --data-dir
# benchmarks/results --kind bench` queries the history with no extra flags.
HISTORY_STORE = RESULTS_DIR / "results.vrs"


def bench_runs(default: int = 3) -> int:
    """Sample count for overhead measurements (paper: 10 runs)."""
    return int(os.environ.get("REPRO_BENCH_RUNS", default))


@pytest.fixture
def emit(capsys):
    """Print an artefact (visible with -s) and persist it under results/."""
    def _emit(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        with capsys.disabled():
            print(f"\n{text}\n[saved to benchmarks/results/{name}.txt]")
    return _emit


@pytest.fixture(scope="session", autouse=True)
def _persist_bench_history():
    """Append every BENCH_*.json this session refreshed to the history store.

    ``BENCH_compiled.json`` and friends are point-in-time snapshots — each
    ``make check`` overwrites the last run's numbers. The results store's
    bench-history table (``benchmarks/results/results.vrs``, same
    CRC-framed store the trace-service daemon uses) accretes instead, so
    the perf trajectory across runs stays queryable::

        vidi results --data-dir benchmarks/results --kind bench

    Best-effort by design: history bookkeeping must never fail a bench.
    """
    started = time.time()
    yield
    try:
        from repro.service.results import record_bench

        for path in sorted(RESULTS_DIR.glob("BENCH_*.json")):
            if path.stat().st_mtime < started:
                continue   # stale snapshot from an earlier session
            try:
                payload = json.loads(path.read_text())
            except ValueError:
                continue
            record_bench(path.stem[len("BENCH_"):], payload, HISTORY_STORE)
    except Exception:
        pass
