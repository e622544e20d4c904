"""Seeded fault campaigns: inject hundreds of faults, demand a verdict on each.

A campaign is the robustness analogue of the paper's Table 1: instead of
measuring overhead it measures *containment*. Every trial arms exactly one
fault (from a seed-derived schedule spanning every kind in
:data:`~repro.faults.plan.FAULT_KINDS`), runs the affected slice of the
pipeline, and classifies the outcome:

* ``masked``   — the fault was absorbed losslessly: the run completed and
  its observable results are bit-identical to the fault-free reference
  (timing faults *must* land here — back-pressure masking is the paper's
  core determinism claim);
* ``detected`` — a typed error surfaced (``TraceFormatError`` /
  ``TraceIntegrityError`` / ``ReplayError`` / ``ReplayStallError`` /
  ``ShardReplayError``) or divergence detection flagged the replay;
* ``silent-accept`` — the pipeline accepted corrupted data and produced
  results that differ from the reference without any error or divergence.
  **The campaign's invariant is that this bucket stays empty.**

Ground truth comes from fault-free reference runs recorded once per
campaign: recording is fully seeded, so the reference and each trial see
the identical environment schedule, and any trial-to-reference difference
is attributable to the fault alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import ReproError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FAULT_KINDS, FaultPlan

# Schedule weights: cheap container-layer faults carry the volume; each
# simulation-layer fault costs a fresh record (+replay), so they are fewer;
# worker-crash trials re-run a whole sharded replay and stay a handful.
_WEIGHTS = {
    "blob-corrupt": 0.30,
    "blob-truncate": 0.28,
    "store-bitflip": 0.16,
    "store-drop": 0.10,
    "store-brownout": 0.06,
    "channel-stall": 0.08,
}
_MAX_CRASH_TRIALS = 3


@dataclass(frozen=True)
class FaultTrial:
    """One injected fault and its verdict."""

    index: int
    kind: str
    seed: int
    outcome: str        # 'masked' | 'detected' | 'silent-accept'
    detail: str


@dataclass
class CampaignReport:
    """Aggregate verdicts of one fault campaign."""

    app: str
    seed: int
    trials: List[FaultTrial] = field(default_factory=list)

    @property
    def counts(self) -> Dict[str, Dict[str, int]]:
        """``kind -> outcome -> count``."""
        out: Dict[str, Dict[str, int]] = {}
        for trial in self.trials:
            out.setdefault(trial.kind, {}).setdefault(trial.outcome, 0)
            out[trial.kind][trial.outcome] += 1
        return out

    @property
    def silent_accepts(self) -> List[FaultTrial]:
        return [t for t in self.trials if t.outcome == "silent-accept"]

    @property
    def kinds_exercised(self) -> int:
        return len({t.kind for t in self.trials})

    def render(self) -> str:
        lines = [
            f"fault campaign: app={self.app} seed={self.seed} "
            f"{len(self.trials)} fault(s) across "
            f"{self.kinds_exercised} kind(s)",
            f"{'kind':<16} {'masked':>8} {'detected':>9} {'silent':>8}",
        ]
        for kind in sorted(self.counts):
            row = self.counts[kind]
            lines.append(
                f"{kind:<16} {row.get('masked', 0):>8} "
                f"{row.get('detected', 0):>9} "
                f"{row.get('silent-accept', 0):>8}")
        if self.silent_accepts:
            lines.append("SILENT WRONG-ACCEPTS:")
            for t in self.silent_accepts:
                lines.append(f"  #{t.index} {t.kind} seed={t.seed}: {t.detail}")
        else:
            lines.append("no silent wrong-accepts")
        return "\n".join(lines)


def _draw_plan(kind: str, trial_seed: int, rng: random.Random) -> FaultPlan:
    """Draw one trial's fault parameters.

    Each kind draws from ``rng`` in a fixed order, so the same ``(app,
    n_faults, seed)`` triple reproduces a campaign fault for fault.
    """
    if kind == "blob-truncate":
        return FaultPlan.single(kind, seed=trial_seed,
                                keep=rng.uniform(0.02, 0.98))
    if kind == "blob-corrupt":
        return FaultPlan.single(kind, seed=trial_seed,
                                bytes=rng.randint(1, 4))
    if kind == "store-bitflip":
        return FaultPlan.single(kind, seed=trial_seed,
                                flips=rng.randint(1, 4))
    if kind == "store-drop":
        return FaultPlan.single(kind, seed=trial_seed,
                                words=rng.randint(1, 2))
    if kind == "store-brownout":
        return FaultPlan.single(
            kind, seed=trial_seed, factor=rng.uniform(0.0, 0.5),
            start=rng.randint(0, 500), cycles=rng.randint(200, 2000))
    if kind == "channel-stall":
        return FaultPlan.single(
            kind, seed=trial_seed, start=rng.randint(50, 1500),
            cycles=rng.randint(50, 400))
    if kind == "worker-crash":
        return FaultPlan.single(kind, seed=trial_seed,
                                crashes=rng.randint(1, 2))
    raise ReproError(f"unknown fault kind {kind!r}")


def _schedule(n_faults: int, rng: random.Random) -> List[str]:
    """A deterministic fault-kind sequence covering every kind."""
    counts = {k: int(n_faults * w) for k, w in _WEIGHTS.items()}
    counts["worker-crash"] = min(_MAX_CRASH_TRIALS, n_faults)
    if n_faults >= len(FAULT_KINDS):
        for kind in FAULT_KINDS:
            counts.setdefault(kind, 0)
            counts[kind] = max(counts[kind], 1)
    spill = n_faults - sum(counts.values())
    counts["blob-corrupt"] = max(0, counts.get("blob-corrupt", 0) + spill)
    kinds = [k for k, c in counts.items() for _ in range(c)][:n_faults]
    rng.shuffle(kinds)
    return kinds


class _Campaign:
    """Mutable campaign state: cached references + per-kind trial logic."""

    def __init__(self, app: str, seed: int, crash_app: str,
                 progress: Optional[Callable[[str], None]],
                 scheduler: Optional[str] = None,
                 flight_recorder: bool = False):
        import functools

        from repro.apps.registry import get_app
        from repro.core.config import VidiConfig
        from repro.harness.runner import bench_config, record_run, replay_run

        self.app = app
        self.crash_app = crash_app
        self.seed = seed
        self.scheduler = scheduler
        self.flight_recorder = flight_recorder
        self.progress = progress or (lambda _msg: None)
        self.spec = get_app(app)
        self.config = bench_config(VidiConfig.r2,
                                   flight_recorder=flight_recorder)
        # Every record/replay in the campaign runs on the chosen kernel, so
        # the containment verdicts exercise that scheduler end to end.
        self.record_run = functools.partial(record_run, scheduler=scheduler)
        self.replay_run = functools.partial(replay_run, scheduler=scheduler)
        # Fault-free references: one record, one replay, one serialization.
        ref = self.record_run(self.spec, self.config, seed=seed)
        self.ref_trace = ref.result["trace"]
        self.ref_blob = self.ref_trace.to_bytes()
        rep = self.replay_run(self.spec, self.ref_trace)
        self.ref_validation_body = bytes(rep.result["validation"].body)
        self._crash_reference = None   # lazily recorded (it is expensive)

    # ------------------------------------------------------------------
    def _record_leg(self, plan: FaultPlan):
        """The trial's faulted record run and its armed injector."""
        injector = FaultInjector(plan)
        metrics = self.record_run(self.spec, self.config, seed=self.seed,
                                  before_run=injector.arm_recording)
        return metrics, injector

    # ------------------------------------------------------------------
    def run_trial(self, index: int, kind: str, trial_seed: int,
                  plan: FaultPlan) -> FaultTrial:
        handler = {
            "blob-corrupt": self._trial_blob,
            "blob-truncate": self._trial_blob,
            "store-bitflip": self._trial_store,
            "store-drop": self._trial_store,
            "store-brownout": self._trial_timing,
            "channel-stall": self._trial_timing,
            "worker-crash": self._trial_crash,
        }[kind]
        outcome, detail = handler(kind, plan)
        return FaultTrial(index=index, kind=kind, seed=trial_seed,
                          outcome=outcome, detail=detail)

    # ------------------------------------------------------------------
    def _trial_blob(self, kind: str, plan: FaultPlan):
        from repro.core.trace_file import TraceFile
        from repro.errors import TraceFormatError

        injector = FaultInjector(plan)
        mangled = injector.mangle_blob(self.ref_blob)
        if mangled == self.ref_blob:
            return "masked", "fault was a no-op on this blob"
        try:
            loaded = TraceFile.from_bytes(mangled)
        except TraceFormatError as exc:
            detail = f"load rejected: {type(exc).__name__}"
            if kind == "blob-truncate":
                detail += "; " + self._check_salvage(mangled)
            return "detected", detail
        if bytes(loaded.body) == bytes(self.ref_trace.body) \
                and loaded.table.to_dict() == self.ref_trace.table.to_dict():
            return "masked", "load succeeded with identical content"
        return "silent-accept", (
            f"{len(mangled)}-byte mangled blob loaded cleanly with "
            "different content")

    def _check_salvage(self, mangled: bytes) -> str:
        from repro.core.trace_file import TraceFile
        from repro.errors import TraceFormatError

        try:
            salvaged = TraceFile.from_bytes(mangled, salvage=True)
        except TraceFormatError as exc:
            return f"salvage impossible ({type(exc).__name__})"
        if not bytes(self.ref_trace.body).startswith(bytes(salvaged.body)):
            # Salvage must never fabricate: a recovered prefix has to be a
            # literal prefix of the original body.
            raise AssertionError(
                "salvaged body is not a prefix of the original")
        return (f"salvaged {salvaged.metadata['salvaged']['packets']} "
                "packet(s)")

    # ------------------------------------------------------------------
    def _trial_store(self, kind: str, plan: FaultPlan):
        from repro.core.divergence import compare_traces

        try:
            metrics, _injector = self._record_leg(plan)
        except ReproError as exc:
            # Flight recordings decode their dedup stream when the trace is
            # materialised — storage corruption can already surface there.
            return "detected", f"record-side detection: {type(exc).__name__}"
        corrupted = metrics.result["trace"]
        if bytes(corrupted.body) == bytes(self.ref_trace.body):
            return "masked", "corruption cancelled out"
        try:
            rep = self.replay_run(self.spec, corrupted, max_cycles=400_000)
            report = compare_traces(corrupted, rep.result["validation"])
        except ReproError as exc:
            return "detected", f"replay rejected: {type(exc).__name__}"
        except Exception as exc:
            # A corrupted payload can drive the replayed design itself off
            # the rails — e.g. a flipped content byte decoding to an
            # out-of-range register index. The crash is loud, attributable
            # and deterministic: a detection, not a campaign failure.
            return "detected", f"replay crashed: {type(exc).__name__}"
        if not report.clean:
            return "detected", (
                f"divergence flagged ({len(report.divergences)} finding(s))")
        if bytes(rep.result["validation"].body) == self.ref_validation_body:
            # Clean replay AND bit-identical outputs: the flipped bits were
            # semantically invisible (padding, unused response payload).
            return "masked", "clean replay, outputs match reference"
        return "silent-accept", (
            "clean replay but outputs differ from the fault-free reference")

    # ------------------------------------------------------------------
    def _trial_timing(self, kind: str, plan: FaultPlan):
        from repro.core.divergence import compare_traces

        try:
            # check=True: the host program's own result assertion runs, so
            # a timing fault that corrupted application data cannot pass.
            metrics, injector = self._record_leg(plan)
            trace = metrics.result["trace"]
            rep = self.replay_run(self.spec, trace, max_cycles=400_000)
            report = compare_traces(trace, rep.result["validation"])
        except ReproError as exc:
            return "detected", f"run rejected: {type(exc).__name__}"
        if report.clean:
            # The §3.3 claim: back-pressure masks timing faults losslessly.
            return "masked", (
                f"lossless ({injector.log[0] if injector.log else kind})")
        return "silent-accept", (
            f"timing fault leaked into replay: {report.summary()}")

    # ------------------------------------------------------------------
    def _trial_crash(self, kind: str, plan: FaultPlan):
        result = self._crash_ref()
        if result is None:
            return "masked", "crash trial skipped: no shardable trace"
        spec, trace, clean_body = result
        from repro.harness.sharded_replay import replay_sharded

        injector = FaultInjector(plan)
        try:
            sharded = replay_sharded(
                spec, trace, segments=3, jobs=2, injector=injector,
                scheduler=self.scheduler)
        except ReproError as exc:
            return "detected", f"sharded replay failed: {type(exc).__name__}"
        if bytes(sharded.validation.body) == clean_body:
            return "masked", (
                f"recovered bit-identically from "
                f"{sum(1 for e in injector.log if 'crash' in e)} crash(es)")
        return "silent-accept", (
            "stitched validation differs from the crash-free run")

    def _crash_ref(self):
        if self._crash_reference is None:
            from repro.apps.registry import get_app
            from repro.core.config import VidiConfig
            from repro.harness.runner import bench_config
            from repro.harness.sharded_replay import (SHARD_ANCHOR_STRIDE,
                                                      replay_sharded)

            spec = get_app(self.crash_app)
            self.progress(f"flight-recording {self.crash_app} for "
                          "worker-crash trials")
            trace = self.record_run(
                spec, bench_config(VidiConfig.r2, flight_recorder=True,
                                   flight_anchor_stride=SHARD_ANCHOR_STRIDE),
                seed=self.seed).result["trace"]
            if not trace.anchors:
                self._crash_reference = (None,)
            else:
                clean = replay_sharded(spec, trace, segments=3, jobs=2,
                                       scheduler=self.scheduler)
                self._crash_reference = (spec, trace,
                                         bytes(clean.validation.body))
        if len(self._crash_reference) == 1:
            return None
        return self._crash_reference


def run_campaign(app: str = "sha256", n_faults: int = 200, seed: int = 0,
                 crash_app: str = "dram_dma",
                 progress: Optional[Callable[[str], None]] = None,
                 scheduler: Optional[str] = None,
                 flight_recorder: Optional[bool] = None) -> CampaignReport:
    """Run a seeded fault campaign; see the module docstring for verdicts.

    ``app`` hosts the cheap per-trial record/replay faults; ``crash_app``
    (whose flight recording must carry anchors — DRAM-heavy apps do)
    hosts the sharded worker-crash trials. The same ``(app, n_faults,
    seed)`` triple reproduces the identical campaign, fault for fault.
    ``scheduler`` selects the simulation kernel every trial runs on
    (``None`` defers to ``REPRO_SIM_SCHEDULER`` and then the simulator
    default).

    The blob faults attack the reference trace's v3 container.
    ``flight_recorder`` runs every record leg with the always-on ring
    store, so the storage faults land in the flight recorder's drain
    path. It **defaults on** (``None`` resolves to ``True``): campaign
    fleets are exactly the deployments the always-on recorder exists for,
    and the flight path's verdicts are containment-identical to the flat
    path's. Pass ``False`` (CLI: ``--no-flight-recorder``) to record
    flat.

    The worker-crash trials' sharded replays run on the warm worker pool
    (:mod:`repro.harness.worker_pool`).
    """
    if flight_recorder is None:
        flight_recorder = True
    rng = random.Random(seed)
    campaign = _Campaign(app, seed, crash_app, progress, scheduler=scheduler,
                         flight_recorder=flight_recorder)
    report = CampaignReport(app=app, seed=seed)
    kinds = _schedule(n_faults, rng)
    for index, kind in enumerate(kinds):
        trial_seed = rng.randrange(1 << 30)
        plan = _draw_plan(kind, trial_seed, rng)
        trial = campaign.run_trial(index, kind, trial_seed, plan)
        report.trials.append(trial)
        if progress and (index + 1) % 25 == 0:
            progress(f"{index + 1}/{len(kinds)} faults injected")
    return report
