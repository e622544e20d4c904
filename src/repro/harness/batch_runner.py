"""Batched sweep execution: N structurally-identical record runs per kernel.

Fault campaigns run the *same* deployment over and over — only the seed
or the armed fault plan differs between record legs. The scalar harness
pays the full per-cycle simulation cost N times;
:class:`BatchRunner` instead builds all N deployments, hands their
simulators to one :class:`~repro.sim.batch.BatchKernel`, and advances
them in lock-stepped rounds whose quiet gaps are skipped per instance.
The per-instance results — host ``result`` dicts, recorded traces, every
:class:`~repro.harness.runner.RunMetrics` field — are bit-identical to
the scalar path's, so batching is purely a wall-clock optimisation.

Instances the kernel cannot keep (structural mismatch at pack time, a
mid-run exception, or a busy instance demoted by the skip-ratio probe)
finish on their own scalar simulator; callers never see the difference.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

from repro.apps.registry import AppSpec
from repro.core.config import VidiConfig
from repro.errors import ConfigError
from repro.harness.runner import (
    RunMetrics,
    build_record_deployment,
    finish_record_metrics,
)
from repro.platform.env import EnvironmentMode
from repro.platform.shell import F1Deployment
from repro.sim.batch import BatchKernel

#: The batch width the benchmarks are gated at (see BENCH_batch.json).
DEFAULT_BATCH_SIZE = 16

#: A per-instance batched result: the metrics, or the exception the
#: instance raised (only when ``on_error='return'``).
BatchResult = Union[RunMetrics, BaseException]


class BatchRunner:
    """Packs record-mode sweep work into :class:`BatchKernel` batches.

    ``batch_size`` bounds how many instances share one kernel (sweeps
    larger than the bound run in consecutive batches); ``scheduler``
    picks the per-instance simulation kernel — the batch packer needs an
    event-style elaboration, so ``fixpoint`` cells fall back to scalar.
    """

    def __init__(self, batch_size: int = DEFAULT_BATCH_SIZE,
                 scheduler: Optional[str] = "compiled"):
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        self.scheduler = scheduler

    # ------------------------------------------------------------------
    def record_batch(self, spec: AppSpec, config: VidiConfig,
                     seeds: Sequence[int],
                     scale: Optional[float] = None,
                     env_mode: EnvironmentMode = EnvironmentMode.HARDWARE,
                     max_cycles: int = 4_000_000,
                     check: bool = True,
                     before_run: Optional[
                         Callable[[F1Deployment, int], None]] = None,
                     on_error: str = "raise") -> List[BatchResult]:
        """Record one app across ``seeds``; results in seed order.

        Each instance is constructed exactly as
        :func:`~repro.harness.runner.record_run` constructs one — the
        returned metrics (cycles, trace bytes, stalls, the trace itself)
        are bit-identical to N scalar runs. ``before_run(deployment, i)``
        is the per-instance hook (campaigns arm one fault injector per
        instance here). ``on_error='raise'`` re-raises the first failing
        instance's exception, like a sequential sweep would; ``'return'``
        delivers it as that instance's list entry so one fault trial
        cannot abort its batch-mates.
        """
        if on_error not in ("raise", "return"):
            raise ConfigError(f"on_error must be 'raise' or 'return', "
                              f"got {on_error!r}")
        results: List[Optional[BatchResult]] = [None] * len(seeds)
        for base in range(0, len(seeds), self.batch_size):
            chunk = list(range(base, min(base + self.batch_size, len(seeds))))
            self._record_chunk(spec, config, seeds, chunk, results,
                               scale=scale, env_mode=env_mode,
                               max_cycles=max_cycles, check=check,
                               before_run=before_run)
        if on_error == "raise":
            for entry in results:
                if isinstance(entry, BaseException):
                    raise entry
        return results  # type: ignore[return-value]

    def _record_chunk(self, spec: AppSpec, config: VidiConfig,
                      seeds: Sequence[int], chunk: List[int],
                      results: List[Optional[BatchResult]],
                      scale: Optional[float],
                      env_mode: EnvironmentMode,
                      max_cycles: int, check: bool,
                      before_run: Optional[Callable]) -> None:
        deployments: List[F1Deployment] = []
        host_results: List[dict] = []
        final_config = config
        for i in chunk:
            deployment, result, final_config = build_record_deployment(
                spec, config, seeds[i], scale=scale, env_mode=env_mode,
                scheduler=self.scheduler)
            if before_run is not None:
                before_run(deployment, i)
            if deployment.flight_probe is not None:
                # The batched kernel steps the simulator itself, bypassing
                # run_to_completion's chunked anchor probing — register the
                # probe as a per-cycle hook so re-anchoring still happens.
                # (The scalar fallback below then double-probes boundary
                # cycles; the probe's guards make that a no-op.)
                deployment.sim.add_cycle_hook(deployment.flight_probe)
            deployments.append(deployment)
            host_results.append(result)
        kernel, packed, scalar = BatchKernel.pack(
            [d.sim for d in deployments])
        outcomes: dict = {}
        if kernel is not None:
            predicates = [
                (lambda cpu=deployments[j].cpu: cpu.done) for j in packed]
            what = f"run_{spec.key}: host program completion"
            for j, outcome in zip(packed, kernel.run_until(
                    predicates, max_cycles, what=what)):
                outcomes[j] = outcome
            kernel.detach_all()
        for pos, j in enumerate(chunk):
            deployment = deployments[pos]
            error: Optional[BaseException] = None
            if pos in outcomes:
                outcome = outcomes[pos]
                cycles = outcome.cycles
                if outcome.status != "done":
                    error = outcome.error
            else:
                # Unpackable instance (or a whole unpackable chunk):
                # plain scalar completion.
                try:
                    cycles = deployment.run_to_completion(
                        max_cycles=max_cycles)
                except Exception as exc:
                    cycles, error = 0, exc
            if error is None:
                try:
                    results[j] = finish_record_metrics(
                        spec, final_config, deployment, host_results[pos],
                        seeds[j], cycles, check=check)
                except Exception as exc:
                    results[j] = exc
            else:
                results[j] = error


# ----------------------------------------------------------------------
# module-level conveniences (the common one-shot calls)
# ----------------------------------------------------------------------


def record_batch(spec: AppSpec, config: VidiConfig, seeds: Sequence[int],
                 **kwargs) -> List[BatchResult]:
    """One-shot :meth:`BatchRunner.record_batch` with the default width."""
    runner_kwargs = {}
    for key in ("batch_size", "scheduler"):
        if key in kwargs:
            runner_kwargs[key] = kwargs.pop(key)
    return BatchRunner(**runner_kwargs).record_batch(
        spec, config, seeds, **kwargs)
