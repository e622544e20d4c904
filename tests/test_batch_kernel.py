"""Batched-kernel equivalence: N packed instances == N scalar runs.

The batch kernel (``repro.sim.batch``) is a pure wall-clock optimisation:
every observable — cycle counts, recorded trace bytes, store metrics,
host results, campaign verdicts — must be bit-identical to the scalar
path. These tests pin that contract across applications, schedulers and
every demotion path (structural mismatch at pack time, the busy-instance
probation probe, mid-grant catch-up flushes), plus the batched frontends
(``record_batch`` and the campaign prerecord pass).
"""

import pytest

from repro.apps.registry import get_app
from repro.core import VidiConfig
from repro.errors import ConfigError, SimulationError
from repro.harness.batch_runner import BatchRunner, record_batch
from repro.harness.runner import record_run
from repro.platform import F1Deployment
from repro.sim.batch import BatchKernel

SEEDS = (0, 1)


def _scalar_reference(spec, config, scheduler):
    return [record_run(spec, config, seed, scheduler=scheduler)
            for seed in SEEDS]


def _assert_metrics_equal(scalar, batched):
    assert batched.cycles == scalar.cycles
    assert batched.trace_bytes == scalar.trace_bytes
    assert batched.stored_bytes == scalar.stored_bytes
    assert batched.store_stall_cycles == scalar.store_stall_cycles
    assert (batched.result["trace"].to_bytes()
            == scalar.result["trace"].to_bytes())


@pytest.mark.parametrize("scheduler", ["event", "fixpoint", "compiled"])
@pytest.mark.parametrize("app", ["sha256", "mobilenet", "bnn"])
def test_batched_record_matches_scalar(app, scheduler):
    """record_batch == N record_run calls, bit for bit, on every kernel.

    ``fixpoint`` has no event-style elaboration to pack, so the runner
    silently falls back to scalar — same contract, zero packed instances.
    """
    spec = get_app(app)
    config = VidiConfig.r2()
    scalar = _scalar_reference(spec, config, scheduler)
    batched = record_batch(spec, config, list(SEEDS), scheduler=scheduler)
    for ref, got in zip(scalar, batched):
        _assert_metrics_equal(ref, got)


def test_forced_demotion_stays_bit_identical(monkeypatch):
    """An instance demoted mid-run finishes scalar with identical results.

    Shrinking the probation window and demanding an impossible skip ratio
    demotes every instance after a handful of executed rounds — right in
    the middle of outstanding burn grants, so the scalar continuation is
    only exact if ``_flush_catchups`` delivered the pending elapsed
    cycles on the way out.
    """
    monkeypatch.setattr(BatchKernel, "DEMOTE_PROBE", 8)
    monkeypatch.setattr(BatchKernel, "DEMOTE_MIN_SKIP", 1.01)
    spec = get_app("sha256")
    config = VidiConfig.r2()
    scalar = _scalar_reference(spec, config, "compiled")
    batched = record_batch(spec, config, list(SEEDS), scheduler="compiled")
    for ref, got in zip(scalar, batched):
        _assert_metrics_equal(ref, got)


def test_pack_splits_structurally_divergent_instances():
    """pack() batches only same-topology sims; the rest go scalar."""
    sha = get_app("sha256")
    bnn = get_app("bnn")

    def deployment(spec, seed):
        acc_factory, host_factory = spec.make()
        dep = F1Deployment(f"pk_{spec.key}_{seed}", acc_factory,
                           VidiConfig.r2(), seed=seed, scheduler="compiled")
        dep.cpu.add_thread(host_factory({}, seed=seed))
        return dep

    deps = [deployment(sha, 0), deployment(bnn, 0), deployment(sha, 1)]
    kernel, packed, scalar = BatchKernel.pack([d.sim for d in deps])
    assert kernel is not None
    assert packed == [0, 2]
    assert scalar == [1]
    kernel.detach_all()


def test_batch_kernel_rejects_fixpoint_elaboration():
    spec = get_app("sha256")
    acc_factory, host_factory = spec.make()
    dep = F1Deployment("fx", acc_factory, VidiConfig.r2(), seed=0,
                       scheduler="fixpoint")
    dep.cpu.add_thread(host_factory({}, seed=0))
    with pytest.raises(SimulationError):
        BatchKernel([dep.sim])
    kernel, packed, scalar = BatchKernel.pack([dep.sim])
    assert kernel is None and packed == [] and scalar == [0]


def test_record_batch_error_containment():
    """on_error='return' delivers one instance's failure as its entry."""
    from repro.platform.cpu import WaitCycles

    spec = get_app("sha256")
    config = VidiConfig.r2()

    def exploding():
        yield WaitCycles(16)
        raise RuntimeError("sabotaged instance")

    def sabotage(deployment, i):
        if i == 1:
            deployment.cpu.add_thread(exploding())

    results = record_batch(spec, config, [0, 1, 2], before_run=sabotage,
                           on_error="return")
    assert isinstance(results[1], RuntimeError)
    assert not isinstance(results[0], BaseException)
    assert not isinstance(results[2], BaseException)
    reference = record_run(spec, config, 0)
    _assert_metrics_equal(reference, results[0])
    with pytest.raises(RuntimeError):
        record_batch(spec, config, [0, 1, 2], before_run=sabotage)


def test_batch_runner_validates_arguments():
    with pytest.raises(ConfigError):
        BatchRunner(batch_size=0)
    with pytest.raises(ConfigError):
        record_batch(get_app("sha256"), VidiConfig.r2(), [0],
                     on_error="ignore")


def test_batched_campaign_matches_scalar_verdicts():
    """batch_size only changes wall-clock: trial-for-trial same verdicts."""
    from repro.faults import run_campaign

    scalar = run_campaign(app="sha256", n_faults=10, seed=7)
    batched = run_campaign(app="sha256", n_faults=10, seed=7, batch_size=4)
    assert ([(t.index, t.kind, t.seed, t.outcome, t.detail)
             for t in scalar.trials]
            == [(t.index, t.kind, t.seed, t.outcome, t.detail)
                for t in batched.trials])
