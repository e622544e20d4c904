"""The fault injector: arms a :class:`~repro.faults.plan.FaultPlan`.

One injector owns one seeded RNG, so every random choice — which storage
word rots, which monitored channel freezes, which shard's worker dies — is
a pure function of ``(plan, seed)``. Each applied fault is appended to
``injector.log`` so a campaign can report exactly what it broke.

The injector attaches at four places:

* :meth:`arm_recording` wires a deployment's :class:`~repro.core.store.TraceStore`
  (storage corruption + brownout) and :class:`~repro.core.monitor.ChannelMonitor`
  set (handshake stalls) before the run starts; timed faults register
  their window edges with the deployment, whose record run stops there
  to toggle the module-level fault flags over their
  ``[start, start+cycles)`` window.
* :meth:`corrupt_storage` is called back by ``TraceStore.flush()``:
  bit flips and word drops land on the drained external storage image —
  after the recording pipeline wrote it correctly, before any container
  CRC exists — modelling corruption at rest that only the semantic nets
  (decode, replay, divergence) can catch.
* :meth:`mangle_blob` mutilates a serialized container (truncation,
  byte flips) — the layer the container's CRC framing must catch.
* :meth:`crashing_worker` wraps a ``run_cells`` worker so chosen cells
  hard-kill their worker process on first execution (``os._exit``, no
  cleanup — exactly what a real OOM kill looks like to the pool) and run
  normally on retry.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
from typing import Callable, List, Optional, Sequence

from repro.errors import ShardReplayError
from repro.faults.plan import FaultPlan


class _Window:
    """One timed fault: apply(True) at ``start``, apply(False) at ``end``."""

    def __init__(self, start: int, cycles: int, apply: Callable[[bool], None],
                 label: str):
        self.start = start
        self.end = start + cycles
        self.apply = apply
        self.label = label
        self.active = False


class CrashingWorker:
    """Picklable wrapper that hard-kills chosen cells' worker processes.

    A crash is armed per cell key through a marker file in ``token_dir``:
    the first execution writes the marker and dies, any retry finds the
    marker and runs the real worker — the transient-fault shape the
    retry/fallback machinery in :func:`~repro.harness.runner.run_cells`
    exists to absorb. Inside a pool worker the death is ``os._exit`` (the
    pool sees a :class:`~concurrent.futures.process.BrokenProcessPool`);
    when executed inline the wrapper raises instead, so the calling
    process survives its own fault campaign.
    """

    def __init__(self, worker: Callable, crash_keys: Sequence,
                 token_dir: str):
        self.worker = worker
        self.crash_keys = tuple(crash_keys)
        self.token_dir = token_dir

    def _key(self, cell):
        key = getattr(cell, "start", None)
        return repr(cell) if key is None else key

    def __call__(self, cell):
        key = self._key(cell)
        if key in self.crash_keys:
            token = os.path.join(self.token_dir, f"crash-{key}")
            try:
                fd = os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                fd = None          # already crashed once: behave this time
            if fd is not None:
                os.close(fd)
                if multiprocessing.parent_process() is not None:
                    os._exit(3)    # hard kill: no exception, no cleanup
                raise ShardReplayError(
                    f"injected worker crash on cell {key!r}")
        return self.worker(cell)


class FaultInjector:
    """Applies a fault plan deterministically across the pipeline layers."""

    def __init__(self, plan: FaultPlan):
        import random

        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.log: List[str] = []
        self._storage_done = False
        self._token_dir: Optional[str] = None

    @classmethod
    def from_text(cls, text: str, seed: int = 0) -> "FaultInjector":
        return cls(FaultPlan.parse(text, seed=seed))

    # ------------------------------------------------------------------
    # recording-time faults (brownout, channel stall, storage corruption)
    # ------------------------------------------------------------------
    def arm_recording(self, deployment) -> None:
        """Attach recording-layer faults to a deployment before it runs."""
        shim = deployment.shim
        store = shim.store
        if store is not None:
            store.faults = self
        windows: List[_Window] = []
        if store is not None:
            for spec in self.plan.of_kind("store-brownout"):
                factor = max(0.0, float(spec["factor"]))

                def apply_brownout(on: bool, store=store, factor=factor):
                    store.fault_bandwidth_factor = factor if on else 1.0

                windows.append(_Window(
                    spec["start"], spec["cycles"], apply_brownout,
                    f"store-brownout x{factor} "
                    f"@{spec['start']}+{spec['cycles']}"))
        for spec in self.plan.of_kind("channel-stall"):
            if not shim.monitors:
                continue
            monitor = self.rng.choice(shim.monitors)

            def apply_stall(on: bool, monitor=monitor):
                monitor.fault_stalled = on
                monitor.wake()

            windows.append(_Window(
                spec["start"], spec["cycles"], apply_stall,
                f"channel-stall {monitor.name} "
                f"@{spec['start']}+{spec['cycles']}"))
        if not windows:
            return
        for window in windows:
            self.log.append(f"armed {window.label}")

        def sync(cycle: int) -> None:
            for window in windows:
                active = window.start <= cycle < window.end
                if active != window.active:
                    window.active = active
                    window.apply(active)

        deployment.stop_at({edge for window in windows
                            for edge in (window.start, window.end)}, sync)

    def corrupt_storage(self, data: bytearray) -> None:
        """Rot the drained storage image in place (called by ``flush()``).

        Idempotent: ``flush()`` may run more than once per recording, but
        the at-rest corruption happened once.
        """
        if self._storage_done:
            return
        self._storage_done = True
        from repro.core.store import STORAGE_WORD_BYTES as word
        for spec in self.plan.of_kind("store-bitflip"):
            for _ in range(max(0, spec["flips"])):
                if not data:
                    break
                pos = self.rng.randrange(len(data))
                bit = self.rng.randrange(8)
                data[pos] ^= 1 << bit
                self.log.append(
                    f"store-bitflip: bit {bit} of byte {pos} "
                    f"(storage word {pos // word})")
        for spec in self.plan.of_kind("store-drop"):
            for _ in range(max(0, spec["words"])):
                n_words = len(data) // word
                if n_words < 1:
                    break
                which = self.rng.randrange(n_words)
                del data[which * word:(which + 1) * word]
                self.log.append(f"store-drop: storage word {which} "
                                f"({word} bytes)")

    # ------------------------------------------------------------------
    # container-layer faults
    # ------------------------------------------------------------------
    def mangle_blob(self, blob: bytes) -> bytes:
        """Damage a serialized trace container (truncation, byte flips)."""
        out = bytearray(blob)
        for spec in self.plan.of_kind("blob-truncate"):
            keep = min(max(float(spec["keep"]), 0.0), 1.0)
            cut = int(len(out) * keep)
            self.log.append(
                f"blob-truncate: kept {cut}/{len(out)} bytes")
            del out[cut:]
        for spec in self.plan.of_kind("blob-corrupt"):
            for _ in range(max(0, spec["bytes"])):
                if not out:
                    break
                pos = self.rng.randrange(len(out))
                bit = self.rng.randrange(8)
                out[pos] ^= 1 << bit
                self.log.append(f"blob-corrupt: bit {bit} of byte {pos}")
        return bytes(out)

    # ------------------------------------------------------------------
    # worker-process faults
    # ------------------------------------------------------------------
    def crashing_worker(self, worker: Callable, cells: Sequence) -> Callable:
        """Wrap ``worker`` so randomly chosen cells crash on first run.

        The number of victims is the sum of the plan's ``worker-crash``
        spec ``crashes`` counts, capped at the cell count. With no
        ``worker-crash`` spec the worker comes back unwrapped.
        """
        crashes = sum(max(0, spec["crashes"])
                      for spec in self.plan.of_kind("worker-crash"))
        crashes = min(crashes, len(cells))
        if not crashes:
            return worker
        if self._token_dir is None:
            self._token_dir = tempfile.mkdtemp(prefix="vidi-faults-")
        keys = [getattr(cell, "start", repr(cell)) for cell in cells]
        victims = self.rng.sample(keys, crashes)
        for key in victims:
            self.log.append(f"worker-crash armed on cell {key!r}")
        return CrashingWorker(worker, victims, self._token_dir)
