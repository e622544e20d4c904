"""The F1 deployment: shell, CPU, host memory, Vidi shim, accelerator.

:class:`F1Deployment` assembles one complete simulated system the way the
paper's prototype assembles a bitstream: environment-side interfaces driven
by the CPU model and host memory, the Vidi shim in the middle
(pass-through, recording, or replaying), and the accelerator on the
application side. Accelerators are provided as factories over the
application-side interfaces, so the same accelerator code runs under every
Vidi configuration unchanged — the paper's "no developer annotations"
property (§5.1).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, Iterable, List, Optional

from repro.channels.axi import AxiInterface
from repro.core.config import VidiConfig, VidiMode
from repro.core.shim import VidiShim
from repro.core.trace_file import TraceFile
from repro.errors import ConfigError, ReplayStallError, WatchdogTimeout
from repro.platform.axi_subordinate import AxiSubordinate
from repro.platform.cpu import CpuModel
from repro.platform.env import EnvironmentMode
from repro.platform.pcie import PcieArbiter
from repro.platform.interfaces import make_f1_interfaces
from repro.sim.memory import WordMemory
from repro.sim.module import Module
from repro.sim.simulator import Simulator

AcceleratorFactory = Callable[[Dict[str, AxiInterface]], Module]

HOST_MEMORY_BYTES = 1 << 22   # 4 MiB of modelled host DRAM
# Cycles host DRAM takes to answer a pcim read or write burst, plus a
# seeded draw from 0..HOST_JITTER on hardware (none in vendor simulation).
HOST_LATENCY = 6
HOST_JITTER = 4
# The same for the DDR4 controller of the §4.1 customisation.
DDR_LATENCY = 2
DDR_JITTER = 1
DEFAULT_MAX_CYCLES = 2_000_000
# Replay progress-watchdog window: cycles without a transaction completion
# or a kernel step, and with no kernel computing, before a livelocked
# replay is converted into a structured ReplayStallError. Accelerator
# compute does not count against it (sssp at default scale computes for
# ~38k cycles with no transaction), so the window only has to outlast the
# gaps between a kernel's DMA and its completion, and it is small enough
# that a wedged replay fails in well under a second instead of consuming
# its full cycle budget.
DEFAULT_REPLAY_STALL_BUDGET = 16_384


class F1Deployment:
    """One simulated F1 instance with a Vidi shim and an accelerator."""

    def __init__(self, name: str,
                 accelerator_factory: AcceleratorFactory,
                 config: VidiConfig,
                 env_mode: EnvironmentMode = EnvironmentMode.HARDWARE,
                 seed: Optional[int] = 0,
                 replay_trace: Optional[TraceFile] = None,
                 with_ddr4: bool = False, with_axis: bool = False,
                 scheduler: Optional[str] = None,
                 time_warp: Optional[bool] = None):
        self.name = name
        self.config = config
        self.env_mode = env_mode
        self.sim = Simulator(name, scheduler=scheduler, time_warp=time_warp)
        with_ddr4 = with_ddr4 or "ddr4" in config.interfaces
        with_axis = with_axis or "axis_in" in config.interfaces \
            or "axis_out" in config.interfaces
        self.with_ddr4 = with_ddr4
        self.with_axis = with_axis
        self.env_interfaces = make_f1_interfaces(
            f"{name}.env", with_ddr4=with_ddr4, with_axis=with_axis)
        self.app_interfaces = make_f1_interfaces(
            f"{name}.app", with_ddr4=with_ddr4, with_axis=with_axis)
        for interface in self.env_interfaces.values():
            self.sim.add(interface)
        for interface in self.app_interfaces.values():
            self.sim.add(interface)
        self.host_memory = WordMemory(f"{name}.host_dram", HOST_MEMORY_BYTES)

        live_environment = config.mode is not VidiMode.REPLAY
        self.pcie: Optional[PcieArbiter] = None
        if live_environment:
            # The shared CPU<->FPGA link: paces all host-side DMA and gives
            # the trace store its leftover bandwidth (§4.1, §6).
            self.pcie = PcieArbiter(f"{name}.pcie")
            self.sim.add(self.pcie)

        self.shim = VidiShim(f"{name}.vidi", self.env_interfaces,
                             self.app_interfaces, config,
                             replay_trace=replay_trace,
                             store_arbiter=self.pcie)
        self.sim.add(self.shim)

        self.cpu: Optional[CpuModel] = None
        self.host_mc: Optional[AxiSubordinate] = None
        hardware = env_mode is EnvironmentMode.HARDWARE
        if live_environment:
            # The live environment only exists when we are not replaying:
            # during replay every input comes from the trace.
            self.cpu = CpuModel(
                f"{name}.cpu", self.env_interfaces, self.host_memory,
                mode=env_mode, seed=seed, pcie=self.pcie)
            self.sim.add(self.cpu)
            self.host_mc = AxiSubordinate(
                f"{name}.host_mc", self.env_interfaces["pcim"],
                self.host_memory, read_latency=HOST_LATENCY,
                write_latency=HOST_LATENCY,
                jitter=HOST_JITTER if hardware else 0,
                seed=None if seed is None else seed + 2, pcie=self.pcie)
            self.sim.add(self.host_mc)

        self.stream_driver = None
        self.stream_collector = None
        if with_axis and live_environment:
            from repro.platform.stream import StreamCollector, StreamDriver

            self.stream_driver = StreamDriver(
                f"{name}.ingress", self.env_interfaces["axis_in"],
                seed=None if seed is None else seed + 4)
            self.sim.add(self.stream_driver)
            self.stream_collector = StreamCollector(
                f"{name}.egress", self.env_interfaces["axis_out"],
                seed=None if seed is None else seed + 5)
            self.sim.add(self.stream_collector)

        self.accelerator = accelerator_factory(self.app_interfaces)
        self.sim.add(self.accelerator)

        self.ddr_controller: Optional[AxiSubordinate] = None
        if with_ddr4 and live_environment:
            # §4.1: the DDR4 controller sits outside the record/replay
            # boundary, serving the accelerator's DRAM over the monitored
            # ddr4 interface. During replay its responses come from the
            # trace, so — like the CPU — it simply is not instantiated.
            self.ddr_controller = AxiSubordinate(
                f"{name}.ddr_ctrl", self.env_interfaces["ddr4"],
                self.accelerator.dram, read_latency=DDR_LATENCY,
                write_latency=DDR_LATENCY,
                jitter=DDR_JITTER if hardware else 0,
                seed=None if seed is None else seed + 3)
            self.sim.add(self.ddr_controller)
        # Elaboration is lazy (first step), so callers may still attach
        # taps/recorders to the deployment before running it.

        # Cycle boundaries run_to_completion() stops at, each with the
        # actions to call there (fault-window edges); see stop_at().
        self._stops: Dict[int, List[Callable[[int], None]]] = {}
        self.flight_probe: Optional[Callable[[int], None]] = None
        if config.mode is VidiMode.RECORD and config.flight_recorder:
            self._install_flight_anchors()

    def stop_at(self, cycles: Iterable[int],
                action: Callable[[int], None]) -> None:
        """Call ``action(cycle)`` at each of ``cycles`` in a record run.

        :meth:`run_to_completion` runs up to each such cycle boundary and
        calls the action there, after the cycle before it committed — what
        a cycle hook would see, without a hook's per-cycle call or its
        veto on warping. Boundary 0 is never reached that way (a hook
        first runs at cycle 1), so a stop at cycle 0 acts at cycle 1.
        """
        for cycle in {max(1, cycle) for cycle in cycles}:
            self._stops.setdefault(cycle, []).append(action)

    # ------------------------------------------------------------------
    def _install_flight_anchors(self) -> None:
        """Build the flight recorder's re-anchoring probe.

        ``flight_probe(cycle)`` fires on ``flight_anchor_stride`` cycle
        boundaries: if the design is quiescent and packets were emitted
        since the last anchor, snapshot the architectural state, queue an
        ANCHOR frame at the exact packet-stream watermark, and reset the
        encoder's dedup dictionary so the new epoch is self-contained.

        The snapshot and the framing take no simulated cycles, but the
        anchor stride does change record timing. Each dedup reset makes
        the packet stream longer, and that extra store traffic shares
        PCIe with the application. dram_dma seed 5 has 0 store stall
        cycles, yet it records 19,273 / 19,342 / 19,532 / 19,856 cycles
        at strides 2048 / 512 / 256 / 64. Its stream grows from 337,385
        to 349,404 bytes at stride 64, and at stride <= 256 the packet
        stream itself differs. With anchoring disabled every stride
        gives 19,273 cycles, so the chunked probing below is neutral. The
        retention budget does not perturb timing either: 65,536 and
        4,096 words give the same cycles. Compare flight recordings only
        at equal strides.

        The probe is *not* installed as a per-cycle hook: cycle hooks cost
        a Python call on every simulated cycle and disable the schedulers'
        quiet-gap warping. :meth:`run_to_completion` instead runs the sim
        in stride-aligned chunks and probes between them — the probed
        cycles (and hence the anchor placement) are identical to what a
        per-cycle hook would see.
        """
        from repro.core.checkpoint import checkpoint_to_dict, take_checkpoint

        shim = self.shim
        encoder = shim.encoder
        store = shim.store
        monitors = shim.monitors
        stride = max(1, self.config.flight_anchor_stride)
        last_ordinal = [0]

        def probe(cycle: int) -> None:
            if cycle % stride:
                return
            ordinal = encoder.packets_emitted
            if ordinal == 0 or ordinal == last_ordinal[0]:
                return
            # A committed monitor holds an in-flight transaction; the
            # architectural snapshot would not be a clean resume point.
            if any(m._committed for m in monitors):
                return
            try:
                checkpoint = take_checkpoint(self)
            except ConfigError:
                return
            # Flight suffix replay restores with restore_host=False (replay
            # has no live host side), so the host-memory words — by far the
            # largest incompressible checkpoint payload — are dead weight
            # in an ANCHOR frame. Drop them before stringifying.
            checkpoint.host_words = {}
            if store.request_anchor(ordinal, cycle,
                                    checkpoint_to_dict(checkpoint)):
                encoder.reset_dedup()
            last_ordinal[0] = ordinal

        self.flight_probe = probe

    # ------------------------------------------------------------------
    def run_to_completion(self, max_cycles: int = DEFAULT_MAX_CYCLES) -> int:
        """Run until the host program finishes; returns elapsed cycles.

        The run stops at every :meth:`stop_at` cycle and, when flight
        recording, at every anchor-stride boundary: it runs the chunk in
        between with ``run_until`` (which warps quiet gaps but never past
        the chunk's end) and acts at the boundary — zero per-cycle cost.
        """
        if self.cpu is None:
            raise ConfigError("replay deployments use run_replay()")
        what = f"{self.name}: host program completion"
        sim, cpu = self.sim, self.cpu
        probe, stops = self.flight_probe, self._stops
        stride = max(1, self.config.flight_anchor_stride)
        edges = sorted(stops)
        start = sim.cycle
        end = start + max_cycles
        while not cpu.done:
            limit = end
            if probe is not None:
                limit = min(limit, sim.cycle + stride - sim.cycle % stride)
            i = bisect_right(edges, sim.cycle)
            if i < len(edges):
                limit = min(limit, edges[i])
            chunk = limit - sim.cycle
            if chunk <= 0:
                raise WatchdogTimeout(
                    f"{sim.name}: {what} not reached within "
                    f"{max_cycles} cycles (cycle {sim.cycle})")
            try:
                # The bound method itself: one Python call per cycle.
                sim.run_until(cpu.is_done, chunk, what)
            except WatchdogTimeout:
                if sim.cycle >= end:
                    raise WatchdogTimeout(
                        f"{sim.name}: {what} not reached within "
                        f"{max_cycles} cycles (cycle {sim.cycle})") from None
            cycle = sim.cycle
            for action in stops.get(cycle, ()):
                action(cycle)
            if probe is not None and cycle % stride == 0:
                probe(cycle)
        return sim.cycle - start

    def run_replay(self, max_cycles: int = DEFAULT_MAX_CYCLES,
                   drain_cycles: int = 64,
                   stall_budget: Optional[int] = None) -> int:
        """Run until every replayer drained its feed; returns elapsed cycles.

        A progress watchdog guards against *livelock* (replayers alive but
        permanently vector-clock-gated, e.g. by a causally impossible
        mutated trace or a corrupted Ends bitvector): if for
        ``stall_budget`` consecutive cycles no transaction completes and
        the accelerator's kernel neither steps nor computes while feeds
        remain unconsumed, a structured
        :class:`~repro.errors.ReplayStallError` is raised — per-channel
        clocks, pending handshakes and the last-progress cycle attached —
        instead of silently burning the whole ``max_cycles`` budget.
        The stepping itself is unchanged (the budget only chunks the
        ``run_until`` loop), so cycle counts and validation traces stay
        bit-identical to an unguarded run.
        """
        if self.config.mode is not VidiMode.REPLAY:
            raise ConfigError("run_replay() requires a replay configuration")
        budget = stall_budget or DEFAULT_REPLAY_STALL_BUDGET
        sim, shim = self.sim, self.shim
        start = sim.cycle
        end = start + max_cycles
        done = shim.replay_done
        accelerator = self.accelerator

        def progress():
            # Completion broadcasts and kernel steps move a replay on; a
            # kernel computing right now (None) is progress as well.
            if getattr(accelerator, "computing", False):
                return None
            return (shim.progress_token(),
                    getattr(accelerator, "kernel_steps", 0))

        last_token = progress()
        while not done:
            chunk = min(budget, end - sim.cycle)
            if chunk <= 0:
                raise WatchdogTimeout(
                    f"{sim.name}: {self.name}: replay completion not reached "
                    f"within {max_cycles} cycles (cycle {sim.cycle})")
            try:
                sim.run_until(shim.is_replay_done, chunk,
                              what=f"{self.name}: replay completion")
                done = True
            except WatchdogTimeout:
                token = progress()
                if token is not None and token == last_token:
                    report = shim.stall_report()
                    stuck = len(report["channels"])
                    raise ReplayStallError(
                        f"{self.name}: replay livelocked — no transaction "
                        f"completed and no kernel computed in {chunk} "
                        f"cycles (cycle {sim.cycle}, "
                        f"last progress at cycle "
                        f"{report['last_progress_cycle']}, {stuck} "
                        f"channel(s) blocked)",
                        cycle=sim.cycle,
                        last_progress_cycle=report["last_progress_cycle"],
                        current_clock=report["current_clock"],
                        channels=report["channels"],
                    ) from None
                last_token = token
        elapsed = sim.cycle - start
        self.sim.run(drain_cycles)   # let trailing validation packets flush
        return elapsed

    # ------------------------------------------------------------------
    def recorded_trace(self, metadata: Optional[dict] = None) -> TraceFile:
        """The trace captured by this deployment's recording pipeline."""
        return self.shim.recorded_trace(metadata)
