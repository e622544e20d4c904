"""Exception hierarchy for the Vidi reproduction.

All library-defined exceptions derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SimulationError(ReproError):
    """An error raised by the cycle-accurate simulation kernel."""


class CombinationalLoopError(SimulationError):
    """Combinational logic failed to reach a fixpoint within the delta budget.

    Raised when a cycle's combinational settling loop runs for more than
    ``Simulator.max_delta`` passes, which indicates an oscillating feedback
    path (e.g. two modules each inverting the other's output).
    """


class WatchdogTimeout(SimulationError):
    """A bounded simulation run ended without its completion predicate.

    This is how the reproduction detects hardware deadlocks (e.g. the buggy
    ``axi_atop_filter`` in the testing case study): the simulated design makes
    no progress and the bounded ``run_until`` gives up.
    """


class ProtocolViolationError(ReproError):
    """A VALID/READY handshake rule was broken on a monitored channel.

    Raised by :class:`repro.channels.protocol_checker.ProtocolChecker`, the
    analogue of Xilinx's AXI Protocol Checker IP: VALID deasserted before
    READY, or payload mutated while a handshake was pending.
    """


class TraceFormatError(ReproError):
    """A serialized trace could not be parsed (corrupt or mismatched layout)."""


class TraceIntegrityError(TraceFormatError):
    """A trace container failed a CRC32 check (corruption at rest).

    Subclasses :class:`TraceFormatError` so existing ``except`` clauses keep
    working; the distinct type lets salvage tooling tell "the framing is
    damaged" (recoverable prefix may exist) from "this is not a trace at
    all".
    """


class ReplayError(ReproError):
    """The replay engine could not make progress consistent with the trace."""


class ShardReplayError(ReplayError):
    """A sharded-replay worker cell kept failing after retries and fallback."""


class ReplayStallError(ReplayError, WatchdogTimeout):
    """Replay stopped completing transactions while feeds remain unconsumed.

    Raised by the replay progress watchdog instead of letting a livelocked
    replay burn its whole cycle budget (or hang a caller that picked a huge
    one). Subclasses :class:`WatchdogTimeout` so deadlock-classification
    code (e.g. the trace fuzzer) keeps working, and carries the structured
    diagnostics a developer needs to see *why* nothing can fire:

    * ``cycle`` — the simulation cycle the watchdog gave up at;
    * ``last_progress_cycle`` — the last cycle any replayer broadcast a
      completion (``None`` when nothing ever completed);
    * ``current_clock`` — the shared ``T_current`` vector at stall time;
    * ``channels`` — per-replayer dicts: consumed/total actions, the next
      action's ``T_expected`` prerequisite and which channels it is
      waiting on, plus in-flight sender/receiver state.
    """

    def __init__(self, message: str, *, cycle: "int | None" = None,
                 last_progress_cycle: "int | None" = None,
                 current_clock: "tuple | None" = None,
                 channels: "list | None" = None):
        super().__init__(message)
        self.cycle = cycle
        self.last_progress_cycle = last_progress_cycle
        self.current_clock = current_clock
        self.channels = list(channels or [])


class ConfigError(ReproError):
    """An invalid Vidi configuration (unknown interface, bad mode, ...)."""


class FaultPlanError(ConfigError):
    """A fault-injection plan names an unknown fault kind or bad parameters."""


class ResourceModelError(ReproError):
    """The analytical resource model was queried with invalid parameters."""
