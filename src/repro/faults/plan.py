"""Declarative fault plans: what to break, where, and with which knobs.

A :class:`FaultPlan` is a seed plus an ordered list of :class:`FaultSpec`
entries, each naming one fault *kind* from :data:`FAULT_KINDS` and its
parameters. Plans are data, not code: they serialize to/from the compact
``kind:key=value,key=value;kind:...`` text the ``vidi`` CLI's ``--inject``
flag takes, validate eagerly (unknown kinds or parameters raise
:class:`~repro.errors.FaultPlanError` before any simulation starts), and —
together with the plan seed — fully determine every random choice the
:class:`~repro.faults.injector.FaultInjector` makes. The same plan text and
seed reproduce the same fault, which is the whole point: a fault campaign's
failures must themselves be replayable.

Fault kinds span every layer of the recording pipeline:

========================  =====================================================
``store-bitflip``         flip bits inside random 64-byte storage words after
                          the drain (corruption at rest; semantic nets only)
``store-drop``            drop whole 64-byte storage words (lost DMA writes)
``store-brownout``        scale the store's drain bandwidth down for a cycle
                          window (PCIe congestion; must be masked losslessly)
``channel-stall``         freeze monitored handshakes for a cycle window
                          (back-pressure shape; must be masked losslessly)
``blob-truncate``         cut the serialized container short (crashed writer)
``blob-corrupt``          flip random bytes of the serialized container
                          (bit rot in the trace file; CRC framing must catch)
``worker-crash``          hard-kill sharded-replay worker processes
                          (the pool must retry / fall back, bit-identically)
========================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import FaultPlanError

# kind -> {parameter: (type, default)}
FAULT_KINDS: Dict[str, Dict[str, tuple]] = {
    "store-bitflip": {"flips": (int, 1)},
    "store-drop": {"words": (int, 1)},
    "store-brownout": {"factor": (float, 0.1), "start": (int, 0),
                       "cycles": (int, 2000)},
    "channel-stall": {"start": (int, 100), "cycles": (int, 200)},
    "blob-truncate": {"keep": (float, 0.5)},
    "blob-corrupt": {"bytes": (int, 1)},
    "worker-crash": {"crashes": (int, 1)},
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject: a kind plus validated parameters."""

    kind: str
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r} "
                f"(known: {', '.join(sorted(FAULT_KINDS))})")
        schema = FAULT_KINDS[self.kind]
        coerced = []
        for key, value in self.params:
            if key not in schema:
                raise FaultPlanError(
                    f"{self.kind}: unknown parameter {key!r} "
                    f"(accepts: {', '.join(sorted(schema))})")
            typ = schema[key][0]
            try:
                coerced.append((key, typ(value)))
            except (TypeError, ValueError):
                raise FaultPlanError(
                    f"{self.kind}: parameter {key}={value!r} is not "
                    f"a valid {typ.__name__}") from None
        object.__setattr__(self, "params", tuple(coerced))

    def __getitem__(self, key: str):
        for k, v in self.params:
            if k == key:
                return v
        return FAULT_KINDS[self.kind][key][1]

    def render(self) -> str:
        """The ``kind:key=value,...`` text form."""
        if not self.params:
            return self.kind
        args = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}:{args}"

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse one ``kind[:key=value[,key=value...]]`` clause."""
        text = text.strip()
        if not text:
            raise FaultPlanError("empty fault clause")
        kind, _, argtext = text.partition(":")
        params = []
        if argtext.strip():
            for pair in argtext.split(","):
                key, eq, value = pair.partition("=")
                if not eq:
                    raise FaultPlanError(
                        f"{kind}: malformed parameter {pair!r} "
                        "(expected key=value)")
                params.append((key.strip(), value.strip()))
        return cls(kind=kind.strip(), params=tuple(params))


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of faults plus the seed that determines their dice."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse ``kind:k=v,...;kind:k=v,...`` (the CLI ``--inject`` syntax)."""
        specs = tuple(FaultSpec.parse(clause)
                      for clause in text.split(";") if clause.strip())
        if not specs:
            raise FaultPlanError(f"fault plan {text!r} names no faults")
        return cls(specs=specs, seed=seed)

    @classmethod
    def single(cls, kind: str, seed: int = 0, **params) -> "FaultPlan":
        """A one-fault plan, the campaign's workhorse constructor."""
        return cls(specs=(FaultSpec(kind, tuple(params.items())),), seed=seed)

    def of_kind(self, kind: str) -> Tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if s.kind == kind)

    def render(self) -> str:
        return ";".join(s.render() for s in self.specs)
