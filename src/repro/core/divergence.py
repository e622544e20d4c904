"""Divergence detection: comparing a reference trace with a validation trace.

The paper's two-step workflow (§3.6): record a *reference* trace with output
contents (R2); replay it while recording the replayed output transactions as
a *validation* trace (R3); compare. Three divergence kinds are reported:

* ``content``  — the k-th transaction on an output channel carried different
  payload across record and replay (the kind DRAM DMA's polling exhibits);
* ``count``    — an output channel completed a different number of
  transactions;
* ``ordering`` — an end-event inversion: the recording said end *a* happened
  before end *b*, but the replay produced *b* first. (Replay may *add*
  ordering between previously concurrent events; that is not a divergence.)

Each divergence carries the context a developer needs to find the
cycle-dependent logic: the channel, the occurrence index, and how many
transactions had completed on that channel beforehand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.events import ChannelTable
from repro.core.packets import decodable_index
from repro.core.trace_file import TraceFile
from repro.errors import ConfigError


@dataclass(frozen=True)
class Divergence:
    """One difference between the reference and validation traces."""

    kind: str            # 'content' | 'count' | 'ordering'
    channel: str
    occurrence: int      # which transaction on that channel (0-based)
    detail: str


@dataclass
class DivergenceReport:
    """Outcome of comparing two traces."""

    divergences: List[Divergence]
    output_transactions: int     # output ends compared
    channels_compared: int

    @property
    def clean(self) -> bool:
        """True when record and replay agree completely."""
        return not self.divergences

    def of_kind(self, kind: str) -> List[Divergence]:
        """Subset of divergences of one kind."""
        return [d for d in self.divergences if d.kind == kind]

    @property
    def content_divergence_rate(self) -> float:
        """Content divergences per output transaction (the §5.4 metric)."""
        if not self.output_transactions:
            return 0.0
        return len(self.of_kind("content")) / self.output_transactions

    def summary(self) -> str:
        """Human-readable digest, in the spirit of Vidi's divergence report."""
        if self.clean:
            return (f"no divergences across {self.output_transactions} output "
                    f"transactions on {self.channels_compared} channels")
        lines = [
            f"{len(self.divergences)} divergence(s) across "
            f"{self.output_transactions} output transactions:"
        ]
        for d in self.divergences[:20]:
            lines.append(
                f"  [{d.kind}] {d.channel} txn #{d.occurrence}: {d.detail}")
        if len(self.divergences) > 20:
            lines.append(f"  ... and {len(self.divergences) - 20} more")
        return "\n".join(lines)


def _output_end_records(trace: TraceFile,
                        table: ChannelTable) -> Dict[int, List[Tuple[bytes, Tuple[int, ...]]]]:
    """Per output channel: ordered (content, vclock) for each end event.

    The vector clock counts, per *output* channel, the ends that happened in
    strictly earlier cycle packets (input ends are excluded because the
    validation trace does not record them).
    """
    outputs = table.output_indices
    position = {ch: i for i, ch in enumerate(outputs)}
    counts = [0] * len(outputs)
    records: Dict[int, List[Tuple[bytes, Tuple[int, ...]]]] = {
        ch: [] for ch in outputs}
    # One walk over the packet index (the expansion's, for a trace loaded
    # from a v3 container): only packets that end an output take a clock
    # snapshot, and only their validation payloads are copied.
    index = decodable_index(trace.body, trace.table, trace.with_validation,
                            trace.packet_index)
    view = memoryview(trace.body)
    for offset, layout in zip(index.offsets, index.layouts):
        ended = layout.ended_outputs
        if not ended:
            continue
        snapshot = tuple(counts)
        if layout.validation:
            for ch, start, stop in layout.validation:
                records[ch].append(
                    (bytes(view[offset + start:offset + stop]), snapshot))
        else:
            for ch in ended:
                records[ch].append((b"", snapshot))
        for ch in ended:
            counts[position[ch]] += 1
    return records


def compare_traces(reference: TraceFile, validation: TraceFile,
                   prefix: bool = False) -> DivergenceReport:
    """Compare a reference (R2) trace against a validation (R3) trace.

    With ``prefix=True`` the comparison covers only the transactions both
    traces contain per channel and count mismatches are not reported — the
    mode salvage triage uses to check that replaying a crash-recovered
    prefix trace reproduces a prefix of the *full* original recording.
    """
    if reference.table.to_dict() != validation.table.to_dict():
        raise ConfigError("traces come from different channel tables")
    if not reference.with_validation or not validation.with_validation:
        raise ConfigError(
            "divergence detection needs output contents in both traces "
            "(record with record_output_contents=True)"
        )
    table = reference.table
    ref_records = _output_end_records(reference, table)
    val_records = _output_end_records(validation, table)
    divergences: List[Divergence] = []
    total = 0
    for ch in table.output_indices:
        name = table[ch].name
        ref = ref_records[ch]
        val = val_records[ch]
        if ref == val:
            # Same contents at the same clocks: nothing to report here.
            total += len(ref)
            continue
        if len(ref) != len(val) and not prefix:
            divergences.append(Divergence(
                kind="count", channel=name, occurrence=min(len(ref), len(val)),
                detail=f"recorded {len(ref)} transactions, replayed {len(val)}"))
        for k, ((ref_content, ref_vc), (val_content, val_vc)) in enumerate(
                zip(ref, val)):
            total += 1
            if ref_content != val_content:
                divergences.append(Divergence(
                    kind="content", channel=name, occurrence=k,
                    detail=(f"content {ref_content.hex()} -> {val_content.hex()} "
                            f"after {k} completions on this channel")))
            # Inversion: the replay produced fewer prior ends on some channel
            # than the recording ordered before this event.
            if ref_vc == val_vc:
                continue
            for j, (ref_n, val_n) in enumerate(zip(ref_vc, val_vc)):
                if val_n < ref_n:
                    other = table[table.output_indices[j]].name
                    divergences.append(Divergence(
                        kind="ordering", channel=name, occurrence=k,
                        detail=(f"recorded after {ref_n} ends on {other}, "
                                f"replayed after only {val_n}")))
    return DivergenceReport(
        divergences=divergences,
        output_transactions=total,
        channels_compared=len(table.output_indices),
    )
