"""Structured channel payloads.

A channel carries a fixed-width payload composed of named bit fields (e.g. an
AXI write-address beat carries ``addr``, ``len``, ``id``...). A
:class:`PayloadSpec` describes the layout and converts between three
representations:

* ``dict``  — field name to integer value (what modules manipulate),
* ``int``   — the packed little-endian-field word (what the signal carries),
* ``bytes`` — the serialized content stored in Vidi traces.

Field 0 occupies the least-significant bits of the packed word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.errors import SimulationError


@dataclass(frozen=True)
class Field:
    """One named bit field inside a payload."""

    name: str
    width: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise SimulationError(f"field {self.name!r}: width must be >= 1")


class PayloadSpec:
    """The layout of a channel payload: an ordered list of bit fields."""

    def __init__(self, fields: Sequence[Field]):
        if not fields:
            raise SimulationError("payload spec needs at least one field")
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise SimulationError(f"duplicate field names in payload spec: {names}")
        self.fields: Tuple[Field, ...] = tuple(fields)
        self.width = sum(f.width for f in fields)
        self.byte_length = (self.width + 7) // 8
        self._offsets: Dict[str, Tuple[int, int]] = {}
        offset = 0
        for field in self.fields:
            self._offsets[field.name] = (offset, (1 << field.width) - 1)
            offset += field.width

    # ------------------------------------------------------------------
    def pack(self, values: Mapping[str, int]) -> int:
        """Pack a field dict into the channel word. Missing fields are zero."""
        word = 0
        for name, value in values.items():
            try:
                offset, mask = self._offsets[name]
            except KeyError:
                raise SimulationError(f"unknown payload field {name!r}") from None
            word |= (value & mask) << offset
        return word

    def unpack(self, word: int) -> Dict[str, int]:
        """Split the packed channel word back into a field dict."""
        out: Dict[str, int] = {}
        for field in self.fields:
            offset, mask = self._offsets[field.name]
            out[field.name] = (word >> offset) & mask
        return out

    def extract(self, word: int, name: str) -> int:
        """Read a single field from a packed word."""
        offset, mask = self._offsets[name]
        return (word >> offset) & mask

    def slots(self, *names: str) -> Tuple[int, ...]:
        """The ``(offset, mask)`` pairs of ``names``, flattened.

        Per-beat code takes these once, as module constants, then reads a
        field as ``(word >> offset) & mask`` and builds a word from
        ``(value & mask) << offset`` terms, exactly as :meth:`unpack` and
        :meth:`pack` do, with no field dict and no call.
        """
        return tuple(part for name in names for part in self._offsets[name])

    # ------------------------------------------------------------------
    def to_bytes(self, word: int) -> bytes:
        """Serialize a packed word into ``byte_length`` little-endian bytes."""
        return (word & ((1 << self.width) - 1)).to_bytes(self.byte_length, "little")

    def from_bytes(self, data: bytes) -> int:
        """Parse serialized content back into the packed word."""
        if len(data) != self.byte_length:
            raise SimulationError(
                f"payload needs {self.byte_length} bytes, got {len(data)}"
            )
        return int.from_bytes(data, "little")

    def field_names(self) -> List[str]:
        """Names of all fields, LSB first."""
        return [f.name for f in self.fields]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{f.name}:{f.width}" for f in self.fields)
        return f"PayloadSpec({body})"
