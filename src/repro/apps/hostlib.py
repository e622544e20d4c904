"""Shared host-program building blocks for the evaluation applications.

Apart from DRAM DMA (which polls, §3.6) every benchmark host follows the
same deployment-style sequence the Rosetta harnesses use:

1. DMA the input buffer into on-FPGA DRAM (pcis),
2. program argument registers and write CTRL (ocl),
3. block on the pcim doorbell write landing in host memory,
4. DMA the output region back (pcis) and check it against a golden model.
"""

from __future__ import annotations

import random
from itertools import repeat
from typing import Dict, Iterable, Tuple

from repro.apps.base import DOORBELL_ADDR, REG_CTRL
from repro.platform.cpu import DmaRead, DmaWrite, MmioWrite, WaitHostWord


def random_bytes(rng: random.Random, n: int) -> bytes:
    """``bytes(rng.getrandbits(8) for _ in range(n))``, 2-3x faster."""
    return bytes(map(rng.getrandbits, repeat(8, n)))


def standard_host(result: dict, input_blobs: Iterable[Tuple[int, bytes]],
                  args: Dict[int, int], output_addr: int, output_len: int,
                  golden: bytes):
    """The common load → start → doorbell → readback → verify sequence.

    ``input_blobs`` is a list of (dram_address, bytes) to DMA in;
    ``args`` maps register index to value; the final comparison against
    ``golden`` lands in ``result`` for the harness to check.
    """
    for addr, blob in input_blobs:
        if blob:
            yield DmaWrite(addr, blob)
    for reg, value in sorted(args.items()):
        yield MmioWrite("ocl", reg * 4, value)
    yield MmioWrite("ocl", REG_CTRL * 4, 1)
    yield WaitHostWord(DOORBELL_ADDR, lambda w: bool(w & 1))
    output = yield DmaRead(output_addr, output_len)
    result["output"] = output
    result["expected"] = golden
    result["ok"] = output == golden


def check_standard(result: dict) -> None:
    """Golden check shared by all doorbell-style applications."""
    assert result.get("ok"), (
        "accelerator output mismatch: "
        f"got {result.get('output', b'')[:32].hex()}..., "
        f"expected {result.get('expected', b'')[:32].hex()}..."
    )
