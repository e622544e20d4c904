"""(3) BNN — binarised neural network inference (Rosetta [107]).

A two-layer binarised MLP: 256-bit inputs, a 64-neuron hidden layer and a
10-class output layer, all weights ±1 packed as bits. Inference is
xnor + popcount + sign — exactly the arithmetic FPGA BNN accelerators
exploit. One hidden neuron costs one cycle (a 256-wide xnor/popcount tree),
matching the all-parallel datapath of the HLS original.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.apps.base import REG_ARG0, Accelerator
from repro.apps.hostlib import random_bytes, standard_host

REG_W_ADDR = REG_ARG0        # weights blob
REG_X_ADDR = REG_ARG0 + 1    # input vectors
REG_N_INPUTS = REG_ARG0 + 2
REG_OUT_ADDR = REG_ARG0 + 3

W_BASE = 0x0_0000
X_BASE = 0x4_0000
OUT_BASE = 0xF_0000

IN_BITS = 256
HIDDEN = 64
CLASSES = 10
W1_BYTES = HIDDEN * IN_BITS // 8          # 2048
W2_BYTES = CLASSES * HIDDEN // 8          # 80


def _popcount(x: int) -> int:
    return bin(x).count("1")


def _sign_bits(values: List[int]) -> int:
    bits = 0
    for i, v in enumerate(values):
        if v >= 0:
            bits |= 1 << i
    return bits


def bnn_infer(weights: bytes, x_bits: int) -> int:
    """Golden model: predicted class for one 256-bit input."""
    w1 = weights[:W1_BYTES]
    w2 = weights[W1_BYTES:W1_BYTES + W2_BYTES]
    hidden_vals = []
    for neuron in range(HIDDEN):
        w = int.from_bytes(w1[neuron * 32:(neuron + 1) * 32], "little")
        matches = _popcount(~(w ^ x_bits) & ((1 << IN_BITS) - 1))
        hidden_vals.append(2 * matches - IN_BITS)
    h_bits = _sign_bits(hidden_vals)
    scores = []
    for cls in range(CLASSES):
        w = int.from_bytes(w2[cls * 8:(cls + 1) * 8], "little")
        matches = _popcount(~(w ^ h_bits) & ((1 << HIDDEN) - 1))
        scores.append(2 * matches - HIDDEN)
    return max(range(CLASSES), key=lambda c: (scores[c], -c))


class BnnAccelerator(Accelerator):
    """Batched binarised-MLP inference from DRAM."""

    def kernel(self):
        w_addr = self.regs[REG_W_ADDR]
        x_addr = self.regs[REG_X_ADDR]
        n_inputs = self.regs[REG_N_INPUTS]
        out_addr = self.regs[REG_OUT_ADDR]
        weights = self.dram.read_bytes(w_addr, W1_BYTES + W2_BYTES)
        yield (W1_BYTES + W2_BYTES) // 64   # weight fetch, one word per cycle
        results = bytearray()
        for i in range(n_inputs):
            x_bits = int.from_bytes(
                self.dram.read_bytes(x_addr + 32 * i, 32), "little")
            prediction = bnn_infer(weights, x_bits)
            results.append(prediction)
            yield HIDDEN + CLASSES   # one neuron per cycle
        self.dram.write_bytes(out_addr, bytes(results))
        yield 1


def make():
    """Factory pair for the registry."""
    def accelerator_factory(interfaces: Dict) -> BnnAccelerator:
        return BnnAccelerator("bnn", interfaces)

    def host_factory(result: dict, seed: int, scale: float = 1.0):
        rng = random.Random(seed)
        weights = random_bytes(rng, W1_BYTES + W2_BYTES)
        n_inputs = max(2, int(16 * scale))
        inputs = [rng.getrandbits(IN_BITS) for _ in range(n_inputs)]
        x_blob = b"".join(x.to_bytes(32, "little") for x in inputs)
        golden = bytes(bnn_infer(weights, x) for x in inputs)
        return standard_host(
            result,
            input_blobs=[(W_BASE, weights), (X_BASE, x_blob)],
            args={REG_W_ADDR: W_BASE, REG_X_ADDR: X_BASE,
                  REG_N_INPUTS: n_inputs, REG_OUT_ADDR: OUT_BASE},
            output_addr=OUT_BASE, output_len=n_inputs, golden=golden)

    return accelerator_factory, host_factory
