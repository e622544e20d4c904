"""(10) MNet — depthwise-separable CNN inference (cf. iSmartDNN [5]).

A MobileNet-style block in int8: depthwise 3x3 convolution over an
8x8x4 activation tensor, pointwise 1x1 convolution expanding to 8
channels, ReLU, global average pooling, and a dense classifier to 4
classes. Integer arithmetic end to end so the golden model matches
exactly. One output activation costs one cycle (a MAC-array datapath).
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.apps.base import REG_ARG0, Accelerator
from repro.apps.hostlib import random_bytes, standard_host

try:
    import numpy as _np
except ImportError:                                    # pragma: no cover
    _np = None

REG_W_ADDR = REG_ARG0
REG_X_ADDR = REG_ARG0 + 1
REG_N_IMAGES = REG_ARG0 + 2
REG_OUT_ADDR = REG_ARG0 + 3

W_BASE = 0x0_0000
X_BASE = 0x4_0000
OUT_BASE = 0xF_0000

H = W = 8
C_IN = 4
C_OUT = 8
CLASSES = 4
IMG_BYTES = H * W * C_IN                       # 256
DW_W_BYTES = C_IN * 9                          # depthwise 3x3 per channel
PW_W_BYTES = C_OUT * C_IN                      # pointwise 1x1
FC_W_BYTES = CLASSES * C_OUT
W_BYTES = DW_W_BYTES + PW_W_BYTES + FC_W_BYTES
SHIFT = 5                                      # post-conv requantisation


def _i8(b: int) -> int:
    return b - 256 if b & 0x80 else b


def mobilenet_infer(weights: bytes, image: bytes) -> int:
    """Golden model: predicted class for one image.

    Vectorised when numpy is available; ``>>`` on int64 arrays is an
    arithmetic shift, so requantisation matches the scalar reference
    bit for bit (both floor toward negative infinity).
    """
    if _np is not None:
        dw = _np.frombuffer(weights[:DW_W_BYTES], dtype=_np.int8)
        dw = dw.astype(_np.int64).reshape(C_IN, 9)
        pw = _np.frombuffer(
            weights[DW_W_BYTES:DW_W_BYTES + PW_W_BYTES], dtype=_np.int8)
        pw = pw.astype(_np.int64).reshape(C_OUT, C_IN)
        fc = _np.frombuffer(
            weights[DW_W_BYTES + PW_W_BYTES:W_BYTES], dtype=_np.int8)
        fc = fc.astype(_np.int64).reshape(CLASSES, C_OUT)
        padded = _np.zeros((H + 2, W + 2, C_IN), dtype=_np.int64)
        padded[1:-1, 1:-1] = _np.frombuffer(
            image, dtype=_np.int8).astype(_np.int64).reshape(H, W, C_IN)
        acc = _np.zeros((H, W, C_IN), dtype=_np.int64)
        for kh in range(3):
            for kw in range(3):
                acc += dw[:, kh * 3 + kw] * padded[kh:kh + H, kw:kw + W]
        dw_out = _np.clip(acc >> SHIFT, -128, 127).reshape(H * W, C_IN)
        pooled = _np.maximum(dw_out @ pw.T >> SHIFT, 0).sum(axis=0) // (H * W)
        # np.argmax takes the first maximum — same tie-break as (score, -c).
        return int(_np.argmax(fc @ pooled))
    return _mobilenet_infer_py(weights, image)


def _mobilenet_infer_py(weights: bytes, image: bytes) -> int:
    """Pure-Python reference implementation (and numpy-less fallback)."""
    dw = [_i8(b) for b in weights[:DW_W_BYTES]]
    pw = [_i8(b) for b in weights[DW_W_BYTES:DW_W_BYTES + PW_W_BYTES]]
    fc = [_i8(b) for b in weights[DW_W_BYTES + PW_W_BYTES:W_BYTES]]
    x = [_i8(b) for b in image]

    def px(h: int, w: int, c: int) -> int:
        if 0 <= h < H and 0 <= w < W:
            return x[(h * W + w) * C_IN + c]
        return 0

    # Depthwise 3x3, stride 1, same padding, requantised.
    dw_out: List[int] = []
    for h in range(H):
        for w in range(W):
            for c in range(C_IN):
                acc = 0
                for kh in range(3):
                    for kw in range(3):
                        acc += dw[c * 9 + kh * 3 + kw] * \
                            px(h + kh - 1, w + kw - 1, c)
                dw_out.append(max(-128, min(127, acc >> SHIFT)))
    # Pointwise 1x1 + ReLU, then global average pool per channel.
    pooled = [0] * C_OUT
    for h in range(H):
        for w in range(W):
            base = (h * W + w) * C_IN
            for co in range(C_OUT):
                acc = 0
                for ci in range(C_IN):
                    acc += pw[co * C_IN + ci] * dw_out[base + ci]
                pooled[co] += max(0, acc >> SHIFT)
    pooled = [p // (H * W) for p in pooled]
    scores = []
    for cls in range(CLASSES):
        acc = 0
        for co in range(C_OUT):
            acc += fc[cls * C_OUT + co] * pooled[co]
        scores.append(acc)
    return max(range(CLASSES), key=lambda c: (scores[c], -c))


class MobileNet(Accelerator):
    """Batched depthwise-separable inference from DRAM."""

    def kernel(self):
        w_addr = self.regs[REG_W_ADDR]
        x_addr = self.regs[REG_X_ADDR]
        n_images = self.regs[REG_N_IMAGES]
        out_addr = self.regs[REG_OUT_ADDR]
        weights = self.dram.read_bytes(w_addr, W_BYTES)
        yield (W_BYTES + 63) // 64
        results = bytearray()
        for i in range(n_images):
            image = self.dram.read_bytes(x_addr + IMG_BYTES * i, IMG_BYTES)
            results.append(mobilenet_infer(weights, image))
            # Cycle model: one MAC-array activation per cycle across the
            # depthwise (HWC), pointwise (HW*C_OUT) and dense layers.
            yield H * W * C_IN + H * W * C_OUT + CLASSES
        self.dram.write_bytes(out_addr, bytes(results))
        yield 1


def make():
    """Factory pair for the registry."""
    def accelerator_factory(interfaces: Dict) -> MobileNet:
        return MobileNet("mobilenet", interfaces)

    def host_factory(result: dict, seed: int, scale: float = 1.0):
        rng = random.Random(seed)
        weights = random_bytes(rng, W_BYTES)
        n_images = max(2, int(10 * scale))
        images = [random_bytes(rng, IMG_BYTES) for _ in range(n_images)]
        golden = bytes(mobilenet_infer(weights, img) for img in images)
        return standard_host(
            result,
            input_blobs=[(W_BASE, weights),
                         (X_BASE, b"".join(images))],
            args={REG_W_ADDR: W_BASE, REG_X_ADDR: X_BASE,
                  REG_N_IMAGES: n_images, REG_OUT_ADDR: OUT_BASE},
            output_addr=OUT_BASE, output_len=n_images, golden=golden)

    return accelerator_factory, host_factory
