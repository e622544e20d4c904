"""Vidi's core: the paper's primary contribution.

Coarse-grained input recording (channel monitors + trace encoder + trace
store), transaction-deterministic replay (trace decoder + vector-clocked
channel replayers), divergence detection and trace mutation, all deployed
through a single :class:`VidiShim` configured as R1/R2/R3.
"""

from repro.core.checkpoint import (
    Checkpoint,
    restore_checkpoint,
    take_checkpoint,
)
from repro.core.config import F1_INTERFACE_ORDER, VidiConfig, VidiMode
from repro.core.decoder import (
    CompactFeed,
    ReplayElement,
    TraceDecoder,
)
from repro.core.divergence import Divergence, DivergenceReport, compare_traces
from repro.core.encoder import TraceEncoder
from repro.core.events import (
    ChannelInfo,
    ChannelTable,
    TransactionEvent,
    happens_before,
)
from repro.core.monitor import ChannelMonitor
from repro.core.mutation import EventRef, TraceMutator
from repro.core.packets import ChannelPacket, CyclePacket
from repro.core.replayer import ChannelReplayer, ReplayCoordinator
from repro.core.runtime import VidiRuntime
from repro.core.shim import VidiShim, build_channel_table
from repro.core.store import STORAGE_WORD_BYTES, TraceStore
from repro.core.trace_file import TraceFile, TraceIndex
from repro.core.vector_clock import VectorClock

__all__ = [
    "Checkpoint",
    "ChannelInfo",
    "ChannelMonitor",
    "ChannelPacket",
    "ChannelReplayer",
    "ChannelTable",
    "CompactFeed",
    "CyclePacket",
    "Divergence",
    "DivergenceReport",
    "EventRef",
    "F1_INTERFACE_ORDER",
    "ReplayCoordinator",
    "ReplayElement",
    "STORAGE_WORD_BYTES",
    "TraceDecoder",
    "TraceEncoder",
    "TraceFile",
    "TraceIndex",
    "TraceMutator",
    "TraceStore",
    "TransactionEvent",
    "VectorClock",
    "VidiConfig",
    "VidiMode",
    "VidiRuntime",
    "VidiShim",
    "build_channel_table",
    "compare_traces",
    "restore_checkpoint",
    "take_checkpoint",
    "happens_before",
]
