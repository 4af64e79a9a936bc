"""The paper's primary contribution: the canonical scheduler architecture.

Cycle-level behavioral model of the ShareStreams FPGA scheduler core:
Register Base blocks (stream-slots), multi-attribute Decision blocks,
the recirculating shuffle-exchange network, and the Control & Steering
FSM, composed by :class:`~repro.core.scheduler.ShareStreamsScheduler`.
"""

from repro.core.attributes import (
    ATTRIBUTE_WORD_BITS,
    HardwareAttributes,
    SchedulingMode,
    StreamConfig,
    pack_attributes,
    unpack_attributes,
)
from repro.core.batch_engine import make_scheduler
from repro.core.config import ArchConfig, BlockMode, Routing
from repro.core.control import ControlState, ControlUnit, TimelineEntry
from repro.core.decision_block import DecisionBlock, DecisionResult
from repro.core.fields import (
    MAX_STREAM_SLOTS,
    serial_add,
    serial_cmp,
    serial_distance,
    serial_lt,
    wrap,
)
from repro.core.register_block import (
    PendingPacket,
    RegisterBaseBlock,
    SlotCounters,
)
from repro.core.rules import Rule, RuleEvaluation, compare, evaluate, ordering_key
from repro.core.scheduler import DecisionOutcome, ShareStreamsScheduler
from repro.core.shuffle import (
    NetworkResult,
    ShuffleExchangeNetwork,
    perfect_shuffle,
)
from repro.core.hdl import emit_verilog
from repro.core.tag_mapping import ServiceTagFrontend, TaggedStream
from repro.core.tensor_engine import (
    CampaignEngine,
    PeriodicRunResult,
    TensorScheduler,
    TensorSlotView,
)

__all__ = [
    "ATTRIBUTE_WORD_BITS",
    "ArchConfig",
    "BlockMode",
    "CampaignEngine",
    "ControlState",
    "ControlUnit",
    "DecisionBlock",
    "DecisionOutcome",
    "DecisionResult",
    "HardwareAttributes",
    "MAX_STREAM_SLOTS",
    "NetworkResult",
    "PendingPacket",
    "PeriodicRunResult",
    "RegisterBaseBlock",
    "Routing",
    "Rule",
    "RuleEvaluation",
    "SchedulingMode",
    "ServiceTagFrontend",
    "ShareStreamsScheduler",
    "ShuffleExchangeNetwork",
    "SlotCounters",
    "StreamConfig",
    "TaggedStream",
    "TensorScheduler",
    "TensorSlotView",
    "TimelineEntry",
    "compare",
    "emit_verilog",
    "evaluate",
    "make_scheduler",
    "ordering_key",
    "pack_attributes",
    "perfect_shuffle",
    "serial_add",
    "serial_cmp",
    "serial_distance",
    "serial_lt",
    "unpack_attributes",
    "wrap",
]
