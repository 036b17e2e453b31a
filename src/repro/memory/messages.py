"""Coherence protocol messages.

The protocol is a MESI directory protocol in the GEMS style (Sec. V of the
paper models the memory system with GEMS): requests block the directory
entry until the requestor's Unblock acknowledgment, queued requests wait in
FIFO order, and dirty data is forwarded cache-to-cache.  Responses carry the
``from_private_cache`` flag the RW+Dir contention detector keys on
(Sec. IV-C: "coherence messages commonly include the sender identifier, or
at least a bit to indicate if the response comes from private or shared
caches").
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field


class MsgKind(enum.Enum):
    # Core -> directory requests
    GETS = "GetS"  # read permission
    GETX = "GetX"  # exclusive permission
    PUTM = "PutM"  # eviction of an E/M line (writeback)
    # Directory -> core
    DATA = "Data"  # shared data grant
    DATA_E = "DataE"  # exclusive data grant
    FWD_GETS = "FwdGetS"  # forward read request to owner
    FWD_GETX = "FwdGetX"  # forward exclusive request to owner
    INV = "Inv"  # invalidate a shared copy
    PUTM_ACK = "PutMAck"
    # Core -> directory acknowledgments
    UNBLOCK = "Unblock"
    INV_ACK = "InvAck"
    # Far atomics (extension; see DESIGN.md §5): the RMW executes at the
    # line's home L3/directory bank instead of acquiring the line.
    AMO_REQ = "AmoReq"
    AMO_RESP = "AmoResp"


REQUEST_KINDS = frozenset({MsgKind.GETS, MsgKind.GETX, MsgKind.PUTM})
EXTERNAL_KINDS = frozenset({MsgKind.INV, MsgKind.FWD_GETS, MsgKind.FWD_GETX})
#: Per-kind request counter names (``requests_GetS`` ...), built once so
#: the message path never formats a string.
REQUEST_COUNTER = {kind: f"requests_{kind.value}" for kind in MsgKind}

_msg_ids = itertools.count()


@dataclass(slots=True)
class Message:
    """One coherence message in flight (``slots=True``: messages are the
    highest-volume allocation in the memory system — several per miss).

    src/dst            -- network node ids (cores are 0..N-1; directory bank
                          b lives at node b: tiled CMP, bank co-located).
    requestor          -- core that started the transaction (FWD/INV carry it
                          so data can be sent cache-to-cache).
    from_private_cache -- set on DATA(_E) served by a remote private cache.
    issued_cycle       -- when the original request left the requestor
                          (carried through for latency bookkeeping).
    """

    kind: MsgKind
    line: int
    src: int
    dst: int
    requestor: int = -1
    exclusive: bool = False
    from_private_cache: bool = False
    issued_cycle: int = 0
    # Far-atomic payload (AMO_REQ carries the operation; AMO_RESP the
    # old/new values the home bank produced).
    amo_op: object = None
    amo_operand: int = 0
    amo_expected: int = 0
    amo_addr: int = 0
    amo_old: int = 0
    amo_new: int = 0
    uid: int = field(default_factory=_msg_ids.__next__)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.kind.value} line={self.line:#x} "
            f"{self.src}->{self.dst} req={self.requestor})"
        )
