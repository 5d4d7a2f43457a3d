"""Broadcast protocol stack.

All protocols share the :class:`~repro.broadcast.base.BroadcastProtocol`
chassis (hold-back queue + delivery predicate):

===========================  ====================================================
:class:`UnorderedBroadcast`  no guarantees (baseline)
:class:`FifoBroadcast`       per-sender order (baseline)
:class:`CbcastBroadcast`     vector-clock causal order (ISIS CBCAST)
:class:`OSendBroadcast`      explicit-graph causal order (the paper's ``OSend``)
:class:`ASendTotalOrder`     epoch-batched total order (the paper's ``ASend``)
:class:`SequencerTotalOrder` fixed-sequencer total order (interposed layer)
:class:`LamportTotalOrder`   all-ack decentralized total order (baseline)
===========================  ====================================================
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "asend": ("ASendTotalOrder",),
    "base": ("BroadcastProtocol", "make_group"),
    "recovery": ("RecoveryAgent", "protect_group"),
    "gc": ("StabilityTracker", "track_group"),
    "rst": ("RstBroadcast",),
    "cbcast": ("CbcastBroadcast",),
    "fifo": ("FifoBroadcast",),
    "lamport_total": ("LamportTotalOrder",),
    "osend": ("OSendBroadcast",),
    "sequencer": ("SequencerTotalOrder",),
    "unordered": ("UnorderedBroadcast",),
})

__all__ = [
    "ASendTotalOrder",
    "BroadcastProtocol",
    "CbcastBroadcast",
    "FifoBroadcast",
    "LamportTotalOrder",
    "OSendBroadcast",
    "RecoveryAgent",
    "RstBroadcast",
    "StabilityTracker",
    "SequencerTotalOrder",
    "UnorderedBroadcast",
    "make_group",
    "protect_group",
    "track_group",
]
