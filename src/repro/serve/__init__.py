"""Wire-facing serving layer over the sharded causal object space.

The paper's Section 6.1 front-end managers, made real: an asyncio TCP
server (:mod:`repro.serve.server`) fronts a
:class:`~repro.shard.cluster.ShardedCluster` for external clients over a
length-prefixed JSON protocol (:mod:`repro.serve.wire`), with pipelining,
per-cycle write batching, admission control, causal *session tokens*
that let a client reconnect anywhere without losing read-your-writes or
monotonic causal order, and ``get`` as a session verb: served in the
session's issue order by any shard member whose settled prefix covers
the session's causal floor.  A pipelined client and a closed/open-loop
load generator ride along; see ``docs/SERVING.md``.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "client": (
        "DEFAULT_REQUEST_TIMEOUT",
        "ServeClient",
        "ServeError",
        "ServeOverload",
        "reconnect",
    ),
    "faults": ("ChaosProxy", "WireFaultPlan"),
    "loadgen": ("LoadReport", "run_load"),
    "metrics": ("ServeMetrics", "percentile"),
    "resilient": ("GaveUp", "ResilientClient"),
    "server": ("ServeServer",),
    "wire": (
        "DEFAULT_OVERLOAD_RETRY_AFTER",
        "FRAME_OVERLOAD",
        "MAX_FRAME",
        "SERVE_WIRE_VERSION",
        "decode_frame",
        "encode_frame",
        "read_frame",
        "write_frame",
    ),
})

__all__ = [
    "ChaosProxy",
    "DEFAULT_OVERLOAD_RETRY_AFTER",
    "DEFAULT_REQUEST_TIMEOUT",
    "FRAME_OVERLOAD",
    "GaveUp",
    "LoadReport",
    "MAX_FRAME",
    "ResilientClient",
    "SERVE_WIRE_VERSION",
    "ServeClient",
    "ServeError",
    "ServeMetrics",
    "ServeOverload",
    "ServeServer",
    "WireFaultPlan",
    "decode_frame",
    "encode_frame",
    "percentile",
    "read_frame",
    "reconnect",
    "run_load",
    "write_frame",
]
