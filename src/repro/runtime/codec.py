"""Wire encoding for envelopes (JSON).

In-process transports pass :class:`~repro.types.Envelope` objects by
reference; crossing a real network needs a byte encoding.  This codec
covers the metadata the broadcast protocols attach:

* ``occurs_after`` — :class:`~repro.graph.predicates.OccursAfter`,
* ``vclock`` — :class:`~repro.clocks.vector.VectorClock`,
* ``epoch`` / ``total_seq`` — ints,
* ``lamport`` — :class:`~repro.clocks.lamport.Timestamp`,
* ``sent_matrix`` — RST's nested dict.

Payloads must be JSON-compatible scalars/lists/dicts, with two
extensions used by the library's own control traffic: ``MessageId``
values and frozensets of them are encoded structurally.

The codec is deliberately strict about *metadata*: unknown metadata keys
raise instead of being dropped silently, so a protocol extension cannot
lose information on the wire without a test noticing.  Unknown top-level
*envelope* fields, by contrast, are ignored on decode — a newer peer may
annotate envelopes (tracing ids, routing hints) without breaking older
decoders, which is what lets the wire format evolve one side at a time.

:func:`encode_value` / :func:`decode_value` expose the payload value
codec on its own; the serving layer (:mod:`repro.serve.wire`) reuses it
for request/reply documents so labels and label sets cross the client
wire with the same structural encoding the envelope payloads use.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.clocks.lamport import Timestamp
from repro.clocks.vector import VectorClock
from repro.errors import ProtocolError
from repro.graph.predicates import OccursAfter
from repro.types import Envelope, Message, MessageId

WIRE_VERSION = 1


# -- value encoding -----------------------------------------------------------


def _encode_value(value: Any) -> Any:
    if isinstance(value, MessageId):
        return {"__mid__": [value.sender, value.seqno]}
    if isinstance(value, (frozenset, set)):
        return {"__set__": [_encode_value(v) for v in sorted(value)]}
    if isinstance(value, tuple):
        return {"__tuple__": [_encode_value(v) for v in value]}
    if isinstance(value, dict):
        return {
            "__dict__": [
                [_encode_value(k), _encode_value(v)]
                for k, v in value.items()
            ]
        }
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, list):
        return [_encode_value(v) for v in value]
    raise ProtocolError(f"cannot encode payload value: {value!r}")


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if "__mid__" in value:
            sender, seqno = value["__mid__"]
            return MessageId(sender, seqno)
        if "__set__" in value:
            return frozenset(_decode_value(v) for v in value["__set__"])
        if "__tuple__" in value:
            return tuple(_decode_value(v) for v in value["__tuple__"])
        if "__dict__" in value:
            return {
                _decode_value(k): _decode_value(v)
                for k, v in value["__dict__"]
            }
        raise ProtocolError(f"unknown structured value: {value!r}")
    if isinstance(value, list):
        return [_decode_value(v) for v in value]
    return value


def encode_value(value: Any) -> Any:
    """Encode one payload value into JSON-compatible structures.

    Scalars pass through; ``MessageId``, sets, tuples and non-string-keyed
    dicts become tagged objects (``__mid__``/``__set__``/…).  Raises
    :class:`ProtocolError` on anything JSON cannot carry.
    """
    return _encode_value(value)


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value` (post-``json.loads`` structures)."""
    try:
        return _decode_value(value)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed wire value: {exc}") from exc


# -- metadata encoding ------------------------------------------------------------


def _encode_metadata(metadata: Any) -> Dict[str, Any]:
    encoded: Dict[str, Any] = {}
    for key, value in metadata.items():
        if key == "occurs_after" and isinstance(value, OccursAfter):
            encoded[key] = [
                [l.sender, l.seqno] for l in sorted(value.ancestors)
            ]
        elif key == "vclock" and isinstance(value, VectorClock):
            encoded[key] = value.as_dict()
        elif key == "lamport" and isinstance(value, Timestamp):
            encoded[key] = [value.counter, value.entity]
        elif key == "sent_matrix" and isinstance(value, dict):
            encoded[key] = {
                row: dict(cols) for row, cols in value.items()
            }
        elif key in ("epoch", "total_seq") and isinstance(value, int):
            encoded[key] = value
        else:
            raise ProtocolError(
                f"cannot encode metadata key {key!r} (value {value!r})"
            )
    return encoded


def _decode_metadata(encoded: Dict[str, Any]) -> Dict[str, Any]:
    metadata: Dict[str, Any] = {}
    for key, value in encoded.items():
        if key == "occurs_after":
            metadata[key] = OccursAfter.after(
                [MessageId(s, n) for s, n in value]
            )
        elif key == "vclock":
            metadata[key] = VectorClock(value)
        elif key == "lamport":
            counter, entity = value
            metadata[key] = Timestamp(counter, entity)
        elif key == "sent_matrix":
            metadata[key] = {
                row: {col: int(c) for col, c in cols.items()}
                for row, cols in value.items()
            }
        elif key in ("epoch", "total_seq"):
            metadata[key] = int(value)
        else:
            raise ProtocolError(f"unknown metadata key on wire: {key!r}")
    return metadata


# -- envelope encoding -----------------------------------------------------------


def encode_envelope(envelope: Envelope) -> bytes:
    """Serialize an envelope to UTF-8 JSON bytes."""
    document = {
        "v": WIRE_VERSION,
        "id": [envelope.msg_id.sender, envelope.msg_id.seqno],
        "op": envelope.message.operation,
        "payload": _encode_value(envelope.message.payload),
        "meta": _encode_metadata(envelope.metadata),
    }
    return json.dumps(document, separators=(",", ":")).encode("utf-8")


def decode_envelope(data: bytes) -> Envelope:
    """Parse an envelope from :func:`encode_envelope` output.

    Top-level fields this decoder does not know are ignored (forward
    compatibility: a newer encoder may annotate envelopes); unknown
    *metadata* keys still raise, because metadata is what the ordering
    protocols act on and must never be silently dropped.
    """
    try:
        document = json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed wire envelope: {exc}") from exc
    version = document.get("v")
    if version != WIRE_VERSION:
        raise ProtocolError(f"unsupported wire version: {version!r}")
    try:
        sender, seqno = document["id"]
        message = Message(
            MessageId(sender, seqno),
            document["op"],
            _decode_value(document["payload"]),
        )
        metadata = _decode_metadata(document["meta"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed wire envelope: {exc}") from exc
    return Envelope(message, metadata)
