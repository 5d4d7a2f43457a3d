"""Length-prefixed JSON framing for the serving layer.

One frame = a 4-byte big-endian length followed by that many body bytes:
UTF-8 JSON of a flat dict whose values go through the envelope codec's
structural value encoding (:func:`repro.runtime.codec.encode_value`), so
:class:`~repro.types.MessageId` labels and label sets cross the client
wire exactly as they cross the replica wire.

Request documents carry ``t`` (the request type) and ``rid`` (a
client-chosen correlation id echoed on the reply) — nothing in the
framing layer assumes requests are answered in order, which is what
makes pipelining possible.  Unknown document fields are preserved by
:func:`decode_frame` and ignored by the server, mirroring the envelope
codec's forward-compatibility rule.  Every answered ``get`` carries the
:data:`FIELD_REPLICA`/``shard`` fields naming the member that served it.

The frame length is bounded (:data:`MAX_FRAME`): a malformed or
malicious length prefix must not make the server allocate gigabytes.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional

from repro.errors import ProtocolError
from repro.runtime.codec import decode_value, encode_value

#: Serving-wire schema version, carried by ``hello`` replies.
SERVE_WIRE_VERSION = 1

#: Upper bound on a single frame's payload, in bytes.
MAX_FRAME = 4 * 1024 * 1024

_LENGTH_BYTES = 4

#: Frame type of a load-shed answer: the server refused (queue full) or
#: abandoned (deadline passed before execution) the request instead of
#: stalling silently.  Fields: ``rid``, ``reason`` (``"queue-full"`` or
#: ``"deadline"``), ``retry_after`` (suggested back-off, seconds) and
#: ``queue_depth``.  Nothing was applied — the request is safe to retry.
FRAME_OVERLOAD = "overload"

#: Default client back-off carried by ``overload`` frames, in seconds.
DEFAULT_OVERLOAD_RETRY_AFTER = 0.1

#: Reply fields identifying which member answered a get: ``replica``
#: (the member id) and ``shard`` (its shard).
FIELD_REPLICA = "replica"


def encode_frame_body(document: Dict[str, Any]) -> bytes:
    """Serialize a frame document to body bytes (no length prefix)."""
    encoded = {key: encode_value(value) for key, value in document.items()}
    return json.dumps(encoded, separators=(",", ":")).encode("utf-8")


def encode_frame(document: Dict[str, Any]) -> bytes:
    """Serialize one frame document to length-prefixed bytes."""
    body = encode_frame_body(document)
    if len(body) > MAX_FRAME:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME={MAX_FRAME}"
        )
    return len(body).to_bytes(_LENGTH_BYTES, "big") + body


def decode_frame(body: bytes) -> Dict[str, Any]:
    """Parse one frame body (the bytes after the length prefix)."""
    try:
        document = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed wire frame: {exc}") from exc
    if not isinstance(document, dict):
        raise ProtocolError("malformed wire frame: not an object")
    return {key: decode_value(value) for key, value in document.items()}


async def read_frame(
    reader: asyncio.StreamReader,
) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    EOF in the middle of a frame, an oversized length prefix, or a body
    that does not parse all raise :class:`ProtocolError` — the connection
    is unusable past any of them.
    """
    body = await read_frame_bytes(reader)
    if body is None:
        return None
    return decode_frame(body)


async def read_frame_bytes(
    reader: asyncio.StreamReader,
) -> Optional[bytes]:
    """Read one raw frame body; ``None`` on clean EOF at a boundary.

    The undecoded half of :func:`read_frame` — the fault-injecting proxy
    uses it to forward bodies verbatim without re-encoding.
    """
    try:
        prefix = await reader.readexactly(_LENGTH_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-frame") from exc
    length = int.from_bytes(prefix, "big")
    if length > MAX_FRAME:
        raise ProtocolError(
            f"incoming frame of {length} bytes exceeds MAX_FRAME={MAX_FRAME}"
        )
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc


def write_frame(
    writer: asyncio.StreamWriter, document: Dict[str, Any]
) -> None:
    """Queue one frame on ``writer`` (callers await ``writer.drain()``)."""
    writer.write(encode_frame(document))
