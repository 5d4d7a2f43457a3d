"""Length-prefixed JSON framing for the serving layer.

One frame = a 4-byte big-endian length followed by that many body bytes:
UTF-8 JSON of a flat dict whose values go through a structural value
encoding (:func:`encode_value`), so :class:`~repro.types.MessageId`
labels, label sets, tuples and non-string-keyed dicts survive the trip.

Request documents carry ``t`` (the request type) and ``rid`` (a
client-chosen correlation id echoed on the reply) — nothing in the
framing layer assumes requests are answered in order, which is what
makes pipelining possible.  Unknown document fields are preserved by
:func:`decode_frame` and ignored by the server, so a newer client may
annotate requests without breaking an older server.  Every answered
``get`` carries the :data:`FIELD_REPLICA`/``shard`` fields naming the
member that served it.

The frame length is bounded (:data:`MAX_FRAME`): a malformed or
malicious length prefix must not make the server allocate gigabytes.

Frames move in batches.  :class:`FrameReader` splits each ``read`` of a
stream into every complete frame it holds, so a pipelined burst is
parsed in one turn; a frame's values take the codec's structural walk
only when they are not plain JSON scalars, and the bytes are the same
either way.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Dict, List, Optional

from repro.errors import ProtocolError
from repro.types import MessageId

#: Serving-wire schema version, carried by ``hello`` replies.
SERVE_WIRE_VERSION = 1

#: Upper bound on a single frame's payload, in bytes.
MAX_FRAME = 4 * 1024 * 1024

_LENGTH_BYTES = 4
_PREFIX = struct.Struct(">I")

#: Bytes one :meth:`FrameReader.read` asks its stream for: the default
#: ``asyncio.StreamReader`` limit, so a connection holds at most one
#: read's worth of parsed, undispatched frames.
READ_CHUNK = 64 * 1024

#: Value types that cross as themselves.  Exact types: a ``MessageId``
#: is a tuple subclass and must take the walk.
_PLAIN = frozenset({str, int, float, bool, type(None)})
#: What ``json.loads`` returns that may hold a tagged value.
_NESTED = frozenset({dict, list})
_ENCODER = json.JSONEncoder(separators=(",", ":"))

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


def encode_value(value: Any) -> Any:
    """Encode one value into JSON-compatible structures.

    Scalars pass through; ``MessageId``, sets, tuples and non-string-keyed
    dicts become tagged objects (``__mid__``/``__set__``/…).  Raises
    :class:`ProtocolError` on anything JSON cannot carry.  A ``MessageId``
    is a tuple, so it is tested first.
    """
    if isinstance(value, MessageId):
        return {"__mid__": [value.sender, value.seqno]}
    if isinstance(value, (frozenset, set)):
        return {"__set__": [encode_value(v) for v in sorted(value)]}
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(v) for v in value]}
    if isinstance(value, dict):
        return {
            "__dict__": [
                [encode_value(k), encode_value(v)] for k, v in value.items()
            ]
        }
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    raise ProtocolError(f"cannot encode payload value: {value!r}")


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if "__mid__" in value:
            sender, seqno = value["__mid__"]
            label = MessageId(sender, seqno)
            hash(label)  # an unhashable part is a malformed label
            return label
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


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value` (post-``json.loads`` structures)."""
    try:
        return _decode_value(value)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed wire value: {exc}") from exc


def encode_frame_body(document: Dict[str, Any]) -> bytes:
    """Serialize a frame document to body bytes (no length prefix).

    Byte-identical to encoding every value with :func:`encode_value`:
    only the values that walk would change are sent through it.
    """
    for value in document.values():
        if type(value) not in _PLAIN:
            document = {
                key: value if type(value) in _PLAIN else encode_value(value)
                for key, value in document.items()
            }
            break
    return _ENCODER.encode(document).encode("utf-8")


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
    for value in document.values():
        if type(value) in _NESTED:
            return {
                key: decode_value(value) if type(value) in _NESTED else value
                for key, value in document.items()
            }
    return document


class FrameReader:
    """Every complete frame body a stream's next read holds, in order.

    One :meth:`read` parses every whole frame already received, so a
    pipelined burst costs one read and one turn, not one per frame.
    What it holds between reads is the tail of one frame; an oversized
    length prefix is refused as soon as it arrives, before its body is
    buffered.  A frame larger than :data:`READ_CHUNK` is read whole
    once its length is known.
    """

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self._reader = reader
        self._buffer = bytearray()

    async def read(self) -> Optional[List[bytes]]:
        """The next complete frame bodies; ``None`` on clean EOF.

        EOF inside a frame and an oversized length prefix raise
        :class:`ProtocolError` — after the frames that preceded them
        have been returned.
        """
        buffer = self._buffer
        while True:
            bodies = self._split()
            if bodies:
                return bodies
            if len(buffer) >= _LENGTH_BYTES:
                # The head frame's length is known and checked: wait for
                # exactly the rest of it.
                (length,) = _PREFIX.unpack_from(buffer)
                try:
                    buffer += await self._reader.readexactly(
                        _LENGTH_BYTES + length - len(buffer)
                    )
                except asyncio.IncompleteReadError as exc:
                    raise ProtocolError("connection closed mid-frame") from exc
                continue
            data = await self._reader.read(READ_CHUNK)
            if not data:
                if buffer:
                    raise ProtocolError("connection closed mid-frame")
                return None
            buffer += data

    def _split(self) -> List[bytes]:
        buffer = self._buffer
        size = len(buffer)
        bodies: List[bytes] = []
        start = 0
        while size - start >= _LENGTH_BYTES:
            (length,) = _PREFIX.unpack_from(buffer, start)
            if length > MAX_FRAME:
                if bodies:
                    break  # refused on the next read, after these
                raise ProtocolError(
                    f"incoming frame of {length} bytes exceeds "
                    f"MAX_FRAME={MAX_FRAME}"
                )
            end = start + _LENGTH_BYTES + length
            if end > size:
                break
            bodies.append(bytes(buffer[start + _LENGTH_BYTES:end]))
            start = end
        if start:
            del buffer[:start]
        return bodies


async def read_frame(
    reader: asyncio.StreamReader,
) -> Optional[Dict[str, Any]]:
    """Read exactly one frame; ``None`` on clean EOF at a frame boundary.

    For hand-written clients that want one reply at a time: nothing past
    the frame is consumed from ``reader``.  EOF in the middle of a frame,
    an oversized length prefix, or a body that does not parse all raise
    :class:`ProtocolError` — the connection is unusable past any of them.
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
        return decode_frame(await reader.readexactly(length))
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc


def write_frame(
    writer: asyncio.StreamWriter, document: Dict[str, Any]
) -> None:
    """Queue one frame on ``writer`` (callers await ``writer.drain()``)."""
    writer.write(encode_frame(document))
