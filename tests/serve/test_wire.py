"""Framing tests for the serve-layer wire protocol."""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.serve.wire import (
    MAX_FRAME,
    decode_frame,
    decode_value,
    encode_frame,
    encode_frame_body,
    encode_value,
    read_frame,
    write_frame,
)
from repro.types import MessageId


def reader_with(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def read_all(data: bytes):
    async def scenario():
        reader = reader_with(data)
        frames = []
        while True:
            frame = await read_frame(reader)
            if frame is None:
                return frames
            frames.append(frame)

    return asyncio.run(scenario())


class TestRoundTrip:
    def test_simple_document(self):
        blob = encode_frame({"t": "put", "key": "k", "value": 3})
        assert decode_frame(blob[4:]) == {"t": "put", "key": "k", "value": 3}

    def test_length_prefix_is_big_endian_body_length(self):
        blob = encode_frame({"t": "bye"})
        assert int.from_bytes(blob[:4], "big") == len(blob) - 4

    def test_structured_values_survive(self):
        label = MessageId("s0n1", 7)
        blob = encode_frame({"t": "r", "label": label,
                             "labels": frozenset({label})})
        doc = decode_frame(blob[4:])
        assert doc["label"] == label
        assert doc["labels"] == frozenset({label})

    def test_stream_of_frames(self):
        blob = encode_frame({"n": 1}) + encode_frame({"n": 2})
        assert read_all(blob) == [{"n": 1}, {"n": 2}]

    def test_write_frame_feeds_read_frame(self):
        async def scenario():
            reader = asyncio.StreamReader()

            class _Writer:
                def write(self, data):
                    reader.feed_data(data)

            write_frame(_Writer(), {"t": "hello", "session": "s"})
            reader.feed_eof()
            return await read_frame(reader)

        assert asyncio.run(scenario()) == {"t": "hello", "session": "s"}


class TestEdges:
    def test_clean_eof_returns_none(self):
        assert read_all(b"") == []

    def test_mid_prefix_eof_raises(self):
        with pytest.raises(ProtocolError):
            read_all(b"\x00\x00")

    def test_mid_body_eof_raises(self):
        blob = encode_frame({"t": "x"})
        with pytest.raises(ProtocolError):
            read_all(blob[:-1])

    def test_oversized_outbound_rejected(self):
        with pytest.raises(ProtocolError):
            encode_frame({"blob": "x" * (MAX_FRAME + 1)})

    def test_oversized_inbound_rejected_before_read(self):
        huge = (MAX_FRAME + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError):
            read_all(huge + b"x")

    def test_non_object_body_rejected(self):
        import json

        body = json.dumps([1, 2]).encode()
        with pytest.raises(ProtocolError):
            read_all(len(body).to_bytes(4, "big") + body)

    def test_garbage_body_rejected(self):
        body = b"{not json"
        with pytest.raises(ProtocolError):
            read_all(len(body).to_bytes(4, "big") + body)

    def test_unknown_fields_pass_through(self):
        # Forward compatibility: framing does not police the schema.
        blob = encode_frame({"t": "put", "future_field": [1, 2]})
        assert decode_frame(blob[4:])["future_field"] == [1, 2]


def typed(value):
    """``value`` as a hashable tree tagged with every node's exact type:
    equal only if labels came back labels and tuples tuples."""
    if isinstance(value, (tuple, list)) and type(value) is not MessageId:
        return (type(value), tuple(typed(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return (type(value), frozenset(typed(v) for v in value))
    if isinstance(value, dict):
        return (dict, frozenset((typed(k), typed(v)) for k, v in value.items()))
    return (type(value), value)


# Frame documents: string keys (request/reply fields) over the value
# domain the wire carries.
frame_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**53), 2**53)
    | st.text(max_size=8)
    | st.builds(MessageId, st.text(min_size=1, max_size=4), st.integers(0, 999)),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3)
    | st.lists(children, max_size=3).map(tuple),
    max_leaves=8,
)
frame_documents = st.dictionaries(
    st.text(min_size=1, max_size=8), frame_values, max_size=6
)


class TestFrameBodies:
    @settings(max_examples=60, deadline=None)
    @given(document=frame_documents)
    def test_frame_bodies_round_trip(self, document):
        assert decode_frame(encode_frame_body(document)) == document


labels = st.builds(
    MessageId, st.text(min_size=1, max_size=4), st.integers(0, 999)
)
scalars = (
    st.none() | st.booleans() | st.integers(-(2**63), 2**63)
    | st.floats(allow_nan=False) | st.text(max_size=8)
)
# What a reply or request field holds: a scalar, a label, a label set,
# a tuple, or a dict keyed by something other than strings.
flat_values = (
    scalars
    | labels
    | st.frozensets(labels, max_size=4)
    | st.lists(scalars | labels, max_size=3).map(tuple)
    | st.dictionaries(st.integers(0, 9) | labels, scalars, max_size=3)
)
flat_documents = st.dictionaries(
    st.text(min_size=1, max_size=8), flat_values, max_size=8
)


class TestCodecFastPath:
    """Scalars skip the codec's structural walk; the bytes must not move."""

    @settings(max_examples=200, deadline=None)
    @given(document=flat_documents)
    def test_body_equals_the_full_walk(self, document):
        walked = json.dumps(
            {key: encode_value(value) for key, value in document.items()},
            separators=(",", ":"),
        ).encode("utf-8")
        body = encode_frame_body(document)
        assert body == walked
        assert decode_frame(body) == document
        assert decode_frame(body) == {
            key: decode_value(value)
            for key, value in json.loads(body).items()
        }

    def test_a_label_is_not_mistaken_for_a_plain_tuple(self):
        # MessageId is a tuple subclass: only the exact scalar types
        # may skip the walk.
        body = encode_frame_body({"label": MessageId("s0n0", 7), "n": True})
        assert body == b'{"label":{"__mid__":["s0n0",7]},"n":true}'

    def test_nested_labels_come_back_as_labels(self):
        # A label equals the plain pair it is made of, so `==` alone
        # cannot tell a label from a `__tuple__`: compare exact types.
        a, b = MessageId("s0n0", 7), MessageId("s1n2", 3)
        document = {
            "pair": (a, ("s0n0", 7)),
            "nested": ((b,), [a]),
            "set": frozenset({a, b}),
            "keys": {a: 1, (b, 2): "x"},
        }
        decoded = decode_frame(encode_frame_body(document))
        assert typed(decoded) == typed(document)
        assert type(decoded["pair"][0]) is MessageId
        assert type(decoded["pair"][1]) is tuple


#: A session token as `Session.export_token` mints it.
TOKEN = '{"v":1,"session":"c0","frontier":{"0":[["s0n0",7]],"1":[["s1n2",3]]}}'


class TestGoldenBytes:
    """The JSON wire, pinned byte for byte.

    The literals were captured from `encode_frame` at the commit before
    the binary codec was deleted.  They hold the benchmark's
    `serve.wire.bytes_in_per_op` / `bytes_out_per_op` in place: a change
    to `wire.py` or the value encoding that moves one byte of a frame
    fails here first.
    """

    def test_put_request_with_ttl_and_opid(self):
        document = {
            "t": "put", "key": "k1", "value": "c0:7", "opid": "c0:7",
            "rid": 3, "ttl": 30.0,
        }
        assert encode_frame(document) == (
            b'\x00\x00\x00F{"t":"put","key":"k1","value":"c0:7",'
            b'"opid":"c0:7","rid":3,"ttl":30.0}'
        )

    def test_put_reply_with_label_and_token(self):
        document = {
            "t": "reply", "rid": 3, "ok": True,
            "label": MessageId("s0n0", 7), "token": TOKEN,
        }
        assert encode_frame(document) == (
            b'\x00\x00\x00\x9e{"t":"reply","rid":3,"ok":true,'
            b'"label":{"__mid__":["s0n0",7]},'
            b'"token":"{\\"v\\":1,\\"session\\":\\"c0\\",\\"frontier\\":'
            b'{\\"0\\":[[\\"s0n0\\",7]],\\"1\\":[[\\"s1n2\\",3]]}}"}'
        )

    def test_barrier_read_reply_with_label_set_and_value_dict(self):
        document = {
            "t": "reply", "rid": 4, "ok": True,
            "value": {"k1": "c0:7", "k2": 5, "k3": None},
            "shards": [0, 1], "rounds": 1,
            "barrier_labels": {
                "0": [MessageId("s0n0", 8)], "1": [MessageId("s1n0", 4)],
            },
            "labels": frozenset({MessageId("s1n2", 3), MessageId("s0n0", 7)}),
            "token": TOKEN,
        }
        assert encode_frame(document) == (
            b'\x00\x00\x01v{"t":"reply","rid":4,"ok":true,'
            b'"value":{"__dict__":[["k1","c0:7"],["k2",5],["k3",null]]},'
            b'"shards":[0,1],"rounds":1,'
            b'"barrier_labels":{"__dict__":[["0",[{"__mid__":["s0n0",8]}]],'
            b'["1",[{"__mid__":["s1n0",4]}]]]},'
            b'"labels":{"__set__":[{"__mid__":["s0n0",7]},'
            b'{"__mid__":["s1n2",3]}]},'
            b'"token":"{\\"v\\":1,\\"session\\":\\"c0\\",\\"frontier\\":'
            b'{\\"0\\":[[\\"s0n0\\",7]],\\"1\\":[[\\"s1n2\\",3]]}}"}'
        )
        assert decode_frame(encode_frame(document)[4:]) == document


class TestValueRoundTrip:
    """The structural value encoding on its own, away from frames."""

    @settings(max_examples=60, deadline=None)
    @given(value=frame_values)
    def test_value_round_trips_exactly(self, value):
        assert decode_value(encode_value(value)) == value

    @settings(max_examples=60, deadline=None)
    @given(value=frame_values | flat_values)
    def test_value_round_trips_with_its_types(self, value):
        assert typed(decode_value(encode_value(value))) == typed(value)

    @pytest.mark.parametrize(
        "value",
        [
            (MessageId("a", 1),),
            (("x", MessageId("a", 1)), 2),
            frozenset({MessageId("a", 1), MessageId("b", 0)}),
            {MessageId("a", 1): "v"},
            {(MessageId("a", 1), 0): [MessageId("b", 2)]},
        ],
        ids=["in-tuple", "in-nested-tuple", "in-frozenset", "dict-key",
             "in-tuple-key"],
    )
    def test_nested_labels_decode_as_labels(self, value):
        assert typed(decode_value(encode_value(value))) == typed(value)

    def test_a_label_with_an_unhashable_part_is_malformed(self):
        with pytest.raises(ProtocolError):
            decode_value({"__mid__": [["s0n0"], 7]})

    @settings(max_examples=30, deadline=None)
    @given(label_set=st.frozensets(labels, max_size=4))
    def test_label_sets_round_trip(self, label_set):
        restored = decode_value(encode_value(label_set))
        assert restored == label_set
        assert isinstance(restored, frozenset)

    @settings(max_examples=30, deadline=None)
    @given(value=frame_values)
    def test_encoding_is_json_serializable(self, value):
        json.dumps(encode_value(value))  # must not raise

    def test_decode_value_wraps_malformed_structures(self):
        with pytest.raises(ProtocolError):
            decode_value({"__kind__": "no-such-kind", "data": 1})
