"""Framing tests for the serve-layer wire protocol."""

from __future__ import annotations

import asyncio
import json
import re

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
from repro.shard.cluster import ShardedCluster
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
    equal only if labels came back labels and tuples tuples.  Floats
    compare by ``repr``: NaN equals NaN and ``-0.0`` differs from
    ``0.0``."""
    if type(value) is float:
        return (float, repr(value))
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


def walked(value):
    """The structural encoding walked all the way down, with no shortcut
    for plain members: the reference :func:`encode_value` must equal."""
    if isinstance(value, MessageId):
        return {"__mid__": [value.sender, value.seqno]}
    if isinstance(value, (frozenset, set)):
        return {"__set__": [walked(v) for v in sorted(value)]}
    if isinstance(value, tuple):
        return {"__tuple__": [walked(v) for v in value]}
    if isinstance(value, dict):
        return {"__dict__": [[walked(k), walked(v)] for k, v in value.items()]}
    if isinstance(value, list):
        return [walked(v) for v in value]
    return value


class TestEncodeShortcut:
    """Plain members of a dict or a list skip the walk, to the byte."""

    @settings(max_examples=80, deadline=None)
    @given(value=frame_values | flat_values)
    def test_the_encoding_is_the_full_walk(self, value):
        assert json.dumps(encode_value(value)) == json.dumps(walked(value))

    def test_a_barrier_read_value_keeps_its_key_order(self):
        value = {f"k{i}": i if i % 2 else f"v{i}" for i in range(64, 0, -1)}
        value["k0"] = None
        assert encode_value(value) == walked(value)


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


# -- the compiled codec against the formula it replaced -----------------

#: ``json.JSONEncoder(separators=(",", ":")).encode`` — what frame
#: bodies were built with before the encoder was compiled once.
REFERENCE_ENCODER = json.JSONEncoder(separators=(",", ":"))


def reference_body(document) -> bytes:
    walked = {key: encode_value(value) for key, value in document.items()}
    return REFERENCE_ENCODER.encode(walked).encode("utf-8")


def reference_decode(body: bytes):
    """``("ok", document)`` or ``("error", message)``, as ``decode_frame``
    answered through ``json.loads``."""
    try:
        document = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        return "error", f"malformed wire frame: {exc}"
    if not isinstance(document, dict):
        return "error", "malformed wire frame: not an object"
    try:
        return "ok", {
            key: decode_value(value) for key, value in document.items()
        }
    except ProtocolError as exc:
        return "error", str(exc)


# Strings the escaper must get right: non-ASCII (two-, three- and
# four-byte UTF-8), control characters, quotes and backslashes, and lone
# surrogates (sent as `\udXXX` escapes).  A high surrogate followed by a
# low one is not lone: JSON reads the two escapes back as one character.
PAIRED_SURROGATES = re.compile("[\ud800-\udbff][\udc00-\udfff]")
awkward_text = st.text(
    st.characters()
    | st.sampled_from('\x00\x1f\x7f"\\/ é€😀')
    | st.integers(0xD800, 0xDFFF).map(chr),
    max_size=8,
).filter(lambda text: not PAIRED_SURROGATES.search(text))
wide_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**64, 2**200)
    | st.integers(-(2**200), -(2**64))
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | awkward_text
)
wide_labels = st.builds(MessageId, awkward_text, st.integers(0, 2**70))
wide_values = st.recursive(
    wide_scalars | wide_labels | st.frozensets(wide_labels, max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(awkward_text, children, max_size=3)
    | st.dictionaries(st.integers() | wide_labels, children, max_size=3),
    max_leaves=10,
)
wide_documents = st.dictionaries(awkward_text, wide_values, max_size=6)


class TestCompiledCodec:
    """The encoder and scanner built once give the per-call codec's bytes
    and accept and refuse what it did, with the same error text."""

    @settings(max_examples=300, deadline=None)
    @given(document=wide_documents)
    def test_bodies_equal_the_json_encoder_formula(self, document):
        body = encode_frame_body(document)
        assert body == reference_body(document)
        decoded = decode_frame(body)
        verdict, expected = reference_decode(body)
        assert verdict == "ok" and typed(decoded) == typed(expected)
        assert typed(decoded) == typed(document)

    @pytest.mark.parametrize(
        "body",
        [
            b' {"t":"get"}',
            b'{"t":"get"} ',
            b'\t\r\n {"t":"get","rid":1}\n',
            b'{"t":"get"}{"t":"put"}',
            b'{"t":"get"}x',
            b'{"t":"get"}\x00',
            b"",
            b" ",
            b"[1,2]",
            b'"hello"',
            b"null",
            b"7",
            b"\xff\xfe",
            b'{"t":"\xc3"}',
            b'\xef\xbb\xbf{"t":"get"}',
            b'{"v":NaN}',
            b'{"v":Infinity,"w":-Infinity}',
            b'{"v":1e400}',
            b'{"v":' + b"7" * 5000 + b"}",
            b'{"v":' + b"7" * 400 + b"}",
            b'{"s":"\\ud800","u":"\\u00e9"}',
            b'{"t":"a\x01"}',
            b'{"t":"get",}',
            b'{"t" "get"}',
            b'{"a":1,"a":2}',
            b"{}",
            b'{"mid":{"__mid__":["s0n0",7]},"x":[1,{"__set__":[2]}]}',
            b'{"bad":{"__nope__":1}}',
        ],
        ids=[
            "leading-space", "trailing-space", "padded-both-sides",
            "trailing-object", "trailing-garbage", "trailing-nul",
            "empty", "only-space", "array", "string", "null", "number",
            "invalid-utf8", "truncated-utf8", "utf8-bom", "nan",
            "infinities", "huge-float", "5000-digit-int", "400-digit-int",
            "escapes", "control-char", "trailing-comma", "missing-colon",
            "duplicate-key", "empty-object", "tagged-and-nested",
            "unknown-tag",
        ],
    )
    def test_edge_bodies_are_judged_as_json_loads_judges_them(self, body):
        verdict, expected = reference_decode(body)
        if verdict == "ok":
            assert typed(decode_frame(body)) == typed(expected)
        else:
            with pytest.raises(ProtocolError) as refused:
                decode_frame(body)
            assert str(refused.value) == expected

    def test_well_formed_bodies_never_reach_json_loads(self, monkeypatch):
        def fallback(*args, **kwargs):
            raise AssertionError("json.loads called")

        monkeypatch.setattr(json, "loads", fallback)
        for document in (
            {"t": "get", "key": "k", "rid": 1, "ttl": 30.0},
            {"t": "reply", "ok": True, "label": MessageId("s0n0", 7),
             "value": None, "token": TOKEN},
            {},
        ):
            assert decode_frame(encode_frame_body(document)) == document
        # The patch is live: a padded body is the fallback's to judge.
        with pytest.raises(AssertionError, match="json.loads called"):
            decode_frame(b' {"t":"get"}')

    def test_frames_and_tokens_are_not_built_per_call(self, monkeypatch):
        def per_call(*args, **kwargs):
            raise AssertionError("per-call JSON encoder used")

        monkeypatch.setattr(json, "dumps", per_call)
        monkeypatch.setattr(json.JSONEncoder, "encode", per_call)
        body = encode_frame_body({"t": "reply", "label": MessageId("a", 1)})
        assert body == b'{"t":"reply","label":{"__mid__":["a",1]}}'
        assert token_of({0: {MessageId("s0n0", 7)}}).startswith('{"v":1,')


def token_of(frontier) -> str:
    session = ShardedCluster(shards=2).router.session("c0")
    session.frontier = {
        shard: frozenset(labels) for shard, labels in frontier.items()
    }
    return session.export_token()


class TestTokenBytes:
    """`Session.export_token`, pinned byte for byte: shards in order,
    each shard's labels sorted, empty shards left out."""

    def test_two_shard_frontier(self):
        token = token_of({
            1: {MessageId("s1n2", 3)},
            0: {MessageId("s0n0", 7)},
        })
        assert token == TOKEN

    def test_several_labels_a_shard_and_an_empty_shard(self):
        token = token_of({
            1: set(),
            0: {MessageId("s0n2", 10), MessageId("s0n0", 9),
                MessageId("s0n2", 2)},
        })
        assert token == (
            '{"v":1,"session":"c0","frontier":'
            '{"0":[["s0n0",9],["s0n2",2],["s0n2",10]]}}'
        )
