"""Property-style round-trip and forward-compatibility tests for the codec.

``tests/runtime/test_codec.py`` pins the strictness rules (unknown
*metadata* keys are rejected — a protocol stamp we cannot decode is a
correctness hazard).  This module pins the complementary rules: encoding
is a faithful involution over the value domain, and unknown *top-level
envelope fields* are ignored on decode so an older node can read frames
minted by a newer one.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.runtime.codec import (
    decode_envelope,
    decode_value,
    encode_envelope,
    encode_value,
)
from repro.types import Envelope, Message, MessageId

# JSON-representable scalars the wire may carry as payload leaves.
scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**53), 2**53)
    | st.text(max_size=12)
)

# Structured values: scalars, labels, tuples, and (frozen)sets of labels,
# nested through lists and string-keyed dicts.
values = st.recursive(
    scalars
    | st.builds(MessageId, st.text(min_size=1, max_size=6), st.integers(0, 9999)),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3)
    | st.lists(children, max_size=3).map(tuple),
    max_leaves=10,
)

label_sets = st.frozensets(
    st.builds(MessageId, st.sampled_from("abc"), st.integers(0, 99)),
    max_size=4,
)


class TestValueRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(value=values)
    def test_value_round_trips_exactly(self, value):
        assert decode_value(encode_value(value)) == value

    @settings(max_examples=30, deadline=None)
    @given(labels=label_sets)
    def test_label_sets_round_trip(self, labels):
        restored = decode_value(encode_value(labels))
        assert restored == labels
        assert isinstance(restored, frozenset)

    @settings(max_examples=30, deadline=None)
    @given(value=values)
    def test_encoding_is_json_serializable(self, value):
        json.dumps(encode_value(value))  # must not raise

    def test_decode_value_wraps_malformed_structures(self):
        with pytest.raises(ProtocolError):
            decode_value({"__kind__": "no-such-kind", "data": 1})


class TestEnvelopeRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(
        sender=st.text(min_size=1, max_size=8),
        seqno=st.integers(0, 10**9),
        op=st.text(min_size=1, max_size=8),
        payload=values,
        epoch=st.none() | st.integers(0, 100),
    )
    def test_envelope_round_trips(self, sender, seqno, op, payload, epoch):
        metadata = {} if epoch is None else {"epoch": epoch}
        env = Envelope(Message(MessageId(sender, seqno), op, payload), metadata)
        restored = decode_envelope(encode_envelope(env))
        assert restored.msg_id == env.msg_id
        assert restored.message.operation == op
        assert restored.message.payload == payload
        assert restored.metadata == metadata


class TestForwardCompatibility:
    def wire_document(self) -> dict:
        env = Envelope(Message(MessageId("a", 0), "op", {"k": 1}))
        return json.loads(encode_envelope(env).decode("utf-8"))

    def test_unknown_top_level_field_ignored(self):
        document = self.wire_document()
        document["shiny_new_field"] = {"anything": [1, 2, 3]}
        restored = decode_envelope(json.dumps(document).encode("utf-8"))
        assert restored.msg_id == MessageId("a", 0)
        assert restored.message.payload == {"k": 1}

    @settings(max_examples=25, deadline=None)
    @given(
        extras=st.dictionaries(
            st.text(min_size=1, max_size=10).filter(
                lambda k: k not in {"v", "id", "op", "payload", "meta"}
            ),
            st.none() | st.integers() | st.text(max_size=5),
            max_size=4,
        )
    )
    def test_any_unknown_fields_ignored(self, extras):
        document = {**self.wire_document(), **extras}
        restored = decode_envelope(json.dumps(document).encode("utf-8"))
        assert restored.msg_id == MessageId("a", 0)

    def test_unknown_metadata_still_rejected(self):
        """Forward compatibility is top-level only: an undecodable
        protocol stamp must keep failing loudly."""
        document = self.wire_document()
        document["meta"] = {"mystery_stamp": 7}
        with pytest.raises(ProtocolError):
            decode_envelope(json.dumps(document).encode("utf-8"))
