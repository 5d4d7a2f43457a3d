"""Compact JSON through the standard library's C encoder and scanner.

Serving-wire frames (:mod:`repro.serve.wire`) and session tokens
(:meth:`repro.shard.router.Session.export_token`) are compact JSON: no
space after a separator, ASCII-only output.  ``json.dumps`` and
``JSONEncoder.encode`` build a new C encoder (and a circular-reference
table) on every call, and ``json.loads`` wraps the C scanner in two
regular-expression passes.  Here the encoder and the scanner are built
once, at import, and called directly: the same C code, so the same bytes
out and the same documents in.

No circular-reference check: what goes through :func:`dumps` is a tree
the caller built from decoded JSON, labels and scalars.  A check table
could not be shared across calls either — the C encoder leaves its
entries behind when it raises mid-document, so a later, acyclic document
would be refused as circular.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from json.scanner import make_scanner
from typing import Any


def _unserializable(value: Any) -> Any:
    # `JSONEncoder.default`'s refusal, word for word.
    raise TypeError(
        f"Object of type {value.__class__.__name__} is not JSON serializable"
    )


if c_make_encoder is not None:
    # `JSONEncoder.iterencode`'s own call: markers, default, string
    # escaper, indent, key and item separators, sort_keys, skipkeys,
    # allow_nan.
    _encode = c_make_encoder(
        None, _unserializable, encode_basestring_ascii, None,
        ":", ",", False, False, True,
    )

    def dumps(document: Any) -> str:
        """``json.dumps(document, separators=(",", ":"))``, one C call."""
        return "".join(_encode(document, 0))

else:  # pragma: no cover - interpreters without the C accelerator
    dumps = json.JSONEncoder(separators=(",", ":")).encode

_scan = make_scanner(json.JSONDecoder())


def loads(text: str) -> Any:
    """``json.loads(text)``: one scanner call when ``text`` is one bare
    JSON value.

    Anything the scanner does not consume whole — whitespace padding,
    trailing data, a byte-order mark, malformed input — is handed to
    ``json.loads``, so what is accepted and every error's text are the
    standard library's own.
    """
    try:
        document, end = _scan(text, 0)
        if end == len(text):
            return document
    except (StopIteration, ValueError):
        pass
    return json.loads(text)
