"""Canonical compact JSON for span payloads.

Semantics parity: /root/reference/src/exstruct/io/__init__.py:92-128
(`dict_without_empty_values`): None / "" / [] / {} values are stripped
recursively before serialization. Span ``text`` payloads use compact
separators and ``ensure_ascii=False`` so Unicode survives verbatim, making
the canonical form byte-stable for the span-equality invariant.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring

# json.dumps(..., ensure_ascii=False, separators=(",", ":")) builds a new
# JSONEncoder and C encoder per call; build that same C encoder once.
# ``"".join(encode_compact(obj, 0))`` is that dump.
encode_compact = c_make_encoder(
    None, json.JSONEncoder().default, encode_basestring, None, ":", ",",
    False, False, True,
)

_EMPTIES = (None, "", [], {})


def dict_without_empty_values(obj: object) -> object:
    if isinstance(obj, dict):
        return {
            k: dict_without_empty_values(v)
            for k, v in obj.items()
            if not _is_empty(v)
        }
    if isinstance(obj, (list, tuple)):
        return [dict_without_empty_values(v) for v in obj if not _is_empty(v)]
    return obj


def _is_empty(v: object) -> bool:
    # Mirror the reference's `v not in [None, "", [], {}]` check, but avoid
    # the bool/int equality pitfall: 0 == False compares unequal to all four
    # sentinels there too, so only exact empties are dropped.
    if v is None:
        return True
    if isinstance(v, str) and v == "":
        return True
    if isinstance(v, (list, tuple)) and len(v) == 0:
        return True
    if isinstance(v, dict) and len(v) == 0:
        return True
    return False


def canonical_json(obj: object) -> str:
    """Compact deterministic JSON (insertion-ordered keys, no ASCII escapes)."""
    return "".join(encode_compact(dict_without_empty_values(obj), 0))
