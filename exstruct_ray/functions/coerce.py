"""Numeric coercion preserving printed format.

Semantics parity: /root/reference/src/exstruct/core/cells.py:1946-1969
(`_coerce_numeric_preserve_format`): integer-looking strings become int,
`d*.d+` strings become float via Decimal quantization (preserving scale so
"1.50" -> 1.5 exactly), everything else stays a string. Scientific notation
("1e5") deliberately stays a string.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation
import re

INT_RE = re.compile(r"^[+-]?\d+$")
FLOAT_RE = re.compile(r"^[+-]?\d*\.\d+$")
# Digits the default decimal context quantizes without InvalidOperation.
_EXACT_DIGITS = 28


def coerce_numeric_preserve_format(val: str) -> int | float | str:
    if INT_RE.match(val):
        try:
            return int(val)
        except Exception:
            return val
    if FLOAT_RE.match(val):
        if len(val) <= _EXACT_DIGITS:
            # Quantizing to the string's own scale keeps its exact value, so
            # float() gives the same double; only a longer digit string can
            # overflow the decimal context and stay a string.
            return float(val)
        try:
            dec = Decimal(val)
            exponent = int(dec.as_tuple().exponent)
            scale = max(1, -exponent)
            quantized = dec.quantize(Decimal("1." + "0" * scale))
            return float(quantized)
        except (InvalidOperation, Exception):
            return val
    return val
