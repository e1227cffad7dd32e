"""Chunked / random-access readers over extracted span tables.

The Dataset-native equivalents of the reference's MCP artifact readers
(/root/reference/src/exstruct/mcp/chunk_reader.py:41-427 `read_json_chunk`
with byte-bounded cursor pagination and row/col filters;
mcp/sheet_reader.py:94-256 `read_range` / `read_cells` / `read_formulas`
A1-addressed random access). Instead of re-reading a JSON artifact, these
operate on the extracted output table (doc_id, spans) — point lookups
filter on doc_id, pagination is cursor-driven over span offsets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .functions.a1 import alpha_to_col_index, parse_range_zero_based


@dataclass(frozen=True)
class Cursor:
    """Opaque continuation token: next span offset within a document."""

    doc_id: str
    next_offset: int

    def encode(self) -> str:
        import base64

        return base64.urlsafe_b64encode(
            json.dumps({"doc_id": self.doc_id, "next_offset": self.next_offset}).encode()
        ).decode()

    @staticmethod
    def decode(token: str) -> "Cursor":
        import base64

        payload = json.loads(base64.urlsafe_b64decode(token.encode()))
        return Cursor(doc_id=payload["doc_id"], next_offset=payload["next_offset"])


def _doc_spans(ds, doc_id: str) -> list[dict]:
    """Fetch one document's spans (point lookup; predicate-pushed filter)."""
    if "'" in doc_id or "\\" in doc_id:
        # Quotes/backslashes would break (or change) the expression string —
        # use a callable predicate instead of interpolating.
        wanted = doc_id
        filtered = ds.filter(lambda row: row["doc_id"] == wanted)
    else:
        filtered = ds.filter(expr=f"doc_id == '{doc_id}'")
    rows = filtered.take(1)
    if not rows:
        raise KeyError(f"doc_id not found: {doc_id}")
    return sorted(rows[0]["spans"], key=lambda s: s["offset"])


def read_span_chunk(
    ds,
    doc_id: str,
    *,
    max_bytes: int = 64 * 1024,
    cursor: str | None = None,
    kinds: list[str] | None = None,
    sheet: str | None = None,
) -> dict:
    """Byte-bounded chunk of a document's spans with cursor pagination.

    Mirrors `read_json_chunk` semantics: a chunk never exceeds ``max_bytes``
    of span text (unless a single span does), filters apply before
    pagination, and the returned cursor resumes exactly after the last
    included span.
    """
    spans = _doc_spans(ds, doc_id)
    start_offset = 0
    if cursor is not None:
        decoded = Cursor.decode(cursor)
        if decoded.doc_id != doc_id:
            raise ValueError("cursor does not belong to this doc_id")
        start_offset = decoded.next_offset

    selected: list[dict] = []
    size = 0
    next_cursor: str | None = None
    for span in spans:
        if span["offset"] < start_offset:
            continue
        if kinds is not None and span["kind"] not in kinds:
            continue
        if sheet is not None and span["media_ref"] != sheet:
            continue
        span_size = len((span["text"] or "").encode("utf-8"))
        if selected and size + span_size > max_bytes:
            next_cursor = Cursor(doc_id=doc_id, next_offset=span["offset"]).encode()
            break
        selected.append(span)
        size += span_size
    return {
        "doc_id": doc_id,
        "spans": selected,
        "bytes": size,
        "cursor": next_cursor,
        "eof": next_cursor is None,
    }


def _rows_by_sheet(spans: list[dict], sheet: str) -> dict[int, dict]:
    rows: dict[int, dict] = {}
    for span in spans:
        if span["kind"] != "cell_row" or span["media_ref"] != sheet:
            continue
        payload = json.loads(span["text"])
        rows[payload["r"]] = payload
    return rows


def read_range(ds, doc_id: str, sheet: str, range_a1: str) -> list[list]:
    """Dense value matrix for an A1 range (None for empty cells)."""
    bounds = parse_range_zero_based(range_a1)
    if bounds is None:
        raise ValueError(f"Invalid range: {range_a1}")
    rows = _rows_by_sheet(_doc_spans(ds, doc_id), sheet)
    out: list[list] = []
    for r in range(bounds.r1 + 1, bounds.r2 + 2):
        payload = rows.get(r, {"c": {}})
        cells = payload.get("c", {})
        out.append(
            [cells.get(str(c)) for c in range(bounds.c1, bounds.c2 + 1)]
        )
    return out


def read_cells(ds, doc_id: str, sheet: str, refs: list[str]) -> dict[str, object]:
    """Point lookups for A1 cell references (missing cells → None)."""
    rows = _rows_by_sheet(_doc_spans(ds, doc_id), sheet)
    out: dict[str, object] = {}
    for ref in refs:
        bounds = parse_range_zero_based(ref)
        if bounds is None or bounds.r1 != bounds.r2 or bounds.c1 != bounds.c2:
            out[ref] = None
            continue
        payload = rows.get(bounds.r1 + 1)
        out[ref] = (
            payload.get("c", {}).get(str(bounds.c1)) if payload is not None else None
        )
    return out


def read_formulas(
    ds, doc_id: str, sheet: str, range_a1: str | None = None
) -> dict[str, list[list[int]]]:
    """Formula → positions map, optionally restricted to a range."""
    spans = _doc_spans(ds, doc_id)
    result: dict[str, list[list[int]]] = {}
    bounds = parse_range_zero_based(range_a1) if range_a1 else None
    for span in spans:
        if span["kind"] != "formulas_map" or span["media_ref"] != sheet:
            continue
        payload = json.loads(span["text"])
        for formula, positions in payload.items():
            kept = [
                pos
                for pos in positions
                if bounds is None
                or (
                    bounds.r1 + 1 <= pos[0] <= bounds.r2 + 1
                    and bounds.c1 <= pos[1] <= bounds.c2
                )
            ]
            if kept:
                result[formula] = kept
    return result


__all__ = [
    "Cursor",
    "alpha_to_col_index",
    "read_cells",
    "read_formulas",
    "read_range",
    "read_span_chunk",
]
