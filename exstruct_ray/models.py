"""Output data model (plain dataclasses, no pydantic in the hot path).

Field names, types, and payload key order mirror the reference models
(/root/reference/src/exstruct/models/__init__.py:18-231) so that
``canonical_json(model.to_payload())`` is byte-identical to the reference's
``json.dumps(dict_without_empty_values(model.model_dump(exclude_none=True,
by_alias=True)))``. Backend metadata (provenance / approximation_level /
confidence) is stripped by default at serialization time, matching
ADR-0003's omission policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .functions.a1 import col_index_to_alpha

_BACKEND_METADATA_KEYS = frozenset(("provenance", "approximation_level", "confidence"))


def _present(payload: dict, include_backend_metadata: bool) -> dict:
    """The payload's non-None fields; backend metadata only when asked for."""
    if include_backend_metadata:
        return {k: v for k, v in payload.items() if v is not None}
    return {
        k: v
        for k, v in payload.items()
        if v is not None and k not in _BACKEND_METADATA_KEYS
    }


@dataclass
class CellRow:
    """One sparse row: 1-based row index, 0-based string column keys."""

    r: int
    c: dict[str, int | float | str]
    links: dict[str, str] | None = None

    def to_payload(self) -> dict:
        payload: dict = {"r": self.r, "c": self.c}
        if self.links is not None:
            payload["links"] = self.links
        return payload


@dataclass
class Shape:
    text: str
    l: int  # noqa: E741 - matches the reference field name
    t: int
    id: int | None = None
    w: int | None = None
    h: int | None = None
    rotation: float | None = None
    provenance: str | None = None
    approximation_level: str | None = None
    confidence: float | None = None
    kind: str = "shape"
    type: str | None = None

    def to_payload(self, *, include_backend_metadata: bool = False) -> dict:
        payload = {
            "id": self.id,
            "text": self.text,
            "l": self.l,
            "t": self.t,
            "w": self.w,
            "h": self.h,
            "rotation": self.rotation,
            "provenance": self.provenance,
            "approximation_level": self.approximation_level,
            "confidence": self.confidence,
            "kind": self.kind,
            "type": self.type,
        }
        return _present(payload, include_backend_metadata)


@dataclass
class Arrow:
    text: str
    l: int  # noqa: E741
    t: int
    id: int | None = None
    w: int | None = None
    h: int | None = None
    rotation: float | None = None
    provenance: str | None = None
    approximation_level: str | None = None
    confidence: float | None = None
    kind: str = "arrow"
    begin_arrow_style: int | None = None
    end_arrow_style: int | None = None
    begin_id: int | None = None
    end_id: int | None = None
    direction: str | None = None

    def to_payload(self, *, include_backend_metadata: bool = False) -> dict:
        payload = {
            "id": self.id,
            "text": self.text,
            "l": self.l,
            "t": self.t,
            "w": self.w,
            "h": self.h,
            "rotation": self.rotation,
            "provenance": self.provenance,
            "approximation_level": self.approximation_level,
            "confidence": self.confidence,
            "kind": self.kind,
            "begin_arrow_style": self.begin_arrow_style,
            "end_arrow_style": self.end_arrow_style,
            "begin_id": self.begin_id,
            "end_id": self.end_id,
            "direction": self.direction,
        }
        return _present(payload, include_backend_metadata)


@dataclass
class SmartArtNode:
    text: str
    kids: list["SmartArtNode"] = field(default_factory=list)

    def to_payload(self) -> dict:
        # Leaf nodes serialize as {"text": ...} with no "kids" key — the
        # reference golden (sample/smartart/sample_smartart.json) drops
        # empty child lists.
        payload: dict = {"text": self.text}
        if self.kids:
            payload["kids"] = [k.to_payload() for k in self.kids]
        return payload


@dataclass
class SmartArt:
    text: str
    l: int  # noqa: E741
    t: int
    layout: str
    id: int | None = None
    w: int | None = None
    h: int | None = None
    rotation: float | None = None
    provenance: str | None = None
    approximation_level: str | None = None
    confidence: float | None = None
    kind: str = "smartart"
    nodes: list[SmartArtNode] = field(default_factory=list)

    def to_payload(self, *, include_backend_metadata: bool = False) -> dict:
        payload = {
            "id": self.id,
            # empty container text drops, matching the reference golden
            "text": self.text or None,
            "l": self.l,
            "t": self.t,
            "w": self.w,
            "h": self.h,
            "rotation": self.rotation,
            "provenance": self.provenance,
            "approximation_level": self.approximation_level,
            "confidence": self.confidence,
            "kind": self.kind,
            "layout": self.layout,
            "nodes": [n.to_payload() for n in self.nodes],
        }
        return _present(payload, include_backend_metadata)


@dataclass
class ChartSeries:
    name: str
    name_range: str | None = None
    x_range: str | None = None
    y_range: str | None = None

    def to_payload(self) -> dict:
        payload = {
            "name": self.name,
            "name_range": self.name_range,
            "x_range": self.x_range,
            "y_range": self.y_range,
        }
        return {k: v for k, v in payload.items() if v is not None}


@dataclass
class Chart:
    name: str
    chart_type: str
    y_axis_title: str
    series: list[ChartSeries]
    l: int  # noqa: E741
    t: int
    title: str | None = None
    y_axis_range: list[float] = field(default_factory=list)
    w: int | None = None
    h: int | None = None
    error: str | None = None
    provenance: str | None = None
    approximation_level: str | None = None
    confidence: float | None = None

    def to_payload(self, *, include_backend_metadata: bool = False) -> dict:
        payload = {
            "name": self.name,
            "chart_type": self.chart_type,
            "title": self.title,
            "y_axis_title": self.y_axis_title,
            "y_axis_range": self.y_axis_range,
            "w": self.w,
            "h": self.h,
            "series": [s.to_payload() for s in self.series],
            "l": self.l,
            "t": self.t,
            "error": self.error,
            "provenance": self.provenance,
            "approximation_level": self.approximation_level,
            "confidence": self.confidence,
        }
        return _present(payload, include_backend_metadata)


@dataclass
class PrintArea:
    """Rows 1-based, columns 0-based, inclusive bounds."""

    r1: int
    c1: int
    r2: int
    c2: int

    def to_payload(self) -> dict:
        return {"r1": self.r1, "c1": self.c1, "r2": self.r2, "c2": self.c2}


@dataclass(frozen=True)
class MergedCellRange:
    r1: int
    c1: int
    r2: int
    c2: int
    v: str


MERGED_CELLS_SCHEMA = ["r1", "c1", "r2", "c2", "v"]


def merged_cells_payload(items: list[MergedCellRange]) -> dict:
    """Compressed merged-cell payload (`schema` + `items`)."""
    return {
        "schema": list(MERGED_CELLS_SCHEMA),
        "items": [[m.r1, m.c1, m.r2, m.c2, m.v] for m in items],
    }


def merged_items_to_a1_ranges(items: list[MergedCellRange]) -> list[str]:
    return [
        f"{col_index_to_alpha(m.c1)}{m.r1}:{col_index_to_alpha(m.c2)}{m.r2}"
        for m in items
    ]


@dataclass
class SheetData:
    """Assembled per-sheet extraction output (reference SheetData parity)."""

    rows: list[CellRow] = field(default_factory=list)
    shapes: list[Shape | Arrow | SmartArt] = field(default_factory=list)
    charts: list[Chart] = field(default_factory=list)
    table_candidates: list[str] = field(default_factory=list)
    print_areas: list[PrintArea] = field(default_factory=list)
    auto_print_areas: list[PrintArea] = field(default_factory=list)
    formulas_map: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    colors_map: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    merged_cells: list[MergedCellRange] | None = None
    merged_ranges: list[str] = field(default_factory=list)


@dataclass
class WorkbookData:
    book_name: str
    sheets: dict[str, SheetData]
