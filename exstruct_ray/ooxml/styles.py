"""styles.xml parsing: fills (background color keys), borders, date formats.

Color-key semantics parity: /root/reference/src/exstruct/core/cells.py:460-686
(`_resolve_cell_background`, `_resolve_fill_color_key`, `_color_to_key`).
Border-edge semantics parity: cells.py:986-991 (`edge_has_style`).
Date-format detection replaces the reference's pandas/openpyxl datetime
rendering (`pd.read_excel(dtype=str)`, cells.py:703) — numeric cells whose
number format is a date/time format render as "YYYY-MM-DD HH:MM:SS" strings,
matching str(pandas.Timestamp) in the reference's golden output.
"""

from __future__ import annotations

from dataclasses import dataclass
import re
from typing import Callable
import xml.etree.ElementTree as ET

from ..functions.colors import DEFAULT_BACKGROUND_HEX, normalize_rgb

_MAIN_NS = "{http://schemas.openxmlformats.org/spreadsheetml/2006/main}"

# Built-in numFmtIds that render as dates/times (ECMA-376 §18.8.30).
_BUILTIN_DATE_IDS = frozenset(
    list(range(14, 23)) + list(range(27, 37)) + [45, 46, 47] + list(range(50, 59))
)

_QUOTED_RE = re.compile(r'"[^"]*"|\[[^\]]*\]|\\.')
_DATE_CODE_RE = re.compile(r"[ymdhs]", re.IGNORECASE)


def _format_code_is_date(code: str) -> bool:
    cleaned = _QUOTED_RE.sub("", code)
    return bool(_DATE_CODE_RE.search(cleaned))


@dataclass(frozen=True)
class BorderEdges:
    top: bool = False
    bottom: bool = False
    left: bool = False
    right: bool = False

    @property
    def any(self) -> bool:
        return self.top or self.bottom or self.left or self.right


@dataclass(frozen=True)
class CellStyle:
    fill_key: str | None  # normalized color key or None for no/none pattern fill
    border: BorderEdges
    is_date: bool


_NO_BORDER = BorderEdges()
_DEFAULT_STYLE = CellStyle(fill_key=None, border=_NO_BORDER, is_date=False)


class Stylesheet:
    """Resolved per-cellXf style table.

    Given ``load`` instead of ``styles``, the table is ``load()``'s result,
    built on first use: a document whose cells carry no style index never
    parses its styles part.
    """

    __slots__ = ("_styles", "_load", "_date_ids", "_border_edges")

    def __init__(
        self,
        styles: list[CellStyle] | None = None,
        *,
        load: Callable[[], list[CellStyle]] | None = None,
    ) -> None:
        self._styles = [] if styles is None and load is None else styles
        self._load = load
        self._date_ids: frozenset[int] | None = None
        self._border_edges: dict[int, tuple[bool, bool, bool, bool]] | None = None

    @property
    def styles(self) -> list[CellStyle]:
        if self._styles is None:
            self._styles = self._load()
        return self._styles

    def date_style_ids(self) -> frozenset[int]:
        """Indices of date-formatted cellXfs (cached for the hot parse loop)."""
        if self._date_ids is None:
            self._date_ids = frozenset(
                i for i, s in enumerate(self.styles) if s.is_date
            )
        return self._date_ids

    def border_edges(self) -> dict[int, tuple[bool, bool, bool, bool]]:
        """cellXf index → (top, bottom, left, right) for the styles that draw
        any border edge (cached for the table detector's scan)."""
        if self._border_edges is None:
            self._border_edges = {
                i: (s.border.top, s.border.bottom, s.border.left, s.border.right)
                for i, s in enumerate(self.styles)
                if s.border.any
            }
        return self._border_edges

    def style(self, idx: int | None) -> CellStyle:
        if idx is None or idx < 0 or idx >= len(self.styles):
            return _DEFAULT_STYLE
        return self.styles[idx]

    def resolve_background(
        self, idx: int | None, include_default_background: bool
    ) -> str | None:
        """Return the raw (pre-normalization) color key for a cell style.

        Mirrors `_resolve_cell_background`: no/none pattern fill maps to the
        default white only when requested; an explicit white fill is also
        suppressed unless default backgrounds are included.
        """
        st = self.style(idx)
        if st.fill_key is None:
            return DEFAULT_BACKGROUND_HEX if include_default_background else None
        if st.fill_key == DEFAULT_BACKGROUND_HEX and not include_default_background:
            return None
        return st.fill_key


def _color_node_to_key(color: ET.Element | None) -> str | None:
    """Map an OOXML color element to the reference's color-key vocabulary."""
    if color is None:
        return None
    rgb = color.attrib.get("rgb")
    if rgb:
        return normalize_rgb(rgb)
    theme = color.attrib.get("theme")
    if theme is not None:
        tint = color.attrib.get("tint")
        if tint is None:
            return f"theme:{theme}"
        # openpyxl exposes tint as float; str(float) keeps e.g. "-0.25".
        try:
            tint_repr = str(float(tint))
        except ValueError:
            tint_repr = tint
        return f"theme:{theme}:{tint_repr}"
    indexed = color.attrib.get("indexed")
    if indexed is not None:
        return f"indexed:{indexed}"
    auto = color.attrib.get("auto")
    if auto is not None:
        return f"auto:{auto == '1' or auto.lower() == 'true'}"
    return None


def _fill_to_key(fill: ET.Element) -> str | None:
    pattern = fill.find(f"{_MAIN_NS}patternFill")
    if pattern is None:
        return None
    pattern_type = pattern.attrib.get("patternType")
    if pattern_type in (None, "none"):
        return None
    fg_key = _color_node_to_key(pattern.find(f"{_MAIN_NS}fgColor"))
    if fg_key is not None:
        return fg_key
    return _color_node_to_key(pattern.find(f"{_MAIN_NS}bgColor"))


def _edge_has_style(border: ET.Element, name: str) -> bool:
    edge = border.find(f"{_MAIN_NS}{name}")
    if edge is None:
        return False
    style = edge.attrib.get("style")
    return style is not None and style != "none"


def parse_styles(root: ET.Element | None) -> Stylesheet:
    """Parse styles.xml into a per-cellXf resolved style table."""
    if root is None:
        return Stylesheet(styles=[])

    custom_date_ids: set[int] = set()
    num_fmts = root.find(f"{_MAIN_NS}numFmts")
    if num_fmts is not None:
        for fmt in num_fmts.findall(f"{_MAIN_NS}numFmt"):
            try:
                fmt_id = int(fmt.attrib.get("numFmtId", ""))
            except ValueError:
                continue
            if _format_code_is_date(fmt.attrib.get("formatCode", "")):
                custom_date_ids.add(fmt_id)

    fills: list[str | None] = []
    fills_node = root.find(f"{_MAIN_NS}fills")
    if fills_node is not None:
        fills = [_fill_to_key(f) for f in fills_node.findall(f"{_MAIN_NS}fill")]

    borders: list[BorderEdges] = []
    borders_node = root.find(f"{_MAIN_NS}borders")
    if borders_node is not None:
        for border in borders_node.findall(f"{_MAIN_NS}border"):
            borders.append(
                BorderEdges(
                    top=_edge_has_style(border, "top"),
                    bottom=_edge_has_style(border, "bottom"),
                    left=_edge_has_style(border, "left"),
                    right=_edge_has_style(border, "right"),
                )
            )

    styles: list[CellStyle] = []
    cell_xfs = root.find(f"{_MAIN_NS}cellXfs")
    if cell_xfs is not None:
        for xf in cell_xfs.findall(f"{_MAIN_NS}xf"):
            fill_id = _int_or(xf.attrib.get("fillId"), 0)
            border_id = _int_or(xf.attrib.get("borderId"), 0)
            num_fmt_id = _int_or(xf.attrib.get("numFmtId"), 0)
            fill_key = fills[fill_id] if 0 <= fill_id < len(fills) else None
            border = borders[border_id] if 0 <= border_id < len(borders) else _NO_BORDER
            is_date = num_fmt_id in _BUILTIN_DATE_IDS or num_fmt_id in custom_date_ids
            styles.append(CellStyle(fill_key=fill_key, border=border, is_date=is_date))
    return Stylesheet(styles=styles)


def _int_or(raw: str | None, default: int) -> int:
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        return default
