"""Worksheet XML parsing: cell grid, merged ranges, hyperlinks, metrics.

Replaces the reference's pandas/openpyxl readers
(/root/reference/src/exstruct/core/cells.py:701-797) with a single pass over
the sheet XML part. Value rendering matches the reference's
``pd.read_excel(dtype=str)`` semantics: every cell is rendered to the string
pandas would have produced (numbers via int/float str(), booleans
"True"/"False", date-formatted numbers as "YYYY-MM-DD HH:MM:SS"), then
numerically re-coerced downstream by ``coerce_numeric_preserve_format``.

Sheet sizing metrics parity: core/ooxml_drawing.py:746-860
(`_read_sheet_metrics`, `_column_width_to_points`, prefix-sum offsets).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
import datetime as _dt
from itertools import islice, repeat
from operator import add, getitem, lt, mul
import re
import xml.etree.ElementTree as ET

from ..functions.geometry import column_width_to_points
from .package import HYPERLINK_REL_TYPE, VirtualPackage
from .styles import Stylesheet

_MAIN_NS = "{http://schemas.openxmlformats.org/spreadsheetml/2006/main}"
_R_NS = "{http://schemas.openxmlformats.org/officeDocument/2006/relationships}"

_CELL_REF_RE = re.compile(r"^([A-Z]+)(\d+)$")

DEFAULT_COLUMN_WIDTH_POINTS = 48.0
DEFAULT_ROW_HEIGHT_POINTS = 15.0

_EXCEL_EPOCH_1900 = _dt.datetime(1899, 12, 30)
_EXCEL_EPOCH_1904 = _dt.datetime(1904, 1, 1)


def _col_letters_to_index(letters: str) -> int:
    n = 0
    for ch in letters:
        n = n * 26 + (ord(ch) - 64)
    return n - 1


@dataclass
class Cell:
    value: str  # rendered string value ("" when empty)
    style: int | None = None
    formula: str | None = None  # raw formula text without leading "="


@dataclass
class CellTable:
    """One sheet's cells as parallel columns in row-major order.

    ``rows`` (1-based) and ``cols`` (0-based) are sorted by (row, col) and
    hold no position twice; ``values`` are the rendered strings, ``styles``
    the cellXf indices (None when unstyled), and ``formulas`` maps a cell's
    index to its formula text, in index order, for the cells that have one.
    """

    rows: list[int] = field(default_factory=list)
    cols: list[int] = field(default_factory=list)
    values: list[str] = field(default_factory=list)
    styles: list[int | None] = field(default_factory=list)
    formulas: dict[int, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rows)

    def row_span(self, row: int, lo: int = 0) -> tuple[int, int]:
        """Index range [start, end) of ``row``'s cells, searching from ``lo``."""
        rows = self.rows
        start = bisect_left(rows, row, lo)
        return start, bisect_right(rows, row, start)

    def index(self, row: int, col0: int) -> int | None:
        start, end = self.row_span(row)
        i = bisect_left(self.cols, col0, start, end)
        return i if i < end and self.cols[i] == col0 else None

    def canonicalize(self) -> None:
        """Sort into row-major order in place, keeping the last cell at each
        position (document order), as a dict keyed by position would.

        Parts nearly always list cells in order: that is one O(n) check.
        """
        rows, cols = self.rows, self.cols
        n = len(rows)
        if n < 2:
            return
        width = max(cols) + 1
        keys = list(map(add, map(mul, rows, repeat(width)), cols))
        if all(map(lt, keys, islice(keys, 1, None))):
            return
        last = dict(zip(keys, range(n)))
        self.take([last[k] for k in sorted(last)])

    def take(self, order: list[int]) -> None:
        """Keep the cells at ``order``'s indices, in that order."""
        rows, cols, values, styles = self.rows, self.cols, self.values, self.styles
        self.rows = [rows[i] for i in order]
        self.cols = [cols[i] for i in order]
        self.values = [values[i] for i in order]
        self.styles = [styles[i] for i in order]
        formulas = self.formulas
        if formulas:
            self.formulas = {
                new: formulas[old] for new, old in enumerate(order) if old in formulas
            }


class CellMap(Mapping):
    """Read-only ``{(row, col0): Cell}`` view of a cell table.

    The dict is built on first lookup; ``len()`` reads the table.
    """

    __slots__ = ("_table", "_cells")

    def __init__(self, table: CellTable) -> None:
        self._table = table
        self._cells: dict[tuple[int, int], Cell] | None = None

    def _built(self) -> dict[tuple[int, int], Cell]:
        cells = self._cells
        if cells is None:
            t = self._table
            formula = t.formulas.get
            cells = self._cells = {
                (r, c): Cell(value=v, style=s, formula=formula(i))
                for i, (r, c, v, s) in enumerate(zip(t.rows, t.cols, t.values, t.styles))
            }
        return cells

    def __len__(self) -> int:
        return len(self._table)

    def __getitem__(self, key: tuple[int, int]) -> Cell:
        return self._built()[key]

    def __iter__(self):
        return iter(self._built())


@dataclass
class SheetMetrics:
    """Row/column sizing used to resolve drawing anchors (prefix sums)."""

    default_column_width_points: float = DEFAULT_COLUMN_WIDTH_POINTS
    default_row_height_points: float = DEFAULT_ROW_HEIGHT_POINTS
    column_width_points: dict[int, float] = field(default_factory=dict)
    row_height_points: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._col_offsets = [0.0]
        self._row_offsets = [0.0]

    def column_offset_points(self, col_index: int) -> float:
        return self._offset(
            col_index,
            self.column_width_points,
            self.default_column_width_points,
            self._col_offsets,
        )

    def row_offset_points(self, row_index: int) -> float:
        return self._offset(
            row_index,
            self.row_height_points,
            self.default_row_height_points,
            self._row_offsets,
        )

    @staticmethod
    def _offset(
        index: int,
        explicit: dict[int, float],
        default: float,
        prefix: list[float],
    ) -> float:
        if index <= 0:
            return 0.0
        while len(prefix) <= index:
            nxt = len(prefix) - 1
            prefix.append(prefix[-1] + explicit.get(nxt, default))
        return prefix[index]


@dataclass
class SheetGrid:
    """Parsed worksheet: its cell table plus sheet metadata."""

    name: str
    table: CellTable = field(default_factory=CellTable)
    merged_refs: list[str] = field(default_factory=list)
    hyperlinks: dict[tuple[int, int], str] = field(default_factory=dict)
    table_part_rids: list[str] = field(default_factory=list)
    metrics: SheetMetrics = field(default_factory=SheetMetrics)
    # Used-range bounds: rows/cols 1-based inclusive; (1, 1, 0, 0) when empty.
    min_row: int = 1
    min_col: int = 1
    max_row: int = 0
    max_col: int = 0

    @property
    def cells(self) -> CellMap:
        """The cells keyed by (row 1-based, col 0-based), read-only."""
        view = self.__dict__.get("_cell_map")
        if view is None or view._table is not self.table:
            view = self.__dict__["_cell_map"] = CellMap(self.table)
        return view

    def value_at(self, row: int, col0: int) -> str:
        i = self.table.index(row, col0)
        return self.table.values[i] if i is not None else ""

    def set_cells(self, table: CellTable) -> None:
        """Install a parsed table: canonical order, then used-range bounds."""
        table.canonicalize()
        self.table = table
        if table.rows:
            self.min_row, self.max_row = table.rows[0], table.rows[-1]
            self.min_col, self.max_col = min(table.cols) + 1, max(table.cols) + 1


def _render_number(text: str) -> str:
    """Render a numeric XML token the way openpyxl+str() would."""
    try:
        if "." not in text and "e" not in text and "E" not in text:
            return str(int(text))
        return str(float(text))
    except ValueError:
        return text


def _shared_string(shared_strings: list[str], text: str) -> str:
    """The shared string a ``t="s"`` cell's <v> text names, or "" when the
    text is not an index in 0..len-1 (the sst index is unsigned, so -1
    names no entry rather than the last one)."""
    try:
        i = int(text)
    except ValueError:
        return ""
    return shared_strings[i] if 0 <= i < len(shared_strings) else ""


def _render_date(serial: float, date1904: bool = False) -> str:
    """Render an Excel date serial the way pandas' Timestamp str() does.

    1900 system: Excel pretends 1900-02-29 exists (serial 60), so serials
    below 60 are shifted +1 day — matching openpyxl/pandas (the reference's
    reader). The 1904 system has no such bug.
    """
    try:
        epoch = _EXCEL_EPOCH_1904 if date1904 else _EXCEL_EPOCH_1900
        if not date1904 and 1 <= serial < 60:
            serial += 1
        dt = epoch + _dt.timedelta(days=serial)
    except OverflowError:
        return str(serial)
    # Round to the nearest second to absorb float serial error.
    if dt.microsecond >= 500000:
        dt += _dt.timedelta(seconds=1)
    dt = dt.replace(microsecond=0)
    return dt.strftime("%Y-%m-%d %H:%M:%S")


# Canonical cell shape. The usual `<c …><v>text</v></c>` hands its text to
# group 4; anything else inside the cell (<f>, <is>, attributes on <v>) lands
# in group 5 and takes the per-cell branch.
_FAST_CELL_RE = re.compile(
    r'<c r="([A-Z]+)(\d+)"((?:\s+[a-zA-Z]+="[^"]*")*)\s*'
    r"(?:/>|>(?:<v>([^<]*)</v>|(.*?))</c>)",
    re.S,
)
_FAST_ATTR_RE = re.compile(r'([a-zA-Z]+)="([^"]*)"')
_FAST_ROW_OPEN_RE = re.compile(r"<row\b([^>]*?)/?>")
_FAST_ROW_R_RE = re.compile(r'<row[^>]*\br="')
_FAST_F_RE = re.compile(r"<f(\s[^>]*)?(?:/>|>(.*?)</f>)", re.S)
_FAST_V_RE = re.compile(r"<v(?:\s[^>]*)?>(.*?)</v>", re.S)
# <f> attributes in either quote style (t='shared' si='0' is legal XML).
_FAST_F_ATTR_RE = re.compile(r"""([\w:.-]+)\s*=\s*(?:"([^"]*)"|'([^']*)')""")

# Counts every cell opening regardless of attribute spacing — the guard
# comparing this against the canonical-form matches must never share the
# match regex's blind spots, or divergent inputs skip the ET fallback.
_FAST_CELL_OPEN_RE = re.compile(r"<c[\s/>]")

_CELL_TYPES = frozenset({"n", "s", "str", "b", "e", "inlineStr"})

_XML_REF_RE = re.compile(r"&(?:#([0-9]+)|#x([0-9a-fA-F]+)|(amp|lt|gt|quot|apos));")
_XML_NAMED = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}


def _xml_char(match: re.Match) -> str:
    dec, hexa, name = match.groups()
    if name:
        return _XML_NAMED[name]
    code = int(dec) if dec else int(hexa, 16)
    if not (
        code in (0x9, 0xA, 0xD)
        or 0x20 <= code <= 0xD7FF
        or 0xE000 <= code <= 0xFFFD
        or 0x10000 <= code <= 0x10FFFF
    ):
        raise ValueError(f"character {code} is not allowed in XML")
    return chr(code)


def _unescape(text: str) -> str | None:
    """Decode XML's five named entities and its character references.

    None when a "&" starts anything else (an HTML-only name such as
    ``&nbsp;``, a bare "&", a character number XML forbids): ElementTree
    treats those differently, so the caller falls back to it.
    """
    if "&" not in text:
        return text
    try:
        out, n = _XML_REF_RE.subn(_xml_char, text)
    except ValueError:
        return None
    return out if n == text.count("&") else None


class _Rendered(dict):
    """<v> text → rendered value for one cell kind, memoized per sheet."""

    __slots__ = ("render",)

    def __init__(self, render) -> None:
        super().__init__()
        self.render = render

    def __missing__(self, text: str) -> str:
        value = self[text] = self.render(text)
        return value


def parse_sheet(
    package: VirtualPackage,
    sheet_path: str,
    sheet_name: str,
    shared_strings: list[str],
    styles: Stylesheet,
    *,
    allow_fast_path: bool = True,
    date1904: bool = False,
) -> SheetGrid:
    """Parse one worksheet part into a SheetGrid.

    Uses a regex fast scanner for the dominant sheetData shapes when the
    part is default-namespaced and every cell matches the canonical form;
    anything unusual — namespace prefixes, unmatched cells, entities XML
    does not define — falls back to the full ElementTree path, cell-wise
    or wholesale. Both paths build the same cell table.
    """
    if allow_fast_path:
        raw = package.read_text(sheet_path)
        # Small parts: ElementTree's C parser wins; the regex path pays off
        # once the sheetData dominates the part.
        if len(raw) >= 8192:
            grid = _parse_sheet_fast(
                package, sheet_path, sheet_name, raw, shared_strings, styles,
                date1904=date1904,
            )
            if grid is not None:
                return grid
    return _parse_sheet_et(
        package, sheet_path, sheet_name, shared_strings, styles, date1904=date1904
    )


def _parse_sheet_fast(
    package: VirtualPackage,
    sheet_path: str,
    sheet_name: str,
    raw: str,
    shared_strings: list[str],
    styles: Stylesheet,
    date1904: bool = False,
) -> SheetGrid | None:
    """Regex scan of <sheetData>; None when preconditions fail."""
    root_at = raw.find("<worksheet")
    if root_at < 0:
        return None  # prefixed or unusual root → ET path
    start = raw.find("<sheetData")
    if start < 0:
        # No cells at all — the ET path handles metadata-only sheets.
        return None
    end = raw.find("</sheetData>")
    if end < 0:
        # <sheetData/> self-closing
        close = raw.find(">", start)
        if close < 0 or raw[close - 1] != "/":
            return None
        sheet_data = ""
        remainder = raw
    else:
        sheet_data = raw[raw.find(">", start) + 1 : end]
        remainder = raw[:start] + "<sheetData/>" + raw[end + len("</sheetData>") :]

    # Precondition: every <c occurrence must be matched by the canonical
    # cell regex, else semantics could silently diverge → ET fallback.
    # XML comments could hide (or fabricate) cells from the regex → ET.
    if "<!--" in sheet_data:
        return None
    if "\r" in sheet_data:
        # XML end-of-line handling, which ElementTree applies to all text.
        sheet_data = sheet_data.replace("\r\n", "\n").replace("\r", "\n")
    matches = _FAST_CELL_RE.findall(sheet_data)
    if len(matches) != len(_FAST_CELL_OPEN_RE.findall(sheet_data)):
        return None
    # Rows lacking an r attribute imply positions (and row heights) the
    # fast regexes cannot see — let the ET path reconstruct them.
    if sheet_data.count("<row") != len(_FAST_ROW_R_RE.findall(sheet_data)):
        return None
    table = _fast_cell_table(
        matches, "&" in sheet_data, shared_strings, styles, date1904
    )
    if table is None:
        return None

    # Metadata (format, cols, merges, links) parsed via ET on the remainder
    # — tiny compared to sheetData.
    grid = _parse_sheet_et_from_root(
        package, sheet_path, sheet_name, ET.fromstring(remainder), shared_strings,
        styles, date1904=date1904,
    )

    # Row heights: attributes may appear in any order within <row ...>, so
    # scan every row open tag and decode attrs with the generic attr regex
    # (the ET path reads attrib dicts and is likewise order-independent).
    for row_match in _FAST_ROW_OPEN_RE.finditer(sheet_data):
        attrs_str = row_match.group(1)
        if 'ht="' not in attrs_str:
            continue
        row_idx: int | None = None
        ht: float | None = None
        for attr_name, attr_value in _FAST_ATTR_RE.findall(attrs_str):
            try:
                if attr_name == "r":
                    row_idx = int(attr_value)
                elif attr_name == "ht":
                    ht = float(attr_value)
            except ValueError:
                pass
        if row_idx is not None and row_idx > 0 and ht is not None and ht > 0:
            grid.metrics.row_height_points[row_idx - 1] = ht

    grid.set_cells(table)
    return grid


def _fast_cell_table(
    matches: list[tuple[str, str, str, str, str]],
    has_refs: bool,
    shared_strings: list[str],
    styles: Stylesheet,
    date1904: bool,
) -> CellTable | None:
    """The cell table of the scanned cells, in document order; None when a
    cell needs the ElementTree path.

    Columns are built per distinct attribute string and <v> text; only
    cells holding more than one plain <v> (formulas, inline strings) take
    the per-cell branch.
    """
    if not matches:
        return CellTable()
    letters, row_texts, attr_texts, v_texts, inners = zip(*matches)

    def shared(text: str) -> str:
        return _shared_string(shared_strings, text)

    def date(text: str) -> str:
        if text == "":
            return ""
        try:
            return _render_date(float(text), date1904)
        except ValueError:
            return text

    def boolean(text: str) -> str:
        return "True" if text.strip() == "1" else "False"

    def same(text: str) -> str:
        return text

    renderers = {"n": _render_number, "d": date, "s": shared, "b": boolean}
    memos: dict[str, _Rendered] = {}
    style_of: dict[str, int | None] = {}
    memo_of: dict[str, _Rendered] = {}
    inline_attrs: set[str] = set()
    for attrs in set(attr_texts):
        if "&" in attrs:
            return None  # an entity in s= or t= → the ET path decodes it
        style_idx = None
        cell_type = "n"
        for attr_name, attr_value in _FAST_ATTR_RE.findall(attrs):
            if attr_name == "s":
                try:
                    style_idx = int(attr_value)
                except ValueError:
                    style_idx = None
            elif attr_name == "t":
                cell_type = attr_value
        if cell_type not in _CELL_TYPES:
            return None  # unknown cell type → ET path
        if cell_type == "inlineStr":
            inline_attrs.add(attrs)
        kind = (
            "d"
            if cell_type == "n"
            and style_idx is not None
            and style_idx in styles.date_style_ids()
            else cell_type
        )
        memo = memos.get(kind)
        if memo is None:
            memo = memos[kind] = _Rendered(renderers.get(kind, same))
        style_of[attrs] = style_idx
        memo_of[attrs] = memo

    if has_refs:
        v_texts = [_unescape(v) for v in v_texts]
        if None in v_texts:
            return None
    col_of = {name: _col_letters_to_index(name) for name in set(letters)}
    rows = list(map(int, row_texts))
    cols = list(map(col_of.__getitem__, letters))
    cell_styles = list(map(style_of.__getitem__, attr_texts))
    values = list(map(getitem, map(memo_of.__getitem__, attr_texts), v_texts))
    formulas: dict[int, str] = {}

    slow = [i for i, inner in enumerate(inners) if inner] if any(inners) else []
    if inline_attrs:
        slow = sorted(
            set(slow).union(i for i, a in enumerate(attr_texts) if a in inline_attrs)
        )
    shared_formulas: dict[str, tuple[str, int, int]] = {}
    for i in slow:
        inner = inners[i]
        if "<!" in inner:
            return None  # CDATA → the ET path reads it
        row1, col0 = rows[i], cols[i]
        f_match = _FAST_F_RE.search(inner)
        if f_match is not None:
            f_text = _unescape(f_match.group(2) or "")
            if f_text is None:
                return None
            f_attrs: dict[str, str] = {}
            for name, dq, sq in _FAST_F_ATTR_RE.findall(f_match.group(1) or ""):
                value = _unescape(dq or sq)
                if value is None:
                    return None
                f_attrs[name] = value
            si = f_attrs.get("si")
            if f_attrs.get("t") == "shared" and si is not None:
                if f_text:
                    shared_formulas[si] = (f_text, row1, col0)
                else:
                    master = shared_formulas.get(si)
                    if master is not None:
                        from ..functions.formulas import translate_formula

                        f_text = translate_formula(
                            master[0], row1 - master[1], col0 - master[2]
                        )
            formulas[i] = f_text
        if attr_texts[i] in inline_attrs:
            # Rich/phonetic structure possible → parse this cell via ET.
            try:
                frag = ET.fromstring(f'<c xmlns="{_MAIN_NS[1:-1]}">{inner}</c>')
            except ET.ParseError:
                return None
            is_el = frag.find(f"{_MAIN_NS}is")
            values[i] = _rich_text(is_el) if is_el is not None else ""
            continue
        v_match = _FAST_V_RE.search(inner)
        v_text = _unescape(v_match.group(1)) if v_match is not None else ""
        if v_text is None:
            return None
        values[i] = memo_of[attr_texts[i]][v_text]

    table = CellTable(rows, cols, values, cell_styles, formulas)
    if "" in values:
        # An empty, unstyled cell without a formula is no cell at all.
        table.take([
            i for i, (v, s) in enumerate(zip(values, cell_styles))
            if v != "" or s is not None or i in formulas
        ])
    return table


def _parse_sheet_et(
    package: VirtualPackage,
    sheet_path: str,
    sheet_name: str,
    shared_strings: list[str],
    styles: Stylesheet,
    date1904: bool = False,
) -> SheetGrid:
    # Parse uncached: a sheet part is consumed exactly once, and caching the
    # full element tree in the package would pin every sheet's tree in
    # worker memory for the document's lifetime.
    root = ET.fromstring(package.read_text(sheet_path))
    return _parse_sheet_et_from_root(
        package, sheet_path, sheet_name, root, shared_strings, styles,
        date1904=date1904,
    )


def _parse_sheet_et_from_root(
    package: VirtualPackage,
    sheet_path: str,
    sheet_name: str,
    root: ET.Element,
    shared_strings: list[str],
    styles: Stylesheet,
    date1904: bool = False,
) -> SheetGrid:
    """Full ElementTree worksheet parse (single pass)."""
    grid = SheetGrid(name=sheet_name)
    metrics = grid.metrics
    shared_formulas: dict[str, tuple[str, int, int]] = {}

    fmt = root.find(f"{_MAIN_NS}sheetFormatPr")
    if fmt is not None:
        drh = _float_attr(fmt, "defaultRowHeight")
        if drh is not None and drh > 0:
            metrics.default_row_height_points = drh
        dcw = _float_attr(fmt, "defaultColWidth")
        if dcw is not None and dcw > 0:
            metrics.default_column_width_points = column_width_to_points(dcw)

    cols_node = root.find(f"{_MAIN_NS}cols")
    if cols_node is not None:
        for col in cols_node.findall(f"{_MAIN_NS}col"):
            mn = _int_attr(col, "min")
            mx = _int_attr(col, "max")
            width = _float_attr(col, "width")
            if mn is None or mx is None or width is None or mn <= 0 or mx < mn or width <= 0:
                continue
            wpts = column_width_to_points(width)
            for idx in range(mn - 1, mx):
                metrics.column_width_points[idx] = wpts

    sheet_data = root.find(f"{_MAIN_NS}sheetData")
    if sheet_data is not None:
        cell_tag = f"{_MAIN_NS}c"
        row_tag = f"{_MAIN_NS}row"
        f_tag = f"{_MAIN_NS}f"
        v_tag = f"{_MAIN_NS}v"
        match_ref = _CELL_REF_RE.match
        table = CellTable()
        rows, cols, values, cell_styles = (
            table.rows, table.cols, table.values, table.styles
        )
        formulas = table.formulas
        # OOXML allows implicit positions: a row without r continues after
        # the previous row; a cell without r sits right of the previous cell
        # (openpyxl — the reference's reader — reconstructs both).
        implicit_row = 0
        for row_el in sheet_data:
            if row_el.tag != row_tag:
                continue
            attrs = row_el.attrib
            row_r = _int_attr(row_el, "r")
            implicit_row = row_r if row_r is not None else implicit_row + 1
            if "ht" in attrs:
                ht = _float_attr(row_el, "ht")
                if implicit_row > 0 and ht is not None and ht > 0:
                    metrics.row_height_points[implicit_row - 1] = ht
            implicit_col = -1
            for c_el in row_el:
                if c_el.tag != cell_tag:
                    continue
                c_attrs = c_el.attrib
                ref = c_attrs.get("r")
                if ref:
                    m = match_ref(ref)
                    if not m:
                        continue
                    col0 = _col_letters_to_index(m.group(1))
                    row1 = int(m.group(2))
                else:
                    col0 = implicit_col + 1
                    row1 = implicit_row
                implicit_col = col0
                s_raw = c_attrs.get("s")
                style_idx = None
                if s_raw is not None:
                    try:
                        style_idx = int(s_raw)
                    except ValueError:
                        style_idx = None
                cell_type = c_attrs.get("t", "n")

                formula: str | None = None
                v_text = ""
                for child in c_el:
                    tag = child.tag
                    if tag == v_tag:
                        if child.text is not None:
                            v_text = child.text
                    elif tag == f_tag:
                        f_text = child.text or ""
                        si = child.attrib.get("si")
                        if child.attrib.get("t") == "shared" and si is not None:
                            if f_text:
                                shared_formulas[si] = (f_text, row1, col0)
                            else:
                                master = shared_formulas.get(si)
                                if master is not None:
                                    from ..functions.formulas import translate_formula

                                    f_text = translate_formula(
                                        master[0],
                                        row1 - master[1],
                                        col0 - master[2],
                                    )
                        formula = f_text

                # Inline fast path for the two dominant cases.
                if cell_type == "n":
                    if v_text == "":
                        value = ""
                    elif (
                        style_idx is not None
                        and style_idx in styles.date_style_ids()
                    ):
                        try:
                            value = _render_date(float(v_text), date1904)
                        except ValueError:
                            value = v_text
                    else:
                        value = _render_number(v_text)
                elif cell_type == "s":
                    value = _shared_string(shared_strings, v_text)
                else:
                    value = _render_value(
                        cell_type, v_text, c_el, style_idx, styles, date1904
                    )

                if value == "" and style_idx is None and formula is None:
                    continue
                if formula is not None:
                    formulas[len(rows)] = formula
                rows.append(row1)
                cols.append(col0)
                values.append(value)
                cell_styles.append(style_idx)
        grid.set_cells(table)

    merged_node = root.find(f"{_MAIN_NS}mergeCells")
    if merged_node is not None:
        for mc in merged_node.findall(f"{_MAIN_NS}mergeCell"):
            ref = mc.attrib.get("ref")
            if ref:
                grid.merged_refs.append(ref)

    links_node = root.find(f"{_MAIN_NS}hyperlinks")
    if links_node is not None:
        rel_map = package.relationships(sheet_path)
        for link in links_node.findall(f"{_MAIN_NS}hyperlink"):
            ref = link.attrib.get("ref")
            rel_id = link.attrib.get(f"{_R_NS}id")
            if not ref or not rel_id:
                continue  # location-only (internal) links have no target
            rel = rel_map.get(rel_id)
            if rel is None or rel.relationship_type != HYPERLINK_REL_TYPE:
                continue
            m = _CELL_REF_RE.match(ref.split(":", 1)[0])
            if not m:
                continue
            grid.hyperlinks[
                (int(m.group(2)), _col_letters_to_index(m.group(1)))
            ] = rel.target

    table_parts = root.find(f"{_MAIN_NS}tableParts")
    if table_parts is not None:
        r_id_attr = f"{_R_NS}id"
        for part in table_parts.findall(f"{_MAIN_NS}tablePart"):
            rid = part.attrib.get(r_id_attr)
            if rid:
                grid.table_part_rids.append(rid)
    return grid


def _render_value(
    cell_type: str,
    v_text: str,
    c_el: ET.Element,
    style_idx: int | None,
    styles: Stylesheet,
    date1904: bool = False,
) -> str:
    if cell_type == "inlineStr":
        is_el = c_el.find(f"{_MAIN_NS}is")
        if is_el is None:
            return ""
        return _rich_text(is_el)
    if cell_type == "str":
        return v_text
    if cell_type == "b":
        return "True" if v_text.strip() == "1" else "False"
    if cell_type == "e":
        return v_text
    # numeric (default)
    if v_text == "":
        return ""
    if styles.style(style_idx).is_date:
        try:
            return _render_date(float(v_text), date1904)
        except ValueError:
            return v_text
    return _render_number(v_text)


def _rich_text(container: ET.Element) -> str:
    """Text of an <si>/<is> element: plain <t> or rich <r><t> runs only.

    Phonetic ruby runs (<rPh>) and <phoneticPr> are metadata, not cell text —
    openpyxl (and therefore the reference's pandas reader) excludes them.
    """
    t_tag = f"{_MAIN_NS}t"
    r_tag = f"{_MAIN_NS}r"
    parts: list[str] = []
    for child in container:
        if child.tag == t_tag:
            parts.append(child.text or "")
        elif child.tag == r_tag:
            run_t = child.find(t_tag)
            if run_t is not None and run_t.text:
                parts.append(run_t.text)
    return "".join(parts)


def parse_shared_strings(package: VirtualPackage) -> list[str]:
    """Parse xl/sharedStrings.xml into an indexed string table."""
    path = "xl/sharedStrings.xml"
    if path not in package:
        return []
    root = package.read_xml(path)
    return [_rich_text(si) for si in root.findall(f"{_MAIN_NS}si")]


def _int_attr(node: ET.Element, attr: str) -> int | None:
    raw = node.attrib.get(attr)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        return None


def _float_attr(node: ET.Element, attr: str) -> float | None:
    raw = node.attrib.get(attr)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        return None
