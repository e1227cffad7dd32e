"""Per-document extraction: OOXML parts → WorkbookData → ordered span sequence.

This is the whole reference pipeline (light mode) as the body of one pure
function over a document's parts — the unit of distribution is the document
row, so this function is what the Ray extraction tasks map over batches.

Pipeline-step parity (/root/reference/src/exstruct/core/pipeline.py:303-432,
1196-1268): cells → print areas → formulas map → colors map → merged cells →
light OOXML shapes/charts → per-sheet table detection → merged-value filter →
assembly. Failures degrade in place (error spans) instead of raising, the
distributed analogue of the reference's FallbackReason policy (ADR-0002).

Span contract (per FIXTURES.md): per sheet, in workbook order, emit
  cell_row* shape* arrow* smartart* chart* table* merged? print_area*
  formulas_map? colors_map?
with `media_ref` = owning sheet name and a document-dense ascending `offset`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from ..config import ExtractOptions, ResolvedOptions
from ..functions.a1 import parse_range_zero_based
from ..functions.canonical import canonical_json, encode_compact
from ..functions.coerce import coerce_numeric_preserve_format
from ..models import (
    Arrow,
    CellRow,
    Chart,
    MergedCellRange,
    PrintArea,
    Shape,
    SheetData,
    SmartArt,
    WorkbookData,
    merged_cells_payload,
    merged_items_to_a1_ranges,
)
from ..ooxml.drawing import parse_sheet_drawing, resolve_sheet_drawing_path
from ..ooxml.package import VirtualPackage
from ..ooxml.sheet_parser import SheetGrid, parse_shared_strings, parse_sheet
from ..ooxml.styles import Stylesheet, parse_styles
from ..ooxml.workbook_parser import parse_workbook
from ..tables.detect import detect_tables
from .shapes import build_shapes_from_drawing


@dataclass(frozen=True)
class Span:
    kind: str
    text: str
    media_ref: str
    offset: int


def extract_document_spans(
    kinds: list[str],
    texts: list[str],
    media_refs: list[str],
    options: ExtractOptions | ResolvedOptions | None = None,
) -> list[Span]:
    """Extract one document (given as parallel span arrays) into output spans."""
    out_kinds: list[str] = []
    out_texts: list[str] = []
    out_refs: list[str] = []
    extract_document_spans_columnar(
        kinds, texts, media_refs, options, out_kinds, out_texts, out_refs
    )
    return [
        Span(kind=k, text=t, media_ref=m, offset=i)
        for i, (k, t, m) in enumerate(zip(out_kinds, out_texts, out_refs))
    ]


def extract_document_spans_columnar(
    kinds: list[str],
    texts: list[str],
    media_refs: list[str],
    options: ExtractOptions | ResolvedOptions | None,
    out_kinds: list[str],
    out_texts: list[str],
    out_refs: list[str],
) -> tuple[int, int]:
    """Hot-path variant: append this document's spans directly onto shared
    columnar buffers and return (n_spans, n_errors).

    The per-document offsets are implicit (0..n_spans-1 in append order) so
    ``ExtractActor`` reconstructs them vectorized; no per-span Span objects or
    per-document intermediate lists are allocated in the batch loop.
    """
    opts = _resolve(options)
    base = len(out_kinds)
    try:
        package = VirtualPackage.from_spans(kinds, texts, media_refs)
        if "xl/workbook.xml" not in package:
            if any((ref or "").lstrip("/").startswith("xl/") for ref in media_refs):
                # OOXML parts present but workbook.xml missing: a corrupt
                # or partial bundle, NOT a text document — surface it as
                # an error span so n_errors keeps flagging poison docs.
                raise ValueError("OOXML bundle has no xl/workbook.xml")
            # Not an OOXML bundle: the interleaved text + media document
            # path (main-content normalization / HTML boilerplate strip /
            # opaque media references) — extract/textdoc.py.
            from .textdoc import extract_interleaved_spans

            n_err = 0
            for k, t, m, _ in extract_interleaved_spans(
                kinds, texts, media_refs, html_strategy=opts.html_strategy
            ):
                out_kinds.append(k)
                out_texts.append(t)
                out_refs.append(m)
                if k == "error":
                    n_err += 1
            return len(out_kinds) - base, n_err
        workbook = extract_workbook(package, opts, book_name="")
        _workbook_spans_into(workbook, opts, out_kinds, out_texts, out_refs)
        return len(out_kinds) - base, 0
    except Exception as exc:  # one poison doc must not fail a block
        # Roll back any partial appends so the buffers stay in sync with
        # the returned count (the actor rebuilds offsets from these).
        del out_kinds[base:]
        del out_texts[base:]
        del out_refs[base:]
        out_kinds.append("error")
        out_texts.append(f"extract failed: {exc!r}")
        out_refs.append("")
        return 1, 1


def _resolve(options: ExtractOptions | ResolvedOptions | None) -> ResolvedOptions:
    if options is None:
        return ExtractOptions().resolved()
    if isinstance(options, ExtractOptions):
        return options.resolved()
    return options


def extract_workbook(
    package: VirtualPackage, opts: ResolvedOptions, book_name: str = ""
) -> WorkbookData:
    """Run the full light-mode pipeline over a virtual package."""
    info = parse_workbook(package)
    # styles.xml is parsed on the first styled cell that needs it (a date
    # check, a border scan, a fill color); unstyled documents never read it.
    styles = Stylesheet(load=lambda: _parse_styles_safe(package).styles)
    shared = parse_shared_strings(package)
    memo = _RowMemo()

    sheets: dict[str, SheetData] = {}
    for sheet_ref in info.sheets:
        if sheet_ref.path not in package:
            continue
        try:
            grid = parse_sheet(
                package,
                sheet_ref.path,
                sheet_ref.name,
                shared,
                styles,
                date1904=info.date1904,
            )
        except Exception:
            # Malformed sheet XML: drop only this sheet's data (reference
            # drops the affected sheet's drawings; without cells there is
            # nothing else to keep).
            sheets[sheet_ref.name] = SheetData()
            continue
        sheets[sheet_ref.name] = _extract_sheet(
            package, sheet_ref.path, grid, styles, opts,
            info.print_areas.get(sheet_ref.name, []), memo,
        )
    return WorkbookData(book_name=book_name, sheets=sheets)


def _parse_styles_safe(package: VirtualPackage) -> Stylesheet:
    if "xl/styles.xml" not in package:
        return parse_styles(None)
    try:
        return parse_styles(package.read_xml("xl/styles.xml"))
    except Exception:
        return parse_styles(None)


def _extract_sheet(
    package: VirtualPackage,
    sheet_path: str,
    grid: SheetGrid,
    styles: Stylesheet,
    opts: ResolvedOptions,
    print_areas: list[PrintArea],
    memo: _RowMemo,
) -> SheetData:
    rows = _cells_to_rows(grid, opts.include_cell_links, memo)
    merged = _merged_ranges(grid) if opts.include_merged_cells else []
    if not opts.include_merged_values_in_rows and merged:
        rows = _filter_rows_excluding_merged_values(rows, merged)

    formulas_map: dict[str, list[tuple[int, int]]] = {}
    if opts.include_formulas_map:
        formulas_map = _formulas_map(grid)
    colors_map: dict[str, list[tuple[int, int]]] = {}
    if opts.include_colors_map:
        colors_map = _colors_map(grid, styles, opts)

    table_candidates: list[str] = []
    if opts.include_tables:
        try:
            table_candidates = detect_tables(
                package, sheet_path, grid, styles, opts.table_params, opts.scan_limits
            )
        except Exception:
            table_candidates = []

    shapes: list[Shape | Arrow | SmartArt] = []
    charts: list[Chart] = []
    if opts.include_shapes or opts.include_charts:
        try:
            drawing_path = resolve_sheet_drawing_path(package, sheet_path)
            if drawing_path is not None and drawing_path in package:
                drawing = parse_sheet_drawing(package, drawing_path, grid.metrics)
                if opts.include_shapes:
                    shapes = build_shapes_from_drawing(
                        drawing.shapes,
                        drawing.connectors,
                        smartarts=drawing.smartarts,
                    )
                if opts.include_charts:
                    charts = [
                        Chart(
                            name=ci.name,
                            chart_type=ci.chart_type,
                            title=ci.title,
                            y_axis_title=ci.y_axis_title,
                            y_axis_range=ci.y_axis_range,
                            w=ci.anchor_width,
                            h=ci.anchor_height,
                            series=ci.series,
                            l=ci.anchor_left or 0,
                            t=ci.anchor_top or 0,
                            provenance="python_ooxml",
                            approximation_level="partial",
                            confidence=0.6,
                        )
                        for ci in drawing.charts
                    ]
        except Exception:
            # Malformed drawing part: skip only this sheet's shapes/charts.
            shapes, charts = [], []

    sheet = SheetData(
        rows=rows if opts.include_rows else [],
        shapes=shapes,
        charts=charts,
        table_candidates=table_candidates,
        print_areas=print_areas if opts.include_print_areas else [],
        auto_print_areas=[],
        formulas_map=formulas_map,
        colors_map=colors_map,
        merged_cells=merged if opts.include_merged_cells else None,
    )
    # The shapes and charts are this sheet's own: strip sizes in place.
    if not opts.include_shape_size:
        for item in shapes:
            item.w = item.h = None
    if not opts.include_chart_size:
        for item in charts:
            item.w = item.h = None
    if opts.alpha_col:
        sheet = _project_alpha(sheet)
    return sheet


class _RowMemo(dict):
    """Per-document memo for building cell rows: a rendered cell string maps
    to its cell_row value (None when blank), a 0-based column index to its
    key ("0", "1", …). A workbook repeats a few distinct strings many times.
    """

    __slots__ = ()

    def __missing__(self, key: str | int) -> int | float | str | None:
        if type(key) is int:
            value = self[key] = str(key)
        else:
            value = self[key] = (
                coerce_numeric_preserve_format(key) if key.strip() else None
            )
        return value


def _cells_to_rows(
    grid: SheetGrid, include_links: bool, memo: _RowMemo
) -> list[CellRow]:
    """Sparse rows: skip blank-stripped cells, coerce numerics.

    One walk over the row-major cell table, a row at a time.
    Parity: core/cells.py:701-760 (extract_sheet_cells[_with_links]).
    """
    table = grid.table
    rows = table.rows
    links_by_row: dict[int, dict[str, str]] = {}
    if include_links:
        for (lr, c0), target in sorted(grid.hyperlinks.items()):
            links_by_row.setdefault(lr, {})[str(c0)] = target
    keys = list(map(memo.__getitem__, table.cols))
    cell_values = list(map(memo.__getitem__, table.values))
    has_blanks = None in cell_values
    out: list[CellRow] = []
    start = 0
    for r in dict.fromkeys(rows):
        end = bisect_right(rows, r, start)
        row_values = cell_values[start:end]
        if has_blanks and None in row_values:
            cells = {
                k: v for k, v in zip(keys[start:end], row_values) if v is not None
            }
        else:
            cells = dict(zip(keys[start:end], row_values))
        start = end
        if cells:
            out.append(CellRow(r=r, c=cells, links=links_by_row.get(r) or None))
    return out


def _merged_ranges(grid: SheetGrid) -> list[MergedCellRange]:
    """Merged ranges with the top-left value (" " when empty).

    Parity: core/cells.py:763-797 (extract_sheet_merged_cells).
    """
    out: list[MergedCellRange] = []
    for ref in grid.merged_refs:
        bounds = parse_range_zero_based(ref)
        if bounds is None:
            continue
        value = grid.value_at(bounds.r1 + 1, bounds.c1)
        if value == "":
            value = " "
        out.append(
            MergedCellRange(
                r1=bounds.r1 + 1, c1=bounds.c1, r2=bounds.r2 + 1, c2=bounds.c2, v=value
            )
        )
    return out


def _formulas_map(grid: SheetGrid) -> dict[str, list[tuple[int, int]]]:
    """Formula → positions, grouped in used-range row-major order.

    Parity: core/cells.py:313-361 (_extract_sheet_formulas).
    """
    table = grid.table
    formulas: dict[str, list[tuple[int, int]]] = {}
    for i, text in table.formulas.items():
        if text == "":
            continue
        normalized = text if text.startswith("=") else f"={text}"
        formulas.setdefault(normalized, []).append((table.rows[i], table.cols[i]))
    return formulas


def _colors_map(
    grid: SheetGrid, styles: Stylesheet, opts: ResolvedOptions
) -> dict[str, list[tuple[int, int]]]:
    """Color key → positions over the used range.

    Parity: core/cells.py:277-310 (_extract_sheet_colors). With default
    backgrounds included, absent cells inside the used range count as white.
    """
    from ..functions.colors import normalize_color_key, normalize_ignore_colors

    colors: dict[str, list[tuple[int, int]]] = {}
    if grid.max_row < grid.min_row or grid.max_col < grid.min_col:
        return colors
    ignore = normalize_ignore_colors(opts.ignore_colors)
    key_of: dict[int | None, str | None] = {}

    def color(style_idx: int | None) -> str | None:
        if style_idx in key_of:
            return key_of[style_idx]
        key = styles.resolve_background(style_idx, opts.include_default_background)
        if key is not None:
            key = normalize_color_key(key)
            if key in ignore:
                key = None
        key_of[style_idx] = key
        return key

    table = grid.table
    rows, cols, cell_styles = table.rows, table.cols, table.styles
    if opts.include_default_background:
        end = 0
        for r in range(grid.min_row, grid.max_row + 1):
            start, end = table.row_span(r, end)
            style_at = dict(zip(cols[start:end], cell_styles[start:end]))
            for c0 in range(grid.min_col - 1, grid.max_col):
                key = color(style_at.get(c0))
                if key is not None:
                    colors.setdefault(key, []).append((r, c0))
    else:
        for r, c0, style_idx in zip(rows, cols, cell_styles):
            if style_idx is None:
                continue
            key = color(style_idx)
            if key is not None:
                colors.setdefault(key, []).append((r, c0))
    return colors


def _filter_rows_excluding_merged_values(
    rows: list[CellRow], merged: list[MergedCellRange]
) -> list[CellRow]:
    """Drop cell values whose column falls inside a merged interval.

    Parity: core/pipeline.py:789-892.
    """
    intervals_by_row: dict[int, list[tuple[int, int]]] = {}
    for m in merged:
        for row in range(m.r1, m.r2 + 1):
            intervals_by_row.setdefault(row, []).append((m.c1, m.c2))
    for row, intervals in intervals_by_row.items():
        intervals_by_row[row] = _merge_intervals(intervals)
    if not intervals_by_row:
        return rows

    filtered_rows: list[CellRow] = []
    for row in rows:
        intervals = intervals_by_row.get(row.r)
        if not intervals:
            filtered_rows.append(row)
            continue
        filtered_cells: dict[str, int | float | str] = {}
        for col_key, value in row.c.items():
            try:
                col_index = int(col_key)
            except ValueError:
                filtered_cells[col_key] = value
                continue
            if not _col_in_intervals(col_index, intervals):
                filtered_cells[col_key] = value
        if not filtered_cells:
            continue
        filtered_links = None
        if row.links:
            filtered_links = {
                k: v for k, v in row.links.items() if k in filtered_cells
            } or None
        filtered_rows.append(CellRow(r=row.r, c=filtered_cells, links=filtered_links))
    return filtered_rows


def _merge_intervals(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    if not intervals:
        return []
    ordered = sorted(intervals)
    merged: list[tuple[int, int]] = []
    cur_start, cur_end = ordered[0]
    for start, end in ordered[1:]:
        if start <= cur_end + 1:
            cur_end = max(cur_end, end)
            continue
        merged.append((cur_start, cur_end))
        cur_start, cur_end = start, end
    merged.append((cur_start, cur_end))
    return merged


def _col_in_intervals(col_index: int, intervals: list[tuple[int, int]]) -> bool:
    for start, end in intervals:
        if col_index < start:
            return False
        if start <= col_index <= end:
            return True
    return False


def _project_alpha(sheet: SheetData) -> SheetData:
    """Numeric column keys → A,B,…; merged_cells → merged_ranges A1 list.

    Parity: models/__init__.py:603-709 (convert_sheet_keys_to_alpha).
    """
    from ..models import CellRow as _CellRow
    from ..functions.a1 import col_index_to_alpha

    def alpha_key(key: str) -> str:
        try:
            return col_index_to_alpha(int(key))
        except ValueError:
            return key

    def convert(mapping: dict, r: int, field_name: str) -> dict:
        converted: dict = {}
        for k, v in mapping.items():
            ak = alpha_key(k)
            if ak in converted:
                raise ValueError(
                    f"Column key collision after alpha conversion in row {r} "
                    f"({field_name}): {k!r} -> {ak!r}"
                )
            converted[ak] = v
        return converted

    new_rows = [
        _CellRow(
            r=row.r,
            c=convert(row.c, row.r, "c"),
            links=convert(row.links, row.r, "links") if row.links else None,
        )
        for row in sheet.rows
    ]
    sheet.rows = new_rows
    if sheet.merged_cells is not None:
        sheet.merged_ranges = merged_items_to_a1_ranges(sheet.merged_cells)
        sheet.merged_cells = None
    return sheet


def workbook_to_spans(workbook: WorkbookData, opts: ResolvedOptions) -> list[Span]:
    """Flatten a WorkbookData tree into the ordered span sequence."""
    ks: list[str] = []
    ts: list[str] = []
    rs: list[str] = []
    _workbook_spans_into(workbook, opts, ks, ts, rs)
    return [
        Span(kind=k, text=t, media_ref=m, offset=i)
        for i, (k, t, m) in enumerate(zip(ks, ts, rs))
    ]


def cell_row_json(row: CellRow) -> str:
    """``json.dumps(row.to_payload(), ensure_ascii=False, separators=(",", ":"))``."""
    return "".join(encode_compact(row.to_payload(), 0))


def _workbook_spans_into(
    workbook: WorkbookData,
    opts: ResolvedOptions,
    out_kinds: list[str],
    out_texts: list[str],
    out_refs: list[str],
) -> None:
    """Flatten a WorkbookData tree, appending (kind, text, media_ref)
    triples in span order; offsets are the append positions."""
    meta = opts.include_backend_metadata

    def emit(kind: str, text: str, media_ref: str) -> None:
        out_kinds.append(kind)
        out_texts.append(text)
        out_refs.append(media_ref)

    for sheet_name, sheet in workbook.sheets.items():
        # Cell rows contain no empty values by construction (blank cells
        # are stripped at parse), so the canonical empty-stripping pass is
        # an identity: the compact dump of the payload.
        n = len(sheet.rows)
        out_kinds.extend(["cell_row"] * n)
        out_texts.extend([cell_row_json(row) for row in sheet.rows])
        out_refs.extend([sheet_name] * n)
        for shape in sheet.shapes:
            emit(
                shape.kind,
                canonical_json(shape.to_payload(include_backend_metadata=meta)),
                sheet_name,
            )
        for chart in sheet.charts:
            emit(
                "chart",
                canonical_json(chart.to_payload(include_backend_metadata=meta)),
                sheet_name,
            )
        for addr in sheet.table_candidates:
            emit("table", addr, sheet_name)
        if sheet.merged_cells is not None and sheet.merged_cells:
            emit(
                "merged",
                canonical_json(merged_cells_payload(sheet.merged_cells)),
                sheet_name,
            )
        elif sheet.merged_ranges:
            emit("merged", canonical_json(sheet.merged_ranges), sheet_name)
        for area in sheet.print_areas:
            emit("print_area", canonical_json(area.to_payload()), sheet_name)
        if sheet.formulas_map:
            emit(
                "formulas_map",
                canonical_json(
                    {k: [list(p) for p in v] for k, v in sheet.formulas_map.items()}
                ),
                sheet_name,
            )
        if sheet.colors_map:
            emit(
                "colors_map",
                canonical_json(
                    {k: [list(p) for p in v] for k, v in sheet.colors_map.items()}
                ),
                sheet_name,
            )
