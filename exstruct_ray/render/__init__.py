"""Light (pure-stdlib) workbook rendering: PDF and PNG sheet images.

Counterpart of the reference's render subsystem
(/root/reference/src/exstruct/render/__init__.py: export_pdf :40-77,
export_sheet_images :89-138), which requires desktop Excel COM for the
XLSX→PDF leg and pypdfium2 for rasterization — both unavailable here (and
on any Linux cluster node). This module is the engine's own light path:
an APPROXIMATE deterministic rendering of the extracted span model — grid
lines, cell text, merged-range boxes, detected-table outlines — written
as hand-built PDF (built-in Helvetica, uncompressed content streams) and
PNG (this repo's own encoder + a public-domain 5×7 bitmap font). It is a
layout sketch for visual/LLM consumption, NOT print-fidelity Excel
rendering; the fidelity delta vs COM is documented, not hidden.

Scale shape: rendering is per-document work → a task map_batches
stage (`render_corpus`) emitting one (doc_id, sheet_name, payload) row
per page, with small batches (binary outputs multiply memory).
"""

from __future__ import annotations

import numpy as np

from ..config import ExtractOptions
from ..extract.document import extract_workbook
from ..functions.a1 import parse_range_zero_based
from ..models import WorkbookData
from ..ooxml.package import VirtualPackage
from .font5x7 import glyph

__all__ = [
    "export_pdf",
    "export_sheet_images",
    "render_corpus",
    "workbook_to_pdf_bytes",
    "workbook_to_sheet_pngs",
]

# Layout caps: a light render clips the used range (giant sheets get the
# top-left window; the cap is the renderer's documented scan limit).
MAX_ROWS = 48
MAX_COLS = 16
PAGE_W, PAGE_H = 842.0, 595.0  # A4 landscape, points
MARGIN = 36.0
HEADER_H = 24.0


def _workbook_from_source(source, options: ExtractOptions | None = None) -> WorkbookData:
    if isinstance(source, WorkbookData):
        return source
    if isinstance(source, VirtualPackage):
        package = source
    elif isinstance(source, (bytes, bytearray)):
        package = VirtualPackage.from_xlsx_bytes(bytes(source))
    elif isinstance(source, str):
        with open(source, "rb") as fh:
            package = VirtualPackage.from_xlsx_bytes(fh.read())
    elif isinstance(source, list):  # span dicts
        package = VirtualPackage.from_spans(
            [s.get("kind") or "" for s in source],
            [s.get("text") or "" for s in source],
            [s.get("media_ref") or "" for s in source],
        )
    else:
        raise TypeError(f"Unsupported render source: {type(source)!r}")
    if options is None:
        # merged-range boxes are part of the rendering even in light mode
        options = ExtractOptions(include_merged_cells=True)
    return extract_workbook(package, options.resolved())


def _sheet_grid(sheet):
    """(cells {(r0, c0): text}, n_rows, n_cols) clipped to the caps.

    Bounds grow to cover merged ranges and detected tables too, so their
    outline boxes render even when the covered cells are empty."""
    cells: dict[tuple[int, int], str] = {}
    max_r = max_c = -1
    for row in sheet.rows:
        r0 = row.r - 1
        if r0 >= MAX_ROWS:
            continue
        for key, value in row.c.items():
            try:
                c0 = int(key)
            except ValueError:
                continue
            if c0 >= MAX_COLS:
                continue
            cells[(r0, c0)] = str(value)
            max_r = max(max_r, r0)
            max_c = max(max_c, c0)
    for ref in list(_merged_refs(sheet)) + list(sheet.table_candidates):
        bounds = parse_range_zero_based(ref)
        if bounds is None:
            continue
        max_r = max(max_r, min(bounds.r2, MAX_ROWS - 1))
        max_c = max(max_c, min(bounds.c2, MAX_COLS - 1))
    if max_r < 0 or max_c < 0:
        return {}, 0, 0
    return cells, max_r + 1, max_c + 1


def _clipped_ranges(refs, n_rows: int, n_cols: int):
    """A1 ranges → (r1, c1, r2, c2) 0-based boxes clipped to the grid."""
    out = []
    for ref in refs:
        bounds = parse_range_zero_based(ref)
        if bounds is None:
            continue
        r1, c1 = max(0, bounds.r1), max(0, bounds.c1)
        r2 = min(bounds.r2, n_rows - 1)
        c2 = min(bounds.c2, n_cols - 1)
        if r1 <= r2 and c1 <= c2:
            out.append((r1, c1, r2, c2))
    return out


def _merged_refs(sheet) -> list[str]:
    if sheet.merged_cells:
        from ..models import merged_items_to_a1_ranges

        return merged_items_to_a1_ranges(sheet.merged_cells)
    return list(sheet.merged_ranges or [])


# ---------------------------------------------------------------------------
# PDF writer (hand-built, uncompressed — text greppable in tests)
# ---------------------------------------------------------------------------


def _pdf_escape(text: str) -> str:
    # Built-in Helvetica is WinAnsi: keep latin-1-encodable chars only.
    safe = text.encode("latin-1", "replace").decode("latin-1")
    return safe.replace("\\", r"\\").replace("(", r"\(").replace(")", r"\)")


def _sheet_content_stream(name: str, sheet) -> bytes:
    cells, n_rows, n_cols = _sheet_grid(sheet)
    ops: list[str] = []
    ops.append("BT /F1 12 Tf 0 0 0 rg")
    ops.append(f"1 0 0 1 {MARGIN:.1f} {PAGE_H - MARGIN:.1f} Tm ({_pdf_escape(name)}) Tj")
    ops.append("ET")
    if n_rows and n_cols:
        grid_w = PAGE_W - 2 * MARGIN
        grid_h = PAGE_H - 2 * MARGIN - HEADER_H
        cw = min(110.0, grid_w / n_cols)
        ch = min(15.0, grid_h / n_rows)
        x0, y0 = MARGIN, PAGE_H - MARGIN - HEADER_H  # top-left of grid
        ops.append("0.7 0.7 0.7 RG 0.5 w")
        for r in range(n_rows + 1):
            y = y0 - r * ch
            ops.append(f"{x0:.1f} {y:.1f} m {x0 + cw * n_cols:.1f} {y:.1f} l S")
        for c in range(n_cols + 1):
            x = x0 + c * cw
            ops.append(f"{x:.1f} {y0:.1f} m {x:.1f} {y0 - ch * n_rows:.1f} l S")
        max_chars = max(1, int(cw / 4.5))
        ops.append("BT /F1 7 Tf 0 0 0 rg")
        for (r0, c0), text in sorted(cells.items()):
            x = x0 + c0 * cw + 2
            y = y0 - (r0 + 1) * ch + 4
            ops.append(
                f"1 0 0 1 {x:.1f} {y:.1f} Tm ({_pdf_escape(text[:max_chars])}) Tj"
            )
        ops.append("ET")
        # merged ranges: blue boxes; detected tables: red boxes
        for color, boxes in (
            ("0 0 1 RG 1 w", _clipped_ranges(_merged_refs(sheet), n_rows, n_cols)),
            ("1 0 0 RG 1 w", _clipped_ranges(sheet.table_candidates, n_rows, n_cols)),
        ):
            if boxes:
                ops.append(color)
                for r1, c1, r2, c2 in boxes:
                    x = x0 + c1 * cw
                    y = y0 - (r2 + 1) * ch
                    ops.append(
                        f"{x:.1f} {y:.1f} {(c2 - c1 + 1) * cw:.1f} "
                        f"{(r2 - r1 + 1) * ch:.1f} re S"
                    )
    return "\n".join(ops).encode("latin-1")


def workbook_to_pdf_bytes(workbook: WorkbookData) -> tuple[bytes, list[str]]:
    """One PDF page per sheet. Returns (pdf_bytes, sheet names in order)."""
    sheet_names = list(workbook.sheets.keys())
    objects: list[bytes] = []  # 1-indexed bodies, object i+1

    def add(body: bytes) -> int:
        objects.append(body)
        return len(objects)

    font_id = add(
        b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica "
        b"/Encoding /WinAnsiEncoding >>"
    )
    page_ids: list[int] = []
    content_ids: list[int] = []
    for name in sheet_names:
        stream = _sheet_content_stream(name, workbook.sheets[name])
        content_ids.append(
            add(
                b"<< /Length %d >>\nstream\n%s\nendstream" % (len(stream), stream)
            )
        )
    pages_id_placeholder = len(objects) + len(sheet_names) + 1
    for content_id in content_ids:
        page_ids.append(
            add(
                (
                    f"<< /Type /Page /Parent {pages_id_placeholder} 0 R "
                    f"/MediaBox [0 0 {PAGE_W:.0f} {PAGE_H:.0f}] "
                    f"/Resources << /Font << /F1 {font_id} 0 R >> >> "
                    f"/Contents {content_id} 0 R >>"
                ).encode()
            )
        )
    kids = " ".join(f"{pid} 0 R" for pid in page_ids)
    pages_id = add(
        f"<< /Type /Pages /Kids [{kids}] /Count {len(page_ids)} >>".encode()
    )
    assert pages_id == pages_id_placeholder
    catalog_id = add(f"<< /Type /Catalog /Pages {pages_id} 0 R >>".encode())

    out = bytearray(b"%PDF-1.4\n%\xe2\xe3\xcf\xd3\n")
    offsets = [0] * (len(objects) + 1)
    for i, body in enumerate(objects, start=1):
        offsets[i] = len(out)
        out += b"%d 0 obj\n" % i
        out += body
        out += b"\nendobj\n"
    xref_at = len(out)
    out += b"xref\n0 %d\n" % (len(objects) + 1)
    out += b"0000000000 65535 f \n"
    for i in range(1, len(objects) + 1):
        out += b"%010d 00000 n \n" % offsets[i]
    out += (
        f"trailer\n<< /Size {len(objects) + 1} /Root {catalog_id} 0 R >>\n"
        f"startxref\n{xref_at}\n%%EOF\n"
    ).encode()
    return bytes(out), sheet_names


def export_pdf(excel_path: str, output_pdf: str) -> list[str]:
    """Light-path parity with the reference's export_pdf(excel_path,
    output_pdf) -> ordered sheet names (render/__init__.py:40-77), minus
    the Excel COM dependency and its print fidelity."""
    pdf, sheet_names = workbook_to_pdf_bytes(_workbook_from_source(excel_path))
    import os

    os.makedirs(os.path.dirname(os.path.abspath(output_pdf)), exist_ok=True)
    with open(output_pdf, "wb") as fh:
        fh.write(pdf)
    return sheet_names


# ---------------------------------------------------------------------------
# PNG raster (uses this repo's encoder from ops.media)
# ---------------------------------------------------------------------------

CELL_W_PX = 64
CELL_H_PX = 12
HEADER_PX = 14


def _draw_text(canvas: np.ndarray, x: int, y: int, text: str, color=(0, 0, 0)) -> None:
    h, w, _ = canvas.shape
    for ch in text:
        cols = glyph(ch)
        for ci, col_byte in enumerate(cols):
            for ri in range(7):
                if col_byte >> ri & 1:
                    py, px = y + ri, x + ci
                    if 0 <= py < h and 0 <= px < w:
                        canvas[py, px] = color
        x += 6
        if x >= w:
            break


def render_sheet_png(name: str, sheet) -> bytes:
    """Rasterize one sheet: header, gray grid, 5×7 text, merged boxes in
    blue, detected tables in red. Deterministic."""
    from ..ops.media import encode_png

    cells, n_rows, n_cols = _sheet_grid(sheet)
    n_rows_px = max(n_rows, 1)
    n_cols_px = max(n_cols, 1)
    w = n_cols_px * CELL_W_PX + 1
    h = HEADER_PX + n_rows_px * CELL_H_PX + 1
    canvas = np.full((h, w, 3), 255, dtype=np.uint8)
    _draw_text(canvas, 2, 3, name[: w // 6])
    y0 = HEADER_PX
    grid = (200, 200, 200)
    for r in range(n_rows_px + 1):
        canvas[y0 + r * CELL_H_PX, :, :] = grid
    for c in range(n_cols_px + 1):
        canvas[y0:, min(c * CELL_W_PX, w - 1), :] = grid
    max_chars = (CELL_W_PX - 3) // 6
    for (r0, c0), text in cells.items():
        _draw_text(
            canvas,
            c0 * CELL_W_PX + 2,
            y0 + r0 * CELL_H_PX + 2,
            text[:max_chars],
        )
    for color, boxes in (
        ((0, 0, 255), _clipped_ranges(_merged_refs(sheet), n_rows_px, n_cols_px)),
        ((255, 0, 0), _clipped_ranges(sheet.table_candidates, n_rows_px, n_cols_px)),
    ):
        for r1, c1, r2, c2 in boxes:
            top = y0 + r1 * CELL_H_PX
            bottom = y0 + (r2 + 1) * CELL_H_PX
            left = c1 * CELL_W_PX
            right = min((c2 + 1) * CELL_W_PX, w - 1)
            canvas[top, left:right, :] = color
            canvas[min(bottom, h - 1), left:right, :] = color
            canvas[top:bottom, left, :] = color
            canvas[top:bottom, right, :] = color
    return encode_png(canvas)


def workbook_to_sheet_pngs(workbook: WorkbookData) -> dict[str, bytes]:
    return {
        name: render_sheet_png(name, sheet)
        for name, sheet in workbook.sheets.items()
    }


def export_sheet_images(
    excel_path: str, output_dir: str, sheet: str | None = None
) -> list[str]:
    """Light-path parity with the reference's export_sheet_images
    (render/__init__.py:89-138): one PNG per sheet (or the named sheet),
    files named after sanitized sheet names, paths returned in order."""
    import os
    import re

    workbook = _workbook_from_source(excel_path)
    os.makedirs(output_dir, exist_ok=True)
    paths: list[str] = []
    used: set[str] = set()
    for name, sheet_data in workbook.sheets.items():
        if sheet is not None and name != sheet:
            continue
        safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", name) or "sheet"
        # distinct sheet names can sanitize to the same filename
        # ("Q1/Q2" and "Q1 Q2") — suffix instead of silently overwriting
        candidate = safe
        n = 2
        while candidate in used:
            candidate = f"{safe}-{n}"
            n += 1
        used.add(candidate)
        path = os.path.join(output_dir, f"{candidate}.png")
        with open(path, "wb") as fh:
            fh.write(render_sheet_png(name, sheet_data))
        paths.append(path)
    if sheet is not None and not paths:
        raise ValueError(f"Sheet not found: {sheet}")
    return paths


# ---------------------------------------------------------------------------
# Ray stage
# ---------------------------------------------------------------------------


def render_corpus(ds, fmt: str = "png", batch_size: int = 8):
    """Corpus-scale render stage: (doc_id, spans) → one row per rendered
    page, in small batches (binary outputs).

    fmt="png": (doc_id, sheet_name, payload) one row per sheet.
    fmt="pdf": (doc_id, sheet_name="*", payload) one whole-document PDF.
    Degrade-in-place: a document that fails to render emits zero rows
    rather than failing the task.
    """
    import pyarrow as pa

    if fmt not in ("png", "pdf"):
        raise ValueError(f"Unsupported render fmt: {fmt}")
    opts = ExtractOptions(include_merged_cells=True).resolved()

    def render(batch: pa.Table) -> pa.Table:
        rows_id: list = []
        rows_sheet: list[str] = []
        rows_payload: list[bytes] = []
        for doc_id, spans in zip(
            batch.column("doc_id").to_pylist(), batch.column("spans").to_pylist()
        ):
            spans = spans or []
            try:
                package = VirtualPackage.from_spans(
                    [s.get("kind") or "" for s in spans],
                    [s.get("text") or "" for s in spans],
                    [s.get("media_ref") or "" for s in spans],
                )
                workbook = extract_workbook(package, opts)
                if fmt == "pdf":
                    pdf, _ = workbook_to_pdf_bytes(workbook)
                    rows_id.append(doc_id)
                    rows_sheet.append("*")
                    rows_payload.append(pdf)
                else:
                    for name, png in workbook_to_sheet_pngs(workbook).items():
                        rows_id.append(doc_id)
                        rows_sheet.append(name)
                        rows_payload.append(png)
            except Exception:
                continue
        # Arrow out, typed even when every document failed: zero rows of
        # the three columns, never a zero-row pandas block.
        return pa.table(
            [
                pa.array(rows_id, batch.schema.field("doc_id").type),
                pa.array(rows_sheet, pa.string()),
                pa.array(rows_payload, pa.binary()),
            ],
            names=["doc_id", "sheet_name", "payload"],
        )

    return ds.map_batches(render, batch_format="pyarrow", batch_size=batch_size)
