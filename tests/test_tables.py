"""Table detection chain tests (T1–T6 parity cases)."""

import numpy as np

from exstruct_ray.config import ExtractOptions, TableDetectionParams, TableScanLimits
from exstruct_ray.datagen.builder import BOX, WorkbookBuilder
from exstruct_ray.extract.document import extract_workbook
from exstruct_ray.tables.detect import (
    detect_border_clusters,
    merge_rectangles,
    _rectangles_overlap_for_merge,
)
from tests.test_cells import extract, make_package


class TestClusters:
    def test_min_size(self):
        grid = np.zeros((10, 10), dtype=bool)
        grid[1, 1] = grid[1, 2] = grid[2, 1] = True  # size 3 < 4
        assert detect_border_clusters(grid) == []
        grid[2, 2] = True
        assert detect_border_clusters(grid) == [(1, 1, 2, 2)]

    def test_two_components(self):
        grid = np.zeros((12, 12), dtype=bool)
        grid[1:3, 1:3] = True
        grid[8:10, 8:10] = True
        assert detect_border_clusters(grid) == [(1, 1, 2, 2), (8, 8, 9, 9)]


class TestMergeRectangles:
    def test_overlap_merges(self):
        assert merge_rectangles([(1, 1, 3, 3), (2, 2, 5, 5)]) == [(1, 1, 5, 5)]

    def test_containment_never_merges(self):
        # reference rule (cells.py:1700-1717): containment pairs stay separate
        a, b = (1, 1, 10, 10), (2, 2, 5, 5)
        assert not _rectangles_overlap_for_merge(a, b)
        assert merge_rectangles([a, b]) == [(1, 1, 10, 10), (2, 2, 5, 5)]

    def test_disjoint(self):
        assert merge_rectangles([(1, 1, 2, 2), (5, 5, 6, 6)]) == [
            (1, 1, 2, 2),
            (5, 5, 6, 6),
        ]


class TestDetectEndToEnd:
    def test_basic_table(self):
        wb = WorkbookBuilder()
        sh = wb.sheet("S")
        sh.fill_block(3, 1, [["h1", "h2", "h3", "h4"]], style=BOX)
        for i in range(6):
            sh.fill_block(4 + i, 1, [[i, i * 2, i * 3, f"x{i}"]], style=BOX)
        out = extract(wb)
        assert out.sheets["S"].table_candidates == ["B3:E9"]

    def test_declared_table_takes_priority(self):
        wb = WorkbookBuilder()
        sh = wb.sheet("S")
        sh.declare_table("A1:C5")
        sh.fill_block(1, 0, [["a", "b", "c"]] + [[1, 2, 3]] * 4)
        out = extract(wb)
        assert out.sheets["S"].table_candidates[0] == "A1:C5"

    def test_low_density_blob_rejected(self):
        wb = WorkbookBuilder()
        sh = wb.sheet("S")
        # bordered frame but only one value cell inside -> implausible
        for r in range(1, 5):
            for c in range(0, 4):
                sh.set(r, c, "x" if (r, c) == (1, 0) else "", style=BOX)
        out = extract(wb)
        assert out.sheets["S"].table_candidates == []

    def test_shrink_to_bordered_content(self):
        wb = WorkbookBuilder()
        sh = wb.sheet("S")
        # bordered 3x3 with values; plus unbordered far value that joins the
        # cluster bounding box only if shrink fails
        sh.fill_block(2, 1, [["h", "i", "j"], [1, 2, 3], [4, 5, 6]], style=BOX)
        out = extract(wb)
        assert out.sheets["S"].table_candidates == ["B2:D4"]

    def test_two_overlapping_boxes_merge(self):
        wb = WorkbookBuilder()
        sh = wb.sheet("S")
        sh.fill_block(1, 0, [["a", "b"], [1, 2]], style=BOX)
        sh.fill_block(2, 1, [["c", "d"], [3, 4]], style=BOX)
        out = extract(wb)
        # single merged candidate spanning both boxes
        assert out.sheets["S"].table_candidates == ["A1:C3"]

    def test_empty_row_run_early_exit(self):
        # A bordered table far below the empty-row-run limit is not scanned.
        limits = TableScanLimits(
            max_rows=5000,
            max_cols=200,
            empty_row_run=10,
            empty_col_run=80,
            min_rows_before_col_shrink=200,
        )
        wb = WorkbookBuilder()
        sh = wb.sheet("S")
        sh.fill_block(1, 0, [["a", "b"], [1, 2]], style=BOX)
        sh.fill_block(50, 0, [["c", "d"], [3, 4]], style=BOX)
        out = extract_workbook(
            make_package(wb),
            ExtractOptions(scan_limits=limits).resolved(),
        )
        assert out.sheets["S"].table_candidates == ["A1:B2"]

    def test_detection_params_threshold(self):
        wb = WorkbookBuilder()
        sh = wb.sheet("S")
        sh.fill_block(1, 0, [["h1", "h2"], [1, 2], [3, 4]], style=BOX)
        strict = extract_workbook(
            make_package(wb),
            ExtractOptions(
                table_params=TableDetectionParams(table_score_threshold=2.0)
            ).resolved(),
        )
        assert strict.sheets["S"].table_candidates == []


def _reference_border_maps(grid, styles, limits):
    """The per-cell scan the row-slice scan replaced, kept as its oracle."""
    max_row, max_col = max(grid.max_row, 1), max(grid.max_col, 1)
    scan_max_row = min(max_row, limits.max_rows)
    scan_max_col = min(max_col, limits.max_cols)
    shape = (scan_max_row + 1, scan_max_col + 1)
    maps = [np.zeros(shape, dtype=bool) for _ in range(5)]
    col_has_border = np.zeros(shape[1], dtype=bool)
    by_row = {}
    for (r, c0), cell in grid.cells.items():
        edges = styles.style(cell.style).border
        if cell.style is not None and edges.any:
            by_row.setdefault(r, []).append((c0 + 1, edges))
    empty_rows = scanned = 0
    cap = scan_max_col
    for r in range(grid.min_row, scan_max_row + 1):
        row_has_border = False
        for c, edges in by_row.get(r, ()):
            if c < grid.min_col or c > cap:
                continue
            row_has_border = True
            col_has_border[c] = True
            for m, flag in zip(maps, (True, edges.top, edges.bottom, edges.left, edges.right)):
                if flag:
                    m[r, c] = True
        empty_rows = 0 if row_has_border else empty_rows + 1
        scanned += 1
        if empty_rows >= limits.empty_row_run:
            break
        if scanned < limits.min_rows_before_col_shrink:
            continue
        trailing = 0
        for c in range(cap, grid.min_col - 1, -1):
            if col_has_border[c]:
                break
            trailing += 1
            if trailing >= limits.empty_col_run:
                cap = min(cap, max(grid.min_col, cap - trailing))
                break
    return maps


class TestBorderMapScan:
    def test_row_slice_scan_matches_per_cell_scan(self):
        """Scan limits (empty-row exit, trailing-column shrink, caps) give
        the same maps on random sheets, on both fill paths (below and above
        the numpy cell gate)."""
        from exstruct_ray.ooxml.sheet_parser import CellTable, SheetGrid
        from exstruct_ray.ooxml.styles import BorderEdges, CellStyle, Stylesheet
        from exstruct_ray.tables.detect import load_border_maps

        styles = Stylesheet(
            styles=[CellStyle(None, BorderEdges(*(bool(b >> k & 1) for k in range(4))), False)
                    for b in range(16)]
        )
        rng = np.random.RandomState(7)
        for case in range(150):
            rows, cols = int(rng.randint(1, 60)), int(rng.randint(1, 40))
            density = rng.choice([0.05, 0.3, 0.9])
            cells = sorted(
                (r + 1 + int(rng.randint(0, 3)), c)
                for r in range(rows) for c in range(cols) if rng.rand() < density
            )
            cells = sorted(set(cells))
            if not cells:
                continue
            grid = SheetGrid(name="S")
            grid.set_cells(CellTable(
                rows=[r for r, _ in cells],
                cols=[c for _, c in cells],
                values=["x"] * len(cells),
                styles=[int(s) if s < 16 else None for s in rng.randint(0, 20, len(cells))],
            ))
            limits = TableScanLimits(
                max_rows=int(rng.randint(1, 70)),
                max_cols=int(rng.randint(1, 50)),
                empty_row_run=int(rng.randint(1, 8)),
                empty_col_run=int(rng.randint(1, 10)),
                min_rows_before_col_shrink=int(rng.randint(0, 10)),
            )
            got = load_border_maps(grid, styles, limits)
            want = _reference_border_maps(grid, styles, limits)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), (case, limits)


def _reference_nonempty_mask(grid, top, left, bottom, right):
    """The per-position loop ``_nonempty_mask`` replaced, as its oracle."""
    mask = np.zeros((bottom - top + 1, right - left + 1), dtype=bool)
    cells = grid.cells
    for r in range(top, bottom + 1):
        for c in range(left, right + 1):
            cell = cells.get((r, c - 1))
            if cell is not None and cell.value and cell.value.strip() != "":
                mask[r - top, c - left] = True
    return mask


class TestNonemptyMask:
    def test_mask_matches_per_position_loop(self):
        """Random sheets and rectangles, on both fill paths (below and above
        the numpy cell gate): the rectangle's rows hold cells left and right
        of it, and values include whitespace-only strings."""
        from exstruct_ray.ooxml.sheet_parser import CellTable, SheetGrid
        from exstruct_ray.tables.detect import _NUMPY_MASK_CELLS, _nonempty_mask

        pool = ["x", "", " ", "\t", "\n ", "\u3000", " a ", "0", " "]
        rng = np.random.RandomState(11)
        paths = set()
        for case in range(150):
            rows, cols = int(rng.randint(1, 60)), int(rng.randint(1, 40))
            density = rng.choice([0.1, 0.5, 0.95])
            cells = [
                (r + 1, c)
                for r in range(rows) for c in range(cols) if rng.rand() < density
            ]
            if not cells:
                continue
            grid = SheetGrid(name="S")
            grid.set_cells(CellTable(
                rows=[r for r, _ in cells],
                cols=[c for _, c in cells],
                values=[pool[i] for i in rng.randint(0, len(pool), len(cells))],
                styles=[None] * len(cells),
            ))
            for _ in range(4):
                top = int(rng.randint(1, rows + 1))
                bottom = int(rng.randint(top, rows + 2))
                left = int(rng.randint(1, cols + 1))
                right = int(rng.randint(left, cols + 2))
                in_rows = sum(top <= r <= bottom for r, _ in cells)
                paths.add(in_rows >= _NUMPY_MASK_CELLS)
                got = _nonempty_mask(grid, top, left, bottom, right)
                want = _reference_nonempty_mask(grid, top, left, bottom, right)
                assert got.shape == want.shape
                assert np.array_equal(got, want), (case, top, left, bottom, right)
        assert paths == {False, True}
