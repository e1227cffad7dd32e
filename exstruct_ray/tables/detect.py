"""Table-region detection: border clusters → merge → shrink → score.

Semantics parity with the reference chain T1–T6
(/root/reference/src/exstruct/core/cells.py):
  - declared-table refs first (`_extract_openpyxl_table_refs`, :1780-1806)
  - border map scan with TableScanLimits caps, empty-row early exit and
    trailing-column shrink (`load_border_maps_xlsx`, :940-1053)
  - 4-connected components over has_border, min size 4
    (`detect_border_clusters`, :1056-1157)
  - overlapping-rectangle merge that never consolidates containment pairs
    (`_merge_rectangles` / `_rectangles_overlap_for_merge`, :1671-1717)
  - shrink-to-content trimming empty-border edge rows/cols
    (`shrink_to_content_openpyxl`, :1405-1586)
  - candidate scoring: density/coverage gate, plausibility (≥2 rows and ≥2
    cols with ≥2 nonempty), header bonus 0.2, coverage bonus 0.1, structure
    bonus 0.1 vs threshold 0.35 (`_collect_table_candidates_from_values`,
    :1720-1763; `_table_signal_score`, :1350-1381)

Runs on the in-memory SheetGrid — the workbook is parsed once per document,
unlike the reference which re-opens the file per artifact.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, compress, starmap

import numpy as np

from ..config import TableDetectionParams, TableScanLimits
from ..functions.a1 import col_index_to_alpha
from ..functions.coerce import FLOAT_RE, INT_RE
from ..ooxml.package import VirtualPackage
from ..ooxml.sheet_parser import SheetGrid
from ..ooxml.styles import Stylesheet

_TABLE_REL_TYPE = (
    "http://schemas.openxmlformats.org/officeDocument/2006/relationships/table"
)
_MAIN_NS = "{http://schemas.openxmlformats.org/spreadsheetml/2006/main}"


def extract_declared_table_refs(
    package: VirtualPackage, sheet_path: str, grid: SheetGrid
) -> list[str]:
    """Declared ListObject table refs (highest priority, taken verbatim).

    Uses the tablePart relationship ids collected during the sheet parse —
    the sheet XML is never re-read (the reference re-opens the workbook per
    artifact; we parse each part exactly once per document).
    """
    refs: list[str] = []
    if not grid.table_part_rids:
        return refs
    rel_map = package.relationships(sheet_path)
    for rid in grid.table_part_rids:
        rel = rel_map.get(rid)
        if rel is None or rel.relationship_type != _TABLE_REL_TYPE:
            continue
        if rel.target not in package:
            continue
        ref = package.read_xml(rel.target).attrib.get("ref")
        if ref:
            refs.append(ref)
    return refs


# Bordered cells from which the maps are filled by numpy fancy indexing;
# below it element-wise sets win (fancy indexing's fixed cost dominates).
# Measured crossover: 32-64 cells (BASELINE.md, "Columnar cell path").
_NUMPY_BORDER_CELLS = 64


def _has_bordered_cell(grid: SheetGrid, styles: Stylesheet) -> bool:
    """Whether any cell's style draws a border edge; a sheet without styled
    cells answers without loading the stylesheet."""
    cell_styles = grid.table.styles
    if cell_styles.count(None) == len(cell_styles):
        return False
    edges_of = styles.border_edges()
    return bool(edges_of) and any(map(edges_of.__contains__, cell_styles))


def load_border_maps(
    grid: SheetGrid, styles: Stylesheet, limits: TableScanLimits
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Build border-presence maps with the reference's scan-limit behavior.

    Arrays are 1-based indexed, shape (scan_max_row+1, scan_max_col+1).
    The scan walks rows, not cells: the bordered cells of a row are one
    sorted slice of the row-major cell table.
    """
    max_row = max(grid.max_row, 1)
    max_col = max(grid.max_col, 1)
    scan_max_row = min(max_row, limits.max_rows)
    scan_max_col = min(max_col, limits.max_cols)
    shape = (scan_max_row + 1, scan_max_col + 1)

    # Only styled cells can have borders.
    edges_of = styles.border_edges()
    table = grid.table
    bordered = (
        list(compress(range(len(table)), map(edges_of.__contains__, table.styles)))
        if edges_of
        else []
    )
    b_rows = list(map(table.rows.__getitem__, bordered))
    b_cols = list(map(table.cols.__getitem__, bordered))  # 0-based
    b_styles = list(map(table.styles.__getitem__, bordered))
    maps = [np.zeros(shape, dtype=bool) for _ in range(5)]
    if not bordered:
        return maps[0], maps[1], maps[2], maps[3], maps[4]

    min_row = grid.min_row
    min_col = grid.min_col
    consecutive_empty_rows = 0
    current_max_col = scan_max_col
    rows_scanned = 0
    # Highest column holding a border so far: the trailing-empty-column
    # count is current_max_col minus it.
    last_bordered_col = min_col - 1
    col_step = max(limits.empty_col_run, 1)
    spans: list[tuple[int, int]] = []  # bordered-cell index ranges kept
    n_bordered = len(bordered)
    j = 0
    for r in range(min_row, scan_max_row + 1):
        row_has_border = False
        if j < n_bordered and b_rows[j] == r:
            end = bisect_right(b_rows, r, j)
            lo = bisect_left(b_cols, min_col - 1, j, end)
            hi = bisect_right(b_cols, current_max_col - 1, lo, end)
            j = end
            if lo < hi:
                row_has_border = True
                spans.append((lo, hi))
                if b_cols[hi - 1] + 1 > last_bordered_col:
                    last_bordered_col = b_cols[hi - 1] + 1

        if row_has_border:
            consecutive_empty_rows = 0
        else:
            consecutive_empty_rows += 1
        rows_scanned += 1
        if consecutive_empty_rows >= limits.empty_row_run:
            break
        if rows_scanned < limits.min_rows_before_col_shrink:
            continue
        if current_max_col - last_bordered_col >= col_step:
            current_max_col = max(min_col, current_max_col - col_step)

    kept = list(chain.from_iterable(starmap(range, spans)))
    width = shape[1]
    if len(kept) >= _NUMPY_BORDER_CELLS:
        idx = np.array(kept, dtype=np.intp)
        flat = (
            np.array(b_rows, dtype=np.intp)[idx] * width
            + np.array(b_cols, dtype=np.intp)[idx]
            + 1
        )
        keys = list(edges_of)
        edge_table = np.zeros((max(keys) + 1, 4), dtype=bool)
        edge_table[keys] = list(edges_of.values())
        flags = edge_table[np.array(b_styles, dtype=np.intp)[idx]]
        maps[0].reshape(-1)[flat] = True
        for k in range(4):
            maps[k + 1].reshape(-1)[flat[flags[:, k]]] = True
    else:
        has_border, top_edge, bottom_edge, left_edge, right_edge = maps
        for i in kept:
            r, c = b_rows[i], b_cols[i] + 1
            has_border[r, c] = True
            top, bottom, left, right = edges_of[b_styles[i]]
            if top:
                top_edge[r, c] = True
            if bottom:
                bottom_edge[r, c] = True
            if left:
                left_edge[r, c] = True
            if right:
                right_edge[r, c] = True
    return maps[0], maps[1], maps[2], maps[3], maps[4]


# Rows from which _components_bboxes folds stacks of identical rows. Finding
# the stacks costs fixed numpy passes: on shorter grids they cost more than
# folding saves (measured crossover 40-64 rows, BASELINE.md).
_BLOCK_MIN_ROWS = 64


def _components_bboxes(
    grid: np.ndarray, min_size: int = 1
) -> list[tuple[int, int, int, int]]:
    """4-connected component bounding boxes over a boolean grid.

    Run-length union-find: rows decompose into runs of consecutive True
    cells (vectorized), runs union with overlapping runs of the previous
    row. O(#runs) instead of O(#cells); a stack of identical rows counts as
    one row, so a dense bordered table is one run. Produces the same boxes
    as the reference's per-cell BFS (cells.py:1081-1120), emitted in the
    same row-major discovery order (topmost row, then leftmost cell of that
    row).
    """
    h, w = grid.shape
    if h == 0 or w == 0 or not grid.any():
        return []
    if grid.size <= 64:
        # Tiny grids: the vectorized run extraction's fixed numpy overhead
        # exceeds a direct scan; fall back to a cell BFS.
        return _components_bboxes_small(grid, min_size)

    parent: list[int] = []

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    # Each row equal to the row above joins that row's block: a block's
    # components are those of its first row, stretched over its height.
    # Short grids skip the numpy passes that finding blocks costs.
    if h >= _BLOCK_MIN_ROWS:
        new_block = np.ones(h, dtype=bool)
        new_block[1:] = (grid[1:] != grid[:-1]).any(axis=1)
        blocks = grid[new_block]
        block_top = np.flatnonzero(new_block)
        block_height = np.diff(block_top, append=h).tolist()
        block_top = block_top.tolist()
    else:
        blocks = grid
        block_top = list(range(h))
        block_height = [1] * h

    # All runs in one vectorized pass: pad a False column per row, flatten,
    # and diff once — run rows/cols recovered by divmod on the padded width.
    wp = w + 1
    padded = np.zeros((len(block_top), wp), dtype=np.int8)
    padded[:, :w] = blocks
    flat = padded.ravel()
    d = np.diff(flat, prepend=np.int8(0))
    start_pos = np.flatnonzero(d == 1)
    end_pos = np.flatnonzero(d == -1) - 1
    run_rows = (start_pos // wp).tolist()
    run_starts = (start_pos % wp).tolist()
    run_ends = (end_pos % wp).tolist()

    # A run joins the component of the first previous-row run it overlaps
    # (unioning any further ones); a component's label is its first run's,
    # the smallest, so label order is discovery order. Per label:
    # [min_r, min_c, max_r, max_c, size], merged into the root on union;
    # r counts blocks until the boxes map back to grid rows.
    stats: list[list[int]] = []
    prev: list[tuple[int, int, int]] = []  # (start, end, label) of prev row
    prev_row = -2
    cur: list[tuple[int, int, int]] = []
    pi = 0
    for r, s, e in zip(run_rows, run_starts, run_ends):
        if r != prev_row:
            prev = cur if r == prev_row + 1 else []
            cur = []
            pi = 0
            prev_row = r
        # advance past prev-row runs that end before this run starts
        n_prev = len(prev)
        while pi < n_prev and prev[pi][1] < s:
            pi += 1
        label = -1
        pj = pi
        while pj < n_prev and prev[pj][0] <= e:
            other = prev[pj][2]
            if parent[other] != other:
                other = find(other)
            if label < 0:
                label = other
            elif other != label:
                keep, gone = (label, other) if label < other else (other, label)
                parent[gone] = keep
                a, b = stats[keep], stats[gone]
                a[0] = min(a[0], b[0])
                a[1] = min(a[1], b[1])
                a[3] = max(a[3], b[3])
                a[4] += b[4]
                label = keep
            pj += 1
        size = (e - s + 1) * block_height[r]
        if label < 0:
            label = len(parent)
            parent.append(label)
            stats.append([r, s, r, e, size])
        else:
            st = stats[label]
            if s < st[1]:
                st[1] = s
            st[2] = r
            if e > st[3]:
                st[3] = e
            st[4] += size
        cur.append((s, e, label))

    return [
        (block_top[st[0]], st[1], block_top[st[2]] + block_height[st[2]] - 1, st[3])
        for label, st in enumerate(stats)
        if parent[label] == label and st[4] >= min_size
    ]


def _components_bboxes_small(
    grid: np.ndarray, min_size: int
) -> list[tuple[int, int, int, int]]:
    h, w = grid.shape
    cells = grid.tolist()
    seen = [[False] * w for _ in range(h)]
    rects: list[tuple[int, int, int, int]] = []
    for i in range(h):
        for j in range(w):
            if not cells[i][j] or seen[i][j]:
                continue
            stack = [(i, j)]
            seen[i][j] = True
            min_y = max_y = i
            min_x = max_x = j
            size = 0
            while stack:
                y, x = stack.pop()
                size += 1
                if y < min_y:
                    min_y = y
                elif y > max_y:
                    max_y = y
                if x < min_x:
                    min_x = x
                elif x > max_x:
                    max_x = x
                for ny, nx in ((y + 1, x), (y - 1, x), (y, x + 1), (y, x - 1)):
                    if 0 <= ny < h and 0 <= nx < w and cells[ny][nx] and not seen[ny][nx]:
                        seen[ny][nx] = True
                        stack.append((ny, nx))
            if size >= min_size:
                rects.append((min_y, min_x, max_y, max_x))
    return rects


def detect_border_clusters(
    has_border: np.ndarray, min_size: int = 4
) -> list[tuple[int, int, int, int]]:
    """4-connected components of border cells → bounding boxes."""
    return _components_bboxes(has_border, min_size=min_size)


def _rectangles_overlap_for_merge(
    a: tuple[int, int, int, int], b: tuple[int, int, int, int]
) -> bool:
    contains = (a[0] <= b[0] and a[1] <= b[1] and a[2] >= b[2] and a[3] >= b[3]) or (
        b[0] <= a[0] and b[1] <= a[1] and b[2] >= a[2] and b[3] >= a[3]
    )
    if contains:
        return False
    return not (a[1] > b[3] or a[3] < b[1] or a[0] > b[2] or a[2] < b[0])


def merge_rectangles(
    rects: list[tuple[int, int, int, int]],
) -> list[tuple[int, int, int, int]]:
    merged_rects: list[tuple[int, int, int, int]] = []
    for rect in sorted(rects):
        merged = False
        for i, existing in enumerate(merged_rects):
            if _rectangles_overlap_for_merge(rect, existing):
                merged_rects[i] = (
                    min(rect[0], existing[0]),
                    min(rect[1], existing[1]),
                    max(rect[2], existing[2]),
                    max(rect[3], existing[3]),
                )
                merged = True
                break
        if not merged:
            merged_rects.append(rect)
    return merged_rects


def shrink_to_content(
    top: int,
    left: int,
    bottom: int,
    right: int,
    top_edge: np.ndarray,
    bottom_edge: np.ndarray,
    left_edge: np.ndarray,
    right_edge: np.ndarray,
) -> tuple[int, int, int, int]:
    """Trim edge rows/cols that carry no border edges (1-based bounds)."""

    def col_empty(c: int) -> bool:
        rows = slice(top, bottom + 1)
        return not (
            top_edge[rows, c].any()
            or bottom_edge[rows, c].any()
            or left_edge[rows, c].any()
            or right_edge[rows, c].any()
        )

    def row_empty(r: int) -> bool:
        cols = slice(left, right + 1)
        return not (
            top_edge[r, cols].any()
            or bottom_edge[r, cols].any()
            or left_edge[r, cols].any()
            or right_edge[r, cols].any()
        )

    while left <= right and col_empty(left):
        left += 1
    while top <= bottom and left <= right and row_empty(top):
        top += 1
    while left <= right and top <= bottom and col_empty(right):
        right -= 1
    while top <= bottom and left <= right and row_empty(bottom):
        bottom -= 1
    return top, left, bottom, right


# Cells in a candidate rectangle's rows from which its mask is filled by
# numpy fancy indexing; below it element-wise sets win (measured crossover
# 128-192 cells, BASELINE.md).
_NUMPY_MASK_CELLS = 160


def _nonempty_mask(
    grid: SheetGrid, top: int, left: int, bottom: int, right: int
) -> np.ndarray:
    """Boolean nonempty mask over a rectangle (1-based bounds, inclusive).

    The rectangle's rows are one slice of the row-major cell table. The
    strip-emptiness test runs once per cell here; everything downstream
    (clusters, density, coverage, plausibility) is numpy over the mask.
    """
    h = bottom - top + 1
    w = right - left + 1
    table = grid.table
    rows, cols, values = table.rows, table.cols, table.values
    lo = bisect_left(rows, top)
    hi = bisect_right(rows, bottom, lo)
    mask = np.zeros((h, w), dtype=bool)
    if hi - lo >= _NUMPY_MASK_CELLS:
        r = np.array(rows[lo:hi], dtype=np.intp)
        c = np.array(cols[lo:hi], dtype=np.intp)
        keep = np.array(list(map(bool, map(str.strip, values[lo:hi]))), dtype=bool)
        keep &= (c >= left - 1) & (c <= right - 1)
        mask[r[keep] - top, c[keep] - (left - 1)] = True
        return mask
    for i in range(lo, hi):
        c0 = cols[i]
        if left - 1 <= c0 <= right - 1 and values[i].strip() != "":
            mask[rows[i] - top, c0 - (left - 1)] = True
    return mask


def _row_values(grid: SheetGrid, row: int, left: int, right: int) -> list[str]:
    """Values of ``row`` over columns left..right (1-based), "" when absent."""
    table = grid.table
    out = [""] * (right - left + 1)
    start, end = table.row_span(row)
    lo = bisect_left(table.cols, left - 1, start, end)
    for i in range(lo, bisect_right(table.cols, right - 1, lo, end)):
        out[table.cols[i] - (left - 1)] = table.values[i]
    return out


def _density_coverage_mask(sub: np.ndarray) -> tuple[float, float]:
    total = sub.size
    if total == 0:
        return 0.0, 0.0
    nonempty = int(sub.sum())
    if nonempty == 0:
        return 0.0, 0.0
    density = nonempty / total
    ys, xs = np.nonzero(sub)
    coverage = (
        (int(ys.max()) - int(ys.min()) + 1) * (int(xs.max()) - int(xs.min()) + 1)
    ) / total
    return density, coverage


def _header_like_row(row: list[str], row_mask: np.ndarray) -> bool:
    nonempty = [v for v, m in zip(row, row_mask) if m]
    if len(nonempty) < 2:
        return False
    str_like = 0
    num_like = 0
    for v in nonempty:
        if INT_RE.match(v) or FLOAT_RE.match(v):
            num_like += 1
        else:
            str_like += 1
    return str_like >= num_like and str_like >= 1


def _collect_candidates(
    grid: SheetGrid,
    mask: np.ndarray,
    base_top: int,
    base_left: int,
    params: TableDetectionParams,
) -> list[str]:
    if int(mask.sum()) < params.min_nonempty_cells:
        return []
    results: list[str] = []
    for r0, c0, r1, c1 in _components_bboxes(mask):
        sub = mask[r0 : r1 + 1, c0 : c1 + 1]
        density, coverage = _density_coverage_mask(sub)
        if density < params.density_min and coverage < params.coverage_min:
            continue
        # Plausibility: ≥2 rows and ≥2 cols each holding ≥2 nonempty cells.
        if sub.shape[0] < 2 or sub.shape[1] < 2:
            continue
        row_counts = sub.sum(axis=1)
        col_counts = sub.sum(axis=0)
        structured = (
            int((row_counts >= 2).sum()) >= 2 and int((col_counts >= 2).sum()) >= 2
        )
        if not structured:
            continue
        header = any(
            _header_like_row(
                _row_values(
                    grid, base_top + r0 + i, base_left + c0, base_left + c1
                ),
                sub[i],
            )
            for i in range(min(2, sub.shape[0]))
        )
        score = density + (0.2 if header else 0.0)
        if coverage > 0.5:
            score += 0.1
        score += 0.1  # structure bonus (structured is True here)
        if score < params.table_score_threshold:
            continue
        addr = (
            f"{col_index_to_alpha(base_left + c0 - 1)}{base_top + r0}:"
            f"{col_index_to_alpha(base_left + c1 - 1)}{base_top + r1}"
        )
        results.append(addr)
    return results


def detect_tables(
    package: VirtualPackage,
    sheet_path: str,
    grid: SheetGrid,
    styles: Stylesheet,
    params: TableDetectionParams,
    limits: TableScanLimits,
) -> list[str]:
    """Full T1–T6 chain for one sheet; returns A1 range candidates."""
    tables = extract_declared_table_refs(package, sheet_path, grid)
    if not _has_bordered_cell(grid, styles):
        return tables
    has_border, top_edge, bottom_edge, left_edge, right_edge = load_border_maps(
        grid, styles, limits
    )
    rects = detect_border_clusters(has_border, min_size=4)
    merged_rects = merge_rectangles(rects)
    dedup: set[str] = set(tables)
    for top, left, bottom, right in merged_rects:
        top, left, bottom, right = shrink_to_content(
            top, left, bottom, right, top_edge, bottom_edge, left_edge, right_edge
        )
        if top > bottom or left > right:
            continue
        mask = _nonempty_mask(grid, top, left, bottom, right)
        for addr in _collect_candidates(grid, mask, top, left, params):
            if addr not in dedup:
                dedup.add(addr)
                tables.append(addr)
    return tables
