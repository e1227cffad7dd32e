"""Immutable extraction configuration.

The reference keeps table-detection tunables in a mutable module global
(`core/cells.py:38` in /root/reference) and scopes it with save/restore.
Here the config is an immutable dataclass passed to every stage (and
captured in the closures of the map_batches task UDFs), which is both safer
and required for deterministic distributed retries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import math


@dataclass(frozen=True)
class TableScanLimits:
    """Caps for border scanning during table detection.

    Mirrors the reference's skew guard (``core/cells.py:118-165``): giant
    sheets stop contributing border cells past these limits, which bounds
    per-document work regardless of sheet size.
    """

    max_rows: int = 5000
    max_cols: int = 200
    empty_row_run: int = 200
    empty_col_run: int = 80
    min_rows_before_col_shrink: int = 200

    def scaled(self, factor: float) -> "TableScanLimits":
        return TableScanLimits(
            max_rows=int(math.ceil(self.max_rows * factor)),
            max_cols=int(math.ceil(self.max_cols * factor)),
            empty_row_run=int(math.ceil(self.empty_row_run * factor)),
            empty_col_run=int(math.ceil(self.empty_col_run * factor)),
            min_rows_before_col_shrink=int(
                math.ceil(self.min_rows_before_col_shrink * factor)
            ),
        )


@dataclass(frozen=True)
class TableDetectionParams:
    """Score thresholds for the candidate scorer (``core/cells.py:38-43``)."""

    table_score_threshold: float = 0.35
    density_min: float = 0.05
    coverage_min: float = 0.2
    min_nonempty_cells: int = 3


@dataclass(frozen=True)
class ExtractOptions:
    """Resolved per-run extraction flags.

    Defaults follow the reference's light-mode resolution
    (``core/pipeline.py:191-283``): links/colors/formulas only in verbose,
    merged cells off in light mode (unless merged-value filtering needs them).
    """

    mode: str = "light"  # light | verbose (COM/UNO modes are out of scope)
    include_cell_links: bool | None = None
    include_print_areas: bool | None = None
    include_colors_map: bool | None = None
    include_default_background: bool = False
    ignore_colors: frozenset[str] = frozenset()
    include_formulas_map: bool | None = None
    include_merged_cells: bool | None = None
    include_merged_values_in_rows: bool = True
    alpha_col: bool = False
    # Output filters (reference engine.py:486-541)
    include_rows: bool = True
    include_shapes: bool = True
    include_charts: bool = True
    include_tables: bool = True
    include_shape_size: bool | None = None  # None -> verbose only
    include_chart_size: bool | None = None
    include_backend_metadata: bool = False
    # HTML span handling on the interleaved text+media path:
    # "visible" = strip invisible subtrees only (script/style/head/nav...);
    # "density" = Boilerpipe-style link-density block classifier
    # (extract/html_content.py) — drops link-dense boilerplate too.
    html_strategy: str = "visible"
    table_params: TableDetectionParams = field(default_factory=TableDetectionParams)
    scan_limits: TableScanLimits = field(default_factory=TableScanLimits)

    def resolved(self) -> "ResolvedOptions":
        mode = self.mode
        if mode not in {"light", "verbose"}:
            raise ValueError(f"Unsupported mode: {mode}")
        if self.html_strategy not in {"visible", "density"}:
            raise ValueError(f"Unsupported html_strategy: {self.html_strategy}")
        verbose = mode == "verbose"
        links = self.include_cell_links if self.include_cell_links is not None else verbose
        print_areas = (
            self.include_print_areas if self.include_print_areas is not None else True
        )
        colors = self.include_colors_map if self.include_colors_map is not None else verbose
        formulas = (
            self.include_formulas_map if self.include_formulas_map is not None else verbose
        )
        merged = (
            self.include_merged_cells
            if self.include_merged_cells is not None
            else mode != "light"
        )
        if not self.include_merged_values_in_rows:
            merged = True
        shape_size = (
            self.include_shape_size if self.include_shape_size is not None else verbose
        )
        chart_size = (
            self.include_chart_size if self.include_chart_size is not None else verbose
        )
        scan = self.scan_limits if mode == "light" else self.scan_limits.scaled(1.5)
        return ResolvedOptions(
            mode=mode,
            include_cell_links=links,
            include_print_areas=print_areas,
            include_colors_map=colors,
            include_default_background=self.include_default_background if colors else False,
            ignore_colors=self.ignore_colors if colors else frozenset(),
            include_formulas_map=formulas,
            include_merged_cells=merged,
            include_merged_values_in_rows=self.include_merged_values_in_rows,
            alpha_col=self.alpha_col,
            include_rows=self.include_rows,
            include_shapes=self.include_shapes,
            include_charts=self.include_charts,
            include_tables=self.include_tables,
            include_shape_size=shape_size,
            include_chart_size=chart_size,
            include_backend_metadata=self.include_backend_metadata,
            html_strategy=self.html_strategy,
            table_params=self.table_params,
            scan_limits=scan,
        )

    def with_(self, **kwargs: object) -> "ExtractOptions":
        return replace(self, **kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class ResolvedOptions:
    """Fully-resolved flags; all ``None`` defaults materialized."""

    mode: str
    include_cell_links: bool
    include_print_areas: bool
    include_colors_map: bool
    include_default_background: bool
    ignore_colors: frozenset[str]
    include_formulas_map: bool
    include_merged_cells: bool
    include_merged_values_in_rows: bool
    alpha_col: bool
    include_rows: bool
    include_shapes: bool
    include_charts: bool
    include_tables: bool
    include_shape_size: bool
    include_chart_size: bool
    include_backend_metadata: bool
    html_strategy: str
    table_params: TableDetectionParams
    scan_limits: TableScanLimits
