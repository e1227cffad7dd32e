"""Public engine facade mirroring the reference's API surface.

Reference parity: `exstruct.extract` / `ExStructEngine`
(/root/reference/src/exstruct/engine.py:381-914, core/integrate.py:13-71) —
single-document extraction, serialization with include/exclude filters, and
the corpus-scale entry points the reference never had (Dataset pipelines).
"""

from __future__ import annotations

from pathlib import Path

from .config import ExtractOptions, ResolvedOptions
from .extract.document import (
    Span,
    _resolve,
    extract_document_spans,
    extract_workbook,
    workbook_to_spans,
)
from .extract.serialize import save_sheets, save_workbook, serialize_workbook
from .extract.views import PrintAreaView, build_print_area_views
from .models import WorkbookData
from .ooxml.package import VirtualPackage


def extract(
    source: str | Path | bytes | list[dict],
    options: ExtractOptions | ResolvedOptions | None = None,
) -> WorkbookData:
    """Extract one workbook from .xlsx bytes / path / span dicts.

    The single-document equivalent of the distributed pipeline — same code
    path the Ray extraction tasks run per row. ``options`` may come resolved.
    """
    opts = _resolve(options)

    def _package_from_bytes(data: bytes) -> VirtualPackage:
        from .ooxml.biff import is_cfb, read_xls_to_parts

        if is_cfb(data):
            # Legacy .xls (BIFF8): decode to OOXML parts and run the
            # standard pipeline — beyond the reference's pure-Python path,
            # which needs Windows COM for .xls (core/cells.py:1913-1916).
            return VirtualPackage(read_xls_to_parts(data))
        return VirtualPackage.from_xlsx_bytes(data)

    if isinstance(source, (str, Path)):
        package = _package_from_bytes(Path(source).read_bytes())
        book_name = Path(source).name
    elif isinstance(source, bytes):
        package = _package_from_bytes(source)
        book_name = ""
    else:
        package = VirtualPackage.from_spans(
            [s["kind"] for s in source],
            [s["text"] for s in source],
            [s["media_ref"] for s in source],
        )
        book_name = ""
    return extract_workbook(package, opts, book_name=book_name)


class ExtractEngine:
    """Configurable extract/serialize/export engine (reference ExStructEngine)."""

    def __init__(self, options: ExtractOptions | None = None) -> None:
        self.options = options or ExtractOptions()

    @staticmethod
    def from_defaults() -> "ExtractEngine":
        return ExtractEngine()

    def extract(self, source, mode: str | None = None) -> WorkbookData:
        opts = self.options if mode is None else self.options.with_(mode=mode)
        return extract(source, opts)

    def extract_spans(self, source, mode: str | None = None) -> list[Span]:
        options = self.options if mode is None else self.options.with_(mode=mode)
        return extract_spans(source, options)

    def serialize(
        self, workbook: WorkbookData, fmt: str = "json", **kwargs: object
    ) -> str:
        return serialize_workbook(workbook, fmt=fmt, **kwargs)

    def export(
        self,
        workbook: WorkbookData,
        path: str | Path,
        *,
        sheets_dir: str | Path | None = None,
        print_areas_dir: str | Path | None = None,
        **kwargs: object,
    ) -> Path:
        dest = save_workbook(workbook, path, **kwargs)
        if sheets_dir is not None:
            save_sheets(workbook, sheets_dir)
        if print_areas_dir is not None:
            self.export_print_area_views(workbook, print_areas_dir)
        return dest

    def build_print_area_views(
        self, workbook: WorkbookData, **kwargs: object
    ) -> dict[str, list[PrintAreaView]]:
        views: dict[str, list[PrintAreaView]] = {}
        for sheet_name, sheet in workbook.sheets.items():
            sheet_views = build_print_area_views(
                workbook.book_name, sheet_name, sheet, **kwargs
            )
            if sheet_views:
                views[sheet_name] = sheet_views
        return views

    def export_print_area_views(
        self, workbook: WorkbookData, out_dir: str | Path
    ) -> list[Path]:
        import json

        from .extract.serialize import sanitize_sheet_filename

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []
        for sheet_name, views in self.build_print_area_views(workbook).items():
            for idx, view in enumerate(views, start=1):
                dest = out / f"{sanitize_sheet_filename(sheet_name)}_area{idx}.json"
                dest.write_text(
                    json.dumps(
                        view.to_payload(), ensure_ascii=False
                    ),
                    encoding="utf-8",
                )
                written.append(dest)
        return written

    def process(
        self, source, path: str | Path, **export_kwargs: object
    ) -> WorkbookData:
        """One-shot extract → export (reference `process`)."""
        workbook = self.extract(source)
        self.export(workbook, path, **export_kwargs)
        return workbook


def extract_spans(
    source, options: ExtractOptions | ResolvedOptions | None = None
) -> list[Span]:
    """Module-level helper: source → ordered span sequence."""
    opts = _resolve(options)
    return workbook_to_spans(extract(source, opts), opts)


__all__ = [
    "ExtractEngine",
    "extract",
    "extract_document_spans",
    "extract_spans",
]
