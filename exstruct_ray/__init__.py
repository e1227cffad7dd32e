"""exstruct_ray — a Ray-Data-native Excel/OOXML → structured-span extraction engine.

A from-scratch reimplementation of the extraction capabilities of
harumiWeb/exstruct (reference at /root/reference, studied for semantics only)
expressed as a streaming ``ray.data.Dataset`` pipeline over Arrow batches of
interleaved documents: ``(doc_id: string, spans: list<struct<kind, text,
media_ref, offset>>)``.

Layout:
    functions/  pure scalar functions (numeric coercion, A1, EMU, colors, …)
    ooxml/      byte-level OOXML part parsers (sheets, styles, drawings, charts)
    tables/     table-region detection heuristics (border clusters + scoring)
    extract/    per-document extraction pipeline and span assembly
    stages/     Ray Data stages (task map_batches, explode/reassemble,
                resumable partitioned output, metrics)
    datagen/    deterministic synthetic workbook-corpus generator (seeded)
    ops/        corpus-scale training-data operators (dedup, ANN, text stats)
    edit/       workbook patch subsystem (21 ops) + corpus-scale patch stage
"""

from .config import ExtractOptions
from .extract.document import extract_document_spans


def __getattr__(name):
    # Lazy re-exports keep `import exstruct_ray` light for Ray workers.
    # (The single-doc `extract()` function lives at exstruct_ray.api.extract
    # — the top-level name is taken by the `extract` subpackage.)
    if name in {"extract_spans", "ExtractEngine"}:
        from . import api

        return getattr(api, name)
    if name == "build_extraction_pipeline":
        from .stages.pipeline import build_extraction_pipeline

        return build_extraction_pipeline
    if name in {"apply_patch", "make_workbook", "patch_corpus"}:
        from . import edit

        return getattr(edit, name)
    if name in {"export_pdf", "export_sheet_images", "render_corpus"}:
        from . import render

        return getattr(render, name)
    raise AttributeError(f"module 'exstruct_ray' has no attribute {name!r}")


__all__ = [
    "ExtractEngine",
    "ExtractOptions",
    "apply_patch",
    "export_pdf",
    "export_sheet_images",
    "make_workbook",
    "patch_corpus",
    "build_extraction_pipeline",
    "extract_document_spans",
    "extract_spans",
    "render_corpus",
]
__version__ = "0.1.0"
