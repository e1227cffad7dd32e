"""Public edit API: patch an existing workbook, make a new one, and the
Ray-Data corpus-scale patch stage.

Mirrors the reference's request surface
(/root/reference/src/exstruct/edit/models.py:1466-1543 PatchRequest /
MakeRequest: dry_run, auto_formula, return_inverse_ops, on_conflict) minus
the COM backend. ``patch_corpus`` is the engine's own addition: the same
op list applied to every document of a Dataset inside map_batches — the
distributed form the single-workbook reference cannot express.
"""

from __future__ import annotations

import copy
import os

from ..ooxml.package import VirtualPackage
from .apply import apply_ops
from .emit import emit_parts, emit_xlsx_bytes, parts_to_spans
from .load import load_workbook
from .model import EditWorkbook, PatchOp, PatchResult


def _package_from_source(source) -> VirtualPackage:
    if isinstance(source, VirtualPackage):
        return source
    if isinstance(source, (bytes, bytearray)):
        return VirtualPackage.from_xlsx_bytes(bytes(source))
    if isinstance(source, str):
        with open(source, "rb") as fh:
            return VirtualPackage.from_xlsx_bytes(fh.read())
    if isinstance(source, list):  # spans
        return VirtualPackage.from_spans(
            [s.get("kind") or "" for s in source],
            [s.get("text") or "" for s in source],
            [s.get("media_ref") or "" for s in source],
        )
    raise TypeError(f"Unsupported patch source: {type(source)!r}")


def _run_preflight_formula_check(
    result: PatchResult, working, ops, dry_run: bool
) -> bool:
    """Populate result.formula_issues; True when an error-level issue gates
    output (reference internal.py:1759-1783: preflight failure returns the
    issues + a structured error and suppresses the save; dry_run reports
    the issues without gating)."""
    from .lint import collect_formula_issues, find_issue_origin
    from .model import PatchErrorDetail

    issues = collect_formula_issues(working)
    result.formula_issues = issues
    if dry_run:
        return False
    first_error = next((i for i in issues if i.level == "error"), None)
    if first_error is None:
        return False
    op_index, op_name = find_issue_origin(first_error, ops)
    result.error = PatchErrorDetail(
        op_index=op_index,
        op=op_name,
        sheet=first_error.sheet,
        cell=first_error.cell,
        message=f"Formula health check failed: {first_error.message}",
    )
    result.patch_diff = []
    result.inverse_ops = []
    return True


def apply_patch(
    source,
    ops: list[PatchOp | dict],
    *,
    out_path: str | None = None,
    auto_formula: bool = False,
    dry_run: bool = False,
    return_inverse_ops: bool = False,
    on_conflict: str = "overwrite",
    preflight_formula_check: bool = False,
) -> PatchResult:
    """Apply a patch-op list to a workbook (path / bytes / package / spans).

    Returns a PatchResult carrying the diff, optional inverse ops, warnings
    and — unless dry_run or error — the patched OOXML parts (and the output
    file when out_path is given). With preflight_formula_check, the patched
    workbook's formulas are linted (ref/name/div0/value/na error tokens,
    duplicated '=', suspected self-reference); an error-level issue aborts
    with a structured error and no output, mirroring the reference's
    preflight gate.
    """
    package = _package_from_source(source)
    workbook = load_workbook(package)
    # First error aborts with the source untouched: apply to a copy.
    working = copy.deepcopy(workbook)
    result = apply_ops(working, ops, auto_formula=auto_formula)
    if not return_inverse_ops:
        result.inverse_ops = []
    if result.error is not None:
        return result
    if preflight_formula_check and _run_preflight_formula_check(
        result, working, result_ops_for_origin(ops), dry_run
    ):
        return result
    if dry_run:
        return result
    result.parts = emit_parts(working)
    if out_path is not None:
        result.out_path = _write_with_conflict_policy(
            out_path, emit_xlsx_bytes(working), on_conflict
        )
    return result


def result_ops_for_origin(ops: list[PatchOp | dict]) -> list[PatchOp]:
    """Normalize raw dict ops for issue-origin matching."""
    return [op if isinstance(op, PatchOp) else PatchOp.from_dict(op) for op in ops]


def make_workbook(
    ops: list[PatchOp | dict],
    *,
    sheet: str | None = "Sheet1",
    out_path: str | None = None,
    auto_formula: bool = False,
    dry_run: bool = False,
    return_inverse_ops: bool = False,
    on_conflict: str = "overwrite",
    preflight_formula_check: bool = False,
) -> PatchResult:
    """Create a new workbook from a patch-op list (reference `make`)."""
    workbook = EditWorkbook()
    if sheet:
        workbook.add_sheet(sheet)
    result = apply_ops(workbook, ops, auto_formula=auto_formula)
    if not return_inverse_ops:
        result.inverse_ops = []
    if result.error is not None:
        return result
    if preflight_formula_check and _run_preflight_formula_check(
        result, workbook, result_ops_for_origin(ops), dry_run
    ):
        return result
    if dry_run:
        return result
    result.parts = emit_parts(workbook)
    if out_path is not None:
        result.out_path = _write_with_conflict_policy(
            out_path, emit_xlsx_bytes(workbook), on_conflict
        )
    return result


def _write_with_conflict_policy(path: str, data: bytes, policy: str) -> str:
    if os.path.exists(path):
        if policy == "skip":
            return path
        if policy == "rename":
            base, ext = os.path.splitext(path)
            n = 1
            while os.path.exists(f"{base} ({n}){ext}"):
                n += 1
            path = f"{base} ({n}){ext}"
        elif policy != "overwrite":
            raise ValueError(f"Unknown on_conflict policy: {policy}")
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def patch_corpus(ds, ops: list[dict], *, batch_size: int = 64):
    """Apply one patch-op list to EVERY document of a (doc_id, spans)
    Dataset — the corpus-scale edit stage.

    Per-document failures degrade in place (the document passes through
    unchanged and ``patch_error`` records why), mirroring the extraction
    pipeline's poison-document policy. Output schema:
    (doc_id, spans, n_applied, n_skipped, patch_error).
    """
    import pandas as pd

    # Parsed once, when the stage is built: a malformed op raises at call time.
    patch_ops = [
        PatchOp.from_dict(dict(op if isinstance(op, dict) else op.__dict__))
        for op in ops
    ]

    def patch(batch: pd.DataFrame) -> pd.DataFrame:
        out = {
            "doc_id": [],
            "spans": [],
            "n_applied": [],
            "n_skipped": [],
            "patch_error": [],
        }
        for doc_id, spans in zip(batch["doc_id"], batch["spans"]):
            spans = list(spans) if spans is not None else []
            try:
                result = apply_patch([dict(s) for s in spans], patch_ops)
                if result.error is not None:
                    raise ValueError(result.error.message)
                new_spans = parts_to_spans(result.parts)
                applied = sum(1 for d in result.patch_diff if d.status == "applied")
                skipped = sum(1 for d in result.patch_diff if d.status == "skipped")
                out["doc_id"].append(doc_id)
                out["spans"].append(new_spans)
                out["n_applied"].append(applied)
                out["n_skipped"].append(skipped)
                out["patch_error"].append("")
            except Exception as exc:
                out["doc_id"].append(doc_id)
                out["spans"].append(spans)
                out["n_applied"].append(0)
                out["n_skipped"].append(0)
                out["patch_error"].append(str(exc))
        frame = pd.DataFrame(out)
        frame["n_applied"] = frame["n_applied"].astype("int32")
        frame["n_skipped"] = frame["n_skipped"].astype("int32")
        return frame

    return ds.map_batches(patch, batch_format="pandas", batch_size=batch_size)
