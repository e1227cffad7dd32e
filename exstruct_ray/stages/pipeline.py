"""Dataset pipeline builder: extract, giant-doc split and reassembly.

Design for 100 TB: the pipeline is a pure streaming chain —
``read_parquet → map_batches(split_or_extract)`` — with no materialization
and no shuffle; ``stages.manifest`` adds the partitioned write after the
same map. Partitioning key is ``doc_id`` everywhere.

``build_extraction_pipeline`` is the one place the extraction UDF,
``split_or_extract``, is mapped; it fuses with the read when its
``batch_size`` is None. Skew is decided per batch inside that UDF, never
by forking the plan. Without ``explode_threshold`` it extracts the whole
batch in one call. With it, a document whose payload — characters of part
text — reaches the threshold is split into per-sheet rows (workbook-level
parts duplicated, sheet parts isolated); the same task extracts those
sheet rows and reassembles them into one row, spans concatenated in sheet
order with dense re-offsets, next to the small documents it extracts
whole. No document rides a shuffle. On a 4-CPU host a reassembly exchange
cost ~0.4 s per job whatever it carried, and it lost to in-task
reassembly on files of several giants, on one giant per file and on a
32-sheet giant next to files of ordinary documents; it won only for a
128-sheet giant alone in its file.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..config import ExtractOptions
from ..datagen.corpus import SPAN_TYPE
from .actor import OUTPUT_SCHEMA, ExtractActor, encode_spans

# A split document's sheet row before extraction: one sheet's input parts
# (the shared workbook-level parts included).
_SHEET_INPUT = pa.schema(
    [("doc_id", pa.string()), ("spans", SPAN_TYPE), ("sheet_idx", pa.int32())]
)

# The same rows extracted: the reassembly's input.
_SHEET_SCHEMA = OUTPUT_SCHEMA.append(pa.field("sheet_idx", pa.int32()))


def build_extraction_pipeline(
    ds: "ray.data.Dataset",
    options: ExtractOptions | None = None,
    *,
    batch_size: int | None = 128,
    explode_threshold: int | None = None,
    partition_of: dict[str, int] | None = None,
) -> "ray.data.Dataset":
    """Map the extraction UDF, ``split_or_extract``, over a document
    Dataset: one ``OUTPUT_SCHEMA`` row per input document, in input order.

    The UDF is pure and its setup negligible (no model loads), so it runs
    as a task, and each batch builds its own ``ExtractActor`` (~10 µs,
    against ~0.7 ms per document). With ``batch_size=None`` it fuses with
    a read (measured ~25% faster than an actor pool at 32 CPUs: input
    blocks never round-trip through the object store; any ``batch_size``
    blocks that fusion). Options are resolved here, so a bad option raises
    ``ValueError`` when the plan is built.

    Without ``explode_threshold`` the UDF extracts the whole batch in one
    call. With it, a document whose payload (``doc_payload_chars``)
    reaches the threshold is split by ``_split_doc_by_sheet``; the same
    task extracts its sheet rows and reassembles them with
    ``assemble_sheet_rows``. ``partition_of`` (normalized input file path
    -> job partition) adds the int32 ``partition`` of each row, looked up
    from the ``path`` column of ``read_parquet(include_paths=True)``.
    """
    opts = (options or ExtractOptions()).resolved()

    def split_or_extract(batch: pa.Table) -> pa.Table:
        actor = ExtractActor(opts)
        giant = np.zeros(batch.num_rows, bool)
        if explode_threshold is not None:
            giant = doc_payload_chars(batch.column("spans")) >= explode_threshold
        if not giant.any():
            out = actor(batch)
        else:
            small, big = np.flatnonzero(~giant), np.flatnonzero(giant)
            doc_ids = batch.column("doc_id").to_pylist()
            sheets = [
                row
                for i in big
                for row in _split_doc_by_sheet(
                    doc_ids[i], batch.column("spans")[int(i)].as_py() or []
                )
            ]
            sheets = pa.Table.from_pylist(sheets, schema=_SHEET_INPUT)
            joined = assemble_sheet_rows(
                actor(sheets).append_column("sheet_idx", sheets.column("sheet_idx"))
            )
            # Reassembled rows come in doc_id order: put every row back at
            # its input position.
            positions = np.concatenate([small, sorted(big, key=lambda i: doc_ids[i])])
            out = pa.concat_tables([actor(batch.take(pa.array(small))), joined])
            out = out.take(pa.array(np.argsort(positions)))
        if partition_of is not None:
            paths = batch.column("path").to_pylist()
            pid = {p: partition_of[os.path.normpath(p)] for p in set(paths)}
            out = out.append_column("partition", pa.array([pid[p] for p in paths], pa.int32()))
        return out

    return ds.map_batches(split_or_extract, batch_format="pyarrow", batch_size=batch_size)


def doc_payload_chars(spans: pa.ChunkedArray) -> np.ndarray:
    """Characters of part text per document, the ``explode_threshold``
    measure: one ``utf8_length`` over the flattened spans, summed per
    list with ``list_parent_indices`` (which, like ``flatten``, honors a
    slice offset)."""
    lists = spans.combine_chunks() if spans.num_chunks else pa.array([], spans.type)
    lens = pc.fill_null(pc.utf8_length(lists.flatten().field("text")), 0)
    parents = pc.list_parent_indices(lists).to_numpy()
    return np.bincount(
        parents, weights=lens.to_numpy(), minlength=len(lists)
    ).astype(np.int64)


def _split_doc_by_sheet(doc_id: str, spans: list[dict]) -> list[dict]:
    """Split a document's parts into per-sheet rows + shared parts.

    Part→sheet membership is resolved through the OOXML relationship graph
    (sheet → drawing → charts, sheet → tables), NOT filename patterns —
    real workbooks number chart/table parts globally, so name-based
    grouping would misassign them. Parts reachable from no sheet (styles,
    sharedStrings, workbook, unreferenced media) replicate into every row.
    """
    from ..ooxml.package import VirtualPackage, rels_path
    from ..ooxml.workbook_parser import parse_workbook

    try:
        package = VirtualPackage.from_spans(
            [s.get("kind") or "" for s in spans],
            [s.get("text") or "" for s in spans],
            [s.get("media_ref") or "" for s in spans],
        )
        info = parse_workbook(package)
    except Exception:
        info = None

    if info is None or not info.sheets:
        return [{"doc_id": doc_id, "spans": spans, "sheet_idx": 0}]

    # Build part-path -> owning sheet ordinals via the relationship graph.
    # A part reachable from SEVERAL sheets (e.g. a chart shared by two
    # drawings) must replicate into every reaching sheet's row — first-wins
    # ownership would silently drop it from the other sheets.
    owners: dict[str, set[int]] = {}
    for idx, sheet_ref in enumerate(info.sheets):
        frontier = [sheet_ref.path]
        seen: set[str] = set()
        while frontier:
            part = frontier.pop()
            if part in seen:
                continue
            seen.add(part)
            owners.setdefault(part, set()).add(idx)
            owners.setdefault(rels_path(part), set()).add(idx)
            try:
                rels = package.relationships(part)
            except Exception:
                continue
            for rel in rels.values():
                target = rel.target
                if target in package and target not in seen:
                    frontier.append(target)

    shared: list[dict] = []
    by_sheet: dict[int, list[dict]] = {}
    for span in spans:
        ref = span.get("media_ref") or ""
        sheet_ids = owners.get(ref.lstrip("/"))
        if not sheet_ids:
            shared.append(span)
        else:
            for idx in sheet_ids:
                by_sheet.setdefault(idx, []).append(span)

    if not by_sheet:
        return [{"doc_id": doc_id, "spans": spans, "sheet_idx": 0}]
    return [
        {
            "doc_id": doc_id,
            "spans": shared + by_sheet[sheet_idx],
            "sheet_idx": sheet_idx,
        }
        for sheet_idx in sorted(by_sheet)
    ]


def assemble_sheet_rows(rows: pa.Table) -> pa.Table:
    """Reassemble extracted sheet rows (``_SHEET_SCHEMA``; in any order,
    sliced or chunked) into one ``OUTPUT_SCHEMA`` row per doc_id, in
    doc_id order: the spans concatenated in sheet order with dense
    offsets, ``n_errors`` and ``parse_ms`` summed.

    All Arrow: the list slices concatenate through ``flatten()`` (a
    ListArray's ``.values`` ignores a slice offset) and ``encode_spans``
    rebuilds the offsets, as ``ExtractActor`` builds them."""
    if not rows.num_rows:
        return OUTPUT_SCHEMA.empty_table()
    order = pc.sort_indices(
        rows, sort_keys=[("doc_id", "ascending"), ("sheet_idx", "ascending")]
    )
    rows = rows.take(order).combine_chunks()
    ids = rows.column("doc_id").to_numpy(zero_copy_only=False)
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    spans = rows.column("spans").combine_chunks()
    lengths = pc.fill_null(pc.list_value_length(spans), 0).to_numpy()
    counts = np.add.reduceat(lengths, starts).astype(np.int32)
    list_offsets = np.zeros(len(starts) + 1, np.int32)
    np.cumsum(counts, out=list_offsets[1:])
    values = spans.flatten()
    spans_out = encode_spans(
        *[values.field(name) for name in ("kind", "text", "media_ref")], list_offsets
    )

    def summed(name: str, dtype) -> np.ndarray:
        col = rows.column(name).to_numpy().astype(np.float64)
        return np.add.reduceat(col, starts).astype(dtype)

    return pa.Table.from_arrays(
        [
            rows.column("doc_id").take(pa.array(starts)),
            spans_out,
            pa.array(counts),
            pa.array(summed("n_errors", np.int32)),
            pa.array(summed("parse_ms", np.float32)),
        ],
        schema=OUTPUT_SCHEMA,
    )
