"""Dataset pipeline builders: extract, giant-doc split and reassembly.

Design for 100 TB: the pipeline is a pure streaming chain —
``read_parquet → map_batches(extract_batch)`` — with no materialization and
no shuffle; ``stages.manifest`` adds the partitioned write. Partitioning
key is ``doc_id`` everywhere.

Skew handling (``explode_threshold``): one map stage, ``split_or_extract``,
which fuses with the read when its ``batch_size`` is None. A document whose
payload — characters of part text — reaches the threshold is split into
per-sheet rows (workbook-level parts duplicated, sheet parts isolated);
the same task extracts those sheet rows and reassembles them into one row,
spans concatenated in sheet order with dense re-offsets, next to the small
documents it extracts whole. No document rides a shuffle. On a 4-CPU host
a reassembly exchange cost ~0.4 s per job whatever it carried, and it lost
to in-task reassembly on files of several giants, on one giant per file
and on a 32-sheet giant next to files of ordinary documents; it won only
for a 128-sheet giant alone in its file.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..config import ExtractOptions
from ..datagen.corpus import SPAN_TYPE
from .actor import OUTPUT_SCHEMA, ExtractActor

# A split document's sheet row before extraction: one sheet's input parts
# (the shared workbook-level parts included).
_SHEET_INPUT = pa.schema(
    [("doc_id", pa.string()), ("spans", SPAN_TYPE), ("sheet_idx", pa.int32())]
)

# The same rows extracted: the reassembly's input.
_SHEET_SCHEMA = OUTPUT_SCHEMA.append(pa.field("sheet_idx", pa.int32()))


def read_documents(
    path: str | list[str],
    *,
    fmt: str = "parquet",
    columns: list[str] | None = None,
    **read_kwargs,
) -> "ray.data.Dataset":
    """Read the interleaved-document table (doc_id, spans).

    ``fmt="lance"`` uses ray.data.read_lance for Lance-backed corpora (the
    BASELINE.json storage target); this sandbox has no lance wheel, so
    parquet is the tested path and lance is import-gated — a drop-in swap
    on a real cluster. ``fmt="json"``/``"jsonl"`` ingests one document
    object per line for interchange corpora.
    """
    import ray.data

    cols = columns or ["doc_id", "spans"]
    if fmt == "parquet":
        return ray.data.read_parquet(path, columns=cols, **read_kwargs)
    if fmt in ("json", "jsonl"):
        # JSONL ingest (one document object per line) — no column pruning
        # at the read (text format), so select after.
        ds = ray.data.read_json(path, **read_kwargs)
        return ds.select_columns(cols)
    if fmt == "lance":
        try:
            return ray.data.read_lance(path, columns=cols, **read_kwargs)
        except ImportError as exc:  # pragma: no cover - no lance wheel here
            raise RuntimeError(
                "lance is not installed in this environment; use fmt='parquet'"
            ) from exc
    raise ValueError(f"Unsupported corpus format: {fmt}")


def _extractor(udf, options: ExtractOptions | None) -> ExtractActor:
    """The per-process ``ExtractActor`` cached on a UDF function object.

    The extraction UDF is pure and its setup is negligible (no model
    loads), so the stages run as tasks: with ``batch_size=None`` Ray Data
    fuses ReadParquet→MapBatches into single tasks (measured ~25% faster
    than an actor pool at 32 CPUs, since input blocks never round-trip
    through the object store; any ``batch_size`` blocks that fusion). The
    cache avoids re-resolving options per batch within a worker process."""
    actor = getattr(udf, "_exstruct_extractor", None)
    if actor is None:
        actor = ExtractActor(options)
        udf._exstruct_extractor = actor
    return actor


def partition_ids(batch: pa.Table, partition_of: dict[str, int] | None) -> pa.Array:
    """int32 partition of each row, looked up from the ``path`` column
    that ``read_parquet(include_paths=True)`` adds (keys are normalized
    input paths); all null when there is no ``partition_of`` map."""
    if partition_of is None:
        return pa.nulls(batch.num_rows, pa.int32())
    paths = batch.column("path").to_pylist()
    pid = {p: partition_of[os.path.normpath(p)] for p in set(paths)}
    return pa.array([pid[p] for p in paths], pa.int32())


def _make_task_udf(options: ExtractOptions | None):
    def extract_batch(batch: pa.Table) -> pa.Table:
        return _extractor(extract_batch, options)(batch)

    return extract_batch


def build_extraction_pipeline(
    ds: "ray.data.Dataset",
    options: ExtractOptions | None = None,
    *,
    batch_size: int = 128,
    explode_threshold: int | None = None,
) -> "ray.data.Dataset":
    """Wire the extraction stage onto an input document Dataset: one
    stateless task-mode map_batches (``split_or_extract`` with
    ``explode_threshold``), fused with a read only when ``batch_size`` is
    None."""
    if explode_threshold is None:
        return ds.map_batches(
            _make_task_udf(options),
            batch_format="pyarrow",
            batch_size=batch_size,
        )
    return explode_sheets(ds, options, explode_threshold, batch_size=batch_size)


def explode_sheets(
    ds: "ray.data.Dataset",
    options: ExtractOptions | None,
    threshold: int,
    *,
    batch_size: int | None = None,
    partition_of: dict[str, int] | None = None,
) -> "ray.data.Dataset":
    """The explode path: one ``OUTPUT_SCHEMA`` row per input document, in
    input order (plus the int32 ``partition`` with ``partition_of``:
    input file path -> job partition, see ``partition_ids``).

    Small documents (payload < threshold) are extracted whole. A giant
    document is split by ``_split_doc_by_sheet``; the same task extracts
    its sheet rows and reassembles them with ``assemble_sheet_rows``.
    """

    def split_or_extract(batch: pa.Table) -> pa.Table:
        actor = _extractor(split_or_extract, options)
        payload = doc_payload_chars(batch.column("spans"))
        giant = np.flatnonzero(payload >= threshold)
        if not len(giant):
            out = actor(batch)
        else:
            small = np.flatnonzero(payload < threshold)
            doc_ids = batch.column("doc_id").to_pylist()
            sheets = [
                row
                for i in giant
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
            positions = np.concatenate(
                [small, sorted(giant, key=lambda i: doc_ids[i])]
            )
            out = pa.concat_tables([actor(batch.take(pa.array(small))), joined])
            out = out.take(pa.array(np.argsort(positions)))
        if partition_of is not None:
            out = out.append_column("partition", partition_ids(batch, partition_of))
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
    ListArray's ``.values`` ignores a slice offset) and the offsets are
    rebuilt with one ``arange``, as ``ExtractActor`` builds them."""
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
    offs = np.arange(list_offsets[-1], dtype=np.int32) - np.repeat(
        list_offsets[:-1], counts
    )
    values = spans.flatten()
    span_struct = pa.StructArray.from_arrays(
        [values.field(name) for name in ("kind", "text", "media_ref")]
        + [pa.array(offs)],
        names=["kind", "text", "media_ref", "offset"],
    )

    def summed(name: str, dtype) -> np.ndarray:
        col = rows.column(name).to_numpy().astype(np.float64)
        return np.add.reduceat(col, starts).astype(dtype)

    return pa.Table.from_arrays(
        [
            rows.column("doc_id").take(pa.array(starts)),
            pa.ListArray.from_arrays(pa.array(list_offsets), span_struct),
            pa.array(counts),
            pa.array(summed("n_errors", np.int32)),
            pa.array(summed("parse_ms", np.float32)),
        ],
        schema=OUTPUT_SCHEMA,
    )
