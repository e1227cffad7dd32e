"""Dataset pipeline builders: extract, giant-doc explode/reassemble.

Design for 100 TB: the pipeline is a pure streaming chain —
``read_parquet → map_batches(ExtractActor)`` — with no materialization and
no shuffle; ``stages.manifest`` adds the partitioned write. The explode
path adds one exchange (the giant-doc reassembly). Partitioning key is
``doc_id`` everywhere.

Skew handling: documents whose span payload exceeds ``explode_threshold``
bytes are split into per-sheet rows (workbook-level parts duplicated, sheet
parts isolated), extracted sheet-wise in parallel, then reassembled by a
``bucket_exchange`` on doc_id, sorted by sheet order — restoring the exact
per-document span order and dense offsets. Small documents bypass the
shuffle entirely.
"""

from __future__ import annotations

import os

import pyarrow as pa

import ray.data

from ..config import ExtractOptions
from ..datagen.corpus import SPAN_TYPE
from .actor import OUTPUT_SCHEMA, ExtractActor

# Mixed-stream schema for the single-pass explode pipeline: OUTPUT_SCHEMA
# plus the routing columns. sheet_idx == -1 marks a row whose spans are the
# already-extracted whole-document output; sheet_idx >= 0 marks an
# unextracted per-sheet slice awaiting the sheet-extract stage. partition
# is the job partition of the row's input file (null outside a job); it
# rides through the reassembly exchange, whose output blocks mix
# partitions.
_MIXED_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans", SPAN_TYPE),
        ("n_spans", pa.int32()),
        ("n_errors", pa.int32()),
        ("parse_ms", pa.float32()),
        ("sheet_idx", pa.int32()),
        ("partition", pa.int32()),
    ]
)

# A job's extracted rows before the partition writer: OUTPUT_SCHEMA plus
# the partition the writer routes each row to (and drops).
PARTITIONED_SCHEMA = OUTPUT_SCHEMA.append(pa.field("partition", pa.int32()))


def _cluster_cpus() -> int:
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 0)) if ray.is_initialized() else 0
    except Exception:
        cpus = 0
    if cpus <= 0:
        cpus = os.cpu_count() or 4
    return cpus


def _default_concurrency() -> tuple[int, int]:
    """Autoscaling actor-pool bounds sized to the cluster's CPUs.

    A (1, N) range rather than a fixed N: pipelines that run several actor
    pools concurrently (e.g. the explode path's small/exploded branches)
    would deadlock with fixed pools each demanding every CPU.
    """
    return (1, max(1, _cluster_cpus()))


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
    """Wire the extraction stage(s) onto an input document Dataset:
    stateless task-mode map_batches (fused with a read only when
    ``batch_size`` is None)."""
    if explode_threshold is None:
        return ds.map_batches(
            _make_task_udf(options),
            batch_format="pyarrow",
            batch_size=batch_size,
        )
    return reassemble_mixed(
        explode_sheets(ds, options, explode_threshold, batch_size=batch_size)
    )


def explode_sheets(
    ds: "ray.data.Dataset",
    options: ExtractOptions | None,
    threshold_bytes: int,
    *,
    batch_size: int = 128,
    partition_of: dict[str, int] | None = None,
) -> "ray.data.Dataset":
    """The explode path up to the reassembly: rows of ``_MIXED_SCHEMA``.

    One linear chain with no union(): small docs are extracted inline in
    the splitter task (work happens exactly once), giant docs emit
    unextracted per-sheet rows that the next stage extracts in parallel
    across workers; ``reassemble_mixed`` then restores one row per doc
    (its exchange runs this chain when it is built). Explode mode is the opt-in skew tool for corpora whose documents
    exceed worker memory; its cost is that the output rides the
    reassembly shuffle (small docs pass through as singleton groups).
    ``partition_of`` maps input file paths to job partitions (see
    ``partition_ids``).
    """
    mixed = ds.map_batches(
        _make_split_extract_udf(options, threshold_bytes, partition_of),
        batch_format="pyarrow",
        batch_size=32,
    )
    return mixed.map_batches(
        _make_sheet_extract_udf(options),
        batch_format="pyarrow",
        batch_size=max(1, batch_size // 8),
    )


def _doc_payload_bytes(spans: list[dict]) -> int:
    return sum(len(s.get("text") or "") for s in spans)


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


def _make_split_extract_udf(
    options: ExtractOptions | None,
    threshold_bytes: int,
    partition_of: dict[str, int] | None = None,
):
    """Splitter stage UDF: extract small docs inline, split giant docs.

    Small documents (payload < threshold) are extracted right here — their
    rows leave this stage finished (sheet_idx=-1). Giant documents are
    split into per-sheet rows (sheet_idx>=0, metrics sentinel n_spans=-1)
    for the distributed sheet-extract stage. Every row carries its
    ``partition``.
    """

    def split_or_extract(batch: pa.Table) -> pa.Table:
        actor = _extractor(split_or_extract, options)
        partitions = partition_ids(batch, partition_of)
        doc_ids = batch.column("doc_id").to_pylist()
        spans_col = batch.column("spans").to_pylist()
        pids = partitions.to_pylist()
        sheet_rows: list[dict] = []
        small_idx: list[int] = []
        for i, (doc_id, spans) in enumerate(zip(doc_ids, spans_col)):
            spans = spans or []
            if _doc_payload_bytes(spans) >= threshold_bytes:
                for row in _split_doc_by_sheet(doc_id, spans):
                    sheet_rows.append(
                        {
                            "doc_id": row["doc_id"],
                            "spans": row["spans"],
                            "n_spans": -1,
                            "n_errors": 0,
                            "parse_ms": 0.0,
                            "sheet_idx": row["sheet_idx"],
                            "partition": pids[i],
                        }
                    )
            else:
                small_idx.append(i)

        parts: list[pa.Table] = []
        if small_idx:
            take = pa.array(small_idx, pa.int64())
            out = actor(batch.take(take))
            out = out.append_column(
                "sheet_idx", pa.array([-1] * out.num_rows, pa.int32())
            ).append_column("partition", partitions.take(take))
            parts.append(out.cast(_MIXED_SCHEMA))
        if sheet_rows:
            parts.append(pa.Table.from_pylist(sheet_rows, schema=_MIXED_SCHEMA))
        if not parts:
            return pa.Table.from_pylist([], schema=_MIXED_SCHEMA)
        return pa.concat_tables(parts)

    return split_or_extract


def _make_sheet_extract_udf(options: ExtractOptions | None):
    """Second stage: extract per-sheet rows, pass finished rows through."""

    def sheet_extract(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        actor = _extractor(sheet_extract, options)
        mask = pc.greater_equal(batch.column("sheet_idx"), 0)
        todo = batch.filter(mask)
        done = batch.filter(pc.invert(mask))
        parts: list[pa.Table] = []
        if todo.num_rows:
            out = actor(todo.select(["doc_id", "spans"]))
            out = out.append_column(
                "sheet_idx", todo.column("sheet_idx")
            ).append_column("partition", todo.column("partition"))
            parts.append(out.cast(_MIXED_SCHEMA))
        if done.num_rows:
            parts.append(done)
        if not parts:
            return pa.Table.from_pylist([], schema=_MIXED_SCHEMA)
        return pa.concat_tables(parts)

    return sheet_extract


def reassemble_mixed(
    ds: "ray.data.Dataset", *, keep_partition: bool = False
) -> "ray.data.Dataset":
    """Reassemble exploded sheet rows: singleton finished docs pass
    through; a doc's sheet rows concatenate in sheet order with dense
    re-offsets.

    One ``bucket_exchange`` on a COARSE doc_id hash bucket, grouping
    exactly inside each bucket — a per-exact-doc_id groupby dies on
    micro-group overhead at corpus cardinality. The spans stay zero-copy
    Arrow through the exchange. Output rows are ``OUTPUT_SCHEMA``, plus
    the ``partition`` column when ``keep_partition``
    (``PARTITIONED_SCHEMA``).
    """
    import pyarrow.compute as pc

    from ..ops.shuffle import bucket_exchange

    schema = PARTITIONED_SCHEMA if keep_partition else OUTPUT_SCHEMA
    routing = [c for c in ("sheet_idx", "partition") if c not in schema.names]

    def _assemble_one(group: pa.Table) -> pa.Table:
        if group.num_rows == 1 and group.column("sheet_idx")[0].as_py() == -1:
            return group.drop_columns(routing).cast(schema)
        doc_id = group.column("doc_id")[0].as_py()
        spans: list[dict] = []
        n_errors = 0
        parse_ms = 0.0
        for i in range(group.num_rows):  # pre-sorted by sheet_idx
            for span in group.column("spans")[i].as_py() or []:
                span = dict(span)
                span["offset"] = len(spans)
                spans.append(span)
            n_errors += group.column("n_errors")[i].as_py()
            parse_ms += group.column("parse_ms")[i].as_py()
        return pa.Table.from_pylist(
            [
                {
                    "doc_id": doc_id,
                    "spans": spans,
                    "n_spans": len(spans),
                    "n_errors": n_errors,
                    "parse_ms": parse_ms,
                    "partition": group.column("partition")[0].as_py(),
                }
            ],
            schema=schema,
        )

    def assemble_bucket(group: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            group,
            sort_keys=[("doc_id", "ascending"), ("sheet_idx", "ascending")],
        )
        g = group.take(idx)
        ids = g.column("doc_id").to_pylist()
        outs: list[pa.Table] = []
        start = 0
        for i in range(1, len(ids) + 1):
            if i == len(ids) or ids[i] != ids[start]:
                outs.append(_assemble_one(g.slice(start, i - start)))
                start = i
        return pa.concat_tables(outs)

    return bucket_exchange(
        ds,
        assemble_bucket,
        key="doc_id",
        schema=schema,
        n_buckets=256,
        batch_format="pyarrow",
    )
