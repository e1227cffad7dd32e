"""The extraction callable: the body of the extraction map_batches stage.

``stages.pipeline.build_extraction_pipeline`` maps one stateless task UDF,
``split_or_extract``, which builds an ``ExtractActor`` per batch (setup is
option resolution and a once-per-process GC tuning, ~10 µs) and calls it
on the batch, or on a giant document's sheet rows. Each ``__call__``
processes one Arrow batch of documents.
Per-document failures become error spans, never task failures — one poison
document cannot fail a block (the distributed analogue of the reference's
FallbackReason degrade-in-place policy, ADR-0002).

Emits per-row metrics columns (n_spans, n_errors, parse_ms) so per-partition
lineage/throughput can be aggregated downstream without a second pass.
``encode_spans`` builds the ``spans`` column for every producer of
``OUTPUT_SCHEMA`` rows.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from ..config import ExtractOptions, ResolvedOptions
from ..datagen.corpus import SPAN_TYPE

OUTPUT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans", SPAN_TYPE),
        ("n_spans", pa.int32()),
        ("n_errors", pa.int32()),
        ("parse_ms", pa.float32()),
    ]
)


_GC_TUNED = False


def _tune_gc_for_parse() -> None:
    """Raise GC gen-0 threshold once per worker process.

    XML parsing allocates millions of short-lived objects per batch; the
    default gen-0 threshold (700) triggers collection sweeps constantly and
    they serialize badly across many cores (measured +13–15% extraction
    throughput at 32 CPUs from this change alone). Collection stays ON —
    only the cadence changes — so cyclic garbage is still reclaimed.
    """
    global _GC_TUNED
    if not _GC_TUNED:
        import gc

        gc.set_threshold(200_000, 100, 100)
        _GC_TUNED = True


def encode_spans(
    kinds: pa.Array, texts: pa.Array, refs: pa.Array, list_offsets: np.ndarray
) -> pa.ListArray:
    """The ``spans`` column over flat span children: document ``i`` holds
    spans ``list_offsets[i]:list_offsets[i + 1]`` (int32), and each span's
    ``offset`` is its position in its document (one vectorized arange)."""
    counts = np.diff(list_offsets)
    offs = np.arange(list_offsets[-1], dtype=np.int32) - np.repeat(
        list_offsets[:-1], counts
    )
    span_struct = pa.StructArray.from_arrays(
        [kinds, texts, refs, pa.array(offs, pa.int32())],
        names=["kind", "text", "media_ref", "offset"],
    )
    return pa.ListArray.from_arrays(pa.array(list_offsets, pa.int32()), span_struct)


class ExtractActor:
    """Arrow batch of (doc_id, spans) in, ``OUTPUT_SCHEMA`` batch out.
    ``options`` may come resolved (the pipeline resolves them once, on
    the driver)."""

    def __init__(self, options: ExtractOptions | ResolvedOptions | None = None) -> None:
        from ..extract.document import _resolve

        _tune_gc_for_parse()
        self._opts = _resolve(options)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..extract.document import extract_document_spans_columnar

        n_docs = batch.num_rows

        # Decode the list<struct> column via flat child arrays + offsets —
        # no per-span Python dicts on either side of the stage. Offsets
        # stay a zero-copy numpy view; only the string children convert
        # (one bulk C pass each — the XML parser needs Python str).
        spans_col = batch.column("spans")
        if spans_col.num_chunks == 0:
            list_arr = pa.array([], type=batch.schema.field("spans").type)
        else:
            list_arr = spans_col.combine_chunks()
        offsets = list_arr.offsets.to_numpy()
        values = list_arr.values
        all_kinds = values.field("kind").to_pylist()
        all_texts = values.field("text").to_pylist()
        all_refs = values.field("media_ref").to_pylist()

        # Columnar emission: every document appends straight onto three
        # shared buffers (no per-span Span objects, no second pass).
        out_kinds: list[str] = []
        out_texts: list[str] = []
        out_refs: list[str] = []
        out_list_offsets = np.empty(n_docs + 1, dtype=np.int32)
        out_list_offsets[0] = 0
        out_n_spans = np.empty(n_docs, dtype=np.int32)
        out_n_errors = np.empty(n_docs, dtype=np.int32)
        out_ms = np.empty(n_docs, dtype=np.float32)

        for i in range(n_docs):
            lo, hi = offsets[i], offsets[i + 1]
            start = time.perf_counter()
            n_spans, n_err = extract_document_spans_columnar(
                all_kinds[lo:hi],
                all_texts[lo:hi],
                all_refs[lo:hi],
                self._opts,
                out_kinds,
                out_texts,
                out_refs,
            )
            out_list_offsets[i + 1] = len(out_kinds)
            out_n_spans[i] = n_spans
            out_n_errors[i] = n_err
            out_ms[i] = (time.perf_counter() - start) * 1000.0

        spans_out = encode_spans(
            pa.array(out_kinds, pa.string()),
            pa.array(out_texts, pa.string()),
            pa.array(out_refs, pa.string()),
            out_list_offsets,
        )
        # doc_id passes through zero-copy from the input block.
        doc_id_col = batch.column("doc_id").combine_chunks()
        if doc_id_col.type != pa.string():
            doc_id_col = doc_id_col.cast(pa.string())
        return pa.Table.from_arrays(
            [
                doc_id_col,
                spans_out,
                pa.array(out_n_spans, pa.int32()),
                pa.array(out_n_errors, pa.int32()),
                pa.array(out_ms, pa.float32()),
            ],
            schema=OUTPUT_SCHEMA,
        )
