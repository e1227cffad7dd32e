"""One exchange primitive for every coarse-bucket shuffle and join.

``bucket_exchange`` is the engine's only ``groupby → map_groups`` style
exchange (and its replacement for ``Dataset.join``). Callers state the
logical operation only: the sides, each side's key column(s) and the
exact in-group reduce. The exchange owns the physical row layout.

Each side keeps its own columns. The sides run together, one Ray Data
execution each, started at once (a union of sides with different
columns makes Ray log a schema change). Every non-empty block then
becomes part of one carrier: an Arrow table of a side index, a hash
bucket of that side's key and the null-filled union of all sides'
columns. Integer keys of every width are cast to int64 before hashing,
so an int32 key meets an equal int64 key: ``pd.util.hash_array``
buckets int32 and int64 negatives apart. The
reduce gets one frame per side for each bucket, in ``batch_format``; a
side with no rows in that bucket arrives as a typed empty frame with
that side's columns.

Empty hash partitions are the failure mode it exists for. Ray's sort
emits a zero-column block for every partition that receives no rows;
pandas reduces then KeyError, pyarrow joins reject the block, and the
executor logs a schema-divergence warning. ``bucket_exchange`` therefore
counts rows per bucket first and sorts on explicit boundaries drawn from
the occupied buckets only (placed at row-count quantiles, so a skewed
key spreads over partitions), which leaves no partition empty. Every
output block is Arrow with the declared schema, including the one empty
block of a partition whose reduces all return nothing.

The other helpers are the pieces several sites share: a typed empty
block for map UDFs, ``to_frame`` (a ``to_pandas`` that keeps the
declared columns when every block is empty) and ``attach_payload`` (the
Arrow-native "pairs ⋈ per-doc payload" reduce).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

# Carrier columns: the hash bucket and the index of the row's side.
BUCKET = "__bucket"
SIDE = "__side"


def _arrow(block) -> pa.Table:
    if isinstance(block, pd.DataFrame):
        block = pa.Table.from_pandas(block, preserve_index=False)
    return block.replace_schema_metadata()


def _key_values(table: pa.Table, col: str) -> np.ndarray:
    arr = table.column(col)
    if pa.types.is_integer(arr.type):
        arr = pc.cast(arr, pa.int64(), safe=False)
    return arr.to_numpy()


def _bucket_of(table: pa.Table, key: str | list[str], n_buckets: int) -> np.ndarray:
    """Coarse deterministic bucket (int64) of each row's key.

    pd.util.hash_array, never builtin hash(): the per-process salt would
    split partials across workers."""
    cols = [_key_values(table, k) for k in ([key] if isinstance(key, str) else key)]
    h = pd.util.hash_array(cols[0])
    for c in cols[1:]:
        h = h * np.uint64(1_000_003) + pd.util.hash_array(c)
    return (h % np.uint64(n_buckets)).astype(np.int64)


def _arrow_schema(schema) -> pa.Schema:
    """Declared output schema as Arrow: a ``pa.Schema`` as is, or a
    ``[(col, pandas dtype)]`` list (object → string)."""
    if isinstance(schema, pa.Schema):
        return schema
    fields = []
    for col, t in schema:
        dt = np.dtype(t)
        fields.append((col, pa.string() if dt.kind == "O" else pa.from_numpy_dtype(dt)))
    return pa.schema(fields)


@ray.remote(num_returns=2)
def _bucket_block(block, key, n_buckets: int):
    """One side block as Arrow plus its bucket column; second return:
    (bucket counts, the block's own schema)."""
    table = _arrow(block)
    b = _bucket_of(table, key, n_buckets)
    return table.append_column(BUCKET, pa.array(b)), (
        np.bincount(b, minlength=n_buckets),
        table.schema,
    )


@ray.remote(num_returns=2)
def _carrier_block(table: pa.Table, side: int, carrier: pa.Schema):
    """A bucketed side block laid out as the carrier; second return: its
    block metadata."""
    from ray.data.block import BlockAccessor

    n, prefix = table.num_rows, f"{side}:"
    cols = []
    for f in carrier:
        name = f.name[len(prefix):] if f.name.startswith(prefix) else None
        if f.name == BUCKET:
            cols.append(table.column(BUCKET))
        elif f.name == SIDE:
            cols.append(pa.array(np.full(n, side, dtype=np.int64)))
        elif name in table.column_names:
            cols.append(table.column(name).cast(f.type))
        else:
            cols.append(pa.nulls(n, f.type))
    out = pa.Table.from_arrays(cols, schema=carrier)
    return out, BlockAccessor.for_block(out).get_metadata()


def _side_schema(schemas: list[pa.Schema], empty_refs: list) -> pa.Schema:
    """A side's columns: the unified schema of its non-empty blocks, else
    of one of its empty blocks, else none."""
    if schemas:
        return pa.unify_schemas(schemas, promote_options="permissive")
    return _arrow(ray.get(empty_refs[0])).schema if empty_refs else pa.schema([])


def _carrier_input(sides, keys, n_buckets: int):
    """Run the sides together and lay their non-empty blocks out as the
    carrier.

    Returns the carrier Dataset (stats lineage kept, as
    ``Dataset.materialize`` does), each side's schema, per-bucket row
    counts and the block count. Empty blocks never reach a map stage
    here: Ray skips the UDF on an empty input block and passes it on
    unchanged."""
    from ray.data._internal.execution.interfaces import RefBundle
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.input_data_operator import InputData
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.dataset import MaterializedDataset

    if len(sides) == 1:
        mats = [sides[0].materialize()]
    else:  # the sides' Datasets are built, so no read_parquet runs in a thread
        with ThreadPoolExecutor(len(sides)) as pool:
            mats = list(pool.map(lambda s: s.materialize(), sides))
    tagged, empty_refs = [], [[] for _ in sides]
    for i, (mat, key) in enumerate(zip(mats, keys)):
        for bundle in mat.iter_internal_ref_bundles():
            for ref, meta in bundle.blocks:
                if meta.num_rows:
                    tagged.append((i, *_bucket_block.remote(ref, key, n_buckets)))
                else:
                    empty_refs[i].append(ref)
    infos = ray.get([info for _, _, info in tagged])
    side_schemas = [
        _side_schema([s for (j, _, _), (_, s) in zip(tagged, infos) if j == i], refs)
        for i, refs in enumerate(empty_refs)
    ]
    carrier = pa.schema(
        [(BUCKET, pa.int64()), (SIDE, pa.int64())]
        + [(f"{i}:{f.name}", f.type) for i, s in enumerate(side_schemas) for f in s]
    )
    built = [_carrier_block.remote(t, i, carrier) for i, t, _ in tagged]
    metas = ray.get([meta for _, meta in built])
    bundles = [
        RefBundle(blocks=((block, meta),), owns_blocks=False, schema=carrier)
        for (block, _), meta in zip(built, metas)
    ]
    stats = (
        mats[0]._plan.stats()
        if len(mats) == 1
        else DatasetStats(metadata={}, parent=[m._plan.stats() for m in mats])
    )
    ds = MaterializedDataset(
        ExecutionPlan(stats, data_context=mats[0].context),
        LogicalPlan(InputData(input_data=bundles), mats[0].context),
    )
    ds._plan.execute()
    counts = sum((c for c, _ in infos), np.zeros(n_buckets, dtype=np.int64))
    return ds, side_schemas, counts, len(bundles)


def _boundaries(counts: np.ndarray, n_parts: int) -> list[int]:
    """Sort boundaries over the occupied buckets only, at row-count
    quantiles: every partition starts at an occupied bucket, so none is
    empty, and a heavy bucket does not drag its neighbours along."""
    occupied = np.flatnonzero(counts)
    cum = np.cumsum(counts[occupied])
    targets = cum[-1] * np.arange(1, n_parts) / n_parts
    idx = np.unique(np.searchsorted(cum, targets, side="right"))
    idx = idx[(idx > 0) & (idx < len(occupied))]
    return [int(b) for b in occupied[idx]]


def bucket_exchange(
    sides,
    reduce,
    *,
    key,
    schema,
    n_buckets: int = 64,
    batch_format: str = "pandas",
):
    """Shuffle ``sides`` on a hash bucket of their keys and run ``reduce``
    once per bucket.

    ``sides`` is one Dataset, or a list of Datasets with their own
    columns. ``key`` names the key: for one Dataset a column or a list of
    columns; for a list of sides a column every side has, or a list with
    one key per side. ``reduce(*frames)`` receives one frame per side
    holding that side's rows of one bucket, in ``batch_format``
    (``"pandas"`` or ``"pyarrow"``), so rows with equal keys always meet
    in one call; a side with no rows in the bucket arrives as an empty
    frame with that side's columns (taken from its non-empty blocks,
    else from an empty one; a side that produced no block has none). It
    returns a frame/table, possibly empty, or ``None``.
    ``schema`` declares the output: a ``pa.Schema`` or a
    ``[(col, pandas dtype)]`` list. Every output block is Arrow of that
    schema, one per partition, and a partition whose reduces all return
    nothing yields one empty table. The exchange's map operator is named
    after ``reduce.__name__``.

    The sides run (and their blocks are bucketed) when this is called;
    the exchange itself stays lazy.
    """
    import ray.data

    if isinstance(sides, (list, tuple)):
        keys = [key] * len(sides) if isinstance(key, str) else list(key)
    else:
        sides, keys = [sides], [key]
    if len(keys) != len(sides):
        raise ValueError(f"{len(sides)} sides but {len(keys)} keys")
    to_arrow = batch_format == "pyarrow"
    out_schema = _arrow_schema(schema)
    empty = out_schema.empty_table()
    ds, side_schemas, counts, n_blocks = _carrier_input(sides, keys, n_buckets)
    if not n_blocks:
        return ray.data.from_arrow(empty)
    names = [s.names for s in side_schemas]
    cols = [[f"{i}:{n}" for n in ns] for i, ns in enumerate(names)]

    def apply(block: pa.Table):
        b = block.column(BUCKET).to_numpy()
        # Side-major, bucket-minor order: each side's rows are one slice.
        k = block.column(SIDE).to_numpy() * n_buckets + b
        if (k[1:] < k[:-1]).any():
            order = np.argsort(k, kind="stable")
            k, block = k[order], block.take(order)
        frames, side_buckets = [], []
        for i in range(len(names)):
            lo, hi = np.searchsorted(k, [i * n_buckets, (i + 1) * n_buckets])
            rows = block.slice(lo, hi - lo).select(cols[i]).rename_columns(names[i])
            frames.append(rows if to_arrow else rows.to_pandas())
            side_buckets.append(k[lo:hi] - i * n_buckets)
        outs = []
        for bucket in np.unique(b):
            groups = []
            for rows, sb in zip(frames, side_buckets):
                s, e = np.searchsorted(sb, [bucket, bucket + 1])
                groups.append(
                    rows.slice(s, e - s) if to_arrow
                    else rows.iloc[s:e].reset_index(drop=True)
                )
            out = reduce(*groups)
            if out is not None and len(out):
                outs.append(arrow_block(out, out_schema))
        yield pa.concat_tables(outs) if outs else empty

    apply.__name__ = reduce.__name__
    bounds = _boundaries(counts, n_blocks)
    # One occupied bucket or one block: a single partition, no sampling.
    shuffled = ds.sort(BUCKET, boundaries=bounds) if bounds else ds.repartition(1)
    return shuffled.map_batches(apply, batch_size=None, batch_format="pyarrow")


def to_frame(ds, schema) -> pd.DataFrame:
    """``ds.to_pandas()`` that keeps the declared columns and dtypes when
    every block is empty (Ray's batch iterator skips empty blocks, so the
    plain call returns a column-less frame)."""
    out = ds.to_pandas()
    return out if len(out.columns) else empty_block(schema).to_pandas()


def md5_mod_int(values, mod: int) -> np.ndarray:
    """Deterministic md5 gate/bucket over integer ids: the first 4 digest
    bytes of ``md5(str(int(id)))`` mod ``mod`` — the engine-wide
    content-free sampling idiom, always paired with the SQL fragment
    ``CAST('0x' || substr(md5(CAST(id AS VARCHAR)), 1, 8) AS UBIGINT)
    % mod``. One implementation because the string rendering and the
    4-byte width are oracle-load-bearing: changing either in one copy
    silently desynchronizes every paired oracle."""
    import hashlib

    return np.asarray(
        [
            int.from_bytes(
                hashlib.md5(str(int(v)).encode()).digest()[:4], "big"
            )
            % mod
            for v in values
        ],
        dtype=np.int64,
    )


def empty_block(cols) -> pa.Table:
    """Zero-row Arrow table of ``cols`` (``[(col, dtype)]`` or a schema):
    what a map UDF returns for an empty batch. A zero-row pandas block
    with an object column makes Ray's block sizing log a numpy
    ``vectorize`` error; an Arrow one does not."""
    return _arrow_schema(cols).empty_table()


def arrow_block(frame, cols) -> pa.Table:
    """``frame``'s ``cols`` (a pandas frame or an Arrow table) as an Arrow
    block of that schema: what a pandas map UDF with an object column
    returns, so an empty batch and a full one give the same block type
    (mixed pandas and Arrow blocks make Ray warn of a schema change) and
    no zero-row pandas block is sized."""
    schema = _arrow_schema(cols)
    if isinstance(frame, pd.DataFrame):
        table = pa.Table.from_pandas(frame[schema.names], schema=schema, preserve_index=False)
    else:
        table = frame.select(schema.names).cast(schema)
    return table.replace_schema_metadata()


def attach_payload(
    pairs_ds,
    payload_ds,
    *,
    on: str,
    out: str,
    payload_key: str,
    payload_col: str,
    carry_ids: list[str],
    payload_type=None,
    n_buckets: int = 64,
):
    """Arrow-native bucket merge: attach one payload column to a pair
    table by key.

    The generic shape behind every "candidate ids ⋈ per-doc payload"
    exchange (LSH embedding attach, ngram-verify text attach):
    ``pairs_ds`` rows carry ``carry_ids`` (int64); each distinct pair row
    receives ``payload_ds``'s ``payload_col`` for its ``on`` key as a new
    ``out`` column (inner join — pairs without a payload drop).

    Everything is ``batch_format="pyarrow"`` end to end: payloads ride the
    exchange as Arrow binary/string buffers (zero-copy through the object
    store and the wire), never pandas object columns of pickled Python
    bytes. The in-group join is numpy searchsorted over the int64 keys +
    one Arrow ``take`` of the payload column — no pandas merge.

    Duplicate ``carry_ids`` rows drop inside the merge (candidates
    surfaced by several bands always share the ``on`` key and therefore
    the same bucket, so no extra dedup shuffle is needed).
    """
    out_schema = pa.schema(
        [(c, pa.int64()) for c in carry_ids]
        + [(out, payload_type if payload_type is not None else pa.binary())]
    )

    def _np(col) -> np.ndarray:
        return col.combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64)

    def merge(pair_t: pa.Table, pay_t: pa.Table) -> pa.Table:
        if pair_t.num_rows == 0 or pay_t.num_rows == 0:
            return None
        idc = [_np(pair_t[c]) for c in carry_ids]
        order = np.lexsort(idc[::-1])
        keep = np.ones(len(order), dtype=bool)
        if len(order) > 1:
            neq = np.zeros(len(order) - 1, dtype=bool)
            for c in idc:
                s = c[order]
                neq |= s[1:] != s[:-1]
            keep[1:] = neq
        pair_t = pair_t.take(pa.array(order[keep]))
        pk = _np(pay_t[payload_key])
        o = np.argsort(pk, kind="stable")
        sk = pk[o]
        first = np.ones(len(sk), dtype=bool)
        first[1:] = sk[1:] != sk[:-1]
        sk, o = sk[first], o[first]
        jk = _np(pair_t[on])
        pos_c = np.minimum(np.searchsorted(sk, jk), len(sk) - 1)
        valid = sk[pos_c] == jk
        cols = {c: pair_t[c].filter(pa.array(valid)) for c in carry_ids}
        cols[out] = pay_t[payload_col].take(pa.array(o[pos_c[valid]]))
        return pa.table(cols)

    return bucket_exchange(
        [pairs_ds, payload_ds],
        merge,
        key=[on, payload_key],
        schema=out_schema,
        n_buckets=n_buckets,
        batch_format="pyarrow",
    )
