"""One exchange primitive for every coarse-bucket shuffle.

``bucket_exchange`` is the engine's only ``groupby → map_groups`` style
exchange (and its replacement for ``Dataset.join``). It owns the whole
decision: it tags each side with a deterministic hash bucket of a key
column, unions the sides, partitions on the bucket and runs the caller's
reduce once per bucket group. Callers write only the tag of each side
and the exact in-group reduce.

Empty hash partitions are the failure mode it exists for. Ray's sort
emits a zero-column block for every partition that receives no rows;
pandas reduces then KeyError, pyarrow joins reject the block, and the
executor logs a schema-divergence warning. ``bucket_exchange`` therefore
counts rows per bucket first and sorts on explicit boundaries drawn from
the occupied buckets only (placed at row-count quantiles, so a skewed
key spreads over partitions), which leaves no partition empty. A reduce
that returns nothing still yields one typed block built from the
declared output schema.

The other helpers are the pieces several sites share: the bucket hash,
a typed empty block for map UDFs, ``to_frame`` (a ``to_pandas`` that
keeps the declared columns when every block is empty) and
``attach_payload`` (the Arrow-native "pairs ⋈ per-doc payload" reduce).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

# Bucket column the exchange adds to every side and drops before the reduce.
BUCKET = "__bucket"


def hash_bucket_np(values: np.ndarray, n_buckets: int) -> np.ndarray:
    """Coarse deterministic bucket (int64) of a key array: integers,
    strings or other objects ``pd.util.hash_array`` hashes.

    pd.util.hash_array, never builtin hash(): the per-process salt would
    split partials across workers."""
    return (pd.util.hash_array(values) % n_buckets).astype("int64")


def _key_hash_bucket(block, key: str | list[str], n_buckets: int) -> np.ndarray:
    cols = [
        block[k].to_numpy()
        if isinstance(block, pd.DataFrame)
        else block.column(k).to_numpy(zero_copy_only=False)
        for k in ([key] if isinstance(key, str) else key)
    ]
    if len(cols) == 1:
        return hash_bucket_np(cols[0], n_buckets)
    h = np.zeros(len(cols[0]), dtype=np.uint64)
    for c in cols:
        h = h * np.uint64(1_000_003) + pd.util.hash_array(c)
    return (h % np.uint64(n_buckets)).astype("int64")


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


def _as_format(block, to_arrow: bool):
    if isinstance(block, pd.DataFrame):
        return pa.Table.from_pandas(block, preserve_index=False) if to_arrow else block
    return block if to_arrow else block.to_pandas()


@ray.remote(num_returns=2)
def _tag_block(block, key, n_buckets: int, to_arrow: bool):
    """Bucket-tag one block; second return: (bucket counts, metadata, schema)."""
    from ray.data.block import BlockAccessor

    block = _as_format(block, to_arrow)
    b = _key_hash_bucket(block, key, n_buckets)
    if to_arrow:
        block = block.append_column(BUCKET, pa.array(b))
    else:
        block = block.assign(**{BUCKET: b})
    acc = BlockAccessor.for_block(block)
    info = (np.bincount(b, minlength=n_buckets), acc.get_metadata(), acc.schema())
    return block, info


def _tagged_input(sides, key, n_buckets: int, to_arrow: bool):
    """Run the sides, drop their empty blocks and bucket-tag the rest.

    Returns the tagged Dataset (stats lineage kept, as
    ``Dataset.materialize`` does), per-bucket row counts and the block
    count. Empty blocks never reach a map stage here: Ray skips the UDF
    on an empty input block and emits a zero-column block instead."""
    from ray.data._internal.execution.interfaces import RefBundle
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.input_data_operator import InputData
    from ray.data._internal.plan import ExecutionPlan
    from ray.data.dataset import MaterializedDataset

    mat = (sides[0].union(*sides[1:]) if len(sides) > 1 else sides[0]).materialize()
    refs = [
        ref
        for bundle in mat.iter_internal_ref_bundles()
        for ref, meta in bundle.blocks
        if meta.num_rows
    ]
    tagged = [_tag_block.remote(r, key, n_buckets, to_arrow) for r in refs]
    infos = ray.get([info for _, info in tagged])
    bundles = [
        RefBundle(blocks=((block, meta),), owns_blocks=False, schema=schema)
        for (block, _), (_, meta, schema) in zip(tagged, infos)
    ]
    ds = MaterializedDataset(
        ExecutionPlan(mat._plan.stats(), data_context=mat.context),
        LogicalPlan(InputData(input_data=bundles), mat.context),
    )
    ds._plan.execute()
    counts = sum((c for c, _, _ in infos), np.zeros(n_buckets, dtype=np.int64))
    return ds, counts, len(bundles)


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
    key: str | list[str],
    schema,
    n_buckets: int = 64,
    batch_format: str = "pandas",
):
    """Shuffle ``sides`` on a hash bucket of ``key`` and run ``reduce``
    once per bucket.

    ``sides`` is one Dataset or a list of Datasets whose rows share
    columns (the tagged union of a join). ``reduce(group)`` receives all
    rows of one bucket in ``batch_format`` (``"pandas"`` or
    ``"pyarrow"``), bucket column removed, so rows with equal ``key``
    always meet in one call; it returns a frame/table, possibly empty, or
    ``None``. ``schema`` declares the output: a ``pa.Schema`` or a
    ``[(col, pandas dtype)]`` list. No output block is
    zero-column: a partition whose reduces all return nothing yields one
    empty Arrow table of ``schema`` (Arrow, not pandas, so Ray's block
    sizing never samples an empty object column). The exchange's map
    operator is named after ``reduce.__name__``.

    The sides run (and their blocks are bucket-tagged) when this is
    called; the exchange itself stays lazy.
    """
    import ray.data

    to_arrow = batch_format == "pyarrow"
    empty = empty_block(schema)
    sides = list(sides) if isinstance(sides, (list, tuple)) else [sides]
    ds, counts, n_blocks = _tagged_input(sides, key, n_buckets, to_arrow)
    if not n_blocks:
        return ray.data.from_arrow(empty)

    def apply(block):
        block = _as_format(block, to_arrow)
        b = np.asarray(block[BUCKET], dtype=np.int64)
        if (b[1:] < b[:-1]).any():  # the single-partition path is unsorted
            order = np.argsort(b, kind="stable")
            b = b[order]
            block = block.take(order) if to_arrow else block.iloc[order]
        if to_arrow:
            rows = block.drop_columns([BUCKET])
            cut = lambda s, e: rows.slice(s, e - s)  # noqa: E731
        else:
            rows = block.drop(columns=[BUCKET])
            cut = lambda s, e: rows.iloc[s:e].reset_index(drop=True)  # noqa: E731
        ends = [*(np.flatnonzero(b[1:] != b[:-1]) + 1), len(b)]
        yielded = False
        for s, e in zip([0, *ends[:-1]], ends):
            out = reduce(cut(s, e))
            if out is not None and len(out):
                yielded = True
                yield out
        if not yielded:
            yield empty

    apply.__name__ = reduce.__name__
    bounds = _boundaries(counts, n_blocks)
    # One occupied bucket or one block: a single partition, no sampling.
    shuffled = ds.sort(BUCKET, boundaries=bounds) if bounds else ds.repartition(1)
    return shuffled.map_batches(apply, batch_size=None, batch_format=None)


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


def arrow_block(frame: pd.DataFrame, cols) -> pa.Table:
    """``frame``'s ``cols`` as an Arrow block of that schema: what a pandas
    map UDF with an object column returns, so an empty batch and a full
    one give the same block type (mixed pandas and Arrow blocks make Ray
    warn of a schema change) and no zero-row pandas block is sized."""
    schema = _arrow_schema(cols)
    table = pa.Table.from_pandas(frame[schema.names], schema=schema, preserve_index=False)
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
    carry_payloads: dict[str, object] | None = None,
    payload_type=None,
    dedup_pairs: bool = False,
    n_buckets: int = 64,
):
    """Arrow-native tagged-union bucket merge: attach one payload column
    to a pair table by key.

    The generic shape behind every "candidate ids ⋈ per-doc payload"
    exchange (MinHash ids-only signature attach, LSH embedding attach,
    ngram-verify text attach): ``pairs_ds`` rows carry ``carry_ids``
    (int64) plus previously attached ``carry_payloads``; each pair row
    receives ``payload_ds``'s ``payload_col`` for its ``on`` key as a new
    ``out`` column (inner join — pairs without a payload drop).

    Everything is ``batch_format="pyarrow"`` end to end: payloads ride the
    exchange as Arrow binary/string buffers (zero-copy through the object
    store and the wire), never pandas object columns of pickled Python
    bytes. The in-group join is numpy searchsorted over the int64 keys +
    one Arrow ``take`` of the payload column — no pandas merge.

    ``dedup_pairs=True`` drops duplicate carry_ids rows inside the merge
    (candidates surfaced by several bands always share the ``on`` key and
    therefore the same bucket, so no extra dedup shuffle is needed).
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    carry_payloads = dict(carry_payloads or {})
    payload_type = payload_type if payload_type is not None else pa.binary()

    def _placeholder(dtype, n: int):
        if pa.types.is_string(dtype) or pa.types.is_large_string(dtype):
            return pa.array([""] * n, dtype)
        return pa.array([b""] * n, dtype)

    out_schema = pa.schema(
        [(c, pa.int64()) for c in carry_ids]
        + list(carry_payloads.items())
        + [(out, payload_type)]
    )

    def _np(col) -> np.ndarray:
        return col.combine_chunks().to_numpy(zero_copy_only=False)

    def tag_pairs(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols: dict[str, object] = {"key": pc.cast(batch[on], pa.int64())}
        for c in carry_ids:
            cols[c] = pc.cast(batch[c], pa.int64())
        for c, t in carry_payloads.items():
            cols[c] = pc.cast(batch[c], t)
        cols["payload"] = _placeholder(payload_type, n)
        cols["is_payload"] = pa.array(np.zeros(n, dtype=bool))
        return pa.table(cols)

    def tag_payloads(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols: dict[str, object] = {"key": pc.cast(batch[payload_key], pa.int64())}
        zeros = pa.array(np.zeros(n, dtype=np.int64))
        for c in carry_ids:
            cols[c] = zeros
        for c, t in carry_payloads.items():
            cols[c] = _placeholder(t, n)
        cols["payload"] = pc.cast(batch[payload_col], payload_type)
        cols["is_payload"] = pa.array(np.ones(n, dtype=bool))
        return pa.table(cols)

    def merge(group: pa.Table) -> pa.Table:
        group = group.combine_chunks()
        is_p = _np(group["is_payload"]).astype(bool)
        pair_t = group.filter(pa.array(~is_p))
        pay_t = group.filter(pa.array(is_p))
        if pair_t.num_rows == 0 or pay_t.num_rows == 0:
            return None
        if dedup_pairs:
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
        pk = _np(pay_t["key"])
        o = np.argsort(pk, kind="stable")
        sk = pk[o]
        first = np.ones(len(sk), dtype=bool)
        first[1:] = sk[1:] != sk[:-1]
        sk, o = sk[first], o[first]
        jk = _np(pair_t["key"])
        pos = np.searchsorted(sk, jk)
        pos_c = np.minimum(pos, len(sk) - 1)
        valid = sk[pos_c] == jk
        pair_sel = pair_t.filter(pa.array(valid))
        payload_vals = pay_t["payload"].take(pa.array(o[pos_c[valid]]))
        cols = {c: pair_sel[c] for c in carry_ids}
        cols.update({c: pair_sel[c] for c in carry_payloads})
        cols[out] = payload_vals
        return pa.table(cols)

    return bucket_exchange(
        [
            pairs_ds.map_batches(tag_pairs, batch_format="pyarrow"),
            payload_ds.map_batches(tag_payloads, batch_format="pyarrow"),
        ],
        merge,
        key="key",
        schema=out_schema,
        n_buckets=n_buckets,
        batch_format="pyarrow",
    )
