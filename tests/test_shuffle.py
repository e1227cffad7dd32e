"""bucket_exchange: the one coarse-bucket exchange primitive."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from exstruct_ray.ops.shuffle import bucket_exchange, to_frame

SCHEMA = [("k", "int64"), ("n", "int64"), ("name", "object")]


def _blocks(ds) -> list:
    import ray

    return [
        ray.get(ref)
        for bundle in ds.iter_internal_ref_bundles()
        for ref in bundle.block_refs
    ]


def _columns(block) -> list[str]:
    if isinstance(block, pd.DataFrame):
        return list(block.columns)
    return block.column_names


def _column_names():
    """``_columns`` as a closure, so workers unpickle it by value."""

    def columns(frame) -> list[str]:
        if isinstance(frame, pd.DataFrame):
            return list(frame.columns)
        return frame.column_names

    return columns


def _reduce():
    """Per-key row count of one bucket (pandas or pyarrow group). Built
    in a closure so workers unpickle it by value, not by module."""

    def count_keys(group):
        if isinstance(group, pa.Table):
            agg = group.group_by("k").aggregate([("k", "count")])
            return pa.table(
                {
                    "k": agg["k"],
                    "n": agg["k_count"],
                    "name": pa.array([f"k{v}" for v in agg["k"].to_pylist()]),
                }
            )
        out = group.groupby("k", as_index=False).size()
        out = out.rename(columns={"size": "n"})
        out["name"] = "k" + out["k"].astype(str)
        return out

    return count_keys


@pytest.mark.parametrize("fmt", ["pandas", "pyarrow"])
class TestBucketExchange:
    def _schema(self, fmt):
        if fmt == "pyarrow":
            return pa.schema([("k", pa.int64()), ("n", pa.int64()), ("name", pa.string())])
        return SCHEMA

    def test_one_side_empty(self, ray_session, fmt):
        import ray.data

        left = ray.data.from_pandas(pd.DataFrame({"k": np.arange(20) % 5}))
        right = ray.data.from_pandas(pd.DataFrame({"k": np.zeros(0, dtype="int64")}))
        count_keys = _reduce()
        columns = _column_names()

        def left_counts(lhs, rhs):
            # The empty side keeps the columns of its empty block.
            assert len(rhs) == 0 and columns(rhs) == ["k"]
            return count_keys(lhs)

        out = bucket_exchange(
            [left, right], left_counts, key="k", schema=self._schema(fmt), batch_format=fmt
        ).to_pandas()
        assert sorted(zip(out["k"], out["n"])) == [(k, 4) for k in range(5)]

    def test_sides_keep_own_columns_and_keys(self, ray_session, fmt):
        """Two sides with different columns and key names: the reduce
        gets one frame per side with exactly that side's columns, and
        rows with equal keys meet in one call."""
        import ray.data

        orders = ray.data.from_pandas(
            pd.DataFrame({"o_key": np.arange(30), "o_price": np.arange(30) * 10})
        ).repartition(3)
        lines = ray.data.from_pandas(
            pd.DataFrame({"l_key": np.arange(60) % 30, "l_tag": ["x"] * 30 + ["y"] * 30})
        ).repartition(2)

        columns = _column_names()

        def join(o, li):
            assert columns(o) == ["o_key", "o_price"]
            assert columns(li) == ["l_key", "l_tag"]
            if isinstance(o, pa.Table):
                o, li = o.to_pandas(), li.to_pandas()
            m = o.merge(li, left_on="o_key", right_on="l_key")
            return pd.DataFrame(
                {"k": m["o_key"], "n": m["o_price"], "name": m["l_tag"]}
            )

        out = bucket_exchange(
            [orders, lines], join, key=["o_key", "l_key"], schema=self._schema(fmt),
            batch_format=fmt,
        ).to_pandas()
        want = [(k, 10 * k, t) for k in range(30) for t in ("x", "y")]
        assert sorted(zip(out["k"], out["n"], out["name"])) == want

    def test_absent_side_is_typed_empty(self, ray_session, fmt):
        """Buckets where one side has no rows: that side arrives as a
        zero-row frame with its own columns and types."""
        import ray.data

        left = ray.data.from_pandas(pd.DataFrame({"a": np.arange(40)}))
        right = ray.data.from_pandas(
            pd.DataFrame({"b": [0, 1], "label": ["p", "q"], "w": [0.5, 1.5]})
        )
        columns = _column_names()

        def probe(lhs, rhs):
            if len(rhs) == 0:
                assert columns(rhs) == ["b", "label", "w"]
                if isinstance(rhs, pa.Table):
                    assert rhs.schema.field("b").type == pa.int64()
                    assert rhs.schema.field("label").type == pa.string()
                else:
                    assert rhs["b"].dtype == np.int64
                    assert rhs["w"].dtype == np.float64
            return pd.DataFrame({"k": [len(lhs)], "n": [len(rhs)], "name": ["b"]})

        out = bucket_exchange(
            [left, right], probe, key=["a", "b"], schema=self._schema(fmt),
            n_buckets=16, batch_format=fmt,
        ).to_pandas()
        assert out["k"].sum() == 40 and out["n"].sum() == 2
        assert (out["n"] == 0).any()

    def test_int32_and_int64_keys_meet(self, ray_session, fmt):
        """Negative int32 keys on one side, int64 on the other: equal
        values share one reduce call."""
        import ray.data

        keys = np.arange(-50, 50)
        small = ray.data.from_arrow(pa.table({"k32": pa.array(keys, pa.int32())}))
        wide = ray.data.from_pandas(pd.DataFrame({"k64": keys.astype(np.int64)}))

        def pair_up(a, b):
            a = a["k32"].to_pylist() if isinstance(a, pa.Table) else a["k32"].tolist()
            b = b["k64"].to_pylist() if isinstance(b, pa.Table) else b["k64"].tolist()
            assert sorted(a) == sorted(b)
            return pd.DataFrame({"k": a, "n": [1] * len(a), "name": ["m"] * len(a)})

        out = bucket_exchange(
            [small, wide], pair_up, key=["k32", "k64"], schema=self._schema(fmt),
            batch_format=fmt,
        ).to_pandas()
        assert sorted(out["k"]) == list(keys)

    def test_sparse_buckets_keep_schema(self, ray_session, fmt):
        """3 distinct keys in 512 buckets over 16 input blocks: most hash
        partitions would be empty, yet no block is zero-column."""
        import ray.data

        df = pd.DataFrame({"k": np.tile([7, 11, 13], 32)})
        ds = ray.data.from_pandas(df).repartition(16)
        out = bucket_exchange(
            ds, _reduce(), key="k", schema=self._schema(fmt), n_buckets=512,
            batch_format=fmt,
        )
        blocks = _blocks(out)
        assert blocks
        for block in blocks:
            assert _columns(block) == ["k", "n", "name"]
        got = out.to_pandas()
        assert sorted(zip(got["k"], got["n"])) == [(7, 32), (11, 32), (13, 32)]

    def test_empty_reduce_is_typed(self, ray_session, fmt):
        import ray.data

        ds = ray.data.from_pandas(pd.DataFrame({"k": np.arange(50)})).repartition(4)

        def drop_all(group):
            return None

        out = bucket_exchange(
            ds, drop_all, key="k", schema=self._schema(fmt), batch_format=fmt
        )
        for block in _blocks(out):
            assert _columns(block) == ["k", "n", "name"]
        got = to_frame(out, self._schema(fmt))
        assert len(got) == 0
        assert list(got.columns) == ["k", "n", "name"]
        assert got["k"].dtype == np.int64

    def test_operator_named_after_reduce(self, ray_session, fmt):
        import ray.data

        ds = ray.data.from_pandas(pd.DataFrame({"k": np.arange(40) % 7}))
        out = bucket_exchange(
            ds, _reduce(), key="k", schema=self._schema(fmt), batch_format=fmt
        ).materialize()
        assert "MapBatches(count_keys)" in out.stats()

    def test_multi_column_key(self, ray_session, fmt):
        import ray.data

        df = pd.DataFrame({"k": np.arange(60) % 3, "j": np.arange(60) % 4})

        def pairs(group):
            if isinstance(group, pa.Table):
                group = group.to_pandas()
            out = group.groupby(["k", "j"], as_index=False).size()
            return out.rename(columns={"size": "n"}).assign(name="x")[["k", "n", "name"]]

        out = bucket_exchange(
            ray.data.from_pandas(df).repartition(3), pairs, key=["k", "j"],
            schema=self._schema(fmt), batch_format=fmt,
        ).to_pandas()
        assert len(out) == 12 and (out["n"] == 5).all()


def test_pandas_reduce_blocks_are_arrow_of_schema(ray_session):
    """A pandas-reduce exchange with partitions whose reduces return
    nothing: every output block is Arrow of the declared schema, with no
    pandas metadata, so Ray never sees two schemas."""
    import ray.data

    ds = ray.data.from_pandas(pd.DataFrame({"k": np.arange(64)})).repartition(8)

    def evens(group):
        kept = group[group["k"] % 16 == 0]
        return pd.DataFrame({"k": kept["k"], "n": 1, "name": "e"})

    out = bucket_exchange(ds, evens, key="k", schema=SCHEMA, n_buckets=64)
    blocks = _blocks(out)
    want = pa.schema([("k", pa.int64()), ("n", pa.int64()), ("name", pa.string())])
    assert len(blocks) > 1
    assert any(b.num_rows == 0 for b in blocks)
    for block in blocks:
        assert isinstance(block, pa.Table)
        assert block.schema == want
        assert block.schema.metadata is None
    assert sorted(to_frame(out, SCHEMA)["k"]) == [0, 16, 32, 48]
