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
        out = bucket_exchange(
            [left, right], _reduce(), key="k", schema=self._schema(fmt), batch_format=fmt
        ).to_pandas()
        assert sorted(zip(out["k"], out["n"])) == [(k, 4) for k in range(5)]

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
