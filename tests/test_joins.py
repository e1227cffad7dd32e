"""Distributed joins through the bucket exchange: inner, semi and anti."""

import logging

import duckdb
import pandas as pd

SF_DIR = "/root/testdata/sf0.001"


def _oracle(name: str, sf_dir: str) -> pd.DataFrame:
    from exstruct_ray.queries import ORACLE_SQL

    con = duckdb.connect()
    for t in ["customer", "orders", "lineitem"]:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{sf_dir}/{t}.parquet')"
        )
    return con.execute(ORACLE_SQL[name]).df()


class TestInnerJoin:
    def test_matches_oracle(self, ray_session):
        from exstruct_ray.queries import lineitem_join_orders

        got = lineitem_join_orders(SF_DIR)
        want = _oracle("lineitem_join_orders", SF_DIR)
        assert len(got) > 0
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True)[list(want.columns)],
            want.reset_index(drop=True),
            check_dtype=False,
        )


class TestSemiJoin:
    def test_matches_oracle(self, ray_session):
        from exstruct_ray.queries import order_priority_counts

        got = order_priority_counts(SF_DIR)
        want = _oracle("order_priority_counts", SF_DIR)
        assert len(got) > 0  # the window+flag predicate actually selects
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), want.reset_index(drop=True),
            check_dtype=False,
        )

    def test_priorities_counted_once_per_order(self, ray_session, tmp_path):
        """An order with MANY returned lineitems still counts once — the
        semi-join must not inflate into an inner-join row product."""
        orders = pd.DataFrame(
            {
                "o_orderkey": [1, 2, 3],
                "o_custkey": [1, 1, 1],
                "o_orderstatus": "O",
                "o_totalprice": 1.0,
                "o_orderdate": pd.Timestamp("1995-02-01"),
                "o_orderpriority": ["1-URGENT", "1-URGENT", "5-LOW"],
            }
        )
        lineitem = pd.DataFrame(
            {
                "l_orderkey": [1, 1, 1, 3],  # order 2 has no returns
                "l_partkey": 1, "l_suppkey": 1,
                "l_linenumber": [1, 2, 3, 1],
                "l_quantity": 1.0, "l_extendedprice": 1.0,
                "l_discount": 0.0, "l_tax": 0.0,
                "l_returnflag": ["R", "R", "R", "R"],
                "l_linestatus": "O",
                "l_shipdate": pd.Timestamp("1995-03-01"),
            }
        )
        orders.to_parquet(tmp_path / "orders.parquet")
        lineitem.to_parquet(tmp_path / "lineitem.parquet")
        from exstruct_ray.queries import order_priority_counts

        got = order_priority_counts(str(tmp_path))
        assert got.set_index("o_orderpriority")["order_count"].to_dict() == {
            "1-URGENT": 1,
            "5-LOW": 1,
        }


class TestAntiJoin:
    def test_matches_oracle(self, ray_session):
        from exstruct_ray.queries import customers_inactive_2001

        got = customers_inactive_2001(SF_DIR)
        want = _oracle("customers_inactive_2001", SF_DIR)
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), want.reset_index(drop=True),
            check_dtype=False,
        )

    def test_all_customers_active_yields_empty(self, ray_session, tmp_path):
        customers = pd.DataFrame(
            {
                "c_custkey": [1, 2],
                "c_name": ["a", "b"],
                "c_nationkey": 0,
                "c_acctbal": [10.0, 20.0],
                "c_mktsegment": ["X", "Y"],
            }
        )
        orders = pd.DataFrame(
            {
                "o_orderkey": [1, 2],
                "o_custkey": [1, 2],
                "o_orderstatus": "O",
                "o_totalprice": 1.0,
                "o_orderdate": pd.Timestamp("2001-06-01"),
                "o_orderpriority": "5-LOW",
            }
        )
        customers.to_parquet(tmp_path / "customer.parquet")
        orders.to_parquet(tmp_path / "orders.parquet")
        from exstruct_ray.queries import customers_inactive_2001

        got = customers_inactive_2001(str(tmp_path))
        assert len(got) == 0
        assert list(got.columns) == [
            "c_mktsegment", "n_customers", "total_acctbal",
        ]


class TestExchangeLogNoise:
    def test_joins_log_no_schema_change(self, ray_session):
        """Every block an exchange (or a map fused onto one) emits has one
        schema: Ray logs "different schema" when pandas and Arrow blocks,
        or two Arrow schemas, meet in one operator. The LSH input has few
        candidate pairs over many vectors, so some partitions of its
        verify exchange produce no pairs."""
        import numpy as np
        import ray.data

        from exstruct_ray.ops.ann import lsh_neardup_pairs
        from exstruct_ray.queries import (
            q3_shipping_priority,
            q18_large_volume_customers,
        )

        rng = np.random.RandomState(3)
        vecs = rng.standard_normal((40, 64))
        vecs[1] = vecs[0] + 0.01 * rng.standard_normal(64)
        embeddings = ray.data.from_items(
            [{"vec_id": i, "embedding": v.tolist()} for i, v in enumerate(vecs)],
            override_num_blocks=8,
        )

        # Ray Data configures its loggers on a session's first execution,
        # which drops handlers added before it.
        ray.data.range(1).materialize()
        records: list[str] = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record.getMessage())

        handler = Capture(level=logging.WARNING)
        logger = logging.getLogger("ray.data")
        logger.addHandler(handler)
        try:
            q3_shipping_priority(SF_DIR)
            q18_large_volume_customers(SF_DIR)
            pairs = lsh_neardup_pairs(embeddings, dim=64).to_pandas()
        finally:
            logger.removeHandler(handler)
        assert not [r for r in records if "different schema" in r]
        assert (0, 1) in set(zip(pairs["vec_a"], pairs["vec_b"]))
