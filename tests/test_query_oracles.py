"""Broadcast and ANN queries against their DuckDB oracles at sf0.001.

The same check ``scripts/check_oracles.py`` runs over every query at
sf0.01, kept in tier-1 for the queries whose map stages broadcast state
through ``ray.put`` or bucket embeddings.
"""

import importlib.util
import pathlib

import duckdb
import pytest

from test_joins import SF_DIR

_SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "check_oracles.py"
_spec = importlib.util.spec_from_file_location("check_oracles", _SCRIPT)
check_oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_oracles)


@pytest.mark.parametrize(
    "name",
    [
        "supplier_balance_by_region",
        "embedding_neardup_pairs",
        "embedding_neardup_lsh",
        "embedding_topk_ivf",
    ],
)
def test_matches_oracle(ray_session, name):
    from exstruct_ray import queries

    con = duckdb.connect()
    for t in check_oracles.TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')"
        )
    want = con.execute(queries.ORACLE_SQL[name]).df()
    got = getattr(queries, name)(SF_DIR)
    assert len(want) > 0
    assert check_oracles.compare(name, got, want) == "OK"
