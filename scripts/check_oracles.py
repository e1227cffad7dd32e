"""Local simulation of the driver's correctness gate.

Runs every queries() callable at a given sf and compares row count + sorted
values against the matching oracle_sql() DuckDB result. Ray is sized to
``os.cpu_count()``; each PASS/FAIL line ends with the query's wall seconds
(the engine run through ``to_pandas()``, oracle excluded).

    python scripts/check_oracles.py SF_DIR [QUERY ...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = [
    "region",
    "nation",
    "customer",
    "supplier",
    "part",
    "orders",
    "lineitem",
    "events",
    "documents",
    "embeddings",
]


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for col in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[col]):
            df[col] = df[col].astype("datetime64[us]")
        elif pd.api.types.is_integer_dtype(df[col]):
            df[col] = df[col].astype("int64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def dtype_mismatches(ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> list[str]:
    """Columns whose pandas dtypes differ between engine and oracle.

    The driver hash-compares serialized values, so an oracle column that
    DuckDB renders as float64/object (HUGEINT, DECIMAL) against an engine
    int64 is a hash miss even when every value is numerically equal —
    normalize()'s int64 coercion used to mask exactly that. Differences
    the driver demonstrably normalizes are allowed: integer WIDTH only
    (textdoc_extract's int32 offset and embedding_label_centroids' int32
    label were driver hash-green in round 3 against int64 engine columns)
    and datetime unit (both sides hash as timestamps). Everything else —
    int vs float, numeric vs object/Decimal, bool vs int — is flagged.
    """
    bad = []
    for col in sorted(ray_df.columns):
        a, b = ray_df[col], sql_df[col]
        if a.dtype == b.dtype:
            continue
        if pd.api.types.is_datetime64_any_dtype(a) and pd.api.types.is_datetime64_any_dtype(b):
            continue
        if (
            pd.api.types.is_integer_dtype(a)
            and pd.api.types.is_integer_dtype(b)
            and getattr(a.dtype, "kind", None) == getattr(b.dtype, "kind", None)
        ):
            continue  # signed-width-only difference (driver-normalized)
        bad.append(f"{col}: ray={a.dtype} sql={b.dtype}")
    return bad


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> str:
    if set(ray_df.columns) != set(sql_df.columns):
        return f"SCHEMA MISMATCH ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}"
    if len(ray_df) != len(sql_df):
        return f"ROWCOUNT MISMATCH ray={len(ray_df)} sql={len(sql_df)}"
    mm = dtype_mismatches(ray_df, sql_df)
    if mm:
        return "DTYPE MISMATCH " + "; ".join(mm)
    a, b = normalize(ray_df), normalize(sql_df)
    for col in a.columns:
        av, bv = a[col], b[col]
        if pd.api.types.is_float_dtype(av) or pd.api.types.is_float_dtype(bv):
            av = av.astype("float64")
            bv = bv.astype("float64")
            both_nan = av.isna() & bv.isna()
            exact = av.fillna(0).to_numpy() == bv.fillna(0).to_numpy()
            if (both_nan | exact).all():
                continue
            close = np.isclose(av.fillna(0), bv.fillna(0), rtol=1e-9, atol=1e-12)
            if not (both_nan | close).all():
                bad = (~(both_nan | close)).idxmax()
                return f"VALUE MISMATCH col={col} row={bad} ray={av[bad]} sql={bv[bad]}"
            # The driver hash-compares exact bytes — close-but-not-equal
            # floats are a hash miss there, so they fail here too.
            bad = (~(both_nan | pd.Series(exact, index=av.index))).idxmax()
            return (
                f"HASH-ONLY MISMATCH col={col} row={bad} "
                f"ray={av[bad]!r} sql={bv[bad]!r}"
            )
        else:
            if not (av.astype(str) == bv.astype(str)).all():
                bad = (av.astype(str) != bv.astype(str)).idxmax()
                return f"VALUE MISMATCH col={col} row={bad} ray={av[bad]!r} sql={bv[bad]!r}"
    return "OK"


def main() -> None:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = sys.argv[2:] or None

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=os.cpu_count(), include_dashboard=False)

    import __ray_entry__ as entry_mod

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    queries = entry_mod.queries()
    oracles = entry_mod.oracle_sql()
    failures = 0
    for name, fn in queries.items():
        if only and name not in only:
            continue
        start = time.perf_counter()
        try:
            result = fn(sf_dir)
            if not isinstance(result, pd.DataFrame):
                try:
                    result = result.to_pandas()
                except AttributeError:
                    import pyarrow as pa

                    if isinstance(result, pa.Table):
                        result = result.to_pandas()
            wall = time.perf_counter() - start
            if name in oracles:
                sql = oracles[name]
                # Golden-span oracles are pinned to the driver's sf0.01;
                # substitute when simulating another scale locally.
                sf_token = sf_dir.rstrip("/").rsplit("/", 1)[-1]
                if sf_token != "sf0.01":
                    sql = sql.replace("_sf0.01.parquet", f"_{sf_token}.parquet")
                sql_df = con.execute(sql).df()
                verdict = compare(name, result, sql_df)
            else:
                verdict = f"rows-only ({len(result)} rows)"
        except Exception as exc:
            wall = time.perf_counter() - start
            verdict = f"ERROR {exc!r}"
        status = "PASS" if verdict == "OK" or verdict.startswith("rows-only") else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"{status:4s} {name:28s} {verdict} [{wall:.2f}s]", flush=True)
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
