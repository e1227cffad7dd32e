"""Distributed graph ops over near-duplicate pair sets.

Integer-exact PageRank in two engines with identical semantics, mirroring
the dedup_groups / label_propagation_groups split (``ops/dedup.py``):

- ``pagerank_driver``: numpy over edge arrays on the driver — exact, one
  pass, no shuffles. Right whenever the pair set fits driver memory.
- ``pagerank_distributed``: the scale path — per-iteration contribution
  exchange via ``bucket_exchange`` (no Dataset.join; see
  ``ops/shuffle.py``). The edge list never leaves the cluster; the driver
  only sees the final (node, pr) table, one row per *duplicated* doc.
- ``pagerank_auto``: routes by pair count, invisible to callers/oracles.

Semantics (both engines, and the DuckDB oracle in ``queries.py``):
3 fixed iterations, damping 85/100 as an exact rational, S=1e12 integer
mass units, floor divisions in a pinned order::

    base       = S // N
    contrib(v) = pr(v) // deg(v)
    pr'(u)     = 15 * base // 100 + 85 * inflow(u) // 100

The graph is undirected (each pair contributes both directed edges), so
every node has in-degree >= 1 and the inflow term is always populated.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .shuffle import bucket_exchange, to_frame

PR_SCALE = 1_000_000_000_000  # S: integer mass units


def _edges_from_pairs(pairs: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    src = np.concatenate(
        [pairs["doc_a"].to_numpy(np.int64), pairs["doc_b"].to_numpy(np.int64)]
    )
    dst = np.concatenate(
        [pairs["doc_b"].to_numpy(np.int64), pairs["doc_a"].to_numpy(np.int64)]
    )
    return src, dst


def pagerank_driver(
    pairs: pd.DataFrame, n_iter: int = 3, S: int = PR_SCALE
) -> pd.DataFrame:
    """PageRank on the driver: numpy int64 over edge index arrays."""
    empty = pd.DataFrame(
        {"doc_id": pd.Series(dtype="int64"), "pr": pd.Series(dtype="int64")}
    )
    if "doc_a" not in pairs.columns or not len(pairs):
        return empty
    src, dst = _edges_from_pairs(pairs)
    nodes, src_idx = np.unique(src, return_inverse=True)
    dst_idx = np.searchsorted(nodes, dst)
    n = len(nodes)
    deg = np.bincount(src_idx, minlength=n).astype(np.int64)
    base = S // n
    pr = np.full(n, base, dtype=np.int64)
    for _ in range(n_iter):
        contrib = pr[src_idx] // deg[src_idx]
        inflow = np.zeros(n, dtype=np.int64)
        np.add.at(inflow, dst_idx, contrib)
        pr = 15 * base // 100 + 85 * inflow // 100
    return (
        pd.DataFrame({"doc_id": nodes, "pr": pr})
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def pagerank_distributed(
    pairs_ds, n_iter: int = 3, S: int = PR_SCALE, n_buckets: int = 64
) -> pd.DataFrame:
    """PageRank via per-iteration bucket-exchanged contributions.

    Two bucket exchanges per iteration (contribution send
    keyed by src, inflow reduce keyed by dst); the pr table — (node, deg,
    pr), one row per duplicated doc — is the only thing materialized
    between rounds, and deg rides it so the degree join happens once.
    """

    def both_dirs(batch: pd.DataFrame) -> pd.DataFrame:
        src = pd.concat([batch["doc_a"], batch["doc_b"]], ignore_index=True)
        dst = pd.concat([batch["doc_b"], batch["doc_a"]], ignore_index=True)
        return pd.DataFrame({"src": src.astype("int64"), "dst": dst.astype("int64")})

    # Reused every iteration.
    edges = pairs_ds.map_batches(both_dirs, batch_format="pandas").materialize()
    if edges.count() == 0:
        return pd.DataFrame(
            {"doc_id": pd.Series(dtype="int64"), "pr": pd.Series(dtype="int64")}
        )

    NODE_COLS = [("node", "int64"), ("deg", "int64")]
    PR_COLS = NODE_COLS + [("pr", "int64")]

    def deg_in_group(group: pd.DataFrame) -> pd.DataFrame:
        # every src's edges land in exactly ONE bucket, so per-bucket
        # counts ARE the exact global degree.
        counts = group.groupby("src").size()
        return pd.DataFrame(
            {
                "node": counts.index.to_numpy(np.int64),
                "deg": counts.to_numpy(np.int64),
            }
        )

    nodes = bucket_exchange(
        edges, deg_in_group, key="src", schema=NODE_COLS, n_buckets=n_buckets
    ).materialize()
    n = nodes.count()
    base = S // n
    pr = nodes.map_batches(
        lambda b: b[["node", "deg"]].assign(pr=np.int64(base)),
        batch_format="pandas",
    ).materialize()

    # Exchange 1 (contribution send): edges keyed by src x pr keyed by node.
    def send_contribs(e: pd.DataFrame, p: pd.DataFrame) -> pd.DataFrame:
        if e.empty or p.empty:
            return None
        m = e.merge(p.drop_duplicates("node"), left_on="src", right_on="node")
        return pd.DataFrame(
            {
                "dst": m["dst"].to_numpy(np.int64),
                "contrib": m["pr"].to_numpy(np.int64) // m["deg"].to_numpy(np.int64),
            }
        )

    # Exchange 2 (inflow reduce + rank update): contribs keyed by dst x
    # pr table keyed by node (provides the node universe and carries deg).
    def update_pr(c: pd.DataFrame, node_rows: pd.DataFrame) -> pd.DataFrame:
        if node_rows.empty:
            return None
        inflow = (
            c.groupby("dst")["contrib"]
            .sum()
            .reindex(node_rows["node"].to_numpy())
            .fillna(0)
            .to_numpy(np.int64)
        )
        return pd.DataFrame(
            {
                "node": node_rows["node"].to_numpy(np.int64),
                "deg": node_rows["deg"].to_numpy(np.int64),
                "pr": 15 * base // 100 + 85 * inflow // 100,
            }
        )

    for _ in range(n_iter):
        contribs = bucket_exchange(
            [edges, pr],
            send_contribs,
            key=["src", "node"],
            schema=[("dst", "int64"), ("contrib", "int64")],
            n_buckets=n_buckets,
        )
        pr = bucket_exchange(
            [contribs, pr],
            update_pr,
            key=["dst", "node"],
            schema=PR_COLS,
            n_buckets=n_buckets,
        ).materialize()

    return (
        to_frame(pr, PR_COLS)
        .rename(columns={"node": "doc_id"})[["doc_id", "pr"]]
        .astype({"doc_id": "int64", "pr": "int64"})
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def pagerank_auto(
    pairs_ds,
    n_iter: int = 3,
    S: int = PR_SCALE,
    driver_pair_limit: int = 2_000_000,
) -> pd.DataFrame:
    """Route PageRank by pair count — the dedup_groups_auto_ds rule.

    At or under the limit the driver engine is strictly better (exact, one
    pass, no shuffle rounds). Above it — a boilerplate-heavy web corpus
    produces a near-dup graph that is NOT small — the iterations stay on
    the cluster. Input materialized once: the count() probe and the chosen
    engine share it without re-running the candidate-pair lineage.
    """
    pairs_ds = pairs_ds.materialize()
    if pairs_ds.count() <= driver_pair_limit:
        return pagerank_driver(pairs_ds.to_pandas(), n_iter=n_iter, S=S)
    return pagerank_distributed(pairs_ds, n_iter=n_iter, S=S)
