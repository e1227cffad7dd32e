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

    Two tagged-union bucket exchanges per iteration (contribution send
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
    def tag_edges(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "key": batch["src"],
                "dst": batch["dst"],
                "pr": np.int64(0),
                "deg": np.int64(0),
                "is_pr": False,
            }
        )

    def tag_pr(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "key": batch["node"],
                "dst": batch["node"],
                "pr": batch["pr"],
                "deg": batch["deg"],
                "is_pr": True,
            }
        )

    def send_contribs(group: pd.DataFrame) -> pd.DataFrame:
        e = group[~group["is_pr"]]
        p = group[group["is_pr"]]
        if e.empty or p.empty:
            return None
        m = e[["key", "dst"]].merge(
            p[["key", "pr", "deg"]].drop_duplicates("key"), on="key", how="inner"
        )
        return pd.DataFrame(
            {
                "dst": m["dst"].to_numpy(np.int64),
                "contrib": m["pr"].to_numpy(np.int64) // m["deg"].to_numpy(np.int64),
            }
        )

    # Exchange 2 (inflow reduce + rank update): contribs keyed by dst x
    # pr table keyed by node (provides the node universe and carries deg).
    def tag_contribs(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "key": batch["dst"],
                "contrib": batch["contrib"],
                "deg": np.int64(0),
                "is_node": False,
            }
        )

    def tag_nodes(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "key": batch["node"],
                "contrib": np.int64(0),
                "deg": batch["deg"],
                "is_node": True,
            }
        )

    def update_pr(group: pd.DataFrame) -> pd.DataFrame:
        node_rows = group[group["is_node"]]
        if node_rows.empty:
            return None
        inflow = (
            group[~group["is_node"]]
            .groupby("key")["contrib"]
            .sum()
            .reindex(node_rows["key"].to_numpy())
            .fillna(0)
            .to_numpy(np.int64)
        )
        return pd.DataFrame(
            {
                "node": node_rows["key"].to_numpy(np.int64),
                "deg": node_rows["deg"].to_numpy(np.int64),
                "pr": 15 * base // 100 + 85 * inflow // 100,
            }
        )

    for _ in range(n_iter):
        contribs = bucket_exchange(
            [
                edges.map_batches(tag_edges, batch_format="pandas"),
                pr.map_batches(tag_pr, batch_format="pandas"),
            ],
            send_contribs,
            key="key",
            schema=[("dst", "int64"), ("contrib", "int64")],
            n_buckets=n_buckets,
        )
        pr = bucket_exchange(
            [
                contribs.map_batches(tag_contribs, batch_format="pandas"),
                pr.map_batches(tag_nodes, batch_format="pandas"),
            ],
            update_pr,
            key="key",
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
    """Route PageRank by pair count — the dedup_groups_auto rule.

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
