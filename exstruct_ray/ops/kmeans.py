"""Distributed k-means over an embedding column (Lloyd's algorithm).

The classic curation/clustering op for training-data pipelines (cluster
balancing, semantic dedup, IVF codebook training — the trained quantizer
ivf_centroids documents as its drop-in upgrade).

Scale shape: each iteration is ONE shuffle-free map_batches pass — the
current centroids broadcast via ray.put (read per task, never re-shipped
per batch), every batch emits per-cluster partial sums + counts (K rows,
K×dim ints), and the driver combines partials and updates centroids (a
K×dim int matrix — trivially driver-sized for any real K). No AllToAll,
no per-row driver work; iterations = n_iter passes over the corpus.

Exactness contract (what makes the SQL oracle a HASH check, not a close
check): all arithmetic is integer after a single half-even quantization
(round_even in DuckDB ≡ np.rint) to micro-units. Distances are int64
squared-L2 sums; assignment ties break to the lowest cluster id; centroid
updates are FLOOR(sum/count) in micro-units; empty clusters carry their
previous centroid. Every step is order-independent integer math, so
distributed partial order can never diverge from the oracle's single
stream.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .shuffle import bucket_exchange, to_frame

KMEANS_SCALE = 1_000_000.0  # micro-units


def quantize_embeddings(vectors: np.ndarray) -> np.ndarray:
    """float → int64 micro-units, half-even (np.rint ≡ DuckDB round_even)."""
    return np.rint(np.asarray(vectors, dtype=np.float64) * KMEANS_SCALE).astype(
        np.int64
    )


def quantize_dataset(
    ds, dim: int = 64, vec_column: str = "embedding", carry: tuple = ()
):
    """ONE quantization pass over the embedding table, materialized.

    Every integer-exact embedding op (k-means iterations, SemDeDup's final
    assignment, PQ codebook training + code assignment, ADC scans) starts
    from the same μ-unit quantization of the same column. Re-running it
    inside each consumer re-reads and re-quantizes the corpus once per
    pass — k-means alone is n_iter passes, and a Dataset consumed by N
    branches re-executes its lineage N times. Materializing the quantized
    table once (same bytes as a float64 input; rows are (vec_id, qe))
    turns all of that into object-store reads.

    ``qe`` is the row's int64 μ-unit vector packed little-endian into one
    ``dim*8``-byte binary value — a fixed-width Arrow binary column, not a
    Python list-of-ints object column, so shuffles and object-store copies
    stay zero-copy and decode is a single ``np.frombuffer``.
    """

    def quantize_batch(batch: pd.DataFrame) -> pd.DataFrame:
        q = quantize_embeddings(
            np.stack(
                [np.asarray(v, dtype=np.float64) for v in batch[vec_column]]
            )
        )
        cols = {
            "vec_id": batch["vec_id"].reset_index(drop=True).astype("int64"),
            "qe": pd.Series([row.tobytes() for row in q], dtype="object"),
        }
        # carry: narrow side columns (e.g. a label) ride the quantized
        # table so downstream assignment passes need no join back
        for c in carry:
            cols[c] = batch[c].reset_index(drop=True)
        return pd.DataFrame(cols)

    return ds.map_batches(quantize_batch, batch_format="pandas").materialize()


def decode_qe(qe_values, dim: int) -> np.ndarray:
    """Packed qe binary column → (n, dim) int64 matrix (one frombuffer)."""
    joined = b"".join(qe_values)
    return np.frombuffer(joined, dtype=np.int64).reshape(-1, dim).copy()


def _assign(q_vecs: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid per row (int64 squared L2; ties → lowest id)."""
    # (n, k) distances without materializing (n, k, dim): ||v||² − 2v·c + ||c||²
    # stays in int64: |v|,|c| ≤ ~2e6 μu, dim 64 → ≤ 2.6e14 per term.
    v2 = np.einsum("ij,ij->i", q_vecs, q_vecs)[:, None]
    c2 = np.einsum("ij,ij->i", centroids, centroids)[None, :]
    cross = q_vecs @ centroids.T
    dists = v2 - 2 * cross + c2
    return np.argmin(dists, axis=1)  # first min = lowest cluster id


def kmeans_fit(
    ds,
    k: int = 4,
    n_iter: int = 3,
    dim: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """Fit k-means over a raw (vec_id, embedding) dataset.

    Convenience wrapper: quantizes ONCE (materialized) and fits on the
    quantized table. Callers that also need the quantized table afterwards
    (SemDeDup, PQ) should call quantize_dataset themselves and use
    kmeans_fit_q so the corpus is quantized exactly once end to end.
    """
    return kmeans_fit_q(quantize_dataset(ds, dim=dim), k=k, n_iter=n_iter, dim=dim)


def kmeans_fit_q(
    qds,
    k: int = 4,
    n_iter: int = 3,
    dim: int = 64,
    *,
    qe_dim: int | None = None,
    lo: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Fit k-means on a quantize_dataset table; returns (centroids int64
    (k, dim) μ-units, counts (k,)).

    Init: the k lowest vec_ids' quantized embeddings (deterministic,
    collected via a distributed scan — only k rows reach the driver).
    Counts are the final assignment's cluster sizes (the assignment that
    produced the returned centroids).

    ``qe_dim``/``lo`` read a contiguous subspace slice ``[lo, lo+dim)`` of
    qe rows stored at width ``qe_dim`` — PQ trains all its codebooks off
    ONE materialized quantized table instead of m sliced re-quantizations
    (per-element quantize-then-slice ≡ slice-then-quantize).
    """
    import pyarrow.compute as pc
    import ray

    qe_dim = dim if qe_dim is None else qe_dim
    hi = lo + dim

    # deterministic init: vec_id < k (tiny collect)
    # Arrow mask: a batch with no vec_id < k stays a typed empty block.
    init_rows = (
        qds.map_batches(
            lambda b: b.filter(pc.less(b["vec_id"], k)), batch_format="pyarrow"
        )
        .to_pandas()
        .sort_values("vec_id")
    )
    if len(init_rows) < k:
        raise ValueError(f"need at least {k} vectors with vec_id < {k}")
    centroids = decode_qe(init_rows["qe"].to_numpy(), qe_dim)[:, lo:hi]

    counts = np.zeros(k, dtype=np.int64)
    for _ in range(n_iter):
        ref = ray.put(centroids)

        def assign_partial(
            batch: pd.DataFrame, _centroids_ref=ref
        ) -> pd.DataFrame:
            # Task-based (no actor pool per iteration — pool spin-up ×
            # n_iter dominated at sandbox scale); ray.get of the broadcast
            # is a local shared-memory hit per batch, not a re-ship.
            cents = ray.get(_centroids_ref)
            q = decode_qe(batch["qe"].to_numpy(), qe_dim)[:, lo:hi]
            labels = _assign(q, cents)
            rows_c: list[int] = []
            rows_n: list[int] = []
            rows_s: list[list[int]] = []
            for c in np.unique(labels):
                mask = labels == c
                rows_c.append(int(c))
                rows_n.append(int(mask.sum()))
                rows_s.append(q[mask].sum(axis=0).tolist())
            return pd.DataFrame(
                {
                    "cluster_id": pd.Series(rows_c, dtype="int64"),
                    "n": pd.Series(rows_n, dtype="int64"),
                    "sums": pd.Series(rows_s, dtype="object"),
                }
            )

        partials = qds.map_batches(
            assign_partial, batch_format="pandas"
        ).to_pandas()  # ≤ k rows per block — tiny

        counts = np.zeros(k, dtype=np.int64)
        sums = np.zeros((k, dim), dtype=np.int64)
        for c, n, s in zip(partials["cluster_id"], partials["n"], partials["sums"]):
            counts[int(c)] += int(n)
            sums[int(c)] += np.asarray(s, dtype=np.int64)
        new_centroids = centroids.copy()  # empty clusters carry over
        nonempty = counts > 0
        new_centroids[nonempty] = np.floor_divide(
            sums[nonempty], counts[nonempty][:, None]
        )
        centroids = new_centroids
    return centroids, counts


def kmeans_chain_sql(
    k: int = 4,
    n_iter: int = 3,
    dim: int = 64,
    vec_expr: str = "embedding",
    prefix: str = "",
    leading_with: bool = True,
    materialized: bool = False,
) -> tuple[str, str, str]:
    """The shared k-means CTE chain (quantize → iterate assign/update).

    Returns ``(with_clause_body, final_centroid_cte, final_assign_cte)`` so
    downstream oracles (the k-means check itself, SemDeDup, PQ) can extend
    the chain instead of duplicating it. ``vec_expr`` is the per-row vector
    expression (e.g. a list slice for PQ subspaces); ``prefix`` namespaces
    every CTE so several chains can live under one WITH (pass
    ``leading_with=False`` for every chain after the first).
    """
    scale = f"{KMEANS_SCALE:.1f}"

    def n(name: str) -> str:
        return f"{prefix}{name}"

    # `AS MATERIALIZED` pins shared CTEs when a downstream oracle consumes
    # the chain more than once — DuckDB's default inlining otherwise
    # re-expands the whole chain per consumer (measured: minutes vs
    # seconds on the PQ-ADC oracle).
    mat = "MATERIALIZED " if materialized else ""
    head = "\n    WITH " if leading_with else ""
    parts = [
        f"""{head}{n('dims')} AS (SELECT UNNEST(range(1, {dim + 1})) AS i),
    {n('clusters')} AS (SELECT UNNEST(range(0, {k})) AS cluster_id),
    {n('q')} AS {mat}(
      SELECT vec_id,
             [CAST(round_even(CAST(x AS DOUBLE) * {scale}, 0) AS BIGINT)
              for x in {vec_expr}] AS qe
      FROM embeddings
    ),
    {n('c0')} AS (
      SELECT vec_id AS cluster_id, qe AS c FROM {n('q')} WHERE vec_id < {k}
    )"""
    ]
    prev = n("c0")
    for it in range(1, n_iter + 1):
        parts.append(
            f""",
    {n(f'd{it}')} AS (
      SELECT q.vec_id, p.cluster_id,
             list_sum([(q.qe[i] - p.c[i]) * (q.qe[i] - p.c[i])
                       for i in range(1, {dim + 1})]) AS dist
      FROM {n('q')} q CROSS JOIN {prev} p
    ),
    {n(f'a{it}')} AS (
      SELECT vec_id, cluster_id FROM (
        SELECT vec_id, cluster_id,
               ROW_NUMBER() OVER (PARTITION BY vec_id
                                  ORDER BY dist, cluster_id) AS rn
        FROM {n(f'd{it}')}
      ) WHERE rn = 1
    ),
    {n(f's{it}')} AS (
      SELECT a.cluster_id, d.i, SUM(q.qe[d.i]) AS s, COUNT(*) AS n
      FROM {n(f'a{it}')} a JOIN {n('q')} q USING (vec_id)
      CROSS JOIN {n('dims')} d
      GROUP BY 1, 2
    ),
    {n(f'c{it}')} AS {mat}(
      SELECT cl.cluster_id,
             COALESCE(
               array_agg(CASE WHEN s.s >= 0 THEN s.s // s.n
                              ELSE -((-s.s + s.n - 1) // s.n) END
                         ORDER BY s.i) FILTER (WHERE s.i IS NOT NULL),
               any_value(p.c)
             ) AS c
      FROM {n('clusters')} cl
      LEFT JOIN {n(f's{it}')} s ON s.cluster_id = cl.cluster_id
      JOIN {prev} p ON p.cluster_id = cl.cluster_id
      GROUP BY cl.cluster_id
    )"""
        )
        prev = n(f"c{it}")
    return "".join(parts), prev, n(f"a{n_iter}")


def kmeans_oracle_sql(k: int = 4, n_iter: int = 3, dim: int = 64) -> str:
    """DuckDB SQL recomputing the identical k-means run — integer μ-unit
    arithmetic, round_even quantization, ROW_NUMBER tie-break, FLOOR
    centroid updates, COALESCE empty-cluster carryover. Output one row per
    (cluster_id, dim_idx): the final centroids + final-assignment sizes.
    """
    chain, final_c, final_a = kmeans_chain_sql(k=k, n_iter=n_iter, dim=dim)
    return (
        chain
        + f"""
    SELECT c.cluster_id,
           d.i - 1 AS dim_idx,
           CAST(c.c[d.i] AS BIGINT) AS centroid_q,
           COALESCE(n.n, 0) AS n_members
    FROM {final_c} c
    CROSS JOIN dims d
    LEFT JOIN (
      SELECT cluster_id, COUNT(*) AS n FROM {final_a} GROUP BY 1
    ) n ON n.cluster_id = c.cluster_id
    ORDER BY c.cluster_id, dim_idx
    """
    )


def semdedup_oracle_sql(
    k: int = 4,
    n_iter: int = 3,
    dim: int = 64,
    tau_num: int = 361,
    tau_den: int = 2500,
) -> str:
    """DuckDB SQL recomputing the SemDeDup run bit-for-bit.

    Extends the k-means chain with one more assignment round against the
    FINAL centroids (matching the Ray side, which assigns with the fitted
    centroids), per-vector integer squared norms, in-cluster pairwise
    integer dot products, and the sqrt-free cosine threshold
    ``dot > 0 AND dot^2 * tau_den >= tau_num * |a|^2 * |b|^2`` evaluated in
    HUGEINT (dot^2 exceeds int64). A vector is pruned iff a smaller-id
    near-duplicate shares its cluster.
    """
    chain, final_c, _ = kmeans_chain_sql(k=k, n_iter=n_iter, dim=dim)
    return (
        chain
        + f""",
    dfin AS (
      SELECT q.vec_id, p.cluster_id,
             list_sum([(q.qe[i] - p.c[i]) * (q.qe[i] - p.c[i])
                       for i in range(1, {dim + 1})]) AS dist
      FROM q CROSS JOIN {final_c} p
    ),
    afin AS (
      SELECT vec_id, cluster_id FROM (
        SELECT vec_id, cluster_id,
               ROW_NUMBER() OVER (PARTITION BY vec_id
                                  ORDER BY dist, cluster_id) AS rn
        FROM dfin
      ) WHERE rn = 1
    ),
    av AS (
      SELECT a.vec_id, a.cluster_id, q.qe,
             list_sum([q.qe[i] * q.qe[i]
                       for i in range(1, {dim + 1})]) AS n2
      FROM afin a JOIN q USING (vec_id)
    ),
    neardup AS (
      SELECT b.vec_id
      FROM av a JOIN av b
        ON a.cluster_id = b.cluster_id AND a.vec_id < b.vec_id
      WHERE list_sum([a.qe[i] * b.qe[i]
                      for i in range(1, {dim + 1})]) > 0
        AND CAST(list_sum([a.qe[i] * b.qe[i]
                           for i in range(1, {dim + 1})]) AS HUGEINT)
            * list_sum([a.qe[i] * b.qe[i] for i in range(1, {dim + 1})])
            * {tau_den}
            >= CAST({tau_num} AS HUGEINT) * a.n2 * b.n2
    )
    SELECT av.vec_id, av.cluster_id,
           CAST(CASE WHEN nd.vec_id IS NULL THEN 1 ELSE 0 END AS BIGINT)
             AS keep
    FROM av
    LEFT JOIN (SELECT DISTINCT vec_id FROM neardup) nd USING (vec_id)
    ORDER BY av.vec_id
    """
    )


def semdedup(
    ds,
    k: int = 4,
    n_iter: int = 3,
    dim: int = 64,
    tau_num: int = 361,
    tau_den: int = 2500,
) -> pd.DataFrame:
    """SemDeDup (Abbas et al. 2023, "SemDeDup: Data-efficient learning at
    web-scale through semantic deduplication"): k-means-cluster the
    embeddings, then prune near-identical vectors inside each cluster.

    Pruning rule (deterministic analogue of the paper's one-per-epsilon-
    ball): a vector is pruned iff a SMALLER-id vector in the same final
    cluster has cosine similarity >= tau (tau^2 = tau_num/tau_den; the
    default 361/2500 = 0.38^2 matches embedding_neardup_pairs). The
    comparison is sqrt-free and integer-exact on the mu-unit quantized
    vectors: ``dot > 0 AND dot^2 * tau_den >= tau_num * |a|^2 * |b|^2`` —
    evaluated in float64 with a relative-margin band and an arbitrary-
    precision integer recheck for pairs inside the band, so the verdict is
    bit-identical to the oracle's HUGEINT arithmetic.

    Scale shape: the k-means fit is shuffle-free passes; assignment is one
    more pass; the quadratic pairwise step happens INSIDE each cluster
    after a cluster-keyed shuffle. The partitioning assumption (same as
    the paper, which used k = 11k clusters for LAION) is that k is sized
    so the largest cluster fits one worker — in-cluster O(n^2/k^2) work is
    the algorithm's intrinsic cost, not an engine artifact. Returns one
    row per vector: (vec_id, cluster_id, keep).
    """
    import ray

    # ONE quantization pass feeds the fit's n_iter scans AND the final
    # assignment — previously each was a fresh read+quantize of the corpus.
    qds = quantize_dataset(ds, dim=dim)
    centroids, _ = kmeans_fit_q(qds, k=k, n_iter=n_iter, dim=dim)
    ref = ray.put(centroids)

    def assign_final(batch: pd.DataFrame, _ref=ref) -> pd.DataFrame:
        cents = ray.get(_ref)
        q = decode_qe(batch["qe"].to_numpy(), dim)
        labels = _assign(q, cents)
        return pd.DataFrame(
            {
                "vec_id": batch["vec_id"].astype("int64").reset_index(drop=True),
                "cluster_id": pd.Series(labels, dtype="int64"),
                "qe": batch["qe"].reset_index(drop=True),
            }
        )

    assigned = qds.map_batches(assign_final, batch_format="pandas")

    def prune_cluster(group: pd.DataFrame) -> pd.DataFrame:
        ids = group["vec_id"].to_numpy(dtype=np.int64)
        order = np.argsort(ids)
        ids = ids[order]
        q = decode_qe(group["qe"].to_numpy()[order], dim)
        dots = q @ q.T  # <= dim * (|qe|max)^2 — int64-safe at mu-scale
        norms2 = np.einsum("ij,ij->i", q, q)
        n2f = norms2.astype(np.float64)
        lhs = (dots.astype(np.float64) ** 2) * float(tau_den)
        rhs = float(tau_num) * np.outer(n2f, n2f)
        diff = lhs - rhs
        margin = 1e-12 * np.maximum(lhs, rhs)
        near = (dots > 0) & (diff >= margin)
        unsure = (dots > 0) & (np.abs(diff) < margin)
        if unsure.any():
            for a, b in zip(*np.nonzero(unsure)):
                d = int(dots[a, b])
                near[a, b] = (
                    d * d * tau_den >= tau_num * int(norms2[a]) * int(norms2[b])
                )
        pruned = np.tril(near, k=-1).any(axis=1)  # ids ascending → cols < row
        return pd.DataFrame(
            {
                "vec_id": ids,
                "cluster_id": group["cluster_id"].to_numpy(dtype=np.int64)[
                    order
                ],
                "keep": (~pruned).astype(np.int64),
            }
        )

    def prune_group(group: pd.DataFrame) -> pd.DataFrame:
        # a bucket may hold several clusters; pairs never cross clusters
        return pd.concat(
            [prune_cluster(g) for _, g in group.groupby("cluster_id")],
            ignore_index=True,
        )

    cols = [("vec_id", "int64"), ("cluster_id", "int64"), ("keep", "int64")]
    out = to_frame(
        bucket_exchange(assigned, prune_group, key="cluster_id", schema=cols), cols
    )
    return out.sort_values("vec_id").reset_index(drop=True)


def pq_codes(
    ds,
    m: int = 4,
    k: int = 4,
    n_iter: int = 2,
    dim: int = 64,
) -> pd.DataFrame:
    """Product quantization: split each embedding into ``m`` contiguous
    subspaces, train an independent integer-exact k-means codebook per
    subspace, and emit each vector's per-subspace code — the classic
    memory-compression layout for billion-scale ANN (Jégou et al. 2011,
    "Product quantization for nearest neighbor search"): dim×4 bytes
    become m small ints.

    Scale shape: per-subspace training reuses kmeans_fit (shuffle-free
    broadcast passes over the SLICED column — the slice happens in the
    map stage, so only sub_dim floats per row move); one final assignment
    pass scores all subspaces against the broadcast codebook set. The
    per-element quantize-then-slice equals slice-then-quantize, so the
    SQL oracle's full-chain recomputation is bit-identical.

    Returns long format: one row per (vec_id, sub_id) with the code.
    """
    import ray

    if dim % m:
        raise ValueError("dim must divide evenly into m subspaces")
    sub = dim // m

    # ONE quantization pass feeds all m codebook trainings AND the final
    # code assignment.
    qds = quantize_dataset(ds, dim=dim)
    codebooks = train_pq_codebooks(qds, m=m, k=k, n_iter=n_iter, dim=dim, quantized=True)
    ref = ray.put(codebooks)

    def assign_codes(batch: pd.DataFrame, _ref=ref) -> pd.DataFrame:
        cbs = ray.get(_ref)
        q = decode_qe(batch["qe"].to_numpy(), dim)
        ids = batch["vec_id"].reset_index(drop=True).astype("int64")
        frames = []
        for j, cb in enumerate(cbs):
            codes = _assign(q[:, j * sub : (j + 1) * sub], cb)
            frames.append(
                pd.DataFrame(
                    {
                        "vec_id": ids,
                        "sub_id": np.int64(j),
                        "code": pd.Series(codes, dtype="int64"),
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)

    out = qds.map_batches(assign_codes, batch_format="pandas").to_pandas()
    return out.sort_values(["vec_id", "sub_id"]).reset_index(drop=True)


def pq_oracle_sql(
    m: int = 4, k: int = 4, n_iter: int = 2, dim: int = 64
) -> str:
    """DuckDB SQL recomputing the PQ run bit-for-bit: one prefixed
    k-means chain per subspace over the list slice, one extra assignment
    round against each final codebook, UNION ALL into long format."""
    sub = dim // m
    chains = []
    selects = []
    for j in range(m):
        lo, hi = j * sub + 1, (j + 1) * sub
        chain, cfin, _ = kmeans_chain_sql(
            k=k,
            n_iter=n_iter,
            dim=sub,
            vec_expr=f"embedding[{lo}:{hi}]",
            prefix=f"s{j}_",
            leading_with=(j == 0),
        )
        chains.append(chain if j == 0 else ",\n    " + chain)
        chains.append(
            f""",
    s{j}_dfin AS (
      SELECT q.vec_id, p.cluster_id,
             list_sum([(q.qe[i] - p.c[i]) * (q.qe[i] - p.c[i])
                       for i in range(1, {sub + 1})]) AS dist
      FROM s{j}_q q CROSS JOIN {cfin} p
    ),
    s{j}_afin AS (
      SELECT vec_id, cluster_id FROM (
        SELECT vec_id, cluster_id,
               ROW_NUMBER() OVER (PARTITION BY vec_id
                                  ORDER BY dist, cluster_id) AS rn
        FROM s{j}_dfin
      ) WHERE rn = 1
    )"""
        )
        selects.append(
            f"SELECT vec_id, CAST({j} AS BIGINT) AS sub_id,"
            f" CAST(cluster_id AS BIGINT) AS code FROM s{j}_afin"
        )
    union = "\n    UNION ALL\n    ".join(selects)
    return (
        "".join(chains)
        + f"""
    SELECT * FROM (
    {union}
    ) ORDER BY vec_id, sub_id
    """
    )


def train_pq_codebooks(
    ds, m: int, k: int, n_iter: int, dim: int, *, quantized: bool = False
) -> list[np.ndarray]:
    """Train one integer-exact k-means codebook per contiguous subspace.

    Shared by pq_codes and the ADC scan (embedding_pq_topk) — the two
    MUST see bit-identical codebooks, so the slicing + quantization
    order lives in exactly one place: all m trainings read subspace
    slices of ONE materialized quantize_dataset table (per-element
    quantize-then-slice ≡ slice-then-quantize). Pass ``quantized=True``
    when ``ds`` already IS that table, so a caller that also assigns
    codes quantizes exactly once end to end."""
    if dim % m:
        raise ValueError("dim must divide evenly into m subspaces")
    sub = dim // m
    qds = ds if quantized else quantize_dataset(ds, dim=dim)
    return [
        kmeans_fit_q(qds, k=k, n_iter=n_iter, dim=sub, qe_dim=dim, lo=j * sub)[0]
        for j in range(m)
    ]


def cluster_purity_oracle_sql(k: int = 4, n_iter: int = 3, dim: int = 64) -> str:
    """DuckDB SQL for embedding_cluster_purity: the k-means chain, one
    more assignment round against the FINAL centroids (same afin CTE as
    the SemDeDup oracle), then per-cluster majority-label counts with the
    (count DESC, label ASC) tie-break and integer permille purity."""
    chain, final_c, _ = kmeans_chain_sql(k=k, n_iter=n_iter, dim=dim)
    return (
        chain
        + f""",
    dfin AS (
      SELECT q.vec_id, p.cluster_id,
             list_sum([(q.qe[i] - p.c[i]) * (q.qe[i] - p.c[i])
                       for i in range(1, {dim + 1})]) AS dist
      FROM q CROSS JOIN {final_c} p
    ),
    afin AS (
      SELECT vec_id, cluster_id FROM (
        SELECT vec_id, cluster_id,
               ROW_NUMBER() OVER (PARTITION BY vec_id
                                  ORDER BY dist, cluster_id) AS rn
        FROM dfin
      ) WHERE rn = 1
    ),
    lab AS (
      SELECT a.cluster_id, e.label, count(*) AS c
      FROM afin a JOIN embeddings e USING (vec_id)
      GROUP BY 1, 2
    ),
    tops AS (
      SELECT cluster_id, label AS top_label, c AS n_top FROM (
        SELECT cluster_id, label, c,
               ROW_NUMBER() OVER (PARTITION BY cluster_id
                                  ORDER BY c DESC, label) AS rn
        FROM lab
      ) WHERE rn = 1
    ),
    csize AS (SELECT cluster_id, sum(c) AS n_vecs FROM lab GROUP BY 1)
    SELECT s.cluster_id,
           CAST(s.n_vecs AS BIGINT) AS n_vecs,
           CAST(t.top_label AS BIGINT) AS top_label,
           CAST(t.n_top AS BIGINT) AS n_top,
           CAST((1000 * t.n_top) // s.n_vecs AS BIGINT) AS purity_permille
    FROM csize s JOIN tops t USING (cluster_id)
    ORDER BY s.cluster_id
    """
    )


def kmeans_inertia_oracle_sql(k: int = 4, n_iter: int = 3, dim: int = 64) -> str:
    """DuckDB SQL for embedding_kmeans_inertia: per-cluster member counts
    and exact integer within-cluster squared-L2 sums (μ-unit domain)
    against the FINAL fitted centroids, plus the floor per-member mean."""
    chain, final_c, _ = kmeans_chain_sql(k=k, n_iter=n_iter, dim=dim)
    return (
        chain
        + f""",
    dfin AS (
      SELECT q.vec_id, p.cluster_id,
             list_sum([(q.qe[i] - p.c[i]) * (q.qe[i] - p.c[i])
                       for i in range(1, {dim + 1})]) AS dist
      FROM q CROSS JOIN {final_c} p
    ),
    afin AS (
      SELECT vec_id, cluster_id, dist FROM (
        SELECT vec_id, cluster_id, dist,
               ROW_NUMBER() OVER (PARTITION BY vec_id
                                  ORDER BY dist, cluster_id) AS rn
        FROM dfin
      ) WHERE rn = 1
    )
    SELECT cluster_id,
           CAST(count(*) AS BIGINT) AS n_vecs,
           CAST(sum(dist) AS BIGINT) AS inertia_q,
           CAST(sum(dist) // count(*) AS BIGINT) AS mean_dist_q
    FROM afin
    GROUP BY cluster_id
    ORDER BY cluster_id
    """
    )
