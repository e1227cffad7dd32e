"""Approximate-nearest-neighbor search over an embedding column.

Baseline: brute-force cosine top-k — per-batch numpy matmul against a
query matrix broadcast once via ``ray.put`` (each batch reads it from the
local object store; it is never re-shipped), per-batch partial top-k,
final merge in the calling process over (num_batches × k × num_queries)
rows only.

Scale path: an LSH-bucketed variant (random hyperplane signs) that prunes
each batch to candidates sharing a bucket with the query before the matmul.
"""

from __future__ import annotations

import heapq

import numpy as np
import pandas as pd

from .shuffle import attach_payload, bucket_exchange


def _normalize(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return matrix / norms


def brute_force_topk(ds, query_ids, query_matrix, k: int = 10):
    """Top-k cosine neighbors for each query vector.

    Returns a pandas DataFrame (query_id, vec_id, cosine, rank) — the final
    merge is tiny (partial top-k per batch), so reducing in the calling
    process is the right call even at scale.
    """
    import ray

    queries_ref = ray.put(
        {
            "ids": list(query_ids),
            "matrix": _normalize(np.asarray(query_matrix, dtype=np.float64)),
        }
    )

    def score(batch: pd.DataFrame, _ref=queries_ref) -> pd.DataFrame:
        queries = ray.get(_ref)
        vecs = np.asarray(
            [np.asarray(v, dtype=np.float64) for v in batch["embedding"]],
        )
        vec_ids = np.asarray(batch["vec_id"])
        sims = _normalize(vecs) @ queries["matrix"].T  # (batch, queries)
        kk = min(k, len(vec_ids))
        rows = {"query_id": [], "vec_id": [], "cosine": []}
        for qi, query_id in enumerate(queries["ids"]):
            col = sims[:, qi]
            idx = (
                np.argpartition(-col, kk - 1)[:kk]
                if kk < len(col)
                else np.arange(len(col))
            )
            for i in idx:
                rows["query_id"].append(query_id)
                rows["vec_id"].append(vec_ids[i])
                rows["cosine"].append(float(col[i]))
        return pd.DataFrame(rows)

    partial = ds.map_batches(score, batch_format="pandas")
    # Tie-break on smaller vec_id for full determinism.
    return merge_partial_topk(partial, k)


LSH_SEED = 7
LSH_BANDS = 4
LSH_PLANES_PER_BAND = 8


def lsh_plane_matrix(
    dim: int,
    n_planes: int = LSH_BANDS * LSH_PLANES_PER_BAND,
    seed: int = LSH_SEED,
) -> np.ndarray:
    """Deterministic random-hyperplane matrix (dim × n_planes).

    Seeded RandomState so every task — and the DuckDB oracle, which embeds
    these exact values as literals — sees the identical planes.
    """
    return np.random.RandomState(seed).standard_normal((dim, n_planes))


def lsh_neardup_pairs(ds, dim: int, threshold: float = 0.38):
    """Banded-LSH near-duplicate pairs: the sublinear scale path.

    Candidate generation: 4 bands × 8 hyperplane sign bits; vectors sharing
    any band key become candidates (per-band collision prob for similarity
    s is ((1 - acos(s)/π))^8, OR'd over bands). Verification: exact cosine
    over the candidate pairs only.

    Exchange discipline: the band shuffle ships (band_idx, band_key,
    vec_id) — the embedding does NOT replicate ×bands through the
    AllToAll. Candidate pairs (a tiny fraction of the corpus) then meet
    their first embedding in one bucket merge, and a vec_b-bucket
    exchange meets each pair with its second embedding and verifies the
    cosine in the reduce. No O(n²) broadcast matmul, no driver
    materialization.
    The recalled pair set is deterministic (seeded planes), so the whole
    pipeline is oracle-checkable by re-deriving the same buckets in SQL.
    """
    import pandas as _pd

    planes = lsh_plane_matrix(dim)

    def band_keys(batch: _pd.DataFrame) -> _pd.DataFrame:
        vecs = np.asarray(
            [np.asarray(v, dtype=np.float64) for v in batch["embedding"]]
        )
        signs = (vecs @ planes) > 0
        vec_ids = np.asarray(batch["vec_id"], dtype=np.int64)
        rows = {
            "band_idx": [],
            "band_key": [],
            "vec_id": [],
        }
        for band in range(LSH_BANDS):
            key = np.zeros(len(vecs), dtype=np.int64)
            for bit in range(LSH_PLANES_PER_BAND):
                col = band * LSH_PLANES_PER_BAND + bit
                key |= signs[:, col].astype(np.int64) << bit
            rows["band_idx"].extend([band] * len(vecs))
            rows["band_key"].extend(key.tolist())
            rows["vec_id"].extend(vec_ids.tolist())
        return _pd.DataFrame(rows)

    # The embedding table is consumed three times (banding + both merges);
    # materialize the compact (id, vector) form once so lineage doesn't
    # recompute the upstream read per consumer.
    vecs_ds = ds.materialize()

    banded = vecs_ds.map_batches(band_keys, batch_format="pandas")

    def candidate_pairs(group: _pd.DataFrame) -> _pd.DataFrame:
        pairs_a: list[int] = []
        pairs_b: list[int] = []
        counts = group.groupby(["band_idx", "band_key"])["vec_id"].transform("size")
        sub = group[counts >= 2]
        for _, bucket in sub.groupby(["band_idx", "band_key"]):
            ids = sorted(int(v) for v in bucket["vec_id"])
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    if ids[i] != ids[j]:
                        pairs_a.append(ids[i])
                        pairs_b.append(ids[j])
        return _pd.DataFrame(
            {
                "vec_a": _pd.Series(pairs_a, dtype="int64"),
                "vec_b": _pd.Series(pairs_b, dtype="int64"),
            }
        )

    cand = bucket_exchange(
        banded,
        candidate_pairs,
        key=["band_idx", "band_key"],
        schema=[("vec_a", "int64"), ("vec_b", "int64")],
        n_buckets=256,
    )

    # Attach the first embedding with the Arrow-native bucket merge
    # (ops/shuffle.py:attach_payload): vectors ride the exchanges as
    # packed float64 Arrow binary buffers, never pandas object columns of
    # pickled bytes. A pair colliding in several bands dedups inside the
    # merge (duplicates share vec_a and therefore the bucket).
    def pack_vecs(batch: _pd.DataFrame) -> _pd.DataFrame:
        return _pd.DataFrame(
            {
                "vec_id": batch["vec_id"].astype("int64"),
                "emb": _pd.Series(
                    [
                        np.asarray(v, dtype=np.float64).tobytes()
                        for v in batch["embedding"]
                    ],
                    index=batch.index,
                    dtype=object,
                ),
            }
        )

    packed = vecs_ds.map_batches(pack_vecs, batch_format="pandas")

    with_a = attach_payload(
        cand, packed,
        on="vec_a", out="emb_a", payload_key="vec_id", payload_col="emb",
        carry_ids=["vec_a", "vec_b"],
    )
    cols = [("vec_a", "int64"), ("vec_b", "int64")]

    def verify(pairs: _pd.DataFrame, vecs: _pd.DataFrame) -> _pd.DataFrame:
        m = pairs.merge(
            vecs.drop_duplicates("vec_id"), left_on="vec_b", right_on="vec_id"
        )
        if m.empty:
            return None
        a = np.frombuffer(b"".join(m["emb_a"]), dtype=np.float64).reshape(len(m), -1)
        b = np.frombuffer(b"".join(m["emb"]), dtype=np.float64).reshape(len(m), -1)
        na = np.linalg.norm(a, axis=1)
        nb = np.linalg.norm(b, axis=1)
        na[na == 0] = 1.0
        nb[nb == 0] = 1.0
        cos = np.einsum("ij,ij->i", a, b) / (na * nb)
        return m.loc[cos >= threshold, ["vec_a", "vec_b"]]

    return bucket_exchange(
        [with_a, packed], verify, key=["vec_b", "vec_id"], schema=cols
    )


IVF_SEED = 11
IVF_CLUSTERS = 16
IVF_PROBE = 4


def ivf_centroids(
    dim: int, n_clusters: int = IVF_CLUSTERS, seed: int = IVF_SEED
) -> np.ndarray:
    """Deterministic random codebook (n_clusters × dim, unit-normalized).

    A data-independent coarse quantizer: assignment and probing are pure
    functions of the seeded codebook, so the whole IVF pipeline is
    reproducible in SQL from the same literals (the LSH-oracle pattern).
    A trained-kmeans codebook drops in behind the same interface at the
    cost of SQL checkability.
    """
    raw = np.random.RandomState(seed).standard_normal((n_clusters, dim))
    return _normalize(raw)


def merge_partial_topk(partial_ds, k: int) -> pd.DataFrame:
    """Driver-side merge of per-batch partial top-k rows (tiny input)."""
    best: dict[object, list[tuple[float, object]]] = {}
    for batch in partial_ds.iter_batches(batch_format="pandas"):
        for query_id, vec_id, cosine in zip(
            batch["query_id"], batch["vec_id"], batch["cosine"]
        ):
            heap = best.setdefault(query_id, [])
            item = (float(cosine), -int(vec_id))
            if len(heap) < k:
                heapq.heappush(heap, item)
            elif item > heap[0]:
                heapq.heapreplace(heap, item)
    rows = {"query_id": [], "vec_id": [], "cosine": [], "rank": []}
    for query_id in sorted(best):
        ranked = sorted(best[query_id], key=lambda t: (-t[0], -t[1]))
        for rank, (cosine, neg_id) in enumerate(ranked, start=1):
            rows["query_id"].append(query_id)
            rows["vec_id"].append(-neg_id)
            rows["cosine"].append(cosine)
            rows["rank"].append(rank)
    return pd.DataFrame(rows)


def ivf_topk(
    ds,
    query_ids,
    query_matrix,
    k: int = 10,
    dim: int = 64,
    n_clusters: int = IVF_CLUSTERS,
    n_probe: int = IVF_PROBE,
    centroids=None,
):
    """IVF-pruned top-k cosine search — the sublinear ANN scale path.

    Scores only vectors whose coarse cluster is probed by a query: the
    pruning factor is ≈ n_probe / n_clusters of the matmul work vs brute
    force, and candidate membership is exact given the codebook, so the
    output is deterministic (and SQL-checkable), unlike trained-quantizer
    recall. Same output schema as brute_force_topk restricted to probed
    clusters; returns (query_id, vec_id, cosine, rank). ``centroids``
    accepts a TRAINED codebook (e.g. ops.kmeans.kmeans_fit output / 1e6) in
    place of the seeded random one — same interface, better cluster
    balance, at the cost of SQL checkability (the oracle embeds the random
    codebook).
    """
    import ray

    matrix = _normalize(np.asarray(query_matrix, dtype=np.float64))
    if centroids is not None:
        cents = _normalize(np.asarray(centroids, dtype=np.float64))
    else:
        cents = ivf_centroids(dim, n_clusters)
    # n_probe nearest centroids per query (cosine, ties by index asc).
    order = np.argsort(-(matrix @ cents.T), axis=1, kind="stable")
    ref = ray.put(
        {
            "ids": list(query_ids),
            "matrix": matrix,
            "centroids": cents,
            "probed": order[:, :n_probe],
        }
    )

    def score(batch: pd.DataFrame, _ref=ref) -> pd.DataFrame:
        queries = ray.get(_ref)
        vecs = _normalize(
            np.asarray([np.asarray(v, dtype=np.float64) for v in batch["embedding"]])
        )
        vec_ids = np.asarray(batch["vec_id"])
        clusters = np.argmax(vecs @ queries["centroids"].T, axis=1)
        sims = vecs @ queries["matrix"].T  # (batch, queries)
        rows = {"query_id": [], "vec_id": [], "cosine": []}
        for qi, query_id in enumerate(queries["ids"]):
            mask = np.isin(clusters, queries["probed"][qi])
            if not mask.any():
                continue
            col = sims[mask, qi]
            ids = vec_ids[mask]
            kk = min(k, len(ids))
            idx = (
                np.argpartition(-col, kk - 1)[:kk]
                if kk < len(col)
                else np.arange(len(col))
            )
            for i in idx:
                rows["query_id"].append(query_id)
                rows["vec_id"].append(ids[i])
                rows["cosine"].append(float(col[i]))
        return pd.DataFrame(rows)

    partial = ds.map_batches(score, batch_format="pandas")
    return merge_partial_topk(partial, k)


# ---------------------------------------------------------------------------
# Scalar int8 quantization (the embedding-table compression lever)
# ---------------------------------------------------------------------------

QUANT_SCALE = 1_000_000.0  # micro-units — same idiom as ops.kmeans
QUANT_LEVELS = 254  # -127..+127


def quantize_embeddings_int8(ds, dim: int = 64):
    """Per-dimension scalar int8 quantization of an embedding column —
    the standard 4× compression applied before an embedding table rides
    a shuffle or leaves the cluster (float32[64] → int8[64]).

    Pass 1 computes per-dimension (min, max) in micro-units (np.rint ≡
    DuckDB round_even, the ops.kmeans idiom) as per-batch 64-row
    partials merged by an associative tree-reduce map stage — no
    AllToAll; the driver folds the collapsed remainder. Pass 2 maps
    each value to -127 + ((v - lo) * 254) // (hi - lo) — all-integer
    floor arithmetic, so the SQL oracle reproduces every code exactly
    (constant dims degrade to 0). Output schema: (vec_id, q int8[dim]).
    """
    import pandas as pd

    def to_micro(mat: np.ndarray) -> np.ndarray:
        return np.rint(mat.astype(np.float64) * QUANT_SCALE).astype(np.int64)

    def range_partial(batch: pd.DataFrame) -> pd.DataFrame:
        mat = to_micro(np.asarray([np.asarray(v) for v in batch["embedding"]]))
        return pd.DataFrame(
            {
                "dim": np.arange(dim, dtype=np.int64),
                "lo": mat.min(axis=0).astype(np.int64),
                "hi": mat.max(axis=0).astype(np.int64),
            }
        )

    def range_merge(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.groupby("dim", as_index=False).agg(
            lo=("lo", "min"), hi=("hi", "max")
        )
        for c in out.columns:
            out[c] = out[c].astype("int64")
        return out

    ranges = (
        ds.map_batches(range_partial, batch_format="pandas")
        .map_batches(range_merge, batch_format="pandas", batch_size=65536)
        .to_pandas()
    )
    final = ranges.groupby("dim").agg(lo=("lo", "min"), hi=("hi", "max"))
    lo = final["lo"].reindex(range(dim)).to_numpy(dtype=np.int64)
    hi = final["hi"].reindex(range(dim)).to_numpy(dtype=np.int64)
    span = hi - lo

    def quantize(batch: pd.DataFrame) -> pd.DataFrame:
        mat = to_micro(np.asarray([np.asarray(v) for v in batch["embedding"]]))
        q = np.zeros_like(mat)
        nz = span > 0
        q[:, nz] = -127 + ((mat[:, nz] - lo[nz]) * QUANT_LEVELS) // span[nz]
        return pd.DataFrame(
            {
                "vec_id": batch["vec_id"].astype("int64"),
                "q": list(q.astype(np.int8)),
            }
        )

    return ds.map_batches(quantize, batch_format="pandas")
