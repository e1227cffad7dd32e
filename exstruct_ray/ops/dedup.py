"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Method references (public literature): MinHash resemblance sketches
(Broder, "On the resemblance and containment of documents", 1997) with the
standard banding LSH scheme (Indyk & Motwani 1998; Leskovec/Rajaraman/Ullman
"Mining of Massive Datasets" ch. 3); SimHash (Charikar, "Similarity
estimation techniques from rounding algorithms", 2002) as deployed for
near-duplicate web detection (Manku, Jain & Das Sarma, WWW 2007).

Scale notes (100 TB design):
  - exact_dedup: hash-partition groupby on the content hash; only the hash +
    doc_id move through the shuffle, never the text.
  - MinHash: signatures are computed batch-local and vectorized (numpy);
    the LSH band exchange ships (band_key, doc_id, signature) rows and
    verifies candidates per bucket (bounded by bucket size), not
    all-pairs.
  - SimHash: 64-bit signatures, banded into 4×16-bit keys for bucketing.
  - Embedding near-dup: per-batch matmul against a ray.put-broadcast matrix
    (read per batch from the local object store, never re-shipped).
"""

from __future__ import annotations

import hashlib
import itertools
import zlib

import numpy as np
import pandas as pd

from .shuffle import bucket_exchange, empty_block

_MERSENNE = (1 << 61) - 1
_MAX_HASH = (1 << 32) - 1


def _hash_params(num_perm: int, seed: int = 1) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.uint64)
    b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    return a, b


def char_shingles(text: str, k: int = 5) -> np.ndarray:
    """CRC32 hashes of character k-shingles (deterministic across processes)."""
    data = text.encode("utf-8", "ignore")
    if len(data) < k:
        if not data:
            return np.zeros(1, dtype=np.uint64)
        return np.array([zlib.crc32(data)], dtype=np.uint64)
    hashes = {zlib.crc32(data[i : i + k]) for i in range(len(data) - k + 1)}
    return np.fromiter(hashes, dtype=np.uint64, count=len(hashes))


def word_ngrams(text: str, n: int = 3) -> set[int]:
    """64-bit hashes of word n-grams (n-gram Jaccard building block).

    64 bits keep within-document collision probability negligible
    (~1e-15 per doc at 10^3 grams), so set cardinalities — and therefore
    Jaccard values — equal the true string-set computation the DuckDB
    oracle runs.
    """

    def h64(data: bytes) -> int:
        return (zlib.crc32(data) << 32) | zlib.crc32(b"ng" + data)

    # RE2-whitespace tokenization (the SQL oracle's \s+: no \v, no NBSP —
    # Python str.split() would split on both).
    from .text import _ASCII_WS_RE

    words = [w for w in _ASCII_WS_RE.split(text.lower()) if w]
    if len(words) < n:
        return {h64(" ".join(words).encode())} if words else set()
    return {
        h64(" ".join(words[i : i + n]).encode())
        for i in range(len(words) - n + 1)
    }


def minhash_signature(
    shingle_hashes: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """num_perm × uint32 MinHash signature, fully vectorized."""
    # (h*a + b) mod p, then truncate to 32 bits; min over shingles per perm.
    vals = (shingle_hashes[:, None] * a[None, :] + b[None, :]) % _MERSENNE
    return (vals & _MAX_HASH).min(axis=0).astype(np.uint32)


def minhash_signatures(ds, num_perm: int = 64, shingle_k: int = 5):
    """Dataset of (doc_id, sig) with sig = num_perm uint32s as raw bytes.

    Arrow in/out: the signature rides as a fixed ``num_perm × 4``-byte
    binary column — compact through the object store and the downstream
    shuffles (a Python list-of-ints column costs ~10× the bytes and a
    pickle round-trip per block). The permutation params are drawn once,
    when the stage is built, and ride in the task closure.
    """
    import pyarrow as pa

    a, b = _hash_params(num_perm)

    def signatures(batch):
        texts = batch.column("text").to_pylist()
        sig_buf = np.empty((len(texts), num_perm), dtype=np.uint32)
        for i, t in enumerate(texts):
            sig_buf[i] = minhash_signature(char_shingles(t or "", shingle_k), a, b)
        sig_arr = pa.FixedSizeBinaryArray.from_buffers(
            pa.binary(num_perm * 4), len(texts), [None, pa.py_buffer(sig_buf.tobytes())]
        )
        return pa.table({"doc_id": batch.column("doc_id"), "sig": sig_arr})

    return ds.map_batches(signatures, batch_format="pyarrow")


def _sig_matrix(sig_col, num_perm: int) -> np.ndarray:
    """Zero-copy decode of the fixed-size binary sig column →
    (n, num_perm) uint32 (a reshaped view over the Arrow data buffer)."""
    arr = sig_col.combine_chunks() if hasattr(sig_col, "combine_chunks") else sig_col
    if len(arr) == 0:
        return np.empty((0, num_perm), dtype=np.uint32)
    width = num_perm * 4
    data = np.frombuffer(arr.buffers()[1], dtype=np.uint8)
    start = arr.offset * width
    flat = data[start : start + len(arr) * width]
    return flat.view(np.uint32).reshape(len(arr), num_perm)


_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def _band_keys(sig_mat: np.ndarray, bands: int, rows_per_band: int) -> np.ndarray:
    """Vectorized per-band keys: FNV-1a over each band's uint32 rows, the
    band index mixed in — one numpy pass per band instead of a per-doc
    crc32 loop. Any 64-bit mix works here: band keys are internal to
    candidate generation (the oracle checks final pairs, not buckets).
    Returns (bands, n_docs) int64."""
    n = sig_mat.shape[0]
    out = np.empty((bands, n), dtype=np.int64)
    with np.errstate(over="ignore"):
        for band in range(bands):
            h = np.full(n, _FNV_OFFSET, dtype=np.uint64)
            h ^= np.uint64(band)
            h *= _FNV_PRIME
            block = sig_mat[:, band * rows_per_band : (band + 1) * rows_per_band]
            for col in range(rows_per_band):
                h ^= block[:, col].astype(np.uint64)
                h *= _FNV_PRIME
            out[band] = h.view(np.int64)
    return out


def minhash_dedup_pairs(
    ds,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    jaccard_threshold: float = 0.8,
):
    """Near-duplicate pairs via MinHash banding + in-bucket verification.

    Returns a Dataset of (doc_a, doc_b, est_jaccard) with doc_a < doc_b.

    Each band row carries the doc's full signature through the band
    exchange (bands × num_perm × 4 bytes per doc), and the estimate is
    checked inside the bucket, so pairs below the threshold never
    materialize and no second exchange attaches signatures. A pair found
    through several bands meets its copies in one doc_a bucket of the
    final exchange. The signature table streams into that one stage, so
    it is not materialized.
    """
    import pyarrow as pa

    rows_per_band = num_perm // bands
    sigs = minhash_signatures(ds, num_perm=num_perm, shingle_k=shingle_k)

    def band_rows(batch):
        sig_mat = _sig_matrix(batch.column("sig"), num_perm)
        keys = _band_keys(sig_mat, bands, rows_per_band)
        doc_col = batch.column("doc_id").combine_chunks()
        sig_col = batch.column("sig").combine_chunks()
        n = len(doc_col)
        idx = pa.array(np.tile(np.arange(n, dtype=np.int64), bands))
        flat_keys = keys.reshape(-1)
        return pa.table(
            {
                "doc_id": doc_col.take(idx),
                "sig": sig_col.take(idx),
                "band_key": pa.array(flat_keys),
            }
        )

    banded = sigs.map_batches(band_rows, batch_format="pyarrow")

    def verify_in_bucket(group: pd.DataFrame) -> pd.DataFrame:
        rows_a: list = []
        rows_b: list = []
        rows_j: list[float] = []
        counts = group["band_key"].value_counts()
        hot = counts[counts >= 2].index
        sub = group[group["band_key"].isin(hot)]
        for _, bucket in sub.groupby("band_key"):
            ids = bucket["doc_id"].to_numpy()
            mats = np.stack(
                [np.frombuffer(s, dtype=np.uint32) for s in bucket["sig"]]
            )
            for i, j in itertools.combinations(range(len(ids)), 2):
                if ids[i] == ids[j]:
                    continue
                est = float((mats[i] == mats[j]).mean())
                if est >= jaccard_threshold:
                    lo, hi = sorted((ids[i], ids[j]))
                    rows_a.append(lo)
                    rows_b.append(hi)
                    rows_j.append(est)
        return pd.DataFrame(
            {
                "doc_a": pd.Series(rows_a, dtype="int64"),
                "doc_b": pd.Series(rows_b, dtype="int64"),
                "est_jaccard": pd.Series(rows_j, dtype="float64"),
            }
        )

    cols = [("doc_a", "int64"), ("doc_b", "int64"), ("est_jaccard", "float64")]
    pairs = bucket_exchange(
        banded, verify_in_bucket, key="band_key", schema=cols, n_buckets=1024
    )

    def dedup_group(group: pd.DataFrame) -> pd.DataFrame:
        return group.drop_duplicates(subset=["doc_a", "doc_b"])

    return bucket_exchange(pairs, dedup_group, key="doc_a", schema=cols)


def exact_dedup(ds, key_column: str = "text", id_column: str = "doc_id"):
    """Exact dedup: group by content, keep the minimum id; emits dup_count.

    Hash-partition + per-group first — only (hash, id) move in the shuffle.
    """

    def hash_batch(batch: pd.DataFrame) -> pd.DataFrame:
        import hashlib

        out = batch[[id_column]].copy()
        # 128-bit content hash: collisions are negligible even at 10^12
        # docs (a 32-bit hash would merge distinct texts by birthday
        # collision around ~2^16 docs and silently drop one).
        out["content_hash"] = [
            hashlib.md5((t or "").encode("utf-8")).hexdigest()
            for t in batch[key_column].tolist()
        ]
        return out

    hashed = ds.map_batches(hash_batch, batch_format="pandas")

    def keep_first(group: pd.DataFrame) -> pd.DataFrame:
        agg = group.groupby("content_hash")[id_column].agg(["min", "size"])
        return pd.DataFrame(
            {
                id_column: agg["min"].to_numpy(),
                "dup_count": agg["size"].to_numpy(dtype=np.int64),
            }
        )

    return bucket_exchange(
        hashed,
        keep_first,
        key="content_hash",
        schema=[(id_column, "int64"), ("dup_count", "int64")],
    )


def dedup_groups(pairs_df: pd.DataFrame) -> pd.DataFrame:
    """Connected components over near-dup pairs → dedup groups.

    Input: (doc_a, doc_b) candidate pairs (the output of
    minhash_dedup_pairs — already a tiny fraction of the corpus). Output:
    one row per duplicated document, (doc_id, group_id, is_canonical) where
    group_id is the minimum doc id in the component and the canonical
    member is the kept survivor.

    SMALL-PAIR-SET TOOL: the pairs set is usually bounded by the near-dup
    rate, making a driver-side union-find the right call — but when pairs
    themselves exceed driver memory, use label_propagation_groups (the
    distributed fixpoint) instead, or call dedup_groups_auto_ds which
    routes by pair count automatically.
    """
    if "doc_a" not in pairs_df.columns or not len(pairs_df):
        # zero-pair input arrives as a zero-COLUMN frame (Ray's to_pandas
        # of a Dataset whose blocks are all empty)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(dtype="int64"),
                "group_id": pd.Series(dtype="int64"),
                "is_canonical": pd.Series(dtype="bool"),
            }
        )
    parent: dict = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(pairs_df["doc_a"], pairs_df["doc_b"]):
        for node in (a, b):
            if node not in parent:
                parent[node] = node
        ra, rb = find(a), find(b)
        if ra != rb:
            try:
                lo, hi = (ra, rb) if ra <= rb else (rb, ra)
            except TypeError:
                lo, hi = (ra, rb) if str(ra) <= str(rb) else (rb, ra)
            parent[hi] = lo

    rows = []
    for node in parent:
        group = find(node)
        rows.append(
            {"doc_id": node, "group_id": group, "is_canonical": node == group}
        )
    out = pd.DataFrame(rows, columns=["doc_id", "group_id", "is_canonical"])
    return out.sort_values(["group_id", "doc_id"]).reset_index(drop=True)


GROUP_COLS = [
    ("doc_id", "int64"),
    ("group_id", "int64"),
    ("is_canonical", "bool"),
]


def dedup_groups_auto_ds(pairs_ds, driver_pair_limit: int = 2_000_000):
    """Connected components over near-dup pairs, routed by pair count.

    Returns a materialized ``ray.data.Dataset`` of
    (doc_id, group_id, is_canonical). At or under ``driver_pair_limit``
    pairs the driver union-find (dedup_groups) is strictly better —
    exact, one pass, no shuffle rounds — and its frame is wrapped back
    into a Dataset. Above it, the pair set no longer belongs on the
    driver and the distributed min-label propagation
    (label_propagation_groups_ds) takes over with no final collect. Both
    give the identical contract, so the routing is invisible to callers
    and oracles. Callers that need a frame read it with
    ``shuffle.to_frame(..., GROUP_COLS)``; survivor selection consumes the
    Dataset as is (a boilerplate-heavy crawl's dup members can be 30-50%
    of the corpus, so the member table is not driver-sized even when the
    pair table routes small).

    The input is materialized once: the count() probe and the chosen
    engine both consume it without re-executing the candidate-pair
    lineage (MinHash shingling is the expensive upstream)."""
    import ray

    pairs_ds = pairs_ds.materialize()
    if pairs_ds.count() <= driver_pair_limit:
        groups = dedup_groups(pairs_ds.to_pandas())
        return ray.data.from_pandas(groups).materialize()
    return label_propagation_groups_ds(pairs_ds).materialize()


_BIT_INDICES = np.arange(64, dtype=np.uint64)


def label_propagation_groups(pairs_ds, max_iters: int = 50):
    """Driver-collected wrapper over label_propagation_groups_ds — kept
    for callers whose member table is known driver-sized; the Dataset
    variant is the scale path."""
    out = label_propagation_groups_ds(pairs_ds, max_iters).to_pandas()
    if "doc_id" not in out.columns:
        return pd.DataFrame(
            {c: pd.Series(dtype=t) for c, t in GROUP_COLS}
        )
    return out.sort_values(["group_id", "doc_id"]).reset_index(drop=True)[
        ["doc_id", "group_id", "is_canonical"]
    ]


def label_propagation_groups_ds(pairs_ds, max_iters: int = 50):
    """Distributed connected components over near-dup pairs.

    The scale path for dedup_groups when the pair set itself exceeds driver
    memory: iterative min-label propagation — each round every node adopts
    the minimum label among itself and its neighbors via one bucket-
    shuffled merge — until a fixpoint. The fixpoint test is itself
    distributed: each merge group emits a per-node ``changed`` flag and the
    driver reduces per-block scalar partial counts (one int per block, the
    label table never leaves the cluster mid-iteration). Convergence in
    O(log diameter) rounds via pointer jumping. Semantics identical to the
    driver union-find:
    group_id is the component's minimum doc id, the canonical member keeps
    it. Uses the bucket merge throughout (no Dataset.join).

    Returns a ``ray.data.Dataset`` of (doc_id, group_id, is_canonical) —
    one row per duplicated doc. The label table stays on the cluster;
    use label_propagation_groups for the driver-collected frame.
    """
    n_buckets = 64
    label_cols = [("node", "int64"), ("label", "int64")]

    # Directed edge list (both directions), reused every round.
    edges = pairs_ds.map_batches(
        lambda batch: pd.DataFrame(
            {
                "src": pd.concat(
                    [batch["doc_a"], batch["doc_b"]], ignore_index=True
                ).astype("int64"),
                "dst": pd.concat(
                    [batch["doc_b"], batch["doc_a"]], ignore_index=True
                ).astype("int64"),
            }
        ),
        batch_format="pandas",
    ).materialize()

    def reduce_min(group: pd.DataFrame) -> pd.DataFrame:
        return group.groupby("node", as_index=False)["label"].min()

    def reduce_min_tracked(cur: pd.DataFrame, recv: pd.DataFrame) -> pd.DataFrame:
        """Merge current labels with received proposals, emitting a
        per-node ``changed`` flag — the distributed fixpoint signal. The
        convergence test is then a scalar sum over ``changed``, never a
        driver collect of the label table."""
        new = pd.concat([cur[["node", "label"]], recv]).groupby(
            "node", as_index=False
        )["label"].min()
        cur = cur.groupby("node")["label"].min()
        # float64 so absent-current nodes (shouldn't occur: every node is
        # seeded a label at init) read NaN and count as changed
        old = cur.reindex(new["node"]).to_numpy(dtype="float64")
        new_vals = new["label"].to_numpy()
        new["changed"] = np.where(
            np.isnan(old), 1, (old != new_vals).astype(np.int64)
        ).astype("int64")
        return new[["node", "label", "changed"]]

    # Initial label: min(self, direct neighbors).
    current = bucket_exchange(
        edges.map_batches(
            lambda batch: pd.DataFrame(
                {
                    "node": batch["src"],
                    "label": batch[["src", "dst"]].min(axis=1),
                }
            ),
            batch_format="pandas",
        ),
        reduce_min,
        key="node",
        schema=label_cols,
        n_buckets=n_buckets,
    ).materialize()

    def propagate(e: pd.DataFrame, lab: pd.DataFrame) -> pd.DataFrame:
        if e.empty or lab.empty:
            return None
        m = e.merge(lab.drop_duplicates("node"), left_on="src", right_on="node")
        return pd.DataFrame({"node": m["dst"], "label": m["label"]})

    def jump_edges(batch: pd.DataFrame) -> pd.DataFrame:
        # Pointer jumping: a label row (node → L) also acts as an edge
        # L → node, so each round a node can adopt label(label(node)) —
        # convergence in O(log diameter) rounds instead of O(diameter).
        return pd.DataFrame(
            {
                "src": batch["label"].astype("int64"),
                "dst": batch["node"].astype("int64"),
            }
        )

    def changed_partial(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [int(batch["changed"].sum())]})

    for _ in range(max_iters):
        iteration_edges = edges.union(
            current.map_batches(jump_edges, batch_format="pandas")
        )
        received = bucket_exchange(
            [iteration_edges, current],
            propagate,
            key=["src", "node"],
            schema=label_cols,
            n_buckets=n_buckets,
        )
        merged = bucket_exchange(
            [current, received],
            reduce_min_tracked,
            key="node",
            schema=label_cols + [("changed", "int64")],
            n_buckets=n_buckets,
        ).materialize()
        current = merged
        # Distributed fixpoint test: per-block scalar partials of the
        # changed-label count — the driver sees one int per block, never
        # the label table itself.
        n_changed = int(
            merged.map_batches(changed_partial, batch_format="pandas")
            .to_pandas()["n"]
            .sum()
        )
        if n_changed == 0:
            break

    def to_groups(batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "doc_id": batch["node"].astype("int64"),
                "group_id": batch["label"].astype("int64"),
            }
        )
        out["is_canonical"] = out["doc_id"] == out["group_id"]
        return out

    return current.map_batches(to_groups, batch_format="pandas")


def neardup_best_keep_distributed(docs, groups_ds, n_buckets: int = 64):
    """Distributed quality-ranked survivor selection (the scale route of
    doc_neardup_best_keep): within each near-dup component keep the doc
    with the most whitespace tokens (tie → lowest doc_id).

    Never collects or broadcasts the member table (a boilerplate-heavy
    crawl's dup members can be 30-50% of the corpus): member rows and
    corpus token counts meet in a doc-bucket merge (the
    corpus side ships ids + counts only — 16 B/doc on the wire, the text
    never leaves its reading task), then ranking runs inside
    a group-bucket exchange (exact per-component groupby, the
    events_top_users_per_type pattern). Two AllToAlls, driver sees
    nothing until the caller consumes the result.

    Returns a Dataset with one row per component member:
    (doc_id, group_id, n_tokens, keep).
    """

    def count_rows(batch: pd.DataFrame) -> pd.DataFrame:
        n_tokens = (
            batch["text"].fillna("").str.findall(r"[^\t\n\f\r ]+").str.len()
        )
        return pd.DataFrame(
            {"doc_id": batch["doc_id"], "n_tokens": n_tokens.astype("int64")}
        )

    mid_cols = [
        ("doc_id", "int64"),
        ("group_id", "int64"),
        ("n_tokens", "int64"),
    ]

    def attach_tokens(mem: pd.DataFrame, cnt: pd.DataFrame) -> pd.DataFrame:
        if not len(mem):
            return None
        m = mem.merge(cnt, on="doc_id", how="left")
        m["n_tokens"] = m["n_tokens"].fillna(0).astype("int64")
        return m.astype("int64")[[c for c, _ in mid_cols]]

    out_cols = [
        ("doc_id", "int64"),
        ("group_id", "int64"),
        ("n_tokens", "int64"),
        ("keep", "int64"),
    ]

    def rank_in_group(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(
            ["group_id", "n_tokens", "doc_id"],
            ascending=[True, False, True],
        ).reset_index(drop=True)
        g["keep"] = (g["group_id"] != g["group_id"].shift()).astype("int64")
        return g.astype("int64")[[c for c, _ in out_cols]]

    members = bucket_exchange(
        [
            groups_ds,
            docs.map_batches(count_rows, batch_format="pandas"),
        ],
        attach_tokens,
        key="doc_id",
        schema=mid_cols,
        n_buckets=n_buckets,
    )
    return bucket_exchange(
        members, rank_in_group, key="group_id", schema=out_cols, n_buckets=n_buckets
    )


def neardup_survivors_distributed(docs, groups_ds, n_buckets: int = 64):
    """Distributed survivor anti-join (the scale route of
    doc_neardup_survivors): every corpus doc except non-canonical
    near-dup members survives.

    The pruned-id set is NOT broadcast (at extreme dup skew it is a
    large corpus fraction): pruned ids and corpus ids meet in a
    doc-bucket merge and the anti-join happens per bucket —
    one ids-only AllToAll. Returns a Dataset of (doc_id,).
    """

    def pruned_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.loc[~batch["is_canonical"].astype(bool), ["doc_id"]]

    def anti(pruned: pd.DataFrame, ids: pd.DataFrame) -> pd.DataFrame:
        return ids.loc[~ids["doc_id"].isin(pruned["doc_id"])].astype("int64")

    return bucket_exchange(
        [
            groups_ds.map_batches(pruned_rows, batch_format="pandas"),
            docs.select_columns(["doc_id"]),
        ],
        anti,
        key="doc_id",
        schema=[("doc_id", "int64")],
        n_buckets=n_buckets,
    )


def simhash_64(text: str) -> int:
    """64-bit SimHash over whitespace tokens (md5-top-64-bit token hash).

    Token hash = big-endian first 8 bytes of md5(token), chosen so the
    DuckDB oracle reproduces it exactly via
    CAST('0x' || substr(md5(tok), 1, 16) AS UBIGINT). Bit i of the output
    is set when the i-th hash bit's +1/-1 vote sum is strictly positive.
    """
    import hashlib

    # RE2-whitespace tokenization to match the SQL oracle's \s+ exactly
    # (Python str.split() also splits on \v and unicode whitespace).
    from .text import _ASCII_WS_RE

    tokens = [w for w in _ASCII_WS_RE.split(text.lower()) if w]
    if not tokens:
        return 0
    acc = np.zeros(64, dtype=np.int64)
    one = np.uint64(1)
    for tok in tokens:
        h = np.uint64(
            int.from_bytes(
                hashlib.md5(tok.encode("utf-8", "ignore")).digest()[:8], "big"
            )
        )
        bits = (h >> _BIT_INDICES) & one
        acc += np.where(bits > 0, 1, -1)
    out = 0
    for i, v in enumerate(acc):
        if v > 0:
            out |= 1 << i
    return out


def simhash_batch(batch: pd.DataFrame) -> pd.DataFrame:
    out = batch[["doc_id"]].copy()
    sims = [simhash_64(t or "") for t in batch["text"].tolist()]
    out["simhash"] = np.array(sims, dtype=np.uint64).astype(np.int64)
    # 4×16-bit bands for hamming-distance bucketing
    arr = np.array(sims, dtype=np.uint64)
    for band in range(4):
        out[f"band{band}"] = ((arr >> np.uint64(band * 16)) & np.uint64(0xFFFF)).astype(
            np.int64
        )
    return out


def ngram_jaccard(text_a: str, text_b: str, n: int = 3) -> float:
    """Exact word n-gram Jaccard similarity."""
    sa, sb = word_ngrams(text_a, n), word_ngrams(text_b, n)
    if not sa and not sb:
        return 1.0
    union = len(sa | sb)
    return len(sa & sb) / union if union else 0.0


def gram_key_frame(
    texts: pd.Series, n: int, *, with_pos: bool = True
) -> pd.DataFrame:
    """(batch row index ``i``, word ``pos``, md5 ``gram_key``) for every
    word n-gram of every text row — the shared tokenize → shift-concat →
    md5 emitter behind duplicated_ngram_spans and
    source_syndication_pairs. The token class (RE2 \\s complement, the
    SQL oracles' ``\\s+`` split) and the md5 keying are oracle-load-
    bearing invariants; one implementation so they cannot drift.
    ``with_pos=False`` skips the per-token cumcount for callers that
    only consume (i, gram_key)."""
    cols = (
        [("i", "int64"), ("pos", "int64"), ("gram_key", "object")]
        if with_pos
        else [("i", "int64"), ("gram_key", "object")]
    )
    empty = pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols})
    tokens = texts.fillna("").str.lower().str.findall(r"[^\t\n\f\r ]+")
    exploded = tokens.reset_index(drop=True).explode().dropna()
    if not len(exploded):
        return empty
    wdf = pd.DataFrame(
        {"i": exploded.index.to_numpy(), "w": exploded.to_numpy()}
    )
    grouped = wdf.groupby("i")["w"]
    if with_pos:
        wdf["pos"] = grouped.cumcount()
    gram = wdf["w"].copy()
    for shift in range(1, n):
        gram = gram + " " + grouped.shift(-shift)
    wdf["gram"] = gram
    grams = wdf.dropna(subset=["gram"])
    if not len(grams):
        return empty
    # the only scalar work is the md5 digest per gram (C-call loop)
    keys = [
        hashlib.md5(g.encode("utf-8")).hexdigest()
        for g in grams["gram"].to_numpy()
    ]
    out = {"i": grams["i"].to_numpy()}
    if with_pos:
        out["pos"] = grams["pos"].to_numpy(dtype=np.int64)
    out["gram_key"] = pd.Series(keys, dtype="object")
    return pd.DataFrame(out)


def duplicated_ngram_spans(ds, n: int = 5, n_buckets: int = 512):
    """Exact duplicated-substring spans, word-n-gram granularity.

    The distributed analogue of ExactSubstr dedup ("Deduplicating Training
    Data Makes Language Models Better", Lee et al. 2022): find every word
    n-gram that occurs >= 2 times ANYWHERE in the corpus (within- or
    cross-document), and emit per-document word-index intervals covering
    all duplicated occurrences — the spans a dedup pass would cut. The
    suffix-array of the paper is replaced by a hash-join over n-gram keys,
    which finds the same fixed-length duplications with two bounded
    shuffles instead of a global sort.

    Stage shape (both shuffles on coarse buckets, the engine's micro-group
    convention):
      1. map_batches: RE2-whitespace tokenize, md5-key each n-gram, ship
         (gram_key, doc_id, pos) triples — no gram text on the wire.
      2. groupby(gram-key bucket): exact per-key occurrence count in-group;
         keys with count >= 2 emit their (doc_id, pos) hits.
      3. groupby(doc bucket): per-doc sort + vectorized gaps-and-islands
         merge of [pos, pos+n) intervals (touching intervals merge).

    Output: (doc_id, start_word, end_word) — end exclusive, 0-based word
    indices under the oracle's tokenization. md5 keying makes a false
    merge cryptographically negligible (and the oracle hashes identically,
    so the check would catch one)."""
    gram_cols = [("gram_key", "object"), ("doc_id", "int64"), ("pos", "int64")]
    hit_cols = [("doc_id", "int64"), ("pos", "int64")]
    span_cols = [("doc_id", "int64"), ("start_word", "int64"), ("end_word", "int64")]

    def gram_rows(batch: pd.DataFrame) -> pd.DataFrame:
        grams = gram_key_frame(batch["text"], n)
        if not len(grams):
            return empty_block(gram_cols)
        doc_ids = (
            batch["doc_id"].reset_index(drop=True).to_numpy(dtype=np.int64)
        )
        return pd.DataFrame(
            {
                "gram_key": grams["gram_key"],
                "doc_id": doc_ids[grams["i"].to_numpy()],
                "pos": grams["pos"],
            }
        )

    grams = ds.map_batches(gram_rows, batch_format="pandas")

    def dup_hits(group: pd.DataFrame) -> pd.DataFrame:
        counts = group.groupby("gram_key")["gram_key"].transform("size")
        return group.loc[counts >= 2, ["doc_id", "pos"]].reset_index(drop=True)

    hits = bucket_exchange(
        grams, dup_hits, key="gram_key", schema=hit_cols, n_buckets=n_buckets
    )

    def merge_intervals(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["doc_id", "pos"])
        doc = g["doc_id"].to_numpy(dtype=np.int64)
        pos = g["pos"].to_numpy(dtype=np.int64)
        new_doc = np.empty(len(g), dtype=bool)
        new_doc[0] = True
        new_doc[1:] = doc[1:] != doc[:-1]
        gap = np.empty(len(g), dtype=bool)
        gap[0] = True
        gap[1:] = pos[1:] - pos[:-1] > n
        brk = new_doc | gap
        gid = np.cumsum(brk)
        f = pd.DataFrame({"doc_id": doc, "pos": pos, "gid": gid})
        agg = f.groupby("gid").agg(
            doc_id=("doc_id", "first"),
            start_word=("pos", "min"),
            end_word=("pos", "max"),
        )
        agg["end_word"] += n
        return agg.reset_index(drop=True)[["doc_id", "start_word", "end_word"]]

    return bucket_exchange(hits, merge_intervals, key="doc_id", schema=span_cols)


def simhash_pairs(ds, max_hamming: int = 3, n_buckets: int = 256):
    """SimHash near-duplicate pairs at hamming distance <= max_hamming.

    Signature computation per batch, then the generic 64-bit pigeonhole
    banding pipeline (hamming64_pairs) — shared with the perceptual-hash
    image dedup in queries.image_neardup_pairs."""

    sigs = ds.map_batches(simhash_batch, batch_format="pandas")
    return hamming64_pairs(
        sigs, max_hamming=max_hamming, n_buckets=n_buckets
    )


def hamming64_pairs(
    sigs,
    max_hamming: int = 3,
    n_buckets: int = 256,
    sig_col: str = "simhash",
):
    """Near-duplicate pairs for ANY dataset of 64-bit signatures
    (doc_id, sig_col int64) at hamming distance <= max_hamming.

    Pigeonhole completeness: with 4 disjoint 16-bit bands, any two
    64-bit signatures within hamming distance 3 agree on at least one
    whole band — so band-equality candidates have recall exactly 1 for
    thresholds <= 3, unlike MinHash's probabilistic bands.

    Shape: each doc emits 4 (band_id, band_val) rows; a coarse bucket
    shuffle groups equal bands, pairs verify by popcount in-group; a
    doc-keyed second group collapses the pair found via several bands.
    Only band rows (4 x 24 bytes per doc) ride the first exchange; only
    candidate pairs ride the second."""

    def band_rows(batch: pd.DataFrame) -> pd.DataFrame:
        arr = batch[sig_col].to_numpy(dtype=np.int64).view(np.uint64)
        frames = []
        for band in range(4):
            frames.append(
                pd.DataFrame(
                    {
                        "band_id": np.int64(band),
                        "band_val": (
                            (arr >> np.uint64(band * 16))
                            & np.uint64(0xFFFF)
                        ).astype(np.int64),
                        "doc_id": batch["doc_id"].to_numpy(dtype=np.int64),
                        "simhash": batch[sig_col].to_numpy(dtype=np.int64),
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)

    cols = [("doc_a", "int64"), ("doc_b", "int64"), ("hamming", "int64")]

    def pairs_in_bucket(group: pd.DataFrame) -> pd.DataFrame:
        rows_a: list[int] = []
        rows_b: list[int] = []
        rows_h: list[int] = []
        for _, g in group.groupby(["band_id", "band_val"]):
            if len(g) < 2:
                continue
            sub = g.drop_duplicates("doc_id").sort_values("doc_id")
            ids = sub["doc_id"].to_numpy(dtype=np.int64)
            hs = sub["simhash"].to_numpy(dtype=np.int64).view(np.uint64)
            for i in range(len(ids)):
                x = hs[i] ^ hs[i + 1 :]
                hams = np.array(
                    [int(v).bit_count() for v in x], dtype=np.int64
                )
                hit = hams <= max_hamming
                rows_a.extend([int(ids[i])] * int(hit.sum()))
                rows_b.extend(ids[i + 1 :][hit].tolist())
                rows_h.extend(hams[hit].tolist())
        if not rows_a:
            return None
        return pd.DataFrame(
            {
                "doc_a": pd.Series(rows_a, dtype="int64"),
                "doc_b": pd.Series(rows_b, dtype="int64"),
                "hamming": pd.Series(rows_h, dtype="int64"),
            }
        )

    def dedup_pairs(group: pd.DataFrame) -> pd.DataFrame:
        return (
            group.drop_duplicates(["doc_a", "doc_b"])[
                ["doc_a", "doc_b", "hamming"]
            ].reset_index(drop=True)
        )

    pairs = bucket_exchange(
        sigs.map_batches(band_rows, batch_format="pandas"),
        pairs_in_bucket,
        key=["band_id", "band_val"],
        schema=cols,
        n_buckets=n_buckets,
    )
    # a pair found via several bands meets its duplicates in one doc_a bucket
    return bucket_exchange(pairs, dedup_pairs, key="doc_a", schema=cols)


def line_dedup(
    ds,
    words_per_line: int = 16,
    n_buckets: int = 256,
    id_column: str = "doc_id",
    text_column: str = "text",
):
    """Corpus-wide line-level exact dedup (CCNet / RefinedWeb style): a
    line instance survives iff it is the globally FIRST occurrence of its
    content, ordered by (doc_id, line_idx).

    Method reference: line-granular exact dedup as deployed by CCNet
    (Wenzek et al. 2020, paragraph hashes) and RefinedWeb (Penedo et al.
    2023, line-wise filtering after fuzzy dedup). This corpus carries no
    newlines, so a "line" is a fixed non-overlapping ``words_per_line``
    word segment under single-space splitting — the same segmentation the
    DuckDB oracle computes with list slicing.

    Stage shape (both shuffles coarse-bucketed, the engine's micro-group
    convention):
      1. map_batches: split, segment, md5-key each line; ship
         (line_key, doc_id, line_idx) — never the line text.
      2. groupby(line-key bucket): winner per key = lexicographic min
         (doc_id, line_idx) in-group (every instance of a key lands in
         one bucket); reduce immediately to per-doc partial counts.
      3. groupby(doc bucket): sum partials -> (doc_id, n_lines, n_kept).

    The removal fraction 1 - sum(n_kept)/sum(n_lines) is the dedup's
    corpus-level yield; per-doc rows feed the usual keep/cut policies.
    """

    line_cols = [("line_key", "object"), ("doc_id", "int64"), ("line_idx", "int64")]
    doc_cols = [("doc_id", "int64"), ("n_lines", "int64"), ("n_kept", "int64")]

    def line_rows(batch: pd.DataFrame) -> pd.DataFrame:
        keys: list[str] = []
        doc_ids: list[int] = []
        idxs: list[int] = []
        for doc_id, text in zip(batch[id_column], batch[text_column]):
            words = (text or "").split(" ")
            for i in range(0, len(words), words_per_line):
                seg = " ".join(words[i : i + words_per_line])
                keys.append(hashlib.md5(seg.encode("utf-8")).hexdigest())
                doc_ids.append(int(doc_id))
                idxs.append(i // words_per_line)
        if not keys:
            return empty_block(line_cols)
        return pd.DataFrame(
            {
                "line_key": pd.Series(keys, dtype="object"),
                "doc_id": pd.Series(doc_ids, dtype="int64"),
                "line_idx": pd.Series(idxs, dtype="int64"),
            }
        )

    lines = ds.map_batches(line_rows, batch_format="pandas")

    def keep_partial(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["line_key", "doc_id", "line_idx"], kind="stable")
        k = g["line_key"].to_numpy()
        first = np.ones(len(g), dtype=bool)
        first[1:] = k[1:] != k[:-1]
        g = g.assign(kept=first.astype("int64"))
        agg = g.groupby("doc_id", as_index=False).agg(
            n_lines=("kept", "size"), n_kept=("kept", "sum")
        )
        return agg.astype(
            {"doc_id": "int64", "n_lines": "int64", "n_kept": "int64"}
        )

    partials = bucket_exchange(
        lines, keep_partial, key="line_key", schema=doc_cols, n_buckets=n_buckets
    )

    def total(group: pd.DataFrame) -> pd.DataFrame:
        return (
            group.groupby("doc_id", as_index=False)
            .agg(n_lines=("n_lines", "sum"), n_kept=("n_kept", "sum"))
            .astype({"doc_id": "int64", "n_lines": "int64", "n_kept": "int64"})
        )

    return bucket_exchange(partials, total, key="doc_id", schema=doc_cols)
