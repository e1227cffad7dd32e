"""DSIR-style data selection: hashed n-gram importance scores.

Method reference (public literature): Data Selection via Importance
Resampling (Xie et al., NeurIPS 2023) — score every raw document by the
likelihood ratio of a target distribution vs the raw distribution, both
estimated over HASHED n-gram buckets, then keep/resample by score. This
module implements the integer-exact variant the repo's oracle convention
requires: the per-bucket weight is the scaled integer ratio

    w[b] = (target_count[b] * SCALE) // (source_count[b] + 1)

(monotone in the smoothed likelihood ratio; +1 is add-one smoothing on
the source side), and a document's score is the int64 sum of w over its
gram OCCURRENCES. Integer sums are associative, so distributed partial
order cannot perturb the result — the same reason the relational tier
accumulates integer cents (see CLAUDE.md).

Gram definition shared with the DuckDB oracle: adjacent word bigrams of
single-space-split text, bucketed by the big-endian first 4 bytes of
md5("w1 w2") modulo ``n_buckets`` (the engine-wide md5 convention, cf.
ops/dedup.py:duplicated_ngram_spans).

Scale notes (100 TB design):
  - Two corpus scans, the method's own shape (DSIR fits the counts and
    then scores): pass 1 folds each batch to <= n_buckets (bucket,
    src, tgt) partial rows merged through a 64-way coarse groupby; pass
    2 is shuffle-free — the 512 KiB weight table (n_buckets=65536 int64)
    rides the task closure; use ray.put explicitly if n_buckets is
    raised to millions.
  - The weight build runs driver-side over Python ints: target_count *
    SCALE overflows int64 once a bucket holds >9e12 grams, which a
    100 TB corpus reaches; the final w always fits (w < SCALE since
    tgt <= src).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

from .shuffle import bucket_exchange, to_frame


def _gram_buckets(text: str, n_buckets: int) -> np.ndarray:
    words = (text or "").split(" ")
    n = len(words) - 1
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    return np.fromiter(
        (
            int.from_bytes(
                hashlib.md5(
                    (words[i] + " " + words[i + 1]).encode("utf-8")
                ).digest()[:4],
                "big",
            )
            % n_buckets
            for i in range(n)
        ),
        dtype=np.int64,
        count=n,
    )


def gram_count_tables(
    ds,
    target_lang: str = "en",
    n_buckets: int = 65536,
    lang_column: str = "lang",
    text_column: str = "text",
) -> tuple[np.ndarray, np.ndarray]:
    """One corpus scan -> (source_counts, target_counts) int64 arrays.

    Source = every document; target = documents whose ``lang_column``
    equals ``target_lang`` (DSIR's "target distribution" sample — here
    the corpus' own high-resource slice, the common bootstrap when no
    external quality corpus is mounted).
    """
    def count_partial(batch: pd.DataFrame) -> pd.DataFrame:
        src = np.zeros(n_buckets, dtype=np.int64)
        tgt = np.zeros(n_buckets, dtype=np.int64)
        for lang, text in zip(batch[lang_column], batch[text_column]):
            b = _gram_buckets(text, n_buckets)
            if not len(b):
                continue
            c = np.bincount(b, minlength=n_buckets)
            src += c
            if lang == target_lang:
                tgt += c
        nz = np.nonzero(src)[0]
        return pd.DataFrame(
            {
                "b": nz.astype("int64"),
                "s": src[nz].astype("int64"),
                "t": tgt[nz].astype("int64"),
            }
        )

    def combine(group: pd.DataFrame) -> pd.DataFrame:
        return group.groupby("b", as_index=False).agg(
            s=("s", "sum"), t=("t", "sum")
        )

    cols = [("b", "int64"), ("s", "int64"), ("t", "int64")]
    counts = to_frame(
        bucket_exchange(
            ds.map_batches(count_partial, batch_format="pandas"),
            combine,
            key="b",
            schema=cols,
        ),
        cols,
    )
    src = np.zeros(n_buckets, dtype=np.int64)
    tgt = np.zeros(n_buckets, dtype=np.int64)
    if len(counts):
        src[counts["b"].to_numpy()] = counts["s"].to_numpy()
        tgt[counts["b"].to_numpy()] = counts["t"].to_numpy()
    return src, tgt


def weight_table(
    src: np.ndarray, tgt: np.ndarray, scale: int = 1_000_000
) -> np.ndarray:
    """w[b] = (tgt[b] * scale) // (src[b] + 1), built over Python ints so
    the intermediate product cannot overflow; the result always fits
    int64 (w < scale)."""
    return np.fromiter(
        (
            (int(t) * scale) // (int(s) + 1)
            for s, t in zip(src.tolist(), tgt.tolist())
        ),
        dtype=np.int64,
        count=len(src),
    )


def dsir_scores(
    ds,
    target_lang: str = "en",
    n_buckets: int = 65536,
    scale: int = 1_000_000,
    id_column: str = "doc_id",
    lang_column: str = "lang",
    text_column: str = "text",
):
    """Score every document by the integer DSIR importance weight sum.

    Returns a Dataset of (doc_id, score int64); documents with no bigram
    (fewer than two words) emit no row, matching the oracle's join
    semantics. ``ds`` is scanned twice (counts, then scores) — pass a
    re-readable Dataset (a parquet read), not a materialized chain.
    """
    src, tgt = gram_count_tables(
        ds,
        target_lang=target_lang,
        n_buckets=n_buckets,
        lang_column=lang_column,
        text_column=text_column,
    )
    w = weight_table(src, tgt, scale=scale)

    def score_partial(batch: pd.DataFrame) -> pd.DataFrame:
        ids: list[int] = []
        scores: list[int] = []
        for doc_id, text in zip(batch[id_column], batch[text_column]):
            b = _gram_buckets(text, n_buckets)
            if not len(b):
                continue
            ids.append(int(doc_id))
            scores.append(int(w[b].sum()))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "score": pd.Series(scores, dtype="int64"),
            }
        )

    return ds.map_batches(score_partial, batch_format="pandas")
