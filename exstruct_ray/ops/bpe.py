"""BPE tokenizer-training primitives: distributed pair counting + merges.

Method reference (public literature): byte-pair encoding for subword
tokenization (Sennrich, Haddow & Birch, "Neural Machine Translation of
Rare Words with Subword Units", ACL 2016). The training shape follows the
standard deployment (HuggingFace tokenizers, SentencePiece BPE mode): the
corpus is scanned ONCE into a weighted word-type vocabulary — word types
are orders of magnitude fewer than word tokens — and the merge loop runs
over that compact weighted vocab, never re-reading the corpus.

Scale notes (100 TB design):
  - pair_counts: each batch reduces to a 676-cell (26x26) count vector;
    the only exchange is those tiny partials (aggregated through a
    low-cardinality groupby, then a <=676-row driver merge). No text
    ever leaves the reading task.
  - bpe_train: the corpus scan emits (word, count) partials; the word-key
    shuffle is coarse-bucketed (the engine's micro-group convention) and
    ships word types once, weighted. ``max_vocab`` truncates the driver
    vocabulary to the top-V types for web-scale corpora where even the
    type count is large (the standard practice; documented trade-off:
    merges computed on the head of the Zipf curve, which carries almost
    all pair mass).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .shuffle import bucket_exchange, empty_block, to_frame


def _pair_partial(batch: pd.DataFrame) -> pd.DataFrame:
    """26x26 adjacent-pair counts of one batch as (code, cnt) rows.

    Semantics match the DuckDB oracle exactly: pairs are adjacent letter
    positions inside maximal [a-z]+ runs of lower(text) — any non-letter
    byte breaks adjacency, as does the document boundary (texts join with
    a space separator before the byte scan).
    """
    text = " ".join((t or "") for t in batch["text"].tolist()).lower()
    arr = np.frombuffer(text.encode("utf-8", "ignore"), dtype=np.uint8)
    if len(arr) < 2:
        return pd.DataFrame(
            {"code": pd.Series(dtype="int64"), "cnt": pd.Series(dtype="int64")}
        )
    # Multi-byte UTF-8 sequences sit outside 0x61-0x7a, so they break
    # adjacency exactly like the oracle's [^a-z]+ splitter.
    is_l = (arr >= 0x61) & (arr <= 0x7A)
    both = is_l[:-1] & is_l[1:]
    codes = (arr[:-1][both].astype(np.int64) - 0x61) * 26 + (
        arr[1:][both].astype(np.int64) - 0x61
    )
    cnt = np.bincount(codes, minlength=676)
    nz = np.nonzero(cnt)[0]
    return pd.DataFrame(
        {"code": nz.astype("int64"), "cnt": cnt[nz].astype("int64")}
    )


def pair_counts(ds, top_k: int = 32) -> pd.DataFrame:
    """Top-k adjacent character pairs inside [a-z]+ words — the statistic
    the first BPE merge step selects from, counted corpus-wide.

    Returns a pandas frame (a, b, cnt) ordered by (cnt desc, a, b); the
    ordering is a total order, so the top-k cut is deterministic on both
    the engine and the oracle side.
    """
    partials = ds.map_batches(_pair_partial, batch_format="pandas")

    def combine(group: pd.DataFrame) -> pd.DataFrame:
        return group.groupby("code", as_index=False).agg(cnt=("cnt", "sum"))

    cols = [("code", "int64"), ("cnt", "int64")]
    df = to_frame(
        bucket_exchange(partials, combine, key="code", schema=cols), cols
    )
    df["a"] = (df["code"] // 26 + 0x61).apply(chr)
    df["b"] = (df["code"] % 26 + 0x61).apply(chr)
    df = df.sort_values(
        ["cnt", "a", "b"], ascending=[False, True, True]
    ).head(top_k)
    return df[["a", "b", "cnt"]].astype({"cnt": "int64"}).reset_index(drop=True)


def word_type_counts(ds, n_buckets: int = 64, max_vocab: int | None = None):
    """One corpus scan -> weighted word-type vocabulary (word, cnt).

    Per-batch Counter partials, coarse word-hash bucket shuffle, exact
    per-word sum in-group. Only (word, partial-count) rows move — each
    word type at most once per batch.
    """

    cols = [("word", "object"), ("cnt", "int64")]

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        words = (
            batch["text"].fillna("").str.lower().str.findall(r"[a-z]+").explode()
        )
        words = words.dropna()
        if not len(words):
            return empty_block(cols)
        vc = words.value_counts()
        return pd.DataFrame(
            {"word": vc.index.to_numpy(), "cnt": vc.to_numpy().astype("int64")}
        )

    def combine(group: pd.DataFrame) -> pd.DataFrame:
        return group.groupby("word", as_index=False).agg(cnt=("cnt", "sum"))

    vocab = to_frame(
        bucket_exchange(
            ds.map_batches(partial, batch_format="pandas"),
            combine,
            key="word",
            schema=cols,
            n_buckets=n_buckets,
        ),
        cols,
    )
    vocab = vocab.sort_values(
        ["cnt", "word"], ascending=[False, True]
    ).reset_index(drop=True)
    if max_vocab is not None:
        vocab = vocab.head(max_vocab)
    return vocab


def merges_from_vocab(
    vocab: pd.DataFrame, num_merges: int
) -> list[tuple[str, str, int]]:
    """Classic BPE merge loop over a weighted word-type vocabulary.

    Deterministic tiebreak: highest count, then lexicographic (left,
    right). Runs driver-side on the compact vocab (the standard shape —
    the distributed part of BPE training is the corpus->vocab scan).
    """
    seqs: list[list[str]] = [list(w) for w in vocab["word"].tolist()]
    weights = vocab["cnt"].to_numpy(dtype=np.int64)
    merges: list[tuple[str, str, int]] = []
    for _ in range(num_merges):
        counts: dict[tuple[str, str], int] = {}
        for seq, w in zip(seqs, weights):
            for i in range(len(seq) - 1):
                p = (seq[i], seq[i + 1])
                counts[p] = counts.get(p, 0) + int(w)
        if not counts:
            break
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        (left, right), c = best
        merges.append((left, right, c))
        tok = left + right
        for seq in seqs:
            i = 0
            while i < len(seq) - 1:
                if seq[i] == left and seq[i + 1] == right:
                    seq[i : i + 2] = [tok]
                else:
                    i += 1
    return merges


def bpe_train(
    ds, num_merges: int = 16, n_buckets: int = 64, max_vocab: int | None = None
) -> list[tuple[str, str, int]]:
    """Distributed BPE training: one corpus scan + driver merge loop."""
    return merges_from_vocab(
        word_type_counts(ds, n_buckets=n_buckets, max_vocab=max_vocab),
        num_merges,
    )
