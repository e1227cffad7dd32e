"""Text-analysis operators: stats, quality, language ID, fingerprints.

All per-batch functions are vectorized (pandas string kernels / numpy); no
Python loop over rows in the hot path except where a hash digest per row is
inherently scalar (fingerprints), which stays a tight C-call loop.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd

from .shuffle import bucket_exchange, empty_block, to_frame


def _stats_batch(batch):
    """Arrow-native text stats: every counter is a pyarrow.compute RE2
    kernel over the zero-copy batch — no pandas round-trip. RE2's ``\\s``
    is ASCII-only, which IS the oracle's semantics (Python-side parity was
    previously spelled ``(?a)``; NBSP splits on neither side)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    text = pc.fill_null(batch.column("text"), "")
    n_chars = pc.cast(pc.utf8_length(text), pa.int64())
    # Token = maximal run of non-ASCII-whitespace.
    n_tokens = pc.cast(pc.count_substring_regex(text, r"\S+"), pa.int64())
    # BPE-style pre-tokenizer count (GPT-2-family shape, ASCII approx):
    # a token is a space-optional letter run, digit run, or punctuation
    # run — the standard LLM-cost estimate, exactly expressible in the
    # RE2 SQL oracle too.
    n_bpe_tokens = pc.cast(
        pc.count_substring_regex(text, r" ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+"),
        pa.int64(),
    )
    n_alpha = pc.cast(pc.count_substring_regex(text, r"[A-Za-z]"), pa.int64())
    n_digit = pc.cast(pc.count_substring_regex(text, r"[0-9]"), pa.int64())
    n_punct = pc.cast(pc.count_substring_regex(text, r"[.,!?;:]"), pa.int64())
    # empty docs get a null ratio (NaN once in pandas), like the oracle
    denom = pc.if_else(
        pc.equal(n_chars, 0), pa.scalar(None, pa.int64()), n_chars
    )
    ratio = pc.divide(pc.cast(n_alpha, pa.float64()), pc.cast(denom, pa.float64()))
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_chars": n_chars,
            "n_tokens": n_tokens,
            "n_bpe_tokens": n_bpe_tokens,
            "n_alpha": n_alpha,
            "n_digit": n_digit,
            "n_punct": n_punct,
            "alpha_ratio": ratio,
        }
    )


def add_text_stats(ds):
    """doc_id + char/token/alpha/digit/punct counts + alpha ratio."""
    return ds.map_batches(_stats_batch, batch_format="pyarrow")


# Deterministic stopword lists per language — public-knowledge stopword
# heuristic (the classic most-frequent-function-words lists), NOT a trained
# model. Marker constraint: every marker must tokenize to itself under
# _WORD_PATTERN in BOTH Python re and DuckDB RE2 (the SQL oracle is
# generated from this table), so markers stay within [a-z À-ÿ Cyrillic];
# languages whose common stopwords need further code points (pl ę/ł, cs ž,
# ro ș) use their ASCII/Latin-1-safe subset.
_LANG_MARKERS: dict[str, tuple[str, ...]] = {
    "en": ("the", "and", "of", "to", "in", "is", "that", "for", "with", "it"),
    "de": ("der", "die", "und", "das", "ist", "nicht", "ein", "mit", "auf", "zu"),
    "fr": ("le", "la", "les", "et", "est", "des", "une", "dans", "pour", "que"),
    "es": ("el", "la", "los", "las", "es", "una", "para", "con", "por", "del"),
    "it": ("il", "la", "che", "di", "non", "per", "una", "sono", "con", "del"),
    "pt": ("que", "não", "uma", "para", "com", "os", "dos", "mais", "como", "foi"),
    "nl": ("het", "een", "van", "dat", "niet", "met", "voor", "zijn", "ook", "maar"),
    "sv": ("och", "att", "det", "som", "på", "är", "av", "för", "med", "den"),
    "da": ("og", "det", "at", "til", "er", "som", "på", "ikke", "med", "han"),
    "no": ("og", "det", "at", "til", "er", "som", "på", "av", "ikke", "jeg"),
    "fi": ("ja", "on", "ei", "että", "se", "hän", "oli", "mutta", "joka", "kun"),
    "pl": ("nie", "to", "jest", "na", "do", "tak", "jak", "ale", "po", "ma"),
    "cs": ("je", "se", "na", "to", "ale", "jako", "ve", "za", "pro", "by"),
    "ro": ("la", "cu", "în", "pentru", "care", "este", "mai", "din", "sau", "dar"),
    "tr": ("ve", "bir", "bu", "da", "için", "ile", "ama", "gibi", "daha", "ben"),
    "id": ("yang", "dan", "di", "ini", "itu", "dengan", "untuk", "tidak", "dari", "pada"),
    "ru": ("и", "в", "не", "на", "что", "он", "с", "как", "это", "по"),
}
# Shared with the generated SQL oracle — Latin-1 letters + Cyrillic; must
# parse identically under Python re and DuckDB RE2.
_WORD_PATTERN = r"[a-zà-ÿа-яё]+"
_WORD_RE = re.compile(_WORD_PATTERN)


def _detect_lang_one(text: str) -> str:
    words = _WORD_RE.findall(text.lower())
    if not words:
        return "unknown"
    counts = {lang: 0 for lang in _LANG_MARKERS}
    wordset = {}
    for w in words:
        wordset[w] = wordset.get(w, 0) + 1
    for lang, markers in _LANG_MARKERS.items():
        counts[lang] = sum(wordset.get(m, 0) for m in markers)
    best = max(sorted(counts), key=lambda k: counts[k])
    return best if counts[best] > 0 else "unknown"


_MARKER_TABLE = pd.DataFrame(
    [(m, lang) for lang, ms in sorted(_LANG_MARKERS.items()) for m in ms],
    columns=["tok", "mlang"],
)


def _lang_batch(batch: pd.DataFrame) -> pd.DataFrame:
    """Vectorized marker counting: tokenize → explode → merge → pivot.

    Same semantics as _detect_lang_one per row (token-based counting with
    alphabetical tie-break, 'unknown' when no marker hits), but one pandas
    pipeline per batch instead of a Python loop over rows.
    """
    text = batch["text"].fillna("").str.lower()
    toks = text.str.findall(_WORD_RE)
    n_words = toks.str.len()
    langs = sorted(_LANG_MARKERS)

    exploded = toks.explode().rename("tok").reset_index()
    merged = exploded.merge(_MARKER_TABLE, on="tok")
    if merged.empty:
        counts = pd.DataFrame(0, index=batch.index, columns=langs)
    else:
        counts = (
            merged.groupby(["index", "mlang"]).size().unstack(fill_value=0)
        )
        counts = counts.reindex(index=batch.index, columns=langs, fill_value=0)
    # idxmax picks the FIRST max in column order — columns are alphabetical,
    # matching max(sorted(counts)) in the scalar reference implementation.
    best = counts.idxmax(axis=1)
    best[(counts.max(axis=1) == 0) | (n_words == 0)] = "unknown"

    out = batch[["doc_id"]].copy()
    out["detected_lang"] = best
    for passthrough in ("lang", "source"):
        if passthrough in batch.columns:
            out[passthrough] = batch[passthrough]
    return out


def detect_language(ds):
    """Stopword-marker language ID per document (heuristic, deterministic)."""
    return ds.map_batches(_lang_batch, batch_format="pandas")


# PII patterns — ASCII-only classes so Python re and DuckDB RE2 (the SQL
# oracle's regexp_replace) match byte-for-byte on the same input.
PII_EMAIL_PATTERN = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_LONG_NUMBER_PATTERN = r"[0-9]{6,}"


def redact_pii_batch(text: pd.Series) -> tuple[pd.Series, pd.Series]:
    """Vectorized PII scrub: emails → <EMAIL>, then 6+-digit runs → <NUM>.

    Returns (redacted, n_pii). Order matters and is part of the contract:
    the email pass runs first so an email's numeric local part counts once
    as an email, not again as a number — the SQL oracle applies the same
    two regexp_replace calls in the same order.
    """
    n_emails = text.str.count(PII_EMAIL_PATTERN).astype("int64")
    after_email = text.str.replace(PII_EMAIL_PATTERN, "<EMAIL>", regex=True)
    n_numbers = after_email.str.count(PII_LONG_NUMBER_PATTERN).astype("int64")
    redacted = after_email.str.replace(
        PII_LONG_NUMBER_PATTERN, "<NUM>", regex=True
    )
    return redacted, n_emails + n_numbers


# RE2's \s is exactly [\t\n\f\r ] — NO vertical tab, unlike Python's
# ASCII (?a)\s. Spelled out so Python-side tokenization matches the
# DuckDB oracle byte-for-byte even on \x0b.
RE2_WS_PATTERN = r"[\t\n\f\r ]+"
_ASCII_WS_RE = re.compile(RE2_WS_PATTERN)


def word_ngram_set(text: str, n: int) -> set[str]:
    """Lowercased word n-grams as joined strings (decontamination building
    block). RE2-whitespace tokenization with empties dropped — the exact
    semantics of the SQL oracle's regexp_split_to_array + list_filter
    (ASCII-only; NBSP splits on neither side, \\v on neither side)."""
    words = [w for w in _ASCII_WS_RE.split((text or "").lower()) if w]
    if len(words) < n:
        return set()
    return {" ".join(words[i : i + n]) for i in range(len(words) - n + 1)}


def gram_rows_batch(batch: pd.DataFrame, n: int = 3, text_col: str = "text"):
    """Per-batch DISTINCT word n-grams as rows — the distributed half of
    collect_gram_set. Emits gram strings only, never document text, as
    an Arrow block (typed when the batch has no gram)."""
    import pyarrow as pa

    grams: set[str] = set()
    for t in batch.get(text_col, ()):
        grams |= word_ngram_set(t, n)
    return pa.table({"gram": pa.array(list(grams), pa.string())})


def collect_gram_set(ds, n: int = 3, text_col: str = "text", where=None) -> set[str]:
    """Distributed n-gram set build over a (small) eval/benchmark table.

    Each batch emits its DISTINCT gram strings as rows; the driver unions
    gram keys only — eval-set-sized, never the underlying text. This is
    the scale-safe replacement for collecting benchmark rows to the
    driver and building the set there (the gram set is what broadcasts,
    so only it may cross the driver). For corpora-sized eval sides use
    ops.sketch.bloom_decontaminate (8 KiB bitset) instead.

    ``where`` (pandas batch → row mask) keeps only the masked rows. It
    filters in the gram map itself: a map after a filtering map gets the
    filter's empty blocks, which Ray passes on unmapped as zero-column
    blocks.
    """

    def grams(b: pd.DataFrame):
        return gram_rows_batch(b if where is None else b[where(b)], n, text_col)

    rows = to_frame(ds.map_batches(grams, batch_format="pandas"), [("gram", "object")])
    return set(rows["gram"])


def decontaminate(ds, benchmark_grams_ref, n: int = 3):
    """Benchmark decontamination: flag corpus docs sharing any word n-gram
    with a benchmark set (the standard eval-leak scrub before training).

    The benchmark gram set is SMALL by definition (eval suites are
    thousands of docs, not billions) — broadcast once via ray.put and read
    by each batch from the local object store, never re-shipped; the
    corpus streams through one map_batches with no shuffle. Emits
    (doc_id, n_overlap) for contaminated docs only.
    """
    import ray

    def flag(batch: pd.DataFrame, _ref=benchmark_grams_ref) -> pd.DataFrame:
        grams: set[str] = ray.get(_ref)
        rows_id: list[int] = []
        rows_n: list[int] = []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            overlap = len(word_ngram_set(text, n) & grams)
            if overlap:
                rows_id.append(int(doc_id))
                rows_n.append(overlap)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(rows_id, dtype="int64"),
                "n_overlap": pd.Series(rows_n, dtype="int64"),
            }
        )

    return ds.map_batches(flag, batch_format="pandas")


def _fingerprint_batch(batch: pd.DataFrame) -> pd.DataFrame:
    out = batch[["doc_id"]].copy()
    out["fingerprint"] = [
        hashlib.md5((t or "").encode("utf-8")).hexdigest()
        for t in batch["text"].tolist()
    ]
    return out


def fingerprint_documents(ds):
    """MD5 content fingerprint per document (matches SQL md5(text))."""
    return ds.map_batches(_fingerprint_batch, batch_format="pandas")


def winnow_fingerprints_batch(
    batch: pd.DataFrame, k: int = 32, window: int = 8
) -> pd.DataFrame:
    """Winnowing document fingerprints (Schleimer/Wilkerson/Aiken, SIGMOD
    2003): k-gram Rabin-Karp hashes → forward-window minima → distinct set.

    The forward frame (min over h[i : i + window], short tail windows
    included) matches the SQL oracle's ``ROWS BETWEEN CURRENT ROW AND
    window-1 FOLLOWING`` exactly.
    """
    rows_doc: list = []
    rows_fp: list = []
    for doc_id, text in zip(batch["doc_id"], batch["text"]):
        hashes = rolling_fingerprints(text or "", window=k)
        if not hashes:
            continue
        # Pure-int64 sliding minima (pandas rolling would round-trip
        # through float64 and corrupt 61-bit hashes above 2^53): pad the
        # tail with int64.max so short end windows fall out naturally.
        arr = np.asarray(hashes, dtype=np.int64)
        padded = np.concatenate(
            [arr, np.full(window - 1, np.iinfo(np.int64).max, dtype=np.int64)]
        )
        minima = np.lib.stride_tricks.sliding_window_view(padded, window).min(
            axis=1
        )
        fps = sorted(set(int(v) for v in minima))
        rows_doc.extend([doc_id] * len(fps))
        rows_fp.extend(fps)
    return pd.DataFrame(
        {
            "doc_id": pd.Series(rows_doc, dtype="int64"),
            "fingerprint": pd.Series(rows_fp, dtype="int64"),
        }
    )


def winnow_documents(ds, k: int = 32, window: int = 8):
    """Distributed winnowing: one vectorized pass per batch, no shuffle —
    fingerprints are per-document."""
    return ds.map_batches(
        lambda batch: winnow_fingerprints_batch(batch, k=k, window=window),
        batch_format="pandas",
    )


def rolling_fingerprints(text: str, window: int = 32, base: int = 257, mod: int = (1 << 61) - 1) -> list[int]:
    """Rolling (Rabin-Karp) window hashes of a document — winnowing building
    block for near-dup sketches. Deterministic, pure."""
    data = text.encode("utf-8")
    if len(data) < window:
        return []
    h = 0
    power = pow(base, window - 1, mod)
    out: list[int] = []
    for i, b in enumerate(data):
        h = (h * base + b) % mod
        if i >= window - 1:
            out.append(h)
            h = (h - data[i - window + 1] * power) % mod
    return out


# ---------------------------------------------------------------------------
# Gopher-style repetition / quality signals
# ---------------------------------------------------------------------------

# Public-knowledge heuristics from "Scaling Language Models: Methods,
# Analysis & Insights from Training Gopher" (Rae et al. 2021, appendix A —
# the repetition-removal subset of the quality-filter rules): documents with
# a high fraction of duplicate lines, characters inside duplicate lines,
# characters covered by the single most frequent word 2-gram, bullet-point
# lines, or ellipsis-terminated lines are boilerplate/spam-like and are
# dropped before training. All signals below are pure integer counts so the
# SQL oracle mirrors them exactly (no float thresholds — keep decisions use
# integer cross-multiplication).
GOPHER_BULLET_PATTERN = r"^[-*•] "
GOPHER_ELLIPSIS_PATTERN = r"(?:\.\.\.|…)$"


def gopher_signals_batch(batch: pd.DataFrame) -> pd.DataFrame:
    """Per-document repetition signals, fully vectorized (explode + groupby
    over the in-batch line/word tables; no Python loop over rows).

    Definitions (shared verbatim with the SQL oracle):
      - a line is every ``\\n``-delimited segment (empty segments count in
        ``n_lines`` but are excluded from duplicate counting);
      - a line is *duplicate* when its exact text occurs >= 2 times in the
        document; ``n_dup_lines``/``dup_line_chars`` count ALL occurrences;
      - ``top2gram_chars`` = occurrences x character length of the most
        frequent lowercased word 2-gram (ties broken by lexicographically
        smallest gram; ASCII-whitespace tokenization, RE2 ``\\s`` parity);
      - ``keep`` applies the Gopher thresholds as integer inequalities:
        dup-line fraction < 0.30, dup-line char fraction < 0.20, top-2-gram
        char fraction < 0.20, bullet-line fraction < 0.90, ellipsis-line
        fraction < 0.30.
    """
    text = batch["text"].fillna("").reset_index(drop=True)
    n = len(text)
    n_chars = text.str.len().to_numpy(dtype=np.int64, na_value=0)

    lines = text.str.split("\n")
    n_lines = lines.str.len().to_numpy(dtype=np.int64, na_value=0)
    exploded = lines.explode()
    ldf = pd.DataFrame(
        {"i": exploded.index.to_numpy(), "line": exploded.to_numpy()}
    )

    dup_lines = np.zeros(n, dtype=np.int64)
    dup_chars = np.zeros(n, dtype=np.int64)
    nonempty = ldf[ldf["line"] != ""]
    if len(nonempty):
        cnt = (
            nonempty.groupby(["i", "line"], sort=False)
            .size()
            .reset_index(name="c")
        )
        dup = cnt[cnt["c"] >= 2]
        if len(dup):
            per_doc = dup.groupby("i")["c"].sum()
            dup_lines[per_doc.index.to_numpy()] = per_doc.to_numpy()
            chars = (dup["c"] * dup["line"].str.len()).groupby(dup["i"]).sum()
            dup_chars[chars.index.to_numpy()] = chars.to_numpy()

    n_bullet = np.zeros(n, dtype=np.int64)
    n_ellipsis = np.zeros(n, dtype=np.int64)
    if len(ldf):
        bullet = (
            ldf["line"]
            .str.contains(GOPHER_BULLET_PATTERN, regex=True)
            .groupby(ldf["i"])
            .sum()
        )
        n_bullet[bullet.index.to_numpy()] = bullet.to_numpy(dtype=np.int64)
        ellipsis = (
            ldf["line"]
            .str.contains(GOPHER_ELLIPSIS_PATTERN, regex=True)
            .groupby(ldf["i"])
            .sum()
        )
        n_ellipsis[ellipsis.index.to_numpy()] = ellipsis.to_numpy(
            dtype=np.int64
        )

    top2 = np.zeros(n, dtype=np.int64)
    words = text.str.lower().str.findall(r"[^\t\n\f\r ]+")
    wexp = words.explode().dropna()
    if len(wexp):
        wdf = pd.DataFrame({"i": wexp.index.to_numpy(), "w": wexp.to_numpy()})
        wdf["w2"] = wdf.groupby("i")["w"].shift(-1)
        grams = wdf.dropna(subset=["w2"])
        if len(grams):
            gdf = pd.DataFrame(
                {
                    "i": grams["i"].to_numpy(),
                    "g": (grams["w"] + " " + grams["w2"]).to_numpy(),
                }
            )
            counts = (
                gdf.groupby(["i", "g"], sort=False).size().reset_index(name="c")
            )
            best = counts.sort_values(
                ["i", "c", "g"],
                ascending=[True, False, True],
                kind="mergesort",
            ).drop_duplicates("i")
            top2[best["i"].to_numpy()] = (
                best["c"] * best["g"].str.len()
            ).to_numpy()

    keep = (
        (dup_lines * 10 < n_lines * 3)
        & (dup_chars * 10 < n_chars * 2)
        & (top2 * 10 < n_chars * 2)
        & (n_bullet * 10 < n_lines * 9)
        & (n_ellipsis * 10 < n_lines * 3)
    ).astype(np.int64)

    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"].reset_index(drop=True).astype("int64"),
            "n_lines": n_lines,
            "n_dup_lines": dup_lines,
            "dup_line_chars": dup_chars,
            "top2gram_chars": top2,
            "n_bullet_lines": n_bullet,
            "n_ellipsis_lines": n_ellipsis,
            "keep": keep,
        }
    )


def gopher_quality(ds):
    """Gopher repetition signals + keep flag per document — embarrassingly
    parallel (per-doc, no shuffle); one vectorized map_batches stage."""
    return ds.map_batches(gopher_signals_batch, batch_format="pandas")


# ---------------------------------------------------------------------------
# Unigram-LM rarity scoring (CCNet-style quality proxy)
# ---------------------------------------------------------------------------

LM_RARITY_SCALE = 1_000_000_000_000  # 1e12: integer per-token rarity units


def corpus_token_counts(ds, n_buckets: int = 256) -> pd.DataFrame:
    """Corpus-wide token -> count, the unigram LM table.

    Same shape as the vocabulary pipeline: vectorized in-batch partial
    counts (explode + value_counts), one coarse token-hash bucket shuffle,
    exact merge in-group. The result is vocabulary-sized — the broadcast
    small side for scoring passes. At web scale, truncate to the top-V
    rows before broadcasting (rarity of a dropped token is then the
    max-rarity default); at sandbox scale the full table ships.
    """

    cols = [("token", "object"), ("n", "int64")]

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        tokens = (
            batch["text"]
            .fillna("")
            .str.lower()
            .str.findall(r"[^\t\n\f\r ]+")
            .explode()
            .dropna()
        )
        if not len(tokens):
            return empty_block(cols)
        counts = tokens.value_counts()
        return pd.DataFrame(
            {"token": counts.index, "n": counts.to_numpy(dtype=np.int64)}
        )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        agg = group.groupby("token", sort=False)["n"].sum().reset_index()
        agg["n"] = agg["n"].astype("int64")
        return agg

    return to_frame(
        bucket_exchange(
            ds.map_batches(partial, batch_format="pandas"),
            merge,
            key="token",
            schema=cols,
            n_buckets=n_buckets,
        ),
        cols,
    )


def lm_rarity_scores(ds, counts_ref) -> "object":
    """Per-document unigram rarity: sum over tokens of
    ``LM_RARITY_SCALE // corpus_count(token)`` plus the floor mean.

    All-integer (floor division) so the SQL oracle is a hash check; the
    monotone-decreasing count transform is the sqrt/log-free analogue of
    negative log-likelihood — rare-token-heavy documents (typos, junk,
    boilerplate IDs) score high, exactly the signal CCNet's LM perplexity
    filter thresholds on. ``counts_ref`` is a ray.put broadcast of the
    token->count table (read per task from the local object store)."""
    import ray

    def score(batch: pd.DataFrame, _ref=counts_ref) -> pd.DataFrame:
        counts: pd.Series = ray.get(_ref)
        tokens = (
            batch["text"]
            .fillna("")
            .str.lower()
            .str.findall(r"[^\t\n\f\r ]+")
        )
        exploded = tokens.reset_index(drop=True).explode().dropna()
        n = len(batch)
        n_tokens = np.zeros(n, dtype=np.int64)
        rarity = np.zeros(n, dtype=np.int64)
        if len(exploded):
            per_tok = (
                LM_RARITY_SCALE
                // exploded.map(counts).to_numpy(dtype=np.int64)
            )
            idx = exploded.index.to_numpy()
            np.add.at(rarity, idx, per_tok)
            cnt = pd.Series(idx).value_counts()
            n_tokens[cnt.index.to_numpy()] = cnt.to_numpy(dtype=np.int64)
        mean = np.zeros(n, dtype=np.int64)
        nz = n_tokens > 0
        mean[nz] = rarity[nz] // n_tokens[nz]
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].reset_index(drop=True).astype(
                    "int64"
                ),
                "n_tokens": n_tokens,
                "rarity_sum": rarity,
                "mean_rarity": mean,
            }
        )

    return ds.map_batches(score, batch_format="pandas")


def winnow_overlap_pairs(
    ds,
    min_shared: int = 5,
    max_postings: int = 200,
    n_buckets: int = 256,
):
    """MOSS-style overlap detection (Schleimer, Wilkerson & Aiken 2003,
    "Winnowing: local algorithms for document fingerprinting"): document
    pairs sharing >= min_shared winnowing fingerprints, with the shared
    count. Fingerprints appearing in more than ``max_postings`` documents
    are skipped — MOSS's own boilerplate rule, and the skew guard that
    keeps per-posting pair generation bounded.

    Shape: per-doc fingerprints (no shuffle) → coarse fingerprint-bucket
    exchange of (fingerprint, doc_id) pairs → per-posting pair counts
    in-group → doc-pair-bucket exchange sums shared counts exactly and
    applies the threshold. Both exchanges move ids only."""

    fps = ds.map_batches(winnow_fingerprints_batch, batch_format="pandas")

    pcols = [("doc_a", "int64"), ("doc_b", "int64"), ("n", "int64")]
    cols = [("doc_a", "int64"), ("doc_b", "int64"), ("n_shared", "int64")]

    def pairs_in_bucket(group: pd.DataFrame) -> pd.DataFrame:
        rows_a: list[int] = []
        rows_b: list[int] = []
        for _, g in group.groupby("fingerprint"):
            ids = np.sort(g["doc_id"].unique())
            if len(ids) < 2 or len(ids) > max_postings:
                continue
            ii, jj = np.triu_indices(len(ids), k=1)
            rows_a.extend(ids[ii].tolist())
            rows_b.extend(ids[jj].tolist())
        if not rows_a:
            return None
        out = (
            pd.DataFrame(
                {
                    "doc_a": pd.Series(rows_a, dtype="int64"),
                    "doc_b": pd.Series(rows_b, dtype="int64"),
                }
            )
            .groupby(["doc_a", "doc_b"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        out["n"] = out["n"].astype("int64")
        return out

    def merge_pairs(group: pd.DataFrame) -> pd.DataFrame:
        agg = group.groupby(["doc_a", "doc_b"], as_index=False)["n"].sum()
        agg = agg[agg["n"] >= min_shared]
        return pd.DataFrame(
            {
                "doc_a": agg["doc_a"].astype("int64"),
                "doc_b": agg["doc_b"].astype("int64"),
                "n_shared": agg["n"].astype("int64"),
            }
        ).reset_index(drop=True)

    pairs = bucket_exchange(
        fps.map_batches(lambda b: b[["doc_id", "fingerprint"]], batch_format="pandas"),
        pairs_in_bucket,
        key="fingerprint",
        schema=pcols,
        n_buckets=n_buckets,
    )
    return bucket_exchange(pairs, merge_pairs, key="doc_a", schema=cols)


BIGRAM_RARITY_SCALE = 1_000_000  # smaller than unigram scale: the per-
# bigram score multiplies by the prefix count (see bigram_rarity_table),
# and 1e6 * prefix_count must stay inside int64 (safe to ~9e12 corpus
# bigram occurrences of one prefix — far beyond the sandbox; re-scale per
# shard before broadcast at true web scale).
_BIGRAM_SEP = "\x1f"  # unit separator: cannot appear in whitespace tokens


def _bigram_lists(texts: pd.Series) -> pd.Series:
    """Per-row list of w1␟w2 bigram keys from lowercased whitespace tokens."""
    tokens = texts.fillna("").str.lower().str.findall(r"[^\t\n\f\r ]+")
    return tokens.apply(
        lambda ws: [a + _BIGRAM_SEP + b for a, b in zip(ws, ws[1:])]
    )


def corpus_bigram_counts(ds, n_buckets: int = 256) -> pd.DataFrame:
    """Corpus-wide bigram -> count (the 2-gram LM table): vectorized
    in-batch partials, one coarse bigram-hash bucket shuffle, exact merge
    in-group — corpus_token_counts' shape one order up. Result is
    bigram-vocabulary-sized (the broadcast small side); truncate to top-V
    before broadcasting at web scale."""

    cols = [("bigram", "object"), ("n", "int64")]

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        bigrams = _bigram_lists(batch["text"]).explode().dropna()
        if not len(bigrams):
            return empty_block(cols)
        counts = bigrams.value_counts()
        return pd.DataFrame(
            {"bigram": counts.index, "n": counts.to_numpy(dtype=np.int64)}
        )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        agg = group.groupby("bigram", as_index=False)["n"].sum()
        agg["n"] = agg["n"].astype("int64")
        return agg

    return to_frame(
        bucket_exchange(
            ds.map_batches(partial, batch_format="pandas"),
            merge,
            key="bigram",
            schema=cols,
            n_buckets=n_buckets,
        ),
        cols,
    )


def bigram_rarity_table(counts_df: pd.DataFrame) -> pd.Series:
    """bigram -> integer conditional rarity:
    ``(SCALE * prefix_count(w1)) // count(w1,w2)`` — the floor-division
    analogue of -log P(w2|w1), where prefix_count is the sum of the
    bigram counts sharing w1 (NOT the unigram count: doc-final tokens
    never open a bigram, and the SQL oracle uses the same definition)."""
    if not len(counts_df):
        # the corpus has no bigrams at all: an empty rarity table scores
        # everything 0
        return pd.Series(dtype="int64")
    w1 = counts_df["bigram"].str.split(_BIGRAM_SEP, n=1).str[0]
    prefix = counts_df["n"].groupby(w1.to_numpy()).sum()
    p = w1.map(prefix).to_numpy(dtype=np.int64)
    c = counts_df["n"].to_numpy(dtype=np.int64)
    return pd.Series(
        (BIGRAM_RARITY_SCALE * p) // c,
        index=counts_df["bigram"].to_numpy(),
    )


def bigram_rarity_scores(ds, rarity_ref) -> "object":
    """Per-document bigram-LM rarity sum/mean (CCNet-perplexity analogue,
    one LM order up from lm_rarity_scores). ``rarity_ref`` is a ray.put
    broadcast of the bigram->rarity table."""
    import ray

    def score(batch: pd.DataFrame, _ref=rarity_ref) -> pd.DataFrame:
        rarity_map: pd.Series = ray.get(_ref)
        exploded = (
            _bigram_lists(batch["text"]).reset_index(drop=True).explode().dropna()
        )
        n = len(batch)
        n_bigrams = np.zeros(n, dtype=np.int64)
        rarity = np.zeros(n, dtype=np.int64)
        if len(exploded):
            per_bi = exploded.map(rarity_map).to_numpy(dtype=np.int64)
            idx = exploded.index.to_numpy()
            np.add.at(rarity, idx, per_bi)
            cnt = pd.Series(idx).value_counts()
            n_bigrams[cnt.index.to_numpy()] = cnt.to_numpy(dtype=np.int64)
        mean = np.zeros(n, dtype=np.int64)
        nz = n_bigrams > 0
        mean[nz] = rarity[nz] // n_bigrams[nz]
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].reset_index(drop=True).astype("int64"),
                "n_bigrams": n_bigrams,
                "brarity_sum": rarity,
                "mean_brarity": mean,
            }
        )

    return ds.map_batches(score, batch_format="pandas")


def normalize_text_batch(batch):
    """ftfy-lite text normalization — NFC canonical composition,
    C0/DEL control-char strip (newline and tab survive),
    horizontal-whitespace-run collapse, and end trim. The regex stages
    and the SQL oracle run the SAME RE2 (pyarrow.compute vs DuckDB
    regexp_replace), so that part is bit-identical by construction.

    NFC deliberately does NOT use pc.utf8_normalize: this pyarrow
    wheel (16.1) ignores the form option and always decomposes
    (NFC('\\xe9') -> 'e\\u0301' — verified in
    tests/test_normalize_mixture.py's crafted-corpus parity test).
    Python's unicodedata.normalize is the standard-conformant side,
    applied only to the non-ASCII rows (str.isascii fast path), which
    on a web corpus post-language-split is a small minority — the
    ASCII bulk never leaves Arrow."""
    import unicodedata

    import pyarrow as pa
    import pyarrow.compute as pc

    text = pc.fill_null(batch.column("text"), "")
    s = text.to_pandas()
    non_ascii = ~s.map(str.isascii)
    if non_ascii.any():
        s = s.copy()
        s[non_ascii] = s[non_ascii].map(
            lambda x: unicodedata.normalize("NFC", x)
        )
        t = pa.array(s, type=pa.string())
    else:
        t = text.combine_chunks() if hasattr(text, "combine_chunks") else text
    t = pc.replace_substring_regex(
        t, pattern=r"[\x00-\x08\x0B\x0C\x0E-\x1F\x7F]", replacement=""
    )
    t = pc.replace_substring_regex(t, pattern=r"[ \t]+", replacement=" ")
    t = pc.replace_substring_regex(t, pattern=r"^ +| +$", replacement="")
    changed = pc.cast(pc.not_equal(t, text), pa.int64())
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "norm_text": t,
            "changed": changed,
        }
    )


def normalize_text(ds):
    """Dataset-level normalization: one stateless vectorized pass."""
    return ds.map_batches(normalize_text_batch, batch_format="pyarrow")


# --- C4 line-level cleaning (Raffel et al. 2020, §2.2 "C4") ------------
#
# The published rules this implements, per PAGE of newline-separated
# lines (each rule exercised by tests/test_c4.py on crafted pages):
#   line kept only if it (1) ends in a terminal punctuation mark
#   (. ! ? "), (2) has at least 5 words, (3) does not contain the word
#   "javascript" (case-insensitive);
#   the whole page is dropped if it contains "lorem ipsum"
#   (case-insensitive) or a curly brace "{", or if fewer than 3 lines
#   survive the line rules (C4's 3-sentence floor).
# Entirely per-doc -> a stateless shuffle-free map_batches stage;
# vectorized via pandas explode + RE2 string kernels (no Python loop
# over lines).

_C4_TERMINAL_RE = r'[.!?"]$'
_C4_WORD_RE = r"\S+"
_C4_MIN_WORDS = 5
_C4_MIN_KEPT_LINES = 3


def c4_line_filter_batch(texts: pd.Series) -> pd.DataFrame:
    """Apply the C4 line + page rules to a Series of page texts.

    Returns a frame aligned with ``texts``: clean_text (kept lines
    re-joined with \\n; empty string when the page is dropped),
    n_lines, n_kept (lines surviving the line rules), keep (0/1 page
    verdict)."""
    s = texts.fillna("")
    lines = s.str.split("\n")
    n_lines = lines.str.len().to_numpy(dtype=np.int64)
    if len(s):
        flat = pd.Series(
            np.concatenate([np.asarray(v, dtype=object) for v in lines]),
            dtype=object,
        )
    else:
        flat = pd.Series([], dtype=object)
    parent = np.arange(len(s)).repeat(n_lines)
    t = flat.str.strip()
    kept_mask = (
        t.str.contains(_C4_TERMINAL_RE, regex=True)
        & (t.str.count(_C4_WORD_RE) >= _C4_MIN_WORDS)
        & ~t.str.lower().str.contains("javascript", regex=False)
    ).to_numpy(dtype=bool)

    low = s.str.lower()
    page_bad = (
        low.str.contains("lorem ipsum", regex=False)
        | s.str.contains("{", regex=False)
    ).to_numpy(dtype=bool)

    kept = pd.DataFrame(
        {"i": parent[kept_mask], "line": t.to_numpy(dtype=object)[kept_mask]}
    )
    if len(kept):
        joined = kept.groupby("i", sort=False)["line"].agg("\n".join)
        counts = kept.groupby("i", sort=False)["line"].size()
    else:
        joined = pd.Series(dtype=object)
        counts = pd.Series(dtype="int64")
    idx = pd.RangeIndex(len(s))
    n_kept = counts.reindex(idx).fillna(0).to_numpy(dtype=np.int64)
    keep = (~page_bad) & (n_kept >= _C4_MIN_KEPT_LINES)
    clean = np.where(
        keep, joined.reindex(idx).fillna("").to_numpy(dtype=object), ""
    )
    return pd.DataFrame(
        {
            "clean_text": pd.Series(clean, dtype=object),
            "n_lines": n_lines,
            "n_kept": n_kept,
            "keep": keep.astype(np.int64),
        }
    )
