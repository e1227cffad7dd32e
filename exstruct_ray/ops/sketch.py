"""Sketch and selection aggregates: HyperLogLog, count-min, exact
distributed quantiles.

The training-data counterparts of the dedup sketches: cardinality
estimation (HyperLogLog — Flajolet et al. 2007) to size dedup/shuffle
stages before running them, frequency estimation (count-min sketch —
Cormode & Muthukrishnan 2005) for heavy-hitter token monitoring, and
exact order statistics via two-pass histogram-refine selection (the
classic distributed selection algorithm: a coarse histogram locates the
rank, a filtered second pass extracts it; recursion handles skewed
buckets).

Every estimator here is INTEGER-exact so the DuckDB oracles can recompute
it bit-for-bit: HLL registers are md5-derived (the same top-64-bit idiom
as `ops.dedup.simhash_64`), the harmonic mean is evaluated in scaled
big-int arithmetic (sum of 2^(55-rho) terms, HUGEINT in SQL), and the
linear-counting branch uses a precomputed integer ln table shared with
the generated SQL. No float accumulates anywhere.

Reference parity note: the reference engine (harumiWeb/exstruct) has no
sketch tier — these are the Ray-level additions SURVEY.md §2.5/§8 calls
for in a 100 TB training-data pipeline.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pandas as pd

from .shuffle import bucket_exchange, empty_block, to_frame
from .text import RE2_WS_PATTERN

# ---------------------------------------------------------------------------
# HyperLogLog (p=10: 1024 registers, 54-bit suffix)
# ---------------------------------------------------------------------------

HLL_P = 10
HLL_M = 1 << HLL_P  # 1024 registers
HLL_SUFFIX_BITS = 64 - HLL_P  # 54
_HLL_SUFFIX_MASK = (1 << HLL_SUFFIX_BITS) - 1
# alpha_m scaled to 1e6 — the SAME literal is baked into the generated SQL,
# so both sides multiply by an identical integer constant.
HLL_ALPHA_1E6 = round(1e6 * 0.7213 / (1 + 1.079 / HLL_M))
# Linear-counting table: LN_1E6[v] = round(1e6 * ln(m / v)) for v in 1..m.
# Generated once here and embedded as literals in the oracle SQL (the
# lang-detect marker-cascade pattern), keeping the small-range branch
# integer-exact too.
HLL_LN_1E6 = [0] + [round(1e6 * math.log(HLL_M / v)) for v in range(1, HLL_M + 1)]


def _md5_top64(s: str) -> int:
    """Top 64 bits of md5 — the engine's oracle-checkable hash idiom."""
    return int(hashlib.md5(s.encode("utf-8")).hexdigest()[:16], 16)


def _hll_bucket_rho(h: int) -> tuple[int, int]:
    bucket = h >> HLL_SUFFIX_BITS
    suffix = h & _HLL_SUFFIX_MASK
    if suffix == 0:
        return bucket, HLL_SUFFIX_BITS + 1
    return bucket, HLL_SUFFIX_BITS - suffix.bit_length() + 1


def hll_estimate_from_registers(registers: np.ndarray) -> dict[str, int]:
    """Integer HLL estimator over an m-length register array (M_j = max rho,
    0 for empty). Identical arithmetic to the generated SQL oracle:

      S        = sum_j 2^(55 - M_j)          (exact big int)
      E_raw    = alpha_1e6 * m^2 * 2^55 // (S * 1e6)
      estimate = m * ln_1e6[V] // 1e6        if V>0 and 2*E_raw <= 5*m
                 E_raw                        otherwise
    """
    m = HLL_M
    top = HLL_SUFFIX_BITS + 1  # 55
    s = 0
    for rho in registers:
        s += 1 << (top - int(rho))
    v_empty = int((registers == 0).sum())
    e_raw = (HLL_ALPHA_1E6 * m * m * (1 << top)) // (s * 1_000_000)
    if v_empty > 0 and 2 * e_raw <= 5 * m:
        estimate = (m * HLL_LN_1E6[v_empty]) // 1_000_000
    else:
        estimate = e_raw
    return {
        "m": m,
        "v_empty": v_empty,
        "sum_rho": int(registers.sum()),
        "estimate": int(estimate),
    }


def _doc_ngrams(text: str, n: int) -> set[str]:
    """Distinct lowercased word n-grams of one document (RE2-whitespace
    tokenization — matches the oracle's regexp_split_to_array semantics)."""
    import re

    words = [w for w in re.split(RE2_WS_PATTERN, (text or "").lower()) if w]
    if len(words) < n:
        return set()
    return {" ".join(words[i : i + n]) for i in range(len(words) - n + 1)}


# Tagged-stream kinds for the combined partial schema.
_KIND_HLL = 0
_KIND_EXACT = 1
_EXACT_BUCKETS = 1024


def hll_ngram_distinct(ds, n: int = 3, include_exact: bool = True) -> pd.DataFrame:
    """Corpus-wide distinct word-n-gram cardinality: HLL estimate, with an
    optional exact count riding the same single pass.

    ONE scan of the corpus emits one tagged partial stream per batch:

      kind=0 rows — HLL register partials, ≤ m rows per batch (bucket,
        max-rho). Merging these needs only a max per bucket: the shuffled
        HLL traffic is O(m × batches) tiny rows regardless of corpus size
        — the whole point of the sketch.
      kind=1 rows — per-batch DISTINCT gram hashes for the exact count
        (8-byte ints, deduplicated in-batch before the exchange). This is
        the standard distributed distinct: shuffle by hash bucket,
        nunique per bucket, sum. It is the expensive half; pass
        include_exact=False to run the sketch alone at scale.

    Both halves merge through one groupby on a composite coarse bucket
    (kind-prefixed), avoiding a second shuffle. Returns a single row:
    (m, v_empty, sum_rho, estimate[, n_exact]).
    """

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        regs: dict[int, int] = {}
        seen_hashes: set[int] = set()
        for text in batch["text"]:
            for gram in _doc_ngrams(text, n):
                h = _md5_top64(gram)
                if include_exact:
                    seen_hashes.add(h)
                bucket, rho = _hll_bucket_rho(h)
                prev = regs.get(bucket)
                if prev is None or rho > prev:
                    regs[bucket] = rho
        keys: list[int] = []
        vals: list[int] = []
        for bucket, rho in regs.items():
            keys.append(_KIND_HLL * (1 << 32) + bucket)
            vals.append(rho)
        if include_exact:
            for h in seen_hashes:
                keys.append((1 << 32) + (h % _EXACT_BUCKETS))
                # int64-safe: signed value carrying the 64-bit hash
                vals.append(h - (1 << 63))
        return pd.DataFrame(
            {
                "key": pd.Series(keys, dtype="int64"),
                "val": pd.Series(vals, dtype="int64"),
            }
        )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        rows_k: list[int] = []
        rows_v: list[int] = []
        for key, g in group.groupby("key"):
            key = int(key)
            if key < (1 << 32):  # HLL register: max rho
                rows_k.append(key)
                rows_v.append(int(g["val"].max()))
            else:  # exact bucket: distinct hash count
                rows_k.append(key)
                rows_v.append(int(g["val"].nunique()))
        return pd.DataFrame(
            {
                "key": pd.Series(rows_k, dtype="int64"),
                "out": pd.Series(rows_v, dtype="int64"),
            }
        )

    cols = [("key", "int64"), ("out", "int64")]
    merged = to_frame(
        bucket_exchange(
            ds.map_batches(partial, batch_format="pandas"),
            merge,
            key="key",
            schema=cols,
        ),
        cols,
    )
    registers = np.zeros(HLL_M, dtype=np.int64)
    n_exact = 0
    for key, out in zip(merged["key"], merged["out"]):
        if key < (1 << 32):
            registers[int(key)] = out
        else:
            n_exact += int(out)
    row = hll_estimate_from_registers(registers)
    result = {
        "m": [row["m"]],
        "v_empty": [row["v_empty"]],
        "sum_rho": [row["sum_rho"]],
        "estimate": [row["estimate"]],
    }
    if include_exact:
        result["n_exact"] = [n_exact]
    out = pd.DataFrame(result)
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


# ---------------------------------------------------------------------------
# Count-min sketch (depth=4, width=1024)
# ---------------------------------------------------------------------------

CM_DEPTH = 4
CM_WIDTH = 1024


def _cm_cell(j: int, token: str) -> int:
    """Row-j cell of a token: md5(j:token) top-64 mod width — the exact
    expression the SQL oracle evaluates."""
    return j * CM_WIDTH + (_md5_top64(f"{j}:{token}") % CM_WIDTH)


def countmin_token_counts(ds, probes: list[str]) -> pd.DataFrame:
    """Count-min sketch over lowercased whitespace tokens, evaluated at a
    fixed probe list, with the exact counts alongside.

    One scan: each batch value_counts its tokens (vectorized), hashes only
    the DISTINCT tokens (bounded by vocabulary, not token count) into a
    depth×width partial sketch, and emits ≤ depth·width + n_probes tagged
    rows. A single small groupby-sum merges partials; the driver reads
    back exactly depth·width + n_probes rows. The sketch guarantees
    cm_estimate >= exact_count always (standard CM overestimate bound).

    Exact probe counts ride the same stream as negative cells — no second
    pass over the corpus.
    """
    probe_list = list(probes)
    probe_index = {t: i for i, t in enumerate(probe_list)}

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        tokens = (
            batch["text"]
            .fillna("")
            .str.lower()
            .str.split(RE2_WS_PATTERN, regex=True)
            .explode()
            .dropna()
        )
        tokens = tokens[tokens != ""]
        cells: dict[int, int] = {}
        if not tokens.empty:
            for token, cnt in tokens.value_counts().items():
                cnt = int(cnt)
                for j in range(CM_DEPTH):
                    cell = _cm_cell(j, token)
                    cells[cell] = cells.get(cell, 0) + cnt
                pi = probe_index.get(token)
                if pi is not None:
                    cells[-(pi + 1)] = cells.get(-(pi + 1), 0) + cnt
        return pd.DataFrame(
            {
                "cell": pd.Series(list(cells.keys()), dtype="int64"),
                "n": pd.Series(list(cells.values()), dtype="int64"),
            }
        )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby("cell", as_index=False).agg(n=("n", "sum"))
        out["cell"] = out["cell"].astype("int64")
        out["n"] = out["n"].astype("int64")
        return out

    cols = [("cell", "int64"), ("n", "int64")]
    merged = to_frame(
        bucket_exchange(
            ds.map_batches(partial, batch_format="pandas"),
            merge,
            key="cell",
            schema=cols,
        ),
        cols,
    )
    counts = dict(zip(merged["cell"].astype(int), merged["n"].astype(int)))
    rows = []
    for i, token in enumerate(probe_list):
        est = min(counts.get(_cm_cell(j, token), 0) for j in range(CM_DEPTH))
        rows.append(
            {
                "token": token,
                "cm_estimate": est,
                "exact_count": counts.get(-(i + 1), 0),
            }
        )
    out = pd.DataFrame(rows).sort_values("token").reset_index(drop=True)
    out["cm_estimate"] = out["cm_estimate"].astype("int64")
    out["exact_count"] = out["exact_count"].astype("int64")
    return out


# ---------------------------------------------------------------------------
# Exact distributed quantiles (two-pass histogram-refine selection)
# ---------------------------------------------------------------------------

QUANTILE_RANK_DOC = """rank convention: max(0, ceil(q*n) - 1), 0-based over
the ascending sort — equals DuckDB's quantile_disc (verified empirically);
the oracle spells the same formula out with a window function so both
sides share it by construction."""


def quantile_ranks(qs: list[float], n: int) -> list[int]:
    """0-based target ranks. q*n is evaluated in IEEE double on both sides
    (a single correctly-rounded multiply), so Python and SQL agree
    bit-for-bit even for decimals like 0.01 that are inexact in binary."""
    return [max(0, math.ceil(q * n) - 1) for q in qs]


def distributed_quantile_disc(
    ds,
    column: str,
    qs: list[float],
    n_buckets: int = 4096,
    max_collect: int = 200_000,
) -> pd.DataFrame:
    """Exact discrete quantiles of a numeric column, computed distributed.

    Pass 0: per-batch (min, max, count) partials — one tiny driver merge.
    Pass 1: fixed-width histogram over [min, max] — per-batch partial
      counts, merged by a small groupby; the driver walks the cumulative
      histogram to locate the bucket holding each target rank.
    Pass 2: a filtered scan collects ONLY the rows of the needed buckets
      (≈ n/n_buckets rows each) and selects the exact rank element. If a
      skewed bucket exceeds max_collect rows, the histogram recurses into
      that value range instead of collecting it (log_{n_buckets} depth).

    The driver never sees more than max_collect values per bucket; nothing
    sorts globally. Output: (quantile, rank, n, value) per requested q.
    """

    def minmax_partial(batch: pd.DataFrame) -> pd.DataFrame:
        col = batch[column].dropna()
        if col.empty:
            return pd.DataFrame(
                {
                    "lo": pd.Series(dtype="float64"),
                    "hi": pd.Series(dtype="float64"),
                    "cnt": pd.Series(dtype="int64"),
                }
            )
        return pd.DataFrame(
            {
                "lo": [float(col.min())],
                "hi": [float(col.max())],
                "cnt": [int(len(col))],
            }
        )

    mm = ds.map_batches(minmax_partial, batch_format="pandas").to_pandas()
    if mm.empty or "cnt" not in mm.columns or mm["cnt"].sum() == 0:
        return pd.DataFrame(
            {
                "quantile": pd.Series(dtype="float64"),
                "rank": pd.Series(dtype="int64"),
                "n": pd.Series(dtype="int64"),
                "value": pd.Series(dtype="float64"),
            }
        )
    lo_all, hi_all, n = float(mm["lo"].min()), float(mm["hi"].max()), int(mm["cnt"].sum())
    ranks = quantile_ranks(qs, n)

    # Bucket membership is defined ONCE as a function of the value —
    # clip(int((v - lo) / width), 0, n_buckets-1) — and the refine/collect
    # passes select rows by re-evaluating that same function, never by a
    # value-range comparison. Float edge cases (a value dividing into
    # bucket b but comparing < lo + b*width) therefore cannot put the
    # histogram and the collection out of agreement. A scope is a chain of
    # (lo, width, b) constraints accumulated through recursion levels.
    def bucket_of(values: np.ndarray, lo: float, width: float) -> np.ndarray:
        return np.clip(
            ((values - lo) / width).astype(np.int64), 0, n_buckets - 1
        )

    def in_scope(values: np.ndarray, scope: list[tuple[float, float, int]]) -> np.ndarray:
        mask = np.ones(len(values), dtype=bool)
        for s_lo, s_width, s_b in scope:
            mask &= bucket_of(values, s_lo, s_width) == s_b
        return mask

    # rank -> value, resolved scope by scope (recursing on skew).
    resolved: dict[int, float] = {}

    def resolve(
        scope: list[tuple[float, float, int]],
        lo: float,
        hi: float,
        targets: list[int],
        rank_offset: int,
    ) -> None:
        """Resolve global ranks `targets`, all known to live inside
        `scope`, with rank_offset dataset values ranked before the scope.
        [lo, hi] is the nominal value range of the scope (used only to
        derive the next level's bucket width)."""
        width = (hi - lo) / n_buckets if hi > lo else 1.0
        level = (lo, width)

        def hist_partial(batch: pd.DataFrame) -> pd.DataFrame:
            col = batch[column].dropna().to_numpy(dtype=np.float64)
            col = col[in_scope(col, scope)]
            if len(col) == 0:
                return pd.DataFrame(
                    {"b": pd.Series(dtype="int64"), "cnt": pd.Series(dtype="int64")}
                )
            b = bucket_of(col, level[0], level[1])
            ub, uc = np.unique(b, return_counts=True)
            return pd.DataFrame({"b": ub.astype("int64"), "cnt": uc.astype("int64")})

        def hist_merge(batch: pd.DataFrame) -> pd.DataFrame:
            out = batch.groupby("b", as_index=False).agg(cnt=("cnt", "sum"))
            out["b"] = out["b"].astype("int64")
            out["cnt"] = out["cnt"].astype("int64")
            return out

        # Tree-reduce instead of a groupby: per-batch partials (≤ n_buckets
        # rows each) are re-merged by a large-batch map stage — no AllToAll
        # (a histogram merge is associative; the ~2 s fixed shuffle cost
        # dominated this query at sandbox scale) — then summed once on the
        # driver over the collapsed remainder.
        hist = (
            ds.map_batches(hist_partial, batch_format="pandas")
            .map_batches(hist_merge, batch_format="pandas", batch_size=65536)
            .to_pandas()
        )
        counts: dict[int, int] = {}
        if "b" in hist.columns and not hist.empty:
            final = hist.groupby("b")["cnt"].sum()
            counts = {int(b): int(c) for b, c in final.items()}

        # Walk buckets in order, assigning targets to their bucket.
        cum = rank_offset
        by_bucket: dict[int, list[int]] = {}
        it = iter(sorted(targets))
        target = next(it, None)
        for b in range(n_buckets):
            c = counts.get(b, 0)
            while target is not None and cum <= target < cum + c:
                by_bucket.setdefault(b, []).append(target)
                target = next(it, None)
            cum += c
        collect_buckets: dict[int, tuple[int, list[int]]] = {}
        for b, b_targets in by_bucket.items():
            below = rank_offset + sum(counts.get(i, 0) for i in range(b))
            c = counts.get(b, 0)
            # Depth cap: a bucket of > max_collect IDENTICAL values cannot
            # be refined further (every sublevel re-buckets them together);
            # after 4 levels (n_buckets^4 ≈ 2.8e14 effective resolution)
            # collect regardless — ties make any element at the rank exact.
            if c > max_collect and width > 0 and hi > lo and len(scope) < 4:
                resolve(
                    scope + [(level[0], level[1], b)],
                    lo + b * width,
                    lo + (b + 1) * width,
                    b_targets,
                    below,
                )
                continue
            collect_buckets[b] = (below, b_targets)
        if not collect_buckets:
            return

        # ONE collection pass for every non-recursing candidate bucket of
        # this level (tagged by bucket) — scans are the dominant fixed
        # cost, so 5 quantiles landing in 5 buckets still cost one pass.
        wanted = np.asarray(sorted(collect_buckets), dtype=np.int64)

        def collect_partial(batch: pd.DataFrame) -> pd.DataFrame:
            col = batch[column].dropna().to_numpy(dtype=np.float64)
            col = col[in_scope(col, scope)]
            b = bucket_of(col, level[0], level[1])
            mask = np.isin(b, wanted)
            return pd.DataFrame(
                {
                    "b": pd.Series(b[mask], dtype="int64"),
                    "v": pd.Series(col[mask], dtype="float64"),
                }
            )

        vals = ds.map_batches(collect_partial, batch_format="pandas").to_pandas()
        for b, (below, b_targets) in collect_buckets.items():
            if "b" in vals.columns:
                arr = np.sort(vals.loc[vals["b"] == b, "v"].to_numpy())
            else:
                arr = np.array([])
            for t in b_targets:
                resolved[t] = float(arr[t - below])

    resolve([], lo_all, hi_all, list(set(ranks)), 0)
    out = pd.DataFrame(
        {
            "quantile": np.asarray(qs, dtype=np.float64),
            "rank": np.asarray(ranks, dtype=np.int64),
            "n": np.full(len(qs), n, dtype=np.int64),
            "value": np.asarray([resolved[r] for r in ranks], dtype=np.float64),
        }
    )
    return out.sort_values("quantile").reset_index(drop=True)


# ---------------------------------------------------------------------------
# Bloom filter (broadcast-bitset membership — the decontamination scale path)
# ---------------------------------------------------------------------------

BLOOM_K = 3
BLOOM_M = 65536  # bits


def bloom_positions(gram: str) -> list[int]:
    """The k bit positions of a gram: md5(j:gram) top-64 mod M — the same
    keyed-md5 idiom as the count-min rows, so the SQL oracle recomputes
    membership exactly."""
    return [_md5_top64(f"{j}:{gram}") % BLOOM_M for j in range(BLOOM_K)]


def build_bloom(grams: set[str]) -> np.ndarray:
    """Dense uint8 bitset (M/8 bytes — 8 KiB at M=65536; a production
    filter sizes M to the benchmark suite, still KBs-to-MBs vs the GBs an
    exact gram set costs at eval-suite scale)."""
    bits = np.zeros(BLOOM_M // 8, dtype=np.uint8)
    for gram in grams:
        for pos in bloom_positions(gram):
            bits[pos >> 3] |= 1 << (pos & 7)
    return bits


def _bloom_contains(bits: np.ndarray, gram: str) -> bool:
    return all(bits[p >> 3] & (1 << (p & 7)) for p in bloom_positions(gram))


def bloom_decontaminate(ds, bloom_ref, n: int = 3):
    """Benchmark decontamination against a broadcast Bloom bitset instead
    of an exact gram set: flags docs whose distinct word n-grams include
    any maybe-member (n_maybe = count of bloom-positive distinct grams).

    Deliberately a SUPERSET of exact decontamination (false positives at
    the documented k/M rate, never false negatives) — the right trade when
    the eval suite's gram set no longer fits in every worker's heap: the
    bitset is M/8 bytes flat, `ray.put` once, read by each batch from
    local plasma. Same single shuffle-free corpus pass as `text.decontaminate`.
    """
    import ray

    def flag(batch: pd.DataFrame, _ref=bloom_ref) -> pd.DataFrame:
        bits: np.ndarray = ray.get(_ref)
        rows_id: list[int] = []
        rows_n: list[int] = []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            maybe = sum(
                1 for gram in _doc_ngrams(text, n) if _bloom_contains(bits, gram)
            )
            if maybe:
                rows_id.append(int(doc_id))
                rows_n.append(maybe)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(rows_id, dtype="int64"),
                "n_maybe": pd.Series(rows_n, dtype="int64"),
            }
        )

    return ds.map_batches(flag, batch_format="pandas")


def hll_group_distinct(ds, group_col: str, value_col: str) -> pd.DataFrame:
    """Per-group distinct-count estimation with HLL registers as the
    mergeable combiner: each batch emits (group, bucket, max-rho) partials
    — ≤ m tiny rows per group per batch regardless of how many values the
    batch held — and the group shuffle moves ONLY those registers, never
    the values. The estimator finalizes inside each group's bucket-exchange
    task (no driver reduce at all). This is the pre-aggregate-before-
    shuffle rule applied to a sketch: the exact-distinct alternative
    ships every distinct value through the exchange.

    Values are hashed as str(int(v)) — the CAST(v AS VARCHAR) idiom the
    SQL oracle mirrors for integer columns.
    """

    reg_cols = [(group_col, "object"), ("bucket", "int64"), ("rho", "int64")]
    cols = [(group_col, "object"), ("v_empty", "int64"), ("estimate", "int64")]

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        # Dedup (group, value) pairs BEFORE hashing: md5 (oracle-parity
        # hash) is inherently per-item, so the loop must be bounded by
        # distinct pairs per batch, not rows.
        pairs = batch[[group_col, value_col]].drop_duplicates()
        regs: dict[tuple, int] = {}
        for g, v in zip(pairs[group_col], pairs[value_col]):
            h = _md5_top64(str(int(v)))
            bucket, rho = _hll_bucket_rho(h)
            key = (g, bucket)
            prev = regs.get(key)
            if prev is None or rho > prev:
                regs[key] = rho
        if not regs:
            return empty_block(reg_cols)
        groups, buckets = zip(*regs.keys())
        return pd.DataFrame(
            {
                group_col: pd.Series(groups, dtype="object"),
                "bucket": pd.Series(buckets, dtype="int64"),
                "rho": pd.Series(list(regs.values()), dtype="int64"),
            }
        )

    def finalize_one(group: pd.DataFrame) -> dict:
        registers = np.zeros(HLL_M, dtype=np.int64)
        maxes = group.groupby("bucket")["rho"].max()
        registers[maxes.index.to_numpy(dtype=np.int64)] = maxes.to_numpy(
            dtype=np.int64
        )
        row = hll_estimate_from_registers(registers)
        return {
            group_col: group[group_col].iloc[0],
            "v_empty": row["v_empty"],
            "estimate": row["estimate"],
        }

    def finalize(group: pd.DataFrame) -> pd.DataFrame:
        rows = [
            finalize_one(g)
            for _, g in group.groupby(group_col, dropna=False, sort=False)
        ]
        return pd.DataFrame(rows).astype({"v_empty": "int64", "estimate": "int64"})

    out = to_frame(
        bucket_exchange(
            ds.map_batches(partial, batch_format="pandas"),
            finalize,
            key=group_col,
            schema=cols,
        ),
        cols,
    )
    return out.sort_values(group_col).reset_index(drop=True)
