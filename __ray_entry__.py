"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here (or in exstruct_ray) calls ray.init()/ray.shutdown().

- ``entry()``  — flagship extraction pipeline over a deterministic synthetic
  interleaved-document corpus (the BASELINE.json input_hint table shape),
  returning the extracted span table.
- ``queries()`` — one callable per implemented operator family (SURVEY.md §2
  + training-data ops). Extraction queries synthesize their input corpus
  deterministically (seed=42) scaled by the sf directory; relational /
  text / ANN queries run over the provided parquet tables.
- ``oracle_sql()`` — DuckDB-equivalent SQL for every SQL-expressible query,
  with matching output column names. Extraction and sketch-based ops are
  genuinely non-SQL-expressible → rows-only checks.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

_EXTRACT_DOCS_BY_SF = {"0.001": 60, "0.01": 240, "0.1": 960}


def _sf_of(sf_dir: str) -> str:
    import re

    m = re.search(r"sf([0-9.]+)", sf_dir)
    return m.group(1).rstrip(".") if m else "0.001"


def _corpus_dataset(sf_dir: str, include_giant: bool = False):
    import ray.data

    from exstruct_ray.datagen.corpus import generate_corpus_table

    n_docs = _EXTRACT_DOCS_BY_SF.get(_sf_of(sf_dir), 60)
    return ray.data.from_arrow(
        generate_corpus_table(n_docs, seed=42, include_giant=include_giant)
    )


def _flatten_spans(ds):
    """Flatten (doc_id, spans) rows into one row per span (stable schema).

    Zero-copy Arrow: the list<struct> children are reused directly and the
    doc_id column is repeated per span via list_parent_indices + take — no
    per-row Python dicts (that per-span loop measured ~8× slower)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    out_schema = pa.schema(
        [
            ("doc_id", pa.string()),
            ("offset", pa.int32()),
            ("kind", pa.string()),
            ("media_ref", pa.string()),
            ("text", pa.string()),
        ]
    )

    def flatten(batch: pa.Table) -> pa.Table:
        spans_col = batch.column("spans")
        if batch.num_rows == 0 or spans_col.num_chunks == 0:
            return out_schema.empty_table()
        list_arr = spans_col.combine_chunks()
        # flatten() (not .values) so a sliced block stays aligned with
        # list_parent_indices — both respect the list offset window.
        values = list_arr.flatten()
        parents = pc.list_parent_indices(list_arr)
        doc_ids = pc.take(
            batch.column("doc_id").combine_chunks().cast(pa.string()), parents
        )
        return pa.Table.from_arrays(
            [
                doc_ids,
                values.field("offset").cast(pa.int32()),
                values.field("kind"),
                values.field("media_ref"),
                values.field("text"),
            ],
            schema=out_schema,
        )

    return ds.map_batches(flatten, batch_format="pyarrow")


def entry() -> Any:
    """Flagship extraction pipeline at sf0.001 scale (driver smoke check)."""
    from exstruct_ray.stages.pipeline import build_extraction_pipeline

    ds = _corpus_dataset("/root/testdata/sf0.001")
    out = build_extraction_pipeline(ds, batch_size=16)
    return _flatten_spans(out)


def _extract_query(mode: str = "light", **opts):
    def run(sf_dir: str):
        from exstruct_ray.config import ExtractOptions
        from exstruct_ray.stages.pipeline import build_extraction_pipeline

        ds = _corpus_dataset(sf_dir)
        out = build_extraction_pipeline(
            ds, ExtractOptions(mode=mode, **opts), batch_size=16
        )
        return _flatten_spans(out).to_pandas().sort_values(["doc_id", "offset"]).reset_index(drop=True)

    return run


def _extract_exploded(sf_dir: str):
    from exstruct_ray.stages.pipeline import build_extraction_pipeline

    ds = _corpus_dataset(sf_dir)
    out = build_extraction_pipeline(ds, explode_threshold=20_000, batch_size=16)
    return (
        _flatten_spans(out)
        .to_pandas()
        .sort_values(["doc_id", "offset"])
        .reset_index(drop=True)
    )


def _edit_patch_extract(sf_dir: str):
    """Corpus-scale edit pipeline: patch every document, then extract.

    Exercises patch_corpus end-to-end over every document: add_sheet +
    set_value apply everywhere, one conditional applies (expected None on
    an empty cell), one conditional skips (expected mismatch) — both
    statuses pinned by the golden span table. Note the edit model, like
    openpyxl re-saves, does not carry drawings/charts through a patch.
    """
    from exstruct_ray.edit import patch_corpus
    from exstruct_ray.stages.pipeline import build_extraction_pipeline

    ds = _corpus_dataset(sf_dir)
    ops = [
        {"op": "add_sheet", "sheet": "PatchLog"},
        {
            "op": "set_value",
            "sheet": "PatchLog",
            "cell": "A1",
            "value": "patched-by-corpus-op",
        },
        # applies: B1 is empty, expected None matches
        {
            "op": "set_value_if",
            "sheet": "PatchLog",
            "cell": "B1",
            "expected": None,
            "value": "filled-if-empty",
        },
        # skips: A1 now holds the patched marker, not "nope"
        {
            "op": "set_value_if",
            "sheet": "PatchLog",
            "cell": "A1",
            "expected": "nope",
            "value": "never-written",
        },
    ]
    patched = patch_corpus(ds, ops, batch_size=16)
    out = build_extraction_pipeline(
        patched.select_columns(["doc_id", "spans"]), batch_size=16
    )
    return (
        _flatten_spans(out)
        .to_pandas()
        .sort_values(["doc_id", "offset"])
        .reset_index(drop=True)
    )


def queries() -> dict[str, Callable[[str], Any]]:
    from exstruct_ray import queries as q

    return {
        # Extraction pipeline (non-SQL-expressible → rows-only checks)
        "extract_light": _extract_query("light"),
        "extract_verbose": _extract_query("verbose"),
        "extract_alpha_col": _extract_query("light", alpha_col=True),
        "extract_no_merged_values": _extract_query(
            "light", include_merged_values_in_rows=False
        ),
        "extract_exploded": _extract_exploded,
        "edit_patch_extract": _edit_patch_extract,
        "textdoc_extract": q.textdoc_extract,
        "textdoc_media_balance": q.textdoc_media_balance,
        "extract_doc_profile": _extract_doc_profile,
        "extract_span_dedup": _extract_span_dedup,
        "extract_formula_audit": _extract_formula_audit,
        # Relational operators with exact DuckDB oracles
        "q1_pricing_summary": q.q1_pricing_summary,
        "q2_min_cost_supplier": q.q2_min_cost_supplier,
        "q3_shipping_priority": q.q3_shipping_priority,
        "q4_order_priority": q.q4_order_priority,
        "q5_local_supplier_volume": q.q5_local_supplier_volume,
        "q6_revenue": q.q6_revenue,
        "q7_volume_shipping": q.q7_volume_shipping,
        "q8_market_share": q.q8_market_share,
        "q9_product_type_profit": q.q9_product_type_profit,
        "q10_returned_items": q.q10_returned_items,
        "q11_important_stock": q.q11_important_stock,
        "q12_linestatus_priority": q.q12_linestatus_priority,
        "q13_customer_distribution": q.q13_customer_distribution,
        "q14_promo_revenue": q.q14_promo_revenue,
        "q15_top_supplier": q.q15_top_supplier,
        "q16_parts_supplier": q.q16_parts_supplier,
        "q17_small_quantity_revenue": q.q17_small_quantity_revenue,
        "q18_large_volume_customers": q.q18_large_volume_customers,
        "q19_discounted_revenue": q.q19_discounted_revenue,
        "q20_potential_promotion": q.q20_potential_promotion,
        "q21_waiting_suppliers": q.q21_waiting_suppliers,
        "q22_global_sales_opportunity": q.q22_global_sales_opportunity,
        "revenue_by_nation": q.revenue_by_nation,
        "top_orders": q.top_orders,
        "events_hourly": q.events_hourly,
        "distinct_users": q.distinct_users,
        "events_asof_orders": q.events_asof_orders,
        "events_in_order_window": q.events_in_order_window,
        "events_rolling_window": q.events_rolling_window,
        "events_value_histogram": q.events_value_histogram,
        "events_hourly_rollup": q.events_hourly_rollup,
        "events_hourly_anomaly": q.events_hourly_anomaly,
        "events_hourly_cube": q.events_hourly_cube,
        "events_top_users_per_type": q.events_top_users_per_type,
        "doc_quality_deciles": q.doc_quality_deciles,
        "doc_budget_select": q.doc_budget_select,
        "events_funnel": q.events_funnel,
        "events_cohort_retention": q.events_cohort_retention,
        "doc_sample_10pct": q.doc_sample_10pct,
        "doc_epoch_shuffle": q.doc_epoch_shuffle,
        "part_type_stats": q.part_type_stats,
        # Training-data ops
        "doc_normalize_text": q.doc_normalize_text,
        "doc_c4_filters": q.doc_c4_filters,
        "doc_dedup_lines_within": q.doc_dedup_lines_within,
        "doc_mixture_sample": q.doc_mixture_sample,
        "doc_token_stats": q.doc_token_stats,
        "doc_vocabulary": q.doc_vocabulary,
        "doc_phrase_index": q.doc_phrase_index,
        "lineitem_pushdown": q.lineitem_pushdown,
        "lineitem_bucket_skew": q.lineitem_bucket_skew,
        "doc_fingerprints": q.doc_fingerprints,
        "doc_winnow_fingerprints": q.doc_winnow_fingerprints,
        "doc_winnow_pairs": q.doc_winnow_pairs,
        "doc_exact_dedup": q.doc_exact_dedup,
        "doc_lang_counts": q.doc_lang_counts,
        "doc_lang_detect": q.doc_lang_detect,
        "doc_lang_mismatch_by_source": q.doc_lang_mismatch_by_source,
        "doc_minhash_pairs": q.doc_minhash_pairs,
        "doc_dedup_groups": q.doc_dedup_groups,
        "doc_dedup_groups_distributed": q.doc_dedup_groups_distributed,
        "doc_dedup_group_sizes": q.doc_dedup_group_sizes,
        "doc_leakage_safe_split": q.doc_leakage_safe_split,
        "doc_simhash": q.doc_simhash,
        "doc_simhash_pairs": q.doc_simhash_pairs,
        "doc_ngram_verified_pairs": q.doc_ngram_verified_pairs,
        "embedding_topk": q.embedding_topk,
        "embedding_topk_ivf": q.embedding_topk_ivf,
        "embedding_ivf_stats": q.embedding_ivf_stats,
        "embedding_ann_recall": q.embedding_ann_recall,
        "embedding_label_centroids": q.embedding_label_centroids,
        "embedding_kmeans": q.embedding_kmeans,
        "embedding_cluster_purity": q.embedding_cluster_purity,
        "embedding_kmeans_inertia": q.embedding_kmeans_inertia,
        "embedding_neardup_pairs": q.embedding_neardup_pairs,
        "embedding_knn_graph": q.embedding_knn_graph,
        "embedding_knn_graph_ivf": q.embedding_knn_graph_ivf,
        "embedding_neardup_lsh": q.embedding_neardup_lsh,
        "embedding_semdedup": q.embedding_semdedup,
        "embedding_cluster_sample": q.embedding_cluster_sample,
        "embedding_pq_codes": q.embedding_pq_codes,
        "embedding_pq_topk": q.embedding_pq_topk,
        # Joins / windows / sessions
        "lineitem_join_orders": q.lineitem_join_orders,
        "order_priority_counts": q.order_priority_counts,
        "customers_inactive_2001": q.customers_inactive_2001,
        "supplier_balance_by_region": q.supplier_balance_by_region,
        "orders_running_total": q.orders_running_total,
        "orders_priority_year_pivot": q.orders_priority_year_pivot,
        "events_sessionize": q.events_sessionize,
        "doc_quality_filter": q.doc_quality_filter,
        "doc_gopher_quality": q.doc_gopher_quality,
        "doc_duplicated_spans": q.doc_duplicated_spans,
        "doc_exactsubstr_cut": q.doc_exactsubstr_cut,
        "doc_boilerplate_by_source": q.doc_boilerplate_by_source,
        "doc_cut_packs": q.doc_cut_packs,
        "source_syndication_pairs": q.source_syndication_pairs,
        "doc_bpe_train": q.doc_bpe_train,
        "doc_bpe_subword_vocab": q.doc_bpe_subword_vocab,
        "doc_bpe_encoded_len": q.doc_bpe_encoded_len,
        "doc_lm_rarity": q.doc_lm_rarity,
        "doc_neardup_survivors": q.doc_neardup_survivors,
        "doc_neardup_best_keep": q.doc_neardup_best_keep,
        "doc_pagerank": q.doc_pagerank,
        "doc_clean_corpus": q.doc_clean_corpus,
        "doc_chunks": q.doc_chunks,
        "doc_bm25_topk": q.doc_bm25_topk,
        "pii_redact": q.pii_redact,
        "doc_decontaminate": q.doc_decontaminate,
        "doc_streaming_dedup": q.doc_streaming_dedup,
        "doc_snapshot_ingest": q.doc_snapshot_ingest,
        "doc_curation_packs": q.doc_curation_packs,
        # Web-extraction pipelines (north-rule: HTML boilerplate strip,
        # DOM heuristics, PDF/layout parse)
        "doc_html_main_content": q.doc_html_main_content,
        "doc_pdf_layout_text": q.doc_pdf_layout_text,
        "doc_source_quota": q.doc_source_quota,
        "doc_bpe_token_counts": q.doc_bpe_token_counts,
        "doc_tokenize_ids": q.doc_tokenize_ids,
        "textdoc_html_density": q.textdoc_html_density,
        "doc_bigram_rarity": q.doc_bigram_rarity,
        "doc_pmi_collocations": q.doc_pmi_collocations,
        "corpus_profile": q.corpus_profile,
        "source_trigram_diversity": q.source_trigram_diversity,
        # Multimodal: perceptual-hash image dedup
        "image_ahash": q.image_ahash,
        "image_neardup_pairs": q.image_neardup_pairs,
        "audio_fingerprint": q.audio_fingerprint,
        "video_fingerprint": q.video_fingerprint,
        "video_neardup_pairs": q.video_neardup_pairs,
        "source_typo_pairs": q.source_typo_pairs,
        "doc_length_quantiles_by_lang": q.doc_length_quantiles_by_lang,
        "doc_line_dedup": q.doc_line_dedup,
        "doc_bpe_pair_counts": q.doc_bpe_pair_counts,
        "doc_dsir_scores": q.doc_dsir_scores,
        # Sketch / selection aggregates
        "lineitem_price_quantiles": q.lineitem_price_quantiles,
        "doc_shingle_hll": q.doc_shingle_hll,
        "doc_countmin_tokens": q.doc_countmin_tokens,
        "doc_tfidf_top_terms": q.doc_tfidf_top_terms,
        "doc_bloom_decontaminate": q.doc_bloom_decontaminate,
        "doc_stratified_sample": q.doc_stratified_sample,
        "doc_pack_sequences": q.doc_pack_sequences,
        "embedding_quantize_int8": q.embedding_quantize_int8,
        "events_user_hll_by_type": q.events_user_hll_by_type,
    }


def oracle_sql() -> dict[str, str]:
    from exstruct_ray.queries import ORACLE_SQL

    return dict(ORACLE_SQL)


def _extract_doc_profile(sf_dir: str):
    """End-to-end composition: the flagship extraction pipeline FEEDING a
    corpus-level aggregate — per-document span-kind profile + a
    table-or-rows usability verdict (the shape a 100-TB curation run uses
    to route extracted workbooks). Aggregation happens on the unflattened
    (doc_id, spans) rows via list_parent_indices, so a document can never
    straddle a batch boundary; the oracle recomputes every column from
    the pinned golden span parquet in SQL."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from exstruct_ray.stages.pipeline import build_extraction_pipeline

    ds = _corpus_dataset(sf_dir)
    out = build_extraction_pipeline(ds, batch_size=16)

    def profile(batch: pa.Table) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "doc_id": pd.Series(dtype="object"),
                "n_spans": pd.Series(dtype="int64"),
                "n_cell_rows": pd.Series(dtype="int64"),
                "n_tables": pd.Series(dtype="int64"),
                "n_shapes": pd.Series(dtype="int64"),
                "cell_chars": pd.Series(dtype="int64"),
                "doc_ok": pd.Series(dtype="int64"),
            }
        )
        if batch.num_rows == 0:
            return empty
        list_arr = batch.column("spans").combine_chunks()
        values = list_arr.flatten()
        parents = pc.list_parent_indices(list_arr).to_numpy()
        kind = np.asarray(values.field("kind").to_pylist(), dtype=object)
        text_len = pc.utf8_length(
            pc.fill_null(values.field("text"), "")
        ).to_numpy()
        doc_ids = batch.column("doc_id").to_pylist()
        n = len(doc_ids)
        n_spans = np.bincount(parents, minlength=n).astype(np.int64)
        is_cell = kind == "cell_row"
        is_table = kind == "table"
        is_shape = np.isin(kind, ("shape", "arrow", "chart"))
        n_cell = np.bincount(parents, weights=is_cell, minlength=n).astype(
            np.int64
        )
        n_table = np.bincount(parents, weights=is_table, minlength=n).astype(
            np.int64
        )
        n_shape = np.bincount(parents, weights=is_shape, minlength=n).astype(
            np.int64
        )
        cell_chars = np.bincount(
            parents, weights=np.where(is_cell, text_len, 0), minlength=n
        ).astype(np.int64)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(doc_ids, dtype="object"),
                "n_spans": n_spans,
                "n_cell_rows": n_cell,
                "n_tables": n_table,
                "n_shapes": n_shape,
                "cell_chars": cell_chars,
                "doc_ok": ((n_table >= 1) | (n_cell >= 5)).astype(np.int64),
            }
        )

    res = out.map_batches(profile, batch_format="pyarrow").to_pandas()
    return res.sort_values("doc_id").reset_index(drop=True)


def _extract_formula_audit(sf_dir: str):
    """Extraction→analysis composition: the VERBOSE pipeline feeding a
    corpus-level formula audit — per document, how many distinct
    formulas its sheets declare, how many cells they cover, and how many
    are SUM-family (the shape a migration/consistency pass uses to find
    computation-heavy workbooks).

    formulas_map span payloads are canonical JSON (formula → [row, col]
    locations, the golden-gated byte-stable serialization); the audit
    parses them batch-locally after an Arrow-side kind filter (flatten +
    list_parent_indices on the unflattened rows, so a document never
    straddles a batch). The oracle recomputes every column from the
    pinned golden verbose parquet via DuckDB's JSON→MAP cast."""
    import json

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from exstruct_ray.config import ExtractOptions
    from exstruct_ray.stages.pipeline import build_extraction_pipeline

    ds = _corpus_dataset(sf_dir)
    out = build_extraction_pipeline(
        ds, ExtractOptions(mode="verbose"), batch_size=16
    )

    empty = pd.DataFrame(
        {
            "doc_id": pd.Series(dtype="object"),
            "n_formulas": pd.Series(dtype="int64"),
            "n_formula_cells": pd.Series(dtype="int64"),
            "n_sum_like": pd.Series(dtype="int64"),
        }
    )

    def audit(batch: pa.Table) -> pd.DataFrame:
        if batch.num_rows == 0:
            return empty
        list_arr = batch.column("spans").combine_chunks()
        values = list_arr.flatten()
        parents = pc.list_parent_indices(list_arr).to_numpy()
        mask = pc.equal(values.field("kind"), "formulas_map").to_numpy(
            zero_copy_only=False
        )
        idx = np.nonzero(mask)[0]
        if not len(idx):
            return empty
        texts = values.field("text").take(pa.array(idx)).to_pylist()
        doc_ids = batch.column("doc_id").to_pylist()
        rows = []
        for pid, payload in zip(parents[idx], texts):
            fmap = json.loads(payload or "{}")
            rows.append(
                {
                    "doc_id": doc_ids[pid],
                    "n_formulas": len(fmap),
                    "n_formula_cells": sum(len(v) for v in fmap.values()),
                    "n_sum_like": sum(1 for k in fmap if "SUM(" in k),
                }
            )
        return pd.DataFrame(rows)

    out_df = out.map_batches(audit, batch_format="pyarrow").to_pandas()
    if "doc_id" not in out_df.columns or not len(out_df):
        return empty
    # one formulas_map span per sheet — fold sheets into the document
    agg = out_df.groupby("doc_id", as_index=False).sum()
    agg = agg.astype(
        {
            "n_formulas": "int64",
            "n_formula_cells": "int64",
            "n_sum_like": "int64",
        }
    )
    return agg.sort_values("doc_id").reset_index(drop=True)


def _extract_span_dedup(sf_dir: str):
    """Extraction→dedup composition: the flagship pipeline FEEDING
    cross-workbook boilerplate detection — cell_row span texts that
    recur in >= 2 distinct documents (shared header rows, copied
    sheets), the extraction-side analogue of corpus exact-dedup.

    Scale shape: spans flatten batch-locally (list_parent_indices on
    the unflattened rows); only 16-byte md5 keys + doc ids ride the
    one hash-bucket exchange; exact nunique/count/min inside each
    bucket. The oracle recomputes from the pinned golden span parquet."""
    import hashlib as _hashlib

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from exstruct_ray.ops.shuffle import bucket_exchange, empty_block, to_frame
    from exstruct_ray.stages.pipeline import build_extraction_pipeline

    ds = _corpus_dataset(sf_dir)
    out = build_extraction_pipeline(ds, batch_size=16)

    mid_cols = [("text_md5", "object"), ("doc_id", "object")]

    def cell_keys(batch: pa.Table) -> pd.DataFrame:
        list_arr = batch.column("spans").combine_chunks()
        values = list_arr.flatten()
        parents = pc.list_parent_indices(list_arr).to_numpy()
        mask = pc.equal(values.field("kind"), "cell_row").to_numpy(
            zero_copy_only=False
        )
        if not mask.any():
            return empty_block(mid_cols)
        texts = pc.fill_null(values.field("text"), "").to_pylist()
        doc_ids = np.asarray(batch.column("doc_id").to_pylist(), dtype=object)[
            parents
        ]
        hashes = [
            _hashlib.md5(texts[i].encode("utf-8")).hexdigest()
            for i in np.flatnonzero(mask)
        ]
        return pd.DataFrame(
            {
                "text_md5": pd.Series(hashes, dtype="object"),
                "doc_id": pd.Series(doc_ids[mask], dtype="object"),
            }
        )

    final_cols = [
        ("text_md5", "object"),
        ("n_docs", "int64"),
        ("n_rows", "int64"),
        ("canonical_doc", "object"),
    ]

    def dups_in_bucket(group: pd.DataFrame) -> pd.DataFrame:
        agg = group.groupby("text_md5").agg(
            n_docs=("doc_id", "nunique"),
            n_rows=("doc_id", "size"),
            canonical_doc=("doc_id", "min"),
        )
        agg = agg[agg["n_docs"] >= 2].reset_index()
        for c in ("n_docs", "n_rows"):
            agg[c] = agg[c].astype("int64")
        agg["canonical_doc"] = agg["canonical_doc"].astype("object")
        return agg[[c for c, _ in final_cols]]

    res = to_frame(
        bucket_exchange(
            out.map_batches(cell_keys, batch_format="pyarrow"),
            dups_in_bucket,
            key="text_md5",
            schema=final_cols,
        ),
        final_cols,
    )
    return res.sort_values("text_md5").reset_index(drop=True)
