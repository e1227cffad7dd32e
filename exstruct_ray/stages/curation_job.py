"""Resumable corpus-curation job: the curation tier as a partitioned,
checkpoint-resumable pipeline run.

Per input-file partition: Gopher quality filter + benchmark
decontamination (broadcast gram set) + PII redaction ride ONE vectorized
map_batches pass, then the sharded streaming dedup index applies
corpus-GLOBAL exact dedup (the only cross-partition state — an explicit
actor tier, not a shuffle), and survivors stream to partitioned parquet
via distributed writers. A manifest (JSONL, one record per finished
partition plus a header pinning the job id) makes re-runs skip finished
partitions and lets a crashed partition recompute without data loss: the
dedup index's admission claimants are scoped by the PERSISTED job id, so
a recomputed partition re-presents the same (hash, claimant) pairs and
re-receives True — the same retry-idempotence contract Ray task retries
rely on, extended across driver restarts.

Scale notes: partitions are independent (ray job submit can restart the
driver anywhere); the index shards hash-partition the content-hash space
and checkpoint to parquet after every partition; nothing corpus-sized
ever sits on the driver (the benchmark gram set is eval-suite-sized by
definition).
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .manifest import list_input_files


def _curation_manifest_path(output_dir: str) -> str:
    return os.path.join(output_dir, "curation_manifest.jsonl")


def _load_curation_manifest(
    output_dir: str,
) -> tuple[dict | None, dict[int, dict]]:
    """Returns (header, {partition_id: record})."""
    path = _curation_manifest_path(output_dir)
    header = None
    records: dict[int, dict] = {}
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                if "job_id" in obj:
                    header = obj
                else:
                    records[obj["partition_id"]] = obj
    return header, records


def _append_line(output_dir: str, obj: dict) -> None:
    with open(_curation_manifest_path(output_dir), "a") as f:
        f.write(json.dumps(obj, sort_keys=True) + "\n")


def _eval_set_fingerprint(path: str) -> str:
    """Order-independent content fingerprint of an eval-set text column.

    Per-batch md5-prefix sums fold to one uint64 on the driver, so the
    fingerprint is stable across file layout, block boundaries and row
    order — it changes iff the suite's CONTENT changes. Rides the config
    fingerprint: decontamination decisions depend on the suite, so
    resuming an output dir under a different suite must refuse.
    """
    import ray.data

    def h(b: pa.Table) -> pa.Table:
        acc = 0
        for t in b.column("text").to_pylist():
            d = hashlib.md5((t or "").encode()).digest()
            acc = (acc + int.from_bytes(d[:8], "big")) & ((1 << 64) - 1)
        return pa.table(
            {
                "acc": pa.array([acc], pa.uint64()),
                "n": pa.array([b.num_rows], pa.int64()),
            }
        )

    parts = (
        ray.data.read_parquet(path, columns=["text"])
        .map_batches(h, batch_format="pyarrow")
        .to_pandas()
    )
    acc = int(parts["acc"].sum()) & ((1 << 64) - 1) if len(parts) else 0
    n = int(parts["n"].sum()) if len(parts) else 0
    return hashlib.md5(f"{acc}|{n}".encode()).hexdigest()[:12]


def run_curation_job(
    input_path: str,
    output_dir: str,
    *,
    files_per_partition: int = 8,
    batch_size: int = 256,
    n_shards: int = 8,
    bench_mod: int = 97,
    min_words: int = 1,
    eval_set: str | None = None,
) -> dict:
    """Run (or resume) a partitioned curation job over a document corpus.

    ``min_words`` is the quality floor on whitespace word count: the
    Gopher repetition signals alone keep content-free documents (every
    duplicate fraction is 0/0), so without a floor an empty or
    whitespace-only doc sails through "quality" — the unicode-tail smoke
    caught exactly that. Default 1 drops only zero-word docs; set 50 for
    the Gopher-paper word-count bound.

    ``eval_set`` is the production decontamination shape: a parquet
    path/dir whose ``text`` column is the held-out benchmark suite. The
    gram set builds from it in a distributed pass and NO corpus slice is
    treated as benchmark (``bench_mod`` is ignored — no corpus doc is
    dropped for being "the bench copy", only for overlapping the external
    suite). Without it, the in-corpus ``doc_id % bench_mod == 0`` fixture
    slice stands in, as the tests and synthetic corpora expect.

    Returns a summary dict: docs_in / kept / partitions / skipped.
    """
    import ray
    import ray.data

    from ..ops.text import (
        collect_gram_set,
        gopher_signals_batch,
        redact_pii_batch,
        word_ngram_set,
    )
    from ..state.dedup_index import DedupIndex, dedup_against_index

    os.makedirs(output_dir, exist_ok=True)
    # n_shards is part of the config fingerprint: the dedup checkpoint
    # layout is per-shard and routing is digest-prefix % n_shards, so
    # resuming with a different shard count would reload checkpoints that
    # no longer align with routing — previously-admitted hashes would miss
    # and duplicate content would be silently re-admitted. (v2 also marks
    # the 4-byte shard routing, which changed the persisted layout.)
    # min_words and the eval-set CONTENT fingerprint joined in v3 (both
    # change keep decisions, so resuming an old output dir under a new
    # floor or a different benchmark suite must refuse).
    eval_fp = "-" if eval_set is None else _eval_set_fingerprint(eval_set)
    cfg_hash = hashlib.md5(
        f"curation-v3|{files_per_partition}|{bench_mod}|{n_shards}"
        f"|{min_words}|{eval_fp}".encode()
    ).hexdigest()[:12]

    header, manifest = _load_curation_manifest(output_dir)
    if header is not None and header.get("cfg_hash") != cfg_hash:
        # A config change over an existing output dir would recompute
        # every partition against a dedup index whose admissions were
        # claimed under the OLD config's filter decisions — content whose
        # only claimant is now filtered out would vanish from the output.
        # Refuse instead of silently dropping data.
        raise ValueError(
            "curation config changed for an existing output dir "
            f"(manifest cfg {header.get('cfg_hash')} != {cfg_hash}); "
            "use a fresh --output directory"
        )
    if header is None:
        import uuid

        header = {"job_id": uuid.uuid4().hex, "cfg_hash": cfg_hash}
        _append_line(output_dir, header)
    job_id = header["job_id"]

    files = list_input_files(input_path)
    # Refuse resume when a previously-processed input file has been
    # REMOVED from the corpus: the dedup index still holds that file's
    # documents' claims, so content whose only claimant was a removed doc
    # would return False for every surviving doc during the forced
    # recompute (shifted partitions) and silently vanish from the output.
    # Adding files is safe (shifted partitions recompute; surviving docs
    # re-present their own claims and re-receive True).
    recorded = {f for rec in manifest.values() for f in rec.get("input_files", [])}
    missing = sorted(recorded - set(files))
    if missing:
        raise ValueError(
            "input corpus lost files recorded in the curation manifest "
            f"({missing[:3]}{'...' if len(missing) > 3 else ''}); the dedup "
            "checkpoint holds claims from their documents — resume would "
            "silently drop content they claimed. Use a fresh --output "
            "directory (or restore the files)."
        )
    partitions = [
        (pid, files[i : i + files_per_partition])
        for pid, i in enumerate(range(0, len(files), files_per_partition))
    ]

    # Benchmark grams + index actors are built lazily on the first
    # NON-skipped partition — a fully-resumed no-op re-run must not pay
    # a whole-corpus scan or spin up shard actors just to skip everything.
    setup: dict = {}

    def _ensure_setup() -> None:
        if "index" in setup:
            return
        # Benchmark gram set: distributed build (collect_gram_set — each
        # batch emits DISTINCT gram strings, so only eval-suite-sized gram
        # rows reach the driver, never corpus text), broadcast once. The
        # corpus side is read one block per file: Ray splits small files to
        # reach its default read parallelism, a split can be empty, and a
        # map passes an empty block on unmapped as a zero-column one.
        if eval_set is not None:
            grams = collect_gram_set(
                ray.data.read_parquet(eval_set, columns=["text"]), n=3
            )
        else:
            grams = collect_gram_set(
                ray.data.read_parquet(
                    files, columns=["doc_id", "text"], override_num_blocks=len(files)
                ),
                n=3,
                where=lambda b: b["doc_id"].to_numpy(dtype=np.int64) % bench_mod == 0,
            )
        grams_ref = ray.put(grams)

        def curate(batch: pa.Table, _ref=grams_ref) -> pa.Table:
            # Arrow-native hot stage: the only pandas materialization is
            # the text column (gopher/PII kernels are pandas-string); the
            # row filter and every other column stay zero-copy Arrow.
            grams = ray.get(_ref)
            texts = batch.column("text").to_pandas().fillna("")
            ids = (
                batch.column("doc_id")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            g = gopher_signals_batch(
                pd.DataFrame({"doc_id": ids, "text": texts})
            )
            keep_q = g["keep"].to_numpy(dtype=bool)
            if min_words > 0:
                n_words = (
                    texts.str.split().str.len().to_numpy(dtype=np.int64)
                )
                keep_q &= n_words >= min_words
            # External suite: no corpus doc IS the benchmark — only
            # gram overlap contaminates. Fixture mode: the bench slice
            # itself is dropped (it is the held-out copy).
            is_bench = (
                np.zeros(len(ids), dtype=bool)
                if eval_set is not None
                else ids % bench_mod == 0
            )
            if grams:
                contam = np.fromiter(
                    (
                        b or not grams.isdisjoint(word_ngram_set(t, 3))
                        for t, b in zip(texts, is_bench)
                    ),
                    dtype=bool,
                    count=len(texts),
                )
            else:
                contam = is_bench.copy()
            keep = keep_q & ~contam
            out = batch.filter(pa.array(keep, type=pa.bool_()))
            if out.num_rows:
                redacted, n_pii = redact_pii_batch(
                    out.column("text").to_pandas().fillna("").astype(str)
                )
                out = out.set_column(
                    out.schema.get_field_index("text"),
                    "text",
                    pa.array(redacted.tolist(), type=pa.string()),
                )
                out = out.append_column(
                    "n_pii", pa.array(n_pii.to_numpy(), type=pa.int64())
                )
            else:
                out = out.append_column(
                    "n_pii", pa.array([], type=pa.int64())
                )
            return out

        # The dedup index: checkpoints under the job's own output dir,
        # run id pinned to the persisted job id so a resumed/recomputed
        # partition re-receives its own admissions (no loss), while a
        # DIFFERENT job directory gets a fresh id and sees re-ingested
        # docs as duplicates.
        setup["curate"] = curate
        setup["index"] = DedupIndex(
            n_shards=n_shards,
            checkpoint_dir=os.path.join(output_dir, "dedup_ckpt"),
            name_prefix=f"curation:{job_id[:8]}",
            run_id=job_id,
        )

    skipped = 0
    totals = {"docs_in": 0, "kept": 0}
    for pid, part_files in partitions:
        prior = manifest.get(pid)
        # A record only skips if its recorded input files are EXACTLY this
        # run's partition membership — adding/removing a corpus file
        # shifts every partition and must force recomputes, not silent
        # stale-skip.
        if (
            prior is not None
            and prior.get("cfg_hash") == cfg_hash
            and prior.get("input_files") == part_files
        ):
            skipped += 1
            totals["docs_in"] += prior["docs_in"]
            totals["kept"] += prior["kept"]
            continue
        part_dir = os.path.join(output_dir, f"partition={pid:05d}")
        start = time.perf_counter()
        if os.path.exists(part_dir):
            import shutil

            shutil.rmtree(part_dir)
        _ensure_setup()
        ds = ray.data.read_parquet(
            part_files, override_num_blocks=len(part_files)
        )
        docs_in = ds.count()
        curated = ds.map_batches(
            setup["curate"], batch_format="pyarrow", batch_size=batch_size
        )
        surviving = dedup_against_index(
            curated, setup["index"], batch_size=batch_size
        )
        surviving.write_parquet(part_dir)
        kept = 0
        if any(f.endswith(".parquet") for f in os.listdir(part_dir)):
            kept = ray.data.read_parquet(
                part_dir, columns=["doc_id"]
            ).count()
        setup["index"].checkpoint()
        _append_line(
            output_dir,
            {
                "partition_id": pid,
                "input_files": part_files,
                "cfg_hash": cfg_hash,
                "docs_in": docs_in,
                "kept": kept,
                "wall_sec": round(time.perf_counter() - start, 3),
                "completed_at": time.time(),
            },
        )
        totals["docs_in"] += docs_in
        totals["kept"] += kept

    return {
        "job_id": job_id,
        "partitions": len(partitions),
        "skipped": skipped,
        **totals,
    }
