"""Resumable partitioned extraction jobs with per-partition lineage + metrics.

The durable-resume layer the north rule requires: the input file list is
split into contiguous partitions; each partition runs as an independent
streaming sub-pipeline writing its own output directory, and commits a
manifest entry {partition_id, input files, code/config hash, doc/span/error
counts, wall time} only after its write finishes. A restarted job diffs the
manifest and re-runs only missing partitions — never one giant output file,
never re-extracting finished work.

At cluster scale each partition is many blocks; partition granularity is an
operator knob (files_per_partition) chosen so a partition ≈ minutes of work.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass

from ..config import ExtractOptions


@dataclass
class PartitionRecord:
    partition_id: int
    input_files: list[str]
    code_config_hash: str
    docs: int
    spans: int
    errors: int
    wall_sec: float
    completed_at: float


def _config_hash(options: ExtractOptions | None) -> str:
    from .. import __version__

    payload = json.dumps(
        {"version": __version__, "options": repr(options or ExtractOptions())},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _manifest_path(output_dir: str) -> str:
    return os.path.join(output_dir, "_manifest.jsonl")


def load_manifest(output_dir: str) -> dict[int, PartitionRecord]:
    path = _manifest_path(output_dir)
    records: dict[int, PartitionRecord] = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = PartitionRecord(**json.loads(line))
                records[rec.partition_id] = rec
    return records


def _append_manifest(output_dir: str, record: PartitionRecord) -> None:
    with open(_manifest_path(output_dir), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(asdict(record)) + "\n")


def list_input_files(input_path: str) -> list[str]:
    if os.path.isdir(input_path):
        return sorted(
            os.path.join(input_path, f)
            for f in os.listdir(input_path)
            if f.endswith(".parquet")
        )
    return [input_path]


def run_extraction_job(
    input_path: str,
    output_dir: str,
    options: ExtractOptions | None = None,
    *,
    files_per_partition: int = 8,
    batch_size: int = 128,
    explode_threshold: int | None = None,
) -> dict:
    """Run (or resume) a partitioned extraction job.

    Returns a summary dict with totals and how many partitions were skipped
    because the manifest already recorded them (same code/config hash).
    """
    import ray.data

    from .pipeline import build_extraction_pipeline

    os.makedirs(output_dir, exist_ok=True)
    cfg_hash = _config_hash(options)
    manifest = load_manifest(output_dir)

    files = list_input_files(input_path)
    partitions = [
        (pid, files[i : i + files_per_partition])
        for pid, i in enumerate(range(0, len(files), files_per_partition))
    ]

    skipped = 0
    totals = {"docs": 0, "spans": 0, "errors": 0}
    for pid, part_files in partitions:
        prior = manifest.get(pid)
        if prior is not None and prior.code_config_hash == cfg_hash:
            skipped += 1
            totals["docs"] += prior.docs
            totals["spans"] += prior.spans
            totals["errors"] += prior.errors
            continue
        part_dir = os.path.join(output_dir, f"partition={pid:05d}")
        start = time.perf_counter()
        # A leftover dir from a crashed (uncommitted) earlier attempt must
        # not leak stale files into this attempt's output.
        if os.path.exists(part_dir):
            import shutil

            shutil.rmtree(part_dir)
        # One read block per file keeps ReadParquet→MapBatches fusion
        # (Ray's SplitBlocks otherwise routes the input through the
        # object store — ~10% slower, measured in bench.py).
        ds = ray.data.read_parquet(
            part_files, override_num_blocks=len(part_files)
        )
        out = build_extraction_pipeline(
            ds,
            options,
            batch_size=batch_size,
            explode_threshold=explode_threshold,
        )
        # Distributed writers: every worker streams its own blocks straight
        # to the partition directory — nothing funnels through the driver.
        out.write_parquet(part_dir)
        # Metrics via a column-pruned read-back of the two int64 metric
        # columns (row counts come from parquet metadata) — O(docs) ints,
        # not O(spans) payload, and still distributed.
        docs = spans = errors = 0
        if any(f.endswith(".parquet") for f in os.listdir(part_dir)):
            metrics_ds = ray.data.read_parquet(
                part_dir, columns=["n_spans", "n_errors"]
            )
            docs = metrics_ds.count()
            sums = metrics_ds.sum(["n_spans", "n_errors"]) if docs else None
            if sums:
                spans = int(sums["sum(n_spans)"])
                errors = int(sums["sum(n_errors)"])
        wall = time.perf_counter() - start
        record = PartitionRecord(
            partition_id=pid,
            input_files=part_files,
            code_config_hash=cfg_hash,
            docs=docs,
            spans=spans,
            errors=errors,
            wall_sec=round(wall, 3),
            completed_at=time.time(),
        )
        _append_manifest(output_dir, record)
        totals["docs"] += docs
        totals["spans"] += spans
        totals["errors"] += errors

    return {
        "partitions": len(partitions),
        "skipped": skipped,
        "executed": len(partitions) - skipped,
        **totals,
    }
