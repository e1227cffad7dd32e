"""Resumable partitioned extraction jobs with per-partition lineage + metrics.

The durable-resume layer the north rule requires. The input file list is
split into contiguous partitions of ``files_per_partition`` files; each
partition owns one output directory ``partition=<pid:05d>/`` and one
manifest line {partition_id, input files, code/config hash, doc/span/error
counts, wall time}. A restarted job diffs the manifest and re-runs only the
partitions with no line (or an old code/config hash), after deleting their
leftover directories — never one giant output file, never re-extracting
finished work.

Every pending partition runs in ONE streaming Ray Data execution, so the
executor's tail is paid once per job rather than per partition, and the
execution is one wave of min(files, CPUs) tasks (see
``build_job_dataset``). Each task reads its group of input files (dealt
to the tasks by footer size), extracts them and writes the rows, grouped
by partition, straight to the partition directories under a name derived
from the partition and the block's first doc_id (a retried task
overwrites its own files). The task
returns one small stats row per (block, partition) — docs, spans, errors —
and the driver streams those rows: a partition commits its manifest line
as soon as its streamed doc count equals the row count in its input
parquet footers. A stream that ends with a partition short of that count
raises without committing it (an over-count raises too).
``files_per_partition`` thus sets how often the job commits, not how the
work is scheduled. The task's extraction is
``stages.pipeline.build_extraction_pipeline``'s one UDF, so the plan has
the same shape with or without ``explode_threshold``; with it, the task
also splits and reassembles its giant docs.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import asdict, dataclass

import pyarrow as pa

from ..config import ExtractOptions
from .actor import OUTPUT_SCHEMA

# One row per (written block, partition): what the driver's commit stream sees.
STATS_SCHEMA = pa.schema(
    [
        ("partition", pa.int32()),
        ("docs", pa.int64()),
        ("spans", pa.int64()),
        ("errors", pa.int64()),
    ]
)


@dataclass
class PartitionRecord:
    """One manifest line. ``wall_sec`` is the seconds from the start of
    the job's execution to this partition's commit (partitions share one
    execution, so these overlap and do not sum to the job's wall time)."""

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


def partition_dir(output_dir: str, partition_id: int) -> str:
    return os.path.join(output_dir, f"partition={partition_id:05d}")


def write_partition_files(table: pa.Table, output_dir: str) -> pa.Table:
    """Write one extracted block (``OUTPUT_SCHEMA`` rows plus an int32
    ``partition``) into its partition directories and return its ``STATS_SCHEMA`` rows.

    Each partition's rows become one ``OUTPUT_SCHEMA`` file named after
    the partition and its first doc_id, so writing the same block again
    (a task retry) replaces the file instead of adding one. The file is
    renamed into place, so a reader never sees half of it.
    """
    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    parts = table.column("partition")
    stats = []
    for pid in np.unique(parts.to_numpy(zero_copy_only=False)):
        pid = int(pid)
        rows = table.filter(pc.equal(parts, pid)).select(OUTPUT_SCHEMA.names)
        first = rows.column("doc_id")[0].as_py()
        digest = hashlib.blake2b(f"{pid}\x1f{first}".encode(), digest_size=8)
        folder = partition_dir(output_dir, pid)
        os.makedirs(folder, exist_ok=True)
        path = os.path.join(folder, f"part-{digest.hexdigest()}.parquet")
        tmp = os.path.join(folder, f".{os.path.basename(path)}.{os.getpid()}.tmp")
        pq.write_table(rows, tmp)
        os.replace(tmp, path)
        stats.append(
            {
                "partition": pid,
                "docs": rows.num_rows,
                "spans": pc.sum(rows.column("n_spans")).as_py() or 0,
                "errors": pc.sum(rows.column("n_errors")).as_py() or 0,
            }
        )
    return pa.Table.from_pylist(stats, schema=STATS_SCHEMA)


def deal_files(files: list[str], sizes: list[int], n: int) -> list[list[str]]:
    """``files`` dealt into ``min(n, len(files))`` groups of near-equal
    total ``sizes``, in the order Ray reads them.

    The files go largest first (ties by path) snake-wise to the groups:
    0, 1, …, n-1, n-1, …, 1, 0, 0, 1, …. Ray 2.49's
    ``ParquetDatasource.get_read_tasks`` cuts its file list in order with
    ``np.array_split``, which gives the first ``len(files) % n`` chunks
    one file more, so the longer groups come first: the concatenated
    groups, read with ``override_num_blocks=n``, are one task each.
    """
    ranked = [f for _, f in sorted(zip(sizes, files), key=lambda sf: (-sf[0], sf[1]))]
    groups: list[list[str]] = [[] for _ in range(min(n, len(files)))]
    for i, f in enumerate(ranked):
        lap, j = divmod(i, len(groups))
        groups[j if lap % 2 == 0 else len(groups) - 1 - j].append(f)
    return sorted(groups, key=len, reverse=True)


def _job_cpus() -> int:
    """The CPUs one job's plan can use at once: the session's, capped by
    the current DataContext's CPU limit (which ``read_parquet`` copies
    into the plan's context) when one is set."""
    import ray
    from ray.data import DataContext

    limit = DataContext.get_current().execution_options.resource_limits.cpu
    return max(1, int(min(ray.cluster_resources().get("CPU", 1), limit)))


def build_job_dataset(
    pending: dict[int, list[str]],
    output_dir: str,
    options: ExtractOptions | None = None,
    *,
    explode_threshold: int | None = None,
) -> "ray.data.Dataset":
    """The job's one Dataset over every file of the ``pending`` partitions
    ({partition id: input files}): its rows are the ``STATS_SCHEMA`` rows
    of the written blocks; consuming it extracts and writes the output.

    The job is one wave of ``n = min(files, CPUs)`` fused
    Read→Extract→Write tasks (no map ``batch_size``: any value blocks Ray
    Data's fusion with the read),
    ``ReadParquet->MapBatches(split_or_extract)->MapBatches(write_partitions)``
    with or without ``explode_threshold``. A task dispatched after
    another's completion leaves the freed CPU idle until the executor's
    next 0.1 s ``ray.wait`` poll; with one task per CPU none is
    dispatched late. The files are dealt to the tasks by footer bytes
    (``deal_files``), so no task holds all the large files. A retried
    task re-reads its own group and rewrites the same files, but a retry
    redoes its whole group, not one file.

    The largest input file's uncompressed bytes (from its footer) cap the
    plan's ``target_max_block_size``. Until an operator has emitted
    output, Ray Data charges each of its running tasks that size times
    its streaming buffer (2 × 128 MiB by default) of object store, and
    the fused task emits only small stats blocks, the first once its
    first block is written: with the default, a 512 MiB store starts one
    task and leaves the other CPUs idle until that block is done. The cap
    goes on the plan's own context copy (``ds.context``), never on the
    global one.
    """
    import ray.data

    from .pipeline import build_extraction_pipeline

    files = [f for part_files in pending.values() for f in part_files]
    partition_of = {
        os.path.normpath(f): pid
        for pid, part_files in pending.items()
        for f in part_files
    }
    sizes = [_footer_bytes(f) for f in files]
    groups = deal_files(files, sizes, _job_cpus())
    ds = ray.data.read_parquet(
        [f for group in groups for f in group],
        override_num_blocks=len(groups),
        include_paths=True,
    )
    largest = max(sizes)
    if largest and ds.context.target_max_block_size:
        ds.context.target_max_block_size = min(ds.context.target_max_block_size, largest)

    def write_partitions(batch: pa.Table) -> pa.Table:
        return write_partition_files(batch, output_dir)

    extracted = build_extraction_pipeline(
        ds,
        options,
        batch_size=None,
        explode_threshold=explode_threshold,
        partition_of=partition_of,
    )
    return extracted.map_batches(write_partitions, batch_format="pyarrow", batch_size=None)


def _footer_rows(files: list[str]) -> int:
    import pyarrow.parquet as pq

    return sum(pq.read_metadata(f).num_rows for f in files)


def _footer_bytes(path: str) -> int:
    """The uncompressed bytes of ``path``'s row groups, from its footer."""
    import pyarrow.parquet as pq

    meta = pq.read_metadata(path)
    return sum(meta.row_group(i).total_byte_size for i in range(meta.num_row_groups))


def run_extraction_job(
    input_path: str,
    output_dir: str,
    options: ExtractOptions | None = None,
    *,
    files_per_partition: int = 8,
    explode_threshold: int | None = None,
) -> dict:
    """Run (or resume) a partitioned extraction job.

    Every partition the manifest does not record (with the same
    code/config hash) runs in one streaming execution and commits as soon
    as all its rows are written; ``PartitionRecord.wall_sec`` counts from
    the start of that execution. Raises ``ValueError`` for bad options
    before touching ``output_dir``, and ``RuntimeError`` (after
    committing the complete partitions) when the written doc count of a
    partition differs from its input row count.

    Returns a summary dict with totals and how many partitions were skipped
    because the manifest already recorded them (same code/config hash).
    """
    # A bad option raises here, before any leftover directory is removed.
    (options or ExtractOptions()).resolved()
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
    pending: dict[int, list[str]] = {}
    for pid, part_files in partitions:
        prior = manifest.get(pid)
        if prior is not None and prior.code_config_hash == cfg_hash:
            skipped += 1
            for key in totals:
                totals[key] += getattr(prior, key)
            continue
        pending[pid] = part_files
        # A leftover dir from a crashed (uncommitted) earlier attempt must
        # not leak stale files into this attempt's output.
        if os.path.exists(partition_dir(output_dir, pid)):
            shutil.rmtree(partition_dir(output_dir, pid))

    expected = {pid: _footer_rows(part_files) for pid, part_files in pending.items()}
    streamed = {pid: {"docs": 0, "spans": 0, "errors": 0} for pid in pending}
    start = time.perf_counter()

    def commit(pid: int) -> None:
        counts = streamed[pid]
        _append_manifest(
            output_dir,
            PartitionRecord(
                partition_id=pid,
                input_files=pending[pid],
                code_config_hash=cfg_hash,
                wall_sec=round(time.perf_counter() - start, 3),
                completed_at=time.time(),
                **counts,
            ),
        )
        for key in totals:
            totals[key] += counts[key]

    for pid in pending:
        if not expected[pid]:  # nothing to write
            commit(pid)
    live = {pid: part_files for pid, part_files in pending.items() if expected[pid]}
    if live:
        ds = build_job_dataset(
            live,
            output_dir,
            options,
            explode_threshold=explode_threshold,
        )
        for batch in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
            for row in batch.to_pylist():
                counts = streamed[row["partition"]]
                for key in totals:
                    counts[key] += row[key]
                if counts["docs"] == expected[row["partition"]]:
                    commit(row["partition"])
    wrong = {
        pid: (streamed[pid]["docs"], expected[pid])
        for pid in live
        if streamed[pid]["docs"] != expected[pid]
    }
    if wrong:
        raise RuntimeError(
            "written doc count differs from input rows; partitions not"
            f" committed (or over-counted after commit): {wrong}"
        )

    return {
        "partitions": len(partitions),
        "skipped": skipped,
        "executed": len(partitions) - skipped,
        **totals,
    }
