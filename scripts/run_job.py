"""Cluster job entrypoint: `ray job submit -- python scripts/run_job.py ...`.

Runs the resumable partitioned extraction job against a document corpus.
On a real cluster, Ray is initialised by the job runtime (ray.init() with
no address connects to the cluster); locally it starts a local session.

Example:
    ray job submit --working-dir . -- \
        python scripts/run_job.py \
        --input /data/corpus --output /data/extracted \
        --mode verbose --files-per-partition 16
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    parser = argparse.ArgumentParser(description="Resumable extraction job")
    parser.add_argument("--input", required=True, help="input parquet dir/file")
    parser.add_argument("--output", required=True, help="output directory")
    parser.add_argument("--mode", default="light", choices=["light", "verbose"])
    parser.add_argument("--files-per-partition", type=int, default=8)
    parser.add_argument(
        "--explode-threshold",
        type=int,
        default=None,
        help="characters of part text from which a doc is split per sheet",
    )
    parser.add_argument("--alpha-col", action="store_true")
    args = parser.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init()  # cluster address from the job runtime; local fallback

    from exstruct_ray.config import ExtractOptions

    from exstruct_ray.stages.manifest import run_extraction_job

    options = ExtractOptions(mode=args.mode, alpha_col=args.alpha_col)
    start = time.perf_counter()
    summary = run_extraction_job(
        args.input,
        args.output,
        options,
        files_per_partition=args.files_per_partition,
        explode_threshold=args.explode_threshold,
    )
    summary["wall_sec"] = round(time.perf_counter() - start, 3)
    summary["docs_per_sec"] = (
        round(summary["docs"] / summary["wall_sec"], 2) if summary["wall_sec"] else 0
    )
    print(json.dumps(summary))
    ray.shutdown()


if __name__ == "__main__":
    main()
