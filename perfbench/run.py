"""Extraction benchmark: files on disk -> span parquet on disk.

    python3 perfbench/run.py --workload parts_mix --seed 1 --seconds 10 --trace 0

Generates the workload's seeded inputs (cached under ``.bench_cache/``),
sizes Ray to ``os.cpu_count()``, sets up and warms up several times, then
runs closed-loop jobs (one at a time, from this driver) for ``--seconds``,
checks every job's output and prints the end-to-end metrics. ``--trace 1``
instead runs one driver-traced job plus untraced and traced in-process
passes over the same documents, and prints the per-layer metrics.

The last stdout line is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}). A detail line before it gives sample
counts, generation time and the layer checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from statistics import median
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spec.json")

SETUPS = 3  # set-ups per timed run; setup_s is their median
MIN_JOBS = 3  # timed jobs per run, however long they take (unless the workload says)
LAYER_SUM_TOLERANCE = 0.03
PARSE_MS_TOLERANCE = 0.05


def _load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _emit(detail: dict, correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    sys.stdout.flush()


def timed_run(workload: str, seed: int, seconds: float, inp: str, meta: dict,
              warm: str, cache: str, import_s: float) -> None:
    from perfbench import jobs, loadgen

    setups = []
    for k in range(SETUPS):
        start = perf_counter()
        jobs.start_ray(ROOT, cache)
        warm_out = jobs.fresh_dir(cache, f"warm{k}")
        jobs.run_job(workload, warm, warm_out, warm=True)
        setups.append(perf_counter() - start + (import_s if k == 0 else 0.0))
        shutil.rmtree(warm_out, ignore_errors=True)
        if k < SETUPS - 1:
            jobs.stop_ray()

    expected = meta["doc_ids"]
    reference = jobs.reference_digests(inp, jobs.sample_ids(workload, meta))
    runs: list[tuple[float, int, int]] = []  # (wall s, docs out, peak rss bytes)
    doc_ms: list[float] = []
    attempted = failed = 0
    first: dict | None = None
    spent = 0.0
    min_jobs = loadgen.WORKLOADS[workload].get("min_jobs", MIN_JOBS)
    while spent < seconds or len(runs) < min_jobs:
        out = jobs.fresh_dir(cache, f"job{len(runs)}")
        with jobs.RssSampler() as rss:
            start = perf_counter()
            jobs.run_job(workload, inp, out)
            wall = perf_counter() - start
        spent += wall
        docs, duplicates = jobs.read_output(out)
        shutil.rmtree(out, ignore_errors=True)
        # The first job is checked against in-process extraction of the
        # sample; every later job against the first job's full output.
        ref = reference if first is None else {d: v[0] for d, v in first.items()}
        failed += jobs.check_job(docs, duplicates, expected, ref)
        attempted += len(expected)
        first = first if first is not None else docs
        doc_ms.extend(v[1] for v in docs.values())
        runs.append((wall, len(docs), rss.peak_bytes))
    jobs.stop_ray()

    digest = jobs.output_digest(first)
    spec = _load_spec()
    digest_ok = seed != spec["default_seed"] or spec["output_digest"].get(workload) in (None, digest)
    failed += 0 if digest_ok else 1
    metrics = {
        "docs_per_s": (median([len(expected) / w for w, _, _ in runs]), "1/s"),
        "wall_s": (median([w for w, _, _ in runs]), "s"),
        "setup_s": (median(setups), "s"),
        "doc_ms_p50": (jobs.percentile(doc_ms, 0.50), "ms"),
        "doc_ms_p99": (jobs.percentile(doc_ms, 0.99), "ms"),
        "peak_rss_mb": (median([r for _, _, r in runs]) / 2**20, "MB"),
    }
    detail = {
        "workload": workload, "seed": seed, "jobs": len(runs), "docs_per_job": len(expected),
        "doc_ms_samples": len(doc_ms), "beyond_p99": sum(m > metrics["doc_ms_p99"][0] for m in doc_ms),
        "job_walls_s": [round(w, 4) for w, _, _ in runs], "setups_s": [round(s, 4) for s in setups],
        "reference_docs": len(reference), "output_digest": digest, "pinned_digest_ok": digest_ok,
        "generate_s": meta["generate_s"], "cpus": os.cpu_count(),
        "fail_share": failed / attempted if attempted else 0.0,
    }
    _emit(detail, failed == 0, attempted, failed, metrics)


def traced_run(workload: str, seed: int, inp: str, meta: dict, warm: str,
               cache: str) -> None:
    from perfbench import jobs, tracing

    jobs.start_ray(ROOT, cache)
    warm_out = jobs.fresh_dir(cache, "warm")
    jobs.run_job(workload, warm, warm_out, warm=True)
    shutil.rmtree(warm_out, ignore_errors=True)

    # One driver-traced job: write/read-back/commit spans and Dataset.stats().
    reference = jobs.reference_digests(inp, jobs.sample_ids(workload, meta))
    driver = tracing.Tracer()
    tracing.instrument_driver(driver)
    out = jobs.fresh_dir(cache, "traced")
    try:
        start = perf_counter()
        jobs.run_job(workload, inp, out)
        job_wall = perf_counter() - start
    finally:
        driver.restore()
    docs, duplicates = jobs.read_output(out)
    shutil.rmtree(out, ignore_errors=True)
    failed = jobs.check_job(docs, duplicates, meta["doc_ids"], reference)
    attempted = len(meta["doc_ids"])
    jobs.stop_ray()

    # In-process passes over the same documents: warm, untraced, traced.
    batches = tracing.load_inprocess_docs(workload, inp)
    tracing.inprocess_pass(workload, batches[: max(1, len(batches) // 8)], None)
    untraced_s, _, n_docs = tracing.inprocess_pass(workload, batches, None)
    tracer = tracing.Tracer()
    traced_s, doc_ms, _ = tracing.inprocess_pass(workload, batches, tracer)

    roots = tracer.roots_s()
    layer_sum = sum(tracer.self_s.values())
    doc_root = ("udf.extract_spans" if workload == "xlsx_bytes"
                else "document.extract_document_spans_columnar")
    layer_sum_ratio = layer_sum / roots if roots else 0.0
    parse_ms_ratio = tracer.total_s.get(doc_root, 0.0) * 1000.0 / doc_ms if doc_ms else 0.0
    checks_ok = (abs(layer_sum_ratio - 1.0) <= LAYER_SUM_TOLERANCE
                 and abs(parse_ms_ratio - 1.0) <= PARSE_MS_TOLERANCE)
    failed += 0 if checks_ok else 1

    metrics = tracing.layer_metrics(tracer)
    metrics["extract.udf_docs_per_s"] = (n_docs / untraced_s, "1/s")
    metrics.update(tracing.pipeline_metrics(driver))
    metrics.update({
        "trace.docs": (n_docs, "count"),
        "trace.total_ms": (roots * 1000.0, "ms"),
        "trace.layer_sum_ratio": (layer_sum_ratio, "ratio"),
        "trace.parse_ms_ratio": (parse_ms_ratio, "ratio"),
        "trace.overhead_ms": ((traced_s - untraced_s) * 1000.0, "ms"),
        "trace.overhead_pct": ((traced_s / untraced_s - 1.0) * 100.0, "%"),
    })
    os.makedirs(os.path.join(cache, "traces"), exist_ok=True)
    tracer.dump(os.path.join(cache, "traces", f"{workload}-inprocess.jsonl"))
    driver.dump(os.path.join(cache, "traces", f"{workload}-driver.jsonl"))
    detail = {
        "workload": workload, "seed": seed, "traced_job_wall_s": job_wall,
        "untraced_inprocess_s": untraced_s, "traced_inprocess_s": traced_s,
        "layer_checks_ok": checks_ok, "spans": len(tracer.spans),
        "generate_s": meta["generate_s"],
    }
    _emit(detail, failed == 0, attempted, failed, metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "exstruct_ray")):
        print(f"error: no exstruct_ray package next to {os.path.dirname(SPEC_PATH)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    start = perf_counter()
    # Imports count towards the first set-up: ray, pyarrow and the engine.
    from perfbench import jobs, loadgen
    import exstruct_ray.stages.manifest  # noqa: F401
    import_s = perf_counter() - start

    if args.workload not in loadgen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    seed = _load_spec()["default_seed"] if args.seed is None else args.seed
    cache = os.path.join(ROOT, ".bench_cache")
    inp, meta = loadgen.generate(cache, args.workload, seed)
    warm = loadgen.generate_warmup(cache)
    try:
        if args.trace:
            traced_run(args.workload, seed, inp, meta, warm, cache)
        else:
            timed_run(args.workload, seed, args.seconds, inp, meta, warm, cache, import_s)
    finally:
        jobs.stop_ray()
        shutil.rmtree(jobs.runs_dir(cache), ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
