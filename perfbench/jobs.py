"""Ray side of the benchmark: session, warm-up, one job per workload,
output checks and the resident-memory sampler.

Each job goes from input files on disk to span parquet on disk through a
public entry point: ``stages.manifest.run_extraction_job`` for the parts
workloads, and ``read_binary_files`` plus a thin UDF over
``exstruct_ray.api.extract_spans`` for ``xlsx_bytes``.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import threading
import time

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from perfbench import loadgen

# Ray keeps its session files inside the checkout when the socket paths
# stay under the kernel's 107-byte limit; longer checkout paths fall back
# to Ray's default temp dir.
_MAX_TEMP_DIR = 40


def start_ray(root: str, cache: str) -> None:
    paths = [root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    kwargs = {}
    temp_dir = os.path.join(cache, "ray")
    if len(temp_dir) <= _MAX_TEMP_DIR:
        kwargs["_temp_dir"] = temp_dir
    ray.init(
        address="local",
        num_cpus=os.cpu_count(),
        include_dashboard=False,
        log_to_driver=False,
        object_store_memory=512 * 1024 * 1024,
        **kwargs,
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def run_job(workload: str, inp: str, out_dir: str, *, warm: bool = False) -> None:
    """One closed-loop job: input files -> span parquet under ``out_dir``."""
    from exstruct_ray.stages import manifest

    params = loadgen.WORKLOADS[workload]
    if workload == "xlsx_bytes":
        bytes_job(os.path.join(inp, "xlsx"), out_dir, 2 if warm else params["blocks"])
        return
    threshold = params.get("explode_threshold")
    manifest.run_extraction_job(
        os.path.join(inp, "parts"),
        out_dir,
        files_per_partition=params["files_per_partition"],
        # The warm-up corpus has no giants; a low threshold still sends
        # its multi-sheet docs through the explode exchange.
        explode_threshold=4096 if warm and threshold else threshold,
    )


def extract_xlsx_batch(batch: pa.Table) -> pa.Table:
    """Benchmark-side UDF: ``.xlsx`` bytes -> OUTPUT_SCHEMA rows, one
    ``api.extract_spans`` call per document, timed per call."""
    from exstruct_ray.api import extract_spans
    from exstruct_ray.stages.actor import OUTPUT_SCHEMA

    paths = batch.column("path").to_pylist()
    datas = batch.column("bytes").to_pylist()
    kinds: list[str] = []
    texts: list[str] = []
    refs: list[str] = []
    offsets: list[int] = []
    list_offsets = [0]
    n_spans, n_errors, parse_ms = [], [], []
    for data in datas:
        start = time.perf_counter()
        try:
            spans = [(s.kind, s.text, s.media_ref) for s in extract_spans(data)]
            err = 0
        except Exception as exc:  # a poison workbook is an error span, not a task failure
            spans, err = [("error", f"extract failed: {exc!r}", "")], 1
        parse_ms.append((time.perf_counter() - start) * 1000.0)
        for i, (k, t, m) in enumerate(spans):
            kinds.append(k)
            texts.append(t)
            refs.append(m)
            offsets.append(i)
        list_offsets.append(len(kinds))
        n_spans.append(len(spans))
        n_errors.append(err)
    span_struct = pa.StructArray.from_arrays(
        [pa.array(kinds, pa.string()), pa.array(texts, pa.string()),
         pa.array(refs, pa.string()), pa.array(offsets, pa.int32())],
        names=["kind", "text", "media_ref", "offset"],
    )
    doc_ids = [os.path.basename(p).rsplit(".", 1)[0] for p in paths]
    return pa.Table.from_arrays(
        [
            pa.array(doc_ids, pa.string()),
            pa.ListArray.from_arrays(pa.array(list_offsets, pa.int32()), span_struct),
            pa.array(n_spans, pa.int32()),
            pa.array(n_errors, pa.int32()),
            pa.array(parse_ms, pa.float32()),
        ],
        schema=OUTPUT_SCHEMA,
    )


def bytes_job(xlsx_dir: str, out_dir: str, blocks: int) -> None:
    ds = ray.data.read_binary_files(xlsx_dir, include_paths=True, override_num_blocks=blocks)
    ds.map_batches(extract_xlsx_batch, batch_format="pyarrow", batch_size=64).write_parquet(
        out_dir
    )


# -- output checks --------------------------------------------------------


def span_digest(spans) -> str:
    """Digest of one document's (kind, text, media_ref, offset) sequence."""
    h = hashlib.blake2b(digest_size=16)
    for kind, text, ref, offset in spans:
        h.update(f"{kind}\x1e{ref}\x1e{offset}\x1e{text}\x1f".encode())
    return h.hexdigest()


def read_output(out_dir: str) -> tuple[dict[str, tuple[str, float, int]], int]:
    """Every output row as doc_id -> (span digest, parse_ms, n_errors),
    plus the number of duplicated doc ids."""
    docs: dict[str, tuple[str, float, int]] = {}
    duplicates = 0
    for folder, _dirs, files in os.walk(out_dir):
        for name in sorted(files):
            if not name.endswith(".parquet"):
                continue
            table = pq.read_table(os.path.join(folder, name),
                                  columns=["doc_id", "spans", "parse_ms", "n_errors"])
            spans = table.column("spans").combine_chunks()
            offs = spans.offsets.to_pylist()
            vals = spans.values
            kinds = vals.field("kind").to_pylist()
            texts = vals.field("text").to_pylist()
            refs = vals.field("media_ref").to_pylist()
            positions = vals.field("offset").to_pylist()
            ids = table.column("doc_id").to_pylist()
            ms = table.column("parse_ms").to_pylist()
            errs = table.column("n_errors").to_pylist()
            for i, doc_id in enumerate(ids):
                lo, hi = offs[i], offs[i + 1]
                digest = span_digest(zip(kinds[lo:hi], texts[lo:hi], refs[lo:hi],
                                         positions[lo:hi]))
                if doc_id in docs:
                    duplicates += 1
                docs[doc_id] = (digest, ms[i], errs[i])
    return docs, duplicates


def output_digest(docs: dict[str, tuple[str, float, int]]) -> str:
    h = hashlib.sha256()
    for doc_id in sorted(docs):
        h.update(f"{doc_id}:{docs[doc_id][0]}\n".encode())
    return h.hexdigest()


@ray.remote
def _reference_digests(rows: list[tuple[str, list, list, list]]) -> dict[str, str]:
    from exstruct_ray.extract.document import extract_document_spans

    out = {}
    for doc_id, kinds, texts, refs in rows:
        spans = extract_document_spans(kinds, texts, refs)
        out[doc_id] = span_digest((s.kind, s.text, s.media_ref, s.offset) for s in spans)
    return out


def sample_ids(workload: str, meta: dict) -> set[str]:
    """Fixed-stride sample that includes every giant document."""
    stride = 7 if workload != "giant_explode" else 5
    return set(meta["doc_ids"][::stride]) | set(meta["giants"])


def reference_digests(inp: str, wanted: set[str]) -> dict[str, str]:
    """Digests of in-process ``extract_document_spans`` on the sampled docs,
    fanned out as plain Ray tasks (no pipeline code involved)."""
    rows = []
    parts = os.path.join(inp, "parts")
    for name in sorted(os.listdir(parts)):
        for row in pq.read_table(os.path.join(parts, name)).to_pylist():
            if row["doc_id"] in wanted:
                s = row["spans"]
                rows.append((row["doc_id"], [x["kind"] for x in s], [x["text"] for x in s],
                             [x["media_ref"] for x in s]))
    n = max(1, (os.cpu_count() or 1) * 2)
    chunks = [rows[i::n] for i in range(n) if rows[i::n]]
    out: dict[str, str] = {}
    for part in ray.get([_reference_digests.remote(c) for c in chunks]):
        out.update(part)
    return out


def check_job(docs, duplicates, expected_ids, reference) -> int:
    """Failed documents: missing, duplicated, error spans, or spans that
    differ from the reference digest."""
    failed = duplicates + len(set(docs) - set(expected_ids))
    for doc_id in expected_ids:
        got = docs.get(doc_id)
        if got is None or got[2] != 0 or reference.get(doc_id, got[0]) != got[0]:
            failed += 1
    return failed


def runs_dir(cache: str) -> str:
    """This process's scratch root for job outputs."""
    return os.path.join(cache, "runs", str(os.getpid()))


def fresh_dir(cache: str, tag: str) -> str:
    path = os.path.join(runs_dir(cache), tag)
    shutil.rmtree(path, ignore_errors=True)
    return path


# -- resident memory --------------------------------------------------------

_PAGE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE
    except (OSError, IndexError, ValueError):
        return 0


def _processes() -> dict[int, tuple[str, int]]:
    """pid -> (state, parent pid) for every visible process."""
    table: dict[int, tuple[str, int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
            fields = stat[stat.rindex(b")") + 2:].split()
            table[int(entry)] = (fields[0].decode(), int(fields[1]))
        except (OSError, ValueError, IndexError):
            continue
    return table


def descendants(driver: int, live_only: bool = False) -> list[int]:
    table = _processes()
    out = []
    for pid, (state, ppid) in table.items():
        p, depth = ppid, 0
        while p not in (0, 1, driver) and depth < 16:
            p, depth = table.get(p, ("", 0))[1], depth + 1
        if p == driver and not (live_only and state == "Z"):
            out.append(pid)
    return out


def ray_worker_pids(driver: int) -> list[int]:
    """Descendants of the driver whose process title is a Ray worker's."""
    workers = []
    for pid in descendants(driver):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                if fh.read(5).startswith(b"ray::"):
                    workers.append(pid)
        except OSError:
            continue
    return workers


def stop_ray(timeout_s: float = 20.0) -> None:
    """Shut Ray down and wait until every process it started has exited,
    so the next set-up (or the next run) starts on an idle machine."""
    ray.shutdown()
    deadline = time.monotonic() + timeout_s
    while descendants(os.getpid(), live_only=True) and time.monotonic() < deadline:
        time.sleep(0.05)


class RssSampler:
    """Peak of driver + Ray worker RSS, sampled by one driver thread."""

    def __init__(self, interval_s: float = 0.2) -> None:
        self._interval = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.peak_bytes = 0

    def _sample(self) -> None:
        me = os.getpid()
        total = _rss_bytes(me) + sum(_rss_bytes(p) for p in ray_worker_pids(me))
        self.peak_bytes = max(self.peak_bytes, total)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._sample()

    def __enter__(self) -> "RssSampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]
