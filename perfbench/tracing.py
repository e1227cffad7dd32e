"""Span tracing around the engine's public entry points, from outside.

The benchmark changes no engine code: it rebinds module attributes (the
names ``extract.document`` resolves at call time) to timing wrappers for
the duration of a traced pass and restores them afterwards. Spans live in
memory; ``Tracer.dump`` writes them out once the run ends.

A layer's self time is its span's duration minus the time its child spans
cover; summed over all spans it telescopes to the root spans' total, which
is the layer sum check.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

_perf = time.perf_counter


class Tracer:
    """Records (name, layer, start, end, parent, trace_id) spans and counters."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.trace_id: str = ""
        self._stack: list[list] = []  # [span index, child seconds]
        self._restore: list[tuple] = []
        self._opened: dict[int, set] = {}  # id(package) -> part paths read
        self._doc_ids: list[str] = []  # doc ids of the batch being extracted
        self._doc_pos = 0
        self._serialize_base = 0  # span buffer length when serialization began
        self.captured: list[tuple] = []  # (DatasetStats, summary) per write

    # -- spans -----------------------------------------------------------

    @contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        frame = [idx, 0.0]
        self._stack.append(frame)
        start = _perf()
        try:
            yield
        finally:
            end = _perf()
            self._stack.pop()
            dur = end - start
            self.spans[idx] = (name, layer, start, end, parent, self.trace_id)
            self.self_s[layer] += dur - frame[1]
            self.total_s[name] += dur
            if self._stack:
                self._stack[-1][1] += dur

    def roots_s(self) -> float:
        return sum(s[3] - s[2] for s in self.spans if s is not None and s[4] == -1)

    # -- wrapping --------------------------------------------------------

    def _install(self, owner, attr: str, make) -> bool:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return False
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make(original))
        return True

    def wrap(self, owner, attr: str, layer: str, after=None, before=None,
             fail_key: str | None = None) -> bool:
        """Time ``owner.attr`` as a span of ``layer``. ``before(args)`` and
        ``after(result, args)`` run outside the span and update counters;
        ``fail_key`` counts calls that raise."""
        tracer = self
        name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"

        def make(fn):
            is_cm = isinstance(fn, classmethod)
            target = fn.__func__ if is_cm else fn

            def traced(*args, **kwargs):
                if before is not None:
                    before(args)
                with tracer.span(name, layer):
                    try:
                        result = target(*args, **kwargs)
                    except Exception:
                        if fail_key:
                            tracer.counts[fail_key] += 1
                        raise
                if after is not None:
                    after(result, args)
                return result

            return classmethod(traced) if is_cm else traced

        return self._install(owner, attr, make)

    def count_calls(self, owner, attr: str, after) -> bool:
        """Wrap without a span: only ``after(result, args)`` runs."""

        def make(fn):
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(result, args)
                return result

            return counted

        return self._install(owner, attr, make)

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                if s is None:
                    continue
                name, layer, start, end, parent, trace_id = s
                fh.write(json.dumps({"name": name, "layer": layer, "start": start,
                                     "end": end, "parent": parent, "trace_id": trace_id}))
                fh.write("\n")


def instrument(tracer: Tracer) -> None:
    """Wrap every in-UDF layer entry point the benchmark reports on."""
    from exstruct_ray import api
    from exstruct_ray.extract import document
    from exstruct_ray.ooxml import sheet_parser
    from exstruct_ray.ooxml.package import VirtualPackage
    from exstruct_ray.stages.actor import ExtractActor

    c = tracer.counts

    def package_built(pkg, _args) -> None:
        names = pkg.names()
        c["ooxml.package.parts_decoded"] += len(names)
        c["ooxml.package.bytes_decoded"] += sum(len(pkg.read_text(n)) for n in names)
        tracer._opened[id(pkg)] = set()

    def opened(_result, args) -> None:
        used = tracer._opened.get(id(args[0]))
        if used is not None:
            used.add(args[1])

    def batch_done(_table, _args) -> None:
        c["stages.actor.batches"] += 1

    def sheet_parsed(grid, _args) -> None:
        c["ooxml.sheet_parser.sheets"] += 1
        c["ooxml.sheet_parser.cells"] += len(grid.cells)

    def fast_result(grid, _args) -> None:
        if grid is not None:
            c["ooxml.sheet_parser.fast_sheets"] += 1

    def tables_found(found, _args) -> None:
        c["tables.detect.calls"] += 1
        c["tables.detect.candidates"] += len(found)

    def drawing_parsed(drawing, _args) -> None:
        c["ooxml.drawing.drawings"] += 1
        c["ooxml.drawing.charts"] += len(drawing.charts)

    def shapes_built(shapes, _args) -> None:
        c["extract.shapes.shapes"] += len(shapes)

    def serialize_start(args) -> None:
        # _workbook_spans_into(workbook, opts, out_kinds, out_texts, out_refs)
        tracer._serialize_base = len(args[3])

    def spans_emitted(_none, args) -> None:
        texts, base = args[3], tracer._serialize_base
        c["extract.document.spans_out"] += len(texts) - base
        c["extract.document.span_bytes_out"] += sum(len(t) for t in texts[base:])

    def batch_start(args) -> None:
        tracer._doc_ids = args[1].column("doc_id").to_pylist()
        tracer._doc_pos = 0

    def doc_start(_args) -> None:
        ids = tracer._doc_ids
        tracer.trace_id = ids[tracer._doc_pos] if tracer._doc_pos < len(ids) else ""

    def doc_done(_result, _args) -> None:
        tracer._doc_pos += 1
        finish_document(tracer)

    tracer.wrap(ExtractActor, "__call__", "stages.actor", before=batch_start,
                after=batch_done)
    tracer.wrap(document, "extract_document_spans_columnar", "extract.document",
                before=doc_start, after=doc_done)
    tracer.wrap(VirtualPackage, "from_spans", "ooxml.package", after=package_built)
    tracer.wrap(VirtualPackage, "from_xlsx_bytes", "ooxml.package", after=package_built)
    tracer.count_calls(VirtualPackage, "read_text", opened)
    tracer.count_calls(VirtualPackage, "read_xml", opened)
    for module in (document, api):
        tracer.wrap(module, "extract_workbook", "extract.document")
    tracer.wrap(document, "parse_workbook", "ooxml.workbook_parser")
    tracer.wrap(document, "_parse_styles_safe", "ooxml.styles")
    tracer.wrap(document, "parse_styles", "ooxml.styles")
    tracer.wrap(document, "parse_shared_strings", "ooxml.sheet_parser")
    tracer.wrap(document, "parse_sheet", "ooxml.sheet_parser", after=sheet_parsed)
    tracer.count_calls(sheet_parser, "_parse_sheet_fast", fast_result)
    tracer.wrap(document, "detect_tables", "tables.detect", after=tables_found,
                fail_key="tables.detect.failed")
    tracer.wrap(document, "parse_sheet_drawing", "ooxml.drawing", after=drawing_parsed,
                fail_key="ooxml.drawing.failed")
    tracer.wrap(document, "build_shapes_from_drawing", "extract.shapes", after=shapes_built)
    tracer.wrap(document, "_workbook_spans_into", "extract.serialize",
                before=serialize_start, after=spans_emitted)


def finish_document(tracer: Tracer) -> None:
    """Fold the per-package opened-part sets into the used-part counter."""
    tracer.counts["ooxml.package.parts_used"] += sum(len(s) for s in tracer._opened.values())
    tracer._opened.clear()


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer in-process metrics as {name: (value, unit)}."""
    c, ms = tracer.counts, lambda layer: tracer.self_s.get(layer, 0.0) * 1000.0
    decoded = c.get("ooxml.package.parts_decoded", 0.0)
    sheets = c.get("ooxml.sheet_parser.sheets", 0.0)
    return {
        "ooxml.package.self_ms": (ms("ooxml.package"), "ms"),
        "ooxml.package.parts_decoded": (decoded, "count"),
        "ooxml.package.bytes_decoded": (c.get("ooxml.package.bytes_decoded", 0.0), "bytes"),
        "ooxml.package.parts_used_ratio": (
            c.get("ooxml.package.parts_used", 0.0) / decoded if decoded else 0.0, "ratio"),
        "ooxml.workbook_parser.self_ms": (ms("ooxml.workbook_parser"), "ms"),
        "ooxml.styles.self_ms": (ms("ooxml.styles"), "ms"),
        "ooxml.sheet_parser.self_ms": (ms("ooxml.sheet_parser"), "ms"),
        "ooxml.sheet_parser.shared_strings_ms": (
            tracer.total_s.get("document.parse_shared_strings", 0.0) * 1000.0, "ms"),
        "ooxml.sheet_parser.sheets": (sheets, "count"),
        "ooxml.sheet_parser.cells": (c.get("ooxml.sheet_parser.cells", 0.0), "count"),
        "ooxml.sheet_parser.fast_path_ratio": (
            c.get("ooxml.sheet_parser.fast_sheets", 0.0) / sheets if sheets else 0.0, "ratio"),
        "tables.detect.self_ms": (ms("tables.detect"), "ms"),
        "tables.detect.calls": (c.get("tables.detect.calls", 0.0), "count"),
        "tables.detect.candidates": (c.get("tables.detect.candidates", 0.0), "count"),
        "tables.detect.failed": (c.get("tables.detect.failed", 0.0), "count"),
        "ooxml.drawing.self_ms": (ms("ooxml.drawing"), "ms"),
        "ooxml.drawing.drawings": (c.get("ooxml.drawing.drawings", 0.0), "count"),
        "ooxml.drawing.charts": (c.get("ooxml.drawing.charts", 0.0), "count"),
        "ooxml.drawing.failed": (c.get("ooxml.drawing.failed", 0.0), "count"),
        "extract.shapes.self_ms": (ms("extract.shapes"), "ms"),
        "extract.shapes.shapes": (c.get("extract.shapes.shapes", 0.0), "count"),
        "extract.document.self_ms": (ms("extract.document"), "ms"),
        "extract.document.serialize_ms": (ms("extract.serialize"), "ms"),
        "extract.document.spans_out": (c.get("extract.document.spans_out", 0.0), "count"),
        "extract.document.span_bytes_out": (
            c.get("extract.document.span_bytes_out", 0.0), "bytes"),
        "stages.actor.self_ms": (ms("stages.actor"), "ms"),
        "stages.actor.batches": (c.get("stages.actor.batches", 0.0), "count"),
    }


def instrument_driver(tracer: Tracer) -> None:
    """Driver-side wrappers around the job: write, read-back and commit."""
    import ray.data

    from exstruct_ray.stages import manifest

    c = tracer.counts
    marks = {"write_start": 0.0, "write_end": 0.0}

    def write_start(_args) -> None:
        marks["write_start"] = _perf()

    def write_done(_result, args) -> None:
        marks["write_end"] = _perf()
        if tracer._stack:  # inside run_extraction_job
            c["stages.manifest.write_s"] += marks["write_end"] - marks["write_start"]
        executed = getattr(args[0], "_write_ds", None) or args[0]
        try:
            tracer.captured.append((executed._plan.stats(), executed._get_stats_summary()))
        except AttributeError:
            pass

    def commit_start(_args) -> None:
        c["stages.manifest.readback_s"] += _perf() - marks["write_end"]

    def committed(_result, _args) -> None:
        c["stages.manifest.partitions"] += 1

    tracer.wrap(ray.data.Dataset, "write_parquet", "stages.pipeline",
                before=write_start, after=write_done)
    tracer.wrap(manifest, "_append_manifest", "stages.manifest",
                before=commit_start, after=committed)
    tracer.wrap(manifest, "run_extraction_job", "stages.manifest")


PIPELINE_ROLES = ("read", "extract", "exchange", "assemble")
_PIPELINE_KEYS = ("wall_s", "cpu_s", "tasks", "rows_out", "bytes_out", "task_skew",
                  "tasks_retried")
_PIPELINE_UNITS = {"wall_s": "s", "cpu_s": "s", "tasks": "count", "rows_out": "count",
                   "bytes_out": "bytes", "task_skew": "ratio", "tasks_retried": "count"}


def op_role(name: str) -> str | None:
    """Map a Ray Data operator name (fused chains included) to a role."""
    if "assemble" in name:
        return "assemble"
    if "extract" in name:
        return "extract"
    if any(k in name for k in ("Sort", "Shuffle", "Aggregate", "Repartition")):
        return "exchange"
    if name.startswith("Read"):
        return "read"
    return None


def pipeline_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-role operator numbers from the ``Dataset.stats()`` the driver
    wrappers captured at each write."""
    agg = {r: {k: 0.0 for k in _PIPELINE_KEYS} for r in PIPELINE_ROLES}
    walls: dict[str, list[float]] = {r: [] for r in PIPELINE_ROLES}
    spilled = 0.0
    for raw, summary in tracer.captured:
        times: dict[str, float] = {}
        pending = [summary]
        while pending:
            s = pending.pop()
            for op in s.operators_stats:
                times[op.operator_name] = float(op.time_total_s or 0.0)
            pending.extend(s.parents)
        spilled += float(raw.dataset_bytes_spilled or 0)
        pending, seen = [raw], set()
        while pending:
            s = pending.pop()
            if id(s) in seen:
                continue
            seen.add(id(s))
            pending.extend(s.parents)
            roles = []
            for name, blocks in s.metadata.items():
                role = op_role(name)
                if role is None:
                    continue
                roles.append(role)
                a = agg[role]
                a["wall_s"] += times.get(name, 0.0)
                for b in blocks:
                    stats = b.exec_stats or {}
                    stats = stats if isinstance(stats, dict) else vars(stats)
                    a["cpu_s"] += stats.get("cpu_time_s", 0.0) or 0.0
                    a["tasks"] += 1
                    a["rows_out"] += b.num_rows or 0
                    a["bytes_out"] += b.size_bytes or 0
                    walls[role].append(stats.get("wall_time_s", 0.0) or 0.0)
            if roles:
                agg[roles[0]]["tasks_retried"] += (s.extra_metrics or {}).get(
                    "num_tasks_failed", 0) or 0
    out: dict[str, tuple[float, str]] = {}
    for role in PIPELINE_ROLES:
        w = sorted(walls[role])
        if w and w[len(w) // 2] > 0:
            agg[role]["task_skew"] = w[-1] / w[len(w) // 2]
        for key in _PIPELINE_KEYS:
            out[f"stages.pipeline.{role}.{key}"] = (agg[role][key], _PIPELINE_UNITS[key])
    out["stages.pipeline.spilled_mb"] = (spilled / 2**20, "MB")
    c = tracer.counts
    for key in ("partitions", "write_s", "readback_s"):
        unit = "count" if key == "partitions" else "s"
        out[f"stages.manifest.{key}"] = (c.get(f"stages.manifest.{key}", 0.0), unit)
    out["stages.manifest.commit_s"] = (tracer.total_s.get("manifest._append_manifest", 0.0), "s")
    return out


def load_inprocess_docs(workload: str, inp: str):
    """The in-process document set: the first half of the workload's input
    (parts as Arrow batches of 128 rows, or ``.xlsx`` bytes)."""
    import os

    import pyarrow.parquet as pq

    if workload == "xlsx_bytes":
        xdir = os.path.join(inp, "xlsx")
        names = sorted(os.listdir(xdir))
        docs = []
        for name in names[: len(names) // 2]:
            with open(os.path.join(xdir, name), "rb") as fh:
                docs.append((name.rsplit(".", 1)[0], fh.read()))
        return docs
    pdir = os.path.join(inp, "parts")
    names = sorted(os.listdir(pdir))
    batches = []
    for name in names[: max(1, len(names) // 2)]:
        table = pq.read_table(os.path.join(pdir, name))
        batches.extend(table.slice(i, 128) for i in range(0, table.num_rows, 128))
    return batches


def inprocess_pass(workload: str, docs, tracer: Tracer | None) -> tuple[float, float, int]:
    """Drive the public entry points over ``docs`` in this process, no Ray.

    Returns (seconds inside the entry points, summed per-document ms as the
    job would report it, documents). With a tracer, every layer is wrapped
    for the pass and unwrapped afterwards.
    """
    from exstruct_ray.api import extract_spans
    from exstruct_ray.stages.actor import ExtractActor

    if tracer is not None:
        instrument(tracer)
    total = doc_ms = 0.0
    n = 0
    try:
        if workload == "xlsx_bytes":
            for doc_id, data in docs:
                start = _perf()
                if tracer is None:
                    extract_spans(data)
                else:
                    tracer.trace_id = doc_id
                    with tracer.span("udf.extract_spans", "extract.document"):
                        extract_spans(data)
                    finish_document(tracer)
                elapsed = _perf() - start
                total += elapsed
                doc_ms += elapsed * 1000.0
                n += 1
        else:
            actor = ExtractActor()
            for batch in docs:
                start = _perf()
                out = actor(batch)
                total += _perf() - start
                doc_ms += sum(out.column("parse_ms").to_pylist())
                n += batch.num_rows
    finally:
        if tracer is not None:
            tracer.restore()
    return total, doc_ms, n
