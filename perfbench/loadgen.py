"""Seeded load generator for the extraction benchmark.

Every input is a pure function of (workload, seed, GENERATOR_VERSION, size):
the same triple always yields byte-identical files and the same input
digest. Generation runs in the calling process only (no worker pool) and
its time is reported apart from every timed window.

Layout under ``<cache>/<workload>-g<ver>-e<engine ver>-s<seed>-n<docs>/``:

* ``parts/part-*.parquet`` -- (doc_id, spans) rows of OOXML part XML, the
  engine's input table. For ``xlsx_bytes`` these are the reference parts
  the checker compares against; the program only sees ``xlsx/``.
* ``xlsx/doc-*.xlsx`` -- ``xlsx_bytes`` only: the same workbooks as real
  zip packages, some with a large binary media part no parser opens.
* ``meta.json`` -- doc ids, giant ids, file counts and the input digest.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import shutil
import time
import zipfile

# Bump when any generated byte changes so cached inputs regenerate.
GENERATOR_VERSION = 1

# Giant documents in parts_mix come from datagen's 1/97 giant family.
GIANT_EVERY = 97

WORKLOADS: dict[str, dict] = {
    "parts_mix": {
        # 30 x 97: each job holds exactly 30 giants (1.03 %), so the p99
        # rank always falls inside the giant population, never on the
        # boundary between small and giant documents.
        "docs": 2910,
        "files": 16,
        "files_per_partition": 8,
    },
    "giant_explode": {
        # 240 docs: the five jobs of a run give 1,200 samples, so exactly
        # 12 documents lie beyond the nearest-rank p99.
        "docs": 240,
        "min_jobs": 5,
        "files": 8,
        "files_per_partition": 8,
        "giant_every": 4,
        "giant_sheets": (3, 4),
        "giant_rows": (100, 160),
        "giant_cols": 5,
        # Giants carry >= ~50 KB of part text, small docs < 10 KB.
        "explode_threshold": 32768,
    },
    "xlsx_bytes": {
        "docs": 1455,
        "media_every": 3,
        "media_bytes": (65536, 196608),
        "blocks": 8,
    },
}

WARMUP = {"docs": 40, "files": 4}


def input_dir(cache: str, workload: str, seed: int) -> str:
    from exstruct_ray import __version__
    from exstruct_ray.datagen.corpus import GENERATOR_VERSION as ENGINE_GEN

    n = WORKLOADS[workload]["docs"]
    tag = f"{workload}-g{GENERATOR_VERSION}.{ENGINE_GEN}-e{__version__}-s{seed}-n{n}"
    return os.path.join(cache, "inputs", tag)


def _giant_block_workbook(rng: random.Random, params: dict):
    """A multi-sheet workbook of large bordered blocks over shared strings."""
    from exstruct_ray.datagen.builder import BOX, WorkbookBuilder

    wb = WorkbookBuilder()
    wb.use_shared_strings = True
    cols = params["giant_cols"]
    for s in range(rng.randint(*params["giant_sheets"])):
        sh = wb.sheet(f"Block{s + 1}")
        rows = rng.randint(*params["giant_rows"])
        sh.fill_block(1, 0, [[f"h{j}" for j in range(cols)]], style=BOX)
        for r in range(rows):
            sh.fill_block(
                2 + r,
                0,
                [[r, f"item{r % 40}", round(rng.random() * 1000, 2)]
                 + [f"k{rng.randint(0, 60)}" for _ in range(cols - 3)]],
                style=BOX,
            )
        # A second, smaller bordered table below a gap: table detection
        # must split the sheet into two candidates.
        top = rows + 6
        for r in range(rng.randint(8, 24)):
            sh.fill_block(top + r, 1, [[f"t{r}", r * 3, r % 7]], style=BOX)
    return wb


def build_rows(workload: str, seed: int) -> list[dict]:
    """The (doc_id, spans) rows of one workload's corpus."""
    from exstruct_ray.datagen.corpus import build_document

    params = WORKLOADS[workload]
    n = params["docs"]
    if workload in ("parts_mix", "xlsx_bytes"):
        return [build_document(i, seed=seed, include_giant=True) for i in range(n)]
    rows = []
    for i in range(n):
        if i % params["giant_every"] == params["giant_every"] - 1:
            rng = random.Random((seed << 24) ^ (i * 7919) ^ 0x5A5A)
            spans = _giant_block_workbook(rng, params).build_parts()
            rows.append({"doc_id": f"doc-{i:012d}", "spans": spans})
        else:
            rows.append(build_document(i, seed=seed, include_giant=False))
    return rows


def is_giant(workload: str, doc_index: int) -> bool:
    if workload == "giant_explode":
        every = WORKLOADS[workload]["giant_every"]
        return doc_index % every == every - 1
    return doc_index % GIANT_EVERY == GIANT_EVERY - 1


def _content_types(part_names: list[str]) -> str:
    overrides = "".join(
        f'<Override PartName="/{name}" ContentType="application/xml"/>'
        for name in part_names
        if name.endswith(".xml")
    )
    return (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        '<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">'
        '<Default Extension="rels" '
        'ContentType="application/vnd.openxmlformats-package.relationships+xml"/>'
        '<Default Extension="png" ContentType="image/png"/>'
        f"{overrides}</Types>"
    )


_ROOT_RELS = (
    '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
    '<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">'
    '<Relationship Id="rId1" Type="http://schemas.openxmlformats.org/officeDocument/'
    '2006/relationships/officeDocument" Target="xl/workbook.xml"/></Relationships>'
)


def xlsx_bytes(spans: list[dict], media: bytes | None) -> bytes:
    """Zip one workbook's parts into a real .xlsx package (fixed timestamps)."""
    names = [s["media_ref"] for s in spans]
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
        def put(name: str, data: bytes) -> None:
            zf.writestr(zipfile.ZipInfo(name, date_time=(2024, 1, 1, 0, 0, 0)), data,
                        compress_type=zipfile.ZIP_DEFLATED)

        put("[Content_Types].xml", _content_types(names).encode())
        put("_rels/.rels", _ROOT_RELS.encode())
        for s in spans:
            put(s["media_ref"], s["text"].encode("utf-8"))
        if media is not None:
            put("xl/media/image1.png", media)
    return buf.getvalue()


def _digest_rows(rows: list[dict]) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(row["doc_id"].encode())
        for s in row["spans"]:
            for key in ("kind", "media_ref", "text"):
                h.update(b"\x00" + (s[key] or "").encode())
    return h.hexdigest()


def _write_parts(rows: list[dict], out: str, files: int) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq

    from exstruct_ray.datagen.corpus import DOC_SCHEMA

    os.makedirs(out)
    for f in range(files):
        # Contiguous slices keep each file's doc ids ordered.
        lo, hi = len(rows) * f // files, len(rows) * (f + 1) // files
        pq.write_table(
            pa.Table.from_pylist(rows[lo:hi], schema=DOC_SCHEMA),
            os.path.join(out, f"part-{f:05d}.parquet"),
        )


def generate(cache: str, workload: str, seed: int) -> tuple[str, dict]:
    """Materialise one workload's inputs (once per key); returns (dir, meta)."""
    path = input_dir(cache, workload, seed)
    meta_path = os.path.join(path, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path, encoding="utf-8") as fh:
            return path, json.load(fh)
    start = time.perf_counter()
    tmp = f"{path}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    params = WORKLOADS[workload]
    rows = build_rows(workload, seed)
    meta = {
        "workload": workload,
        "seed": seed,
        "generator_version": GENERATOR_VERSION,
        "params": dict(params),
        "doc_ids": [r["doc_id"] for r in rows],
        "giants": [r["doc_id"] for i, r in enumerate(rows) if is_giant(workload, i)],
    }
    if workload == "xlsx_bytes":
        _write_parts(rows, os.path.join(tmp, "parts"), 8)
        xdir = os.path.join(tmp, "xlsx")
        os.makedirs(xdir)
        rng = random.Random(seed * 1_000_003 + 17)
        media_docs = 0
        media_total = 0
        for i, row in enumerate(rows):
            media = None
            if i % params["media_every"] == 0:
                media = rng.randbytes(rng.randint(*params["media_bytes"]))
                media_docs += 1
                media_total += len(media)
            with open(os.path.join(xdir, f"{row['doc_id']}.xlsx"), "wb") as fh:
                fh.write(xlsx_bytes(row["spans"], media))
        meta["media_docs"] = media_docs
        meta["media_bytes"] = media_total
        digest = hashlib.sha256(_digest_rows(rows).encode())
        for name in sorted(os.listdir(xdir)):
            with open(os.path.join(xdir, name), "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
        meta["input_digest"] = digest.hexdigest()
    else:
        _write_parts(rows, os.path.join(tmp, "parts"), params["files"])
        meta["input_digest"] = _digest_rows(rows)
    meta["generate_s"] = time.perf_counter() - start
    with open(os.path.join(tmp, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    _publish(tmp, path)
    with open(meta_path, encoding="utf-8") as fh:
        return path, json.load(fh)


def _publish(tmp: str, path: str) -> None:
    """Move a finished directory into place. If another process got there
    first, keep its copy: the inputs are identical by construction."""
    try:
        os.rename(tmp, path)
    except OSError:
        if not os.path.isdir(path):
            raise
        shutil.rmtree(tmp, ignore_errors=True)


def generate_warmup(cache: str) -> str:
    """A tiny parts corpus and its .xlsx twins for the untimed warm-up."""
    from exstruct_ray import __version__

    path = os.path.join(cache, "inputs", f"warmup-g{GENERATOR_VERSION}-e{__version__}")
    if os.path.exists(os.path.join(path, "done")):
        return path
    from exstruct_ray.datagen.corpus import build_document

    tmp = f"{path}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    rows = [build_document(i, seed=0, include_giant=True) for i in range(WARMUP["docs"])]
    _write_parts(rows, os.path.join(tmp, "parts"), WARMUP["files"])
    os.makedirs(os.path.join(tmp, "xlsx"))
    for row in rows:
        with open(os.path.join(tmp, "xlsx", f"{row['doc_id']}.xlsx"), "wb") as fh:
            fh.write(xlsx_bytes(row["spans"], None))
    open(os.path.join(tmp, "done"), "w").close()
    _publish(tmp, path)
    return path
