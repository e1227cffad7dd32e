"""Resumable partitioned job tests (manifest, lineage, skip-on-resume)."""

import json
import os

import pytest

from exstruct_ray.config import ExtractOptions
from exstruct_ray.datagen.corpus import write_corpus_parquet
from exstruct_ray.stages.manifest import load_manifest, run_extraction_job


class TestResumableJob:
    def test_run_and_resume(self, ray_session, tmp_path):
        input_dir = tmp_path / "input"
        write_corpus_parquet(str(input_dir), 40, seed=42, rows_per_file=10)
        out_dir = tmp_path / "out"

        summary = run_extraction_job(
            str(input_dir), str(out_dir), files_per_partition=2
        )
        assert summary["partitions"] == 2
        assert summary["executed"] == 2
        assert summary["docs"] == 40
        assert summary["errors"] == 0

        manifest = load_manifest(str(out_dir))
        assert set(manifest) == {0, 1}
        for rec in manifest.values():
            assert rec.docs == 20
            assert rec.wall_sec > 0
            assert len(rec.input_files) == 2
        # partitioned output layout, one dir per partition
        assert sorted(os.listdir(out_dir))[:2] == ["_manifest.jsonl", "partition=00000"]

        # resume: nothing re-executed
        summary2 = run_extraction_job(
            str(input_dir), str(out_dir), files_per_partition=2
        )
        assert summary2["skipped"] == 2
        assert summary2["executed"] == 0
        assert summary2["docs"] == 40

    def test_config_change_invalidates(self, ray_session, tmp_path):
        input_dir = tmp_path / "input"
        write_corpus_parquet(str(input_dir), 10, seed=42, rows_per_file=10)
        out_dir = tmp_path / "out"
        run_extraction_job(str(input_dir), str(out_dir), files_per_partition=1)
        summary = run_extraction_job(
            str(input_dir),
            str(out_dir),
            ExtractOptions(mode="verbose"),
            files_per_partition=1,
        )
        assert summary["executed"] == 1  # hash differs -> re-run

    def test_partial_manifest_resumes_missing_only(self, ray_session, tmp_path):
        input_dir = tmp_path / "input"
        write_corpus_parquet(str(input_dir), 30, seed=42, rows_per_file=10)
        out_dir = tmp_path / "out"
        run_extraction_job(str(input_dir), str(out_dir), files_per_partition=1)
        # drop one manifest line to simulate a crash mid-job
        manifest_path = out_dir / "_manifest.jsonl"
        lines = manifest_path.read_text().strip().splitlines()
        manifest_path.write_text("\n".join(lines[:-1]) + "\n")
        summary = run_extraction_job(
            str(input_dir), str(out_dir), files_per_partition=1
        )
        assert summary["skipped"] == 2
        assert summary["executed"] == 1

    def test_stale_partition_files_cleared_on_rerun(self, ray_session, tmp_path):
        """A crashed attempt's leftover files must not pollute the re-run."""
        input_dir = tmp_path / "input"
        write_corpus_parquet(str(input_dir), 20, seed=42, rows_per_file=10)
        out_dir = tmp_path / "out"
        run_extraction_job(str(input_dir), str(out_dir), files_per_partition=1)
        # simulate: partition 1 crashed after writing a file but before its
        # manifest commit — stale file present, manifest line missing
        manifest_path = out_dir / "_manifest.jsonl"
        lines = manifest_path.read_text().strip().splitlines()
        manifest_path.write_text(lines[0] + "\n")
        part1 = out_dir / "partition=00001"
        stale = part1 / "stale-leftover.parquet"
        import pyarrow as pa
        import pyarrow.parquet as pq

        pq.write_table(
            pa.table({"n_spans": [999], "n_errors": [999]}), str(stale)
        )
        summary = run_extraction_job(
            str(input_dir), str(out_dir), files_per_partition=1
        )
        assert summary["executed"] == 1
        assert not stale.exists()
        manifest = load_manifest(str(out_dir))
        assert manifest[1].docs == 10
        assert manifest[1].errors == 0


def _output_rows(out_dir):
    """doc_id -> (spans, n_spans, n_errors) over every written file, plus
    the relative file paths."""
    import pyarrow.parquet as pq

    rows, files = {}, []
    for folder, _dirs, names in os.walk(out_dir):
        for name in sorted(names):
            if not name.endswith(".parquet"):
                continue
            path = os.path.join(folder, name)
            files.append(os.path.relpath(path, out_dir))
            for r in pq.read_table(path).to_pylist():
                assert r["doc_id"] not in rows, r["doc_id"]
                rows[r["doc_id"]] = (r["spans"], r["n_spans"], r["n_errors"])
    return rows, sorted(files)


class TestOneExecution:
    @pytest.mark.parametrize("explode_threshold", [None, 0])
    def test_read_extract_write_fuse_into_one_operator(
        self, ray_session, tmp_path, explode_threshold
    ):
        """The job plan has one shape whether or not a threshold is set."""
        from exstruct_ray.stages.manifest import build_job_dataset, list_input_files

        write_corpus_parquet(str(tmp_path / "in"), 8, seed=42, rows_per_file=2)
        files = list_input_files(str(tmp_path / "in"))
        assert len(files) == 4
        ds = build_job_dataset(
            {0: files[:2], 1: files[2:]},
            str(tmp_path / "out"),
            explode_threshold=explode_threshold,
        )
        written = ds.materialize()
        stats = written.stats()
        operators = [
            line for line in stats.splitlines() if line.startswith("Operator ")
        ]
        assert len(operators) == 1, stats
        assert "ReadParquet->MapBatches(" in operators[0], stats
        assert written.sum("docs") == 8
        name = operators[0].split()[2].rstrip(":")
        assert name == (
            "ReadParquet->MapBatches(split_or_extract)->MapBatches(write_partitions)"
        ), stats

    def test_bad_options_raise_before_leftovers_are_removed(self, ray_session, tmp_path):
        """An unsupported mode is a ``ValueError`` when the job or the plan
        is built, not a task failure after the job has started; the job
        has not yet removed a crashed attempt's partition directory."""
        import ray.data

        from exstruct_ray.stages.pipeline import build_extraction_pipeline

        input_dir = tmp_path / "input"
        write_corpus_parquet(str(input_dir), 10, seed=42, rows_per_file=10)
        leftover = tmp_path / "out" / "partition=00000"
        leftover.mkdir(parents=True)
        (leftover / "stale.parquet").write_bytes(b"stale")
        bad = ExtractOptions(mode="com")
        with pytest.raises(ValueError, match="Unsupported mode"):
            run_extraction_job(str(input_dir), str(tmp_path / "out"), bad)
        assert (leftover / "stale.parquet").read_bytes() == b"stale"
        ds = ray.data.from_items([{"doc_id": "d", "spans": []}])
        with pytest.raises(ValueError, match="Unsupported mode"):
            build_extraction_pipeline(ds, bad)

    def test_first_wave_starts_at_full_width(self, ray_session, tmp_path):
        """With an object store budget that fits one task at Ray Data's
        pre-output estimate (2 × 128 MiB), the first four tasks of a job
        still run side by side: the job caps its plan's block size at its
        largest input file. The global DataContext keeps its default."""
        import time

        import ray
        from ray.data import DataContext, ExecutionResources
        from ray.data.context import DEFAULT_TARGET_MAX_BLOCK_SIZE

        inp = str(tmp_path / "in")
        write_corpus_parquet(inp, 1200, seed=42, rows_per_file=300)
        ctx = DataContext.get_current()
        limits = ctx.execution_options.resource_limits
        ctx.execution_options.resource_limits = ExecutionResources(
            object_store_memory=256 * 1024 * 1024
        )
        try:
            run_extraction_job(inp, str(tmp_path / "warm"), files_per_partition=2)
            since = time.time() * 1e6
            summary = run_extraction_job(inp, str(tmp_path / "out"), files_per_partition=2)
        finally:
            ctx.execution_options.resource_limits = limits
        assert summary["docs"] == 1200
        assert DataContext.get_current().target_max_block_size == DEFAULT_TARGET_MAX_BLOCK_SIZE

        deadline = time.monotonic() + 30
        while True:  # workers report task events about once a second
            tasks = sorted(
                (e["ts"], e["ts"] + e["dur"])
                for e in ray.timeline()
                if e.get("ph") == "X"
                and e.get("cat", "").startswith("task::ReadParquet->MapBatches(")
                and e["ts"] >= since
            )
            if len(tasks) >= 4 or time.monotonic() > deadline:
                break
            time.sleep(0.5)
        assert len(tasks) == 4, tasks
        first_end = min(end for _, end in tasks)
        assert all(start < first_end for start, _ in tasks), tasks

    def test_crash_after_first_commit_resumes_the_rest(
        self, ray_session, tmp_path, monkeypatch
    ):
        from exstruct_ray.stages import manifest as mod

        input_dir = tmp_path / "input"
        write_corpus_parquet(str(input_dir), 40, seed=42, rows_per_file=10)
        clean_dir = tmp_path / "clean"
        run_extraction_job(str(input_dir), str(clean_dir), files_per_partition=1)
        clean_rows, clean_files = _output_rows(clean_dir)

        out_dir = tmp_path / "out"
        real_append = mod._append_manifest
        calls = []

        def crash_after_first(output_dir, record):
            if calls:
                raise OSError("simulated crash during commit")
            calls.append(record.partition_id)
            real_append(output_dir, record)

        monkeypatch.setattr(mod, "_append_manifest", crash_after_first)
        with pytest.raises(OSError, match="simulated crash"):
            run_extraction_job(str(input_dir), str(out_dir), files_per_partition=1)
        monkeypatch.setattr(mod, "_append_manifest", real_append)
        assert set(load_manifest(str(out_dir))) == set(calls)

        summary = run_extraction_job(
            str(input_dir), str(out_dir), files_per_partition=1
        )
        assert summary["skipped"] == 1
        assert summary["executed"] == 3
        assert summary["docs"] == 40
        manifest = load_manifest(str(out_dir))
        assert set(manifest) == {0, 1, 2, 3}
        assert all(rec.docs == 10 for rec in manifest.values())
        rows, files = _output_rows(out_dir)
        assert files == clean_files  # no stale or duplicate files
        assert rows == clean_rows

    def test_writing_a_block_twice_leaves_one_file(self, tmp_path):
        """A retried task rewrites its block: same files, same stats."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from exstruct_ray.datagen.corpus import generate_corpus_table
        from exstruct_ray.stages.actor import OUTPUT_SCHEMA, ExtractActor
        from exstruct_ray.stages.manifest import write_partition_files

        out = ExtractActor()(generate_corpus_table(6, seed=42))
        block = out.append_column(
            "partition", pa.array([3, 3, 7, 3, 7, 7], pa.int32())
        )
        first = write_partition_files(block, str(tmp_path))
        second = write_partition_files(block, str(tmp_path))
        assert first.equals(second)
        assert first.column("partition").to_pylist() == [3, 7]
        assert first.column("docs").to_pylist() == [3, 3]
        rows, files = _output_rows(tmp_path)
        assert [os.path.dirname(f) for f in files] == [
            "partition=00003", "partition=00007"
        ]
        assert sorted(os.listdir(tmp_path / "partition=00003")) == [
            os.path.basename(files[0])
        ]
        assert set(rows) == set(out.column("doc_id").to_pylist())
        schema = pq.read_schema(tmp_path / files[0]).remove_metadata()
        assert schema.equals(OUTPUT_SCHEMA)

    def test_count_mismatch_raises_and_never_commits(
        self, ray_session, tmp_path, monkeypatch
    ):
        from exstruct_ray.stages import manifest as mod

        input_dir = tmp_path / "input"
        write_corpus_parquet(str(input_dir), 20, seed=42, rows_per_file=10)
        files = mod.list_input_files(str(input_dir))
        real_rows = mod._footer_rows
        monkeypatch.setattr(
            mod,
            "_footer_rows",
            lambda fs: real_rows(fs) + (1 if fs == files[1:] else 0),
        )
        with pytest.raises(RuntimeError, match="not committed"):
            run_extraction_job(str(input_dir), str(tmp_path / "out"), files_per_partition=1)
        assert set(load_manifest(str(tmp_path / "out"))) == {0}

    def test_job_leaves_no_threads_behind(self, ray_session, tmp_path):
        import threading

        input_dir = tmp_path / "input"
        write_corpus_parquet(str(input_dir), 20, seed=42, rows_per_file=5)
        # Warm-up: Ray Data starts its long-lived helper threads once.
        run_extraction_job(str(input_dir), str(tmp_path / "warm"), files_per_partition=2)
        before = set(threading.enumerate())
        summary = run_extraction_job(
            str(input_dir), str(tmp_path / "out"), files_per_partition=2
        )
        assert summary["docs"] == 20
        # Threads of earlier tests may end meanwhile; none may start here.
        assert set(threading.enumerate()) - before == set()
        assert threading.active_count() <= len(before)


def _giant_doc(doc_id: str, sheets: int, rows: int) -> dict:
    """A multi-sheet workbook document whose payload grows with ``rows``."""
    from exstruct_ray.datagen.builder import WorkbookBuilder

    wb = WorkbookBuilder()
    for s in range(sheets):
        sheet = wb.sheet(f"S{s}")
        for r in range(rows):
            sheet.set(r + 1, 0, f"{doc_id}-{s}-{r}").set(r + 1, 1, r)
    return {"doc_id": doc_id, "spans": wb.build_parts()}


def _write_docs(path, docs) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq

    from exstruct_ray.datagen.corpus import DOC_SCHEMA

    pq.write_table(pa.Table.from_pylist(docs, schema=DOC_SCHEMA), str(path))


def _payloads(path):
    import pyarrow.parquet as pq

    from exstruct_ray.stages.pipeline import doc_payload_chars

    table = pq.read_table(str(path))
    return table.column("doc_id").to_pylist(), doc_payload_chars(table.column("spans"))


def operator_lines(ds) -> list[str]:
    """The ``Operator ...`` lines of an executed Dataset's stats."""
    return [line for line in ds.stats().splitlines() if line.startswith("Operator ")]


class TestExplodeJob:
    def test_giants_run_in_the_read_task(self, ray_session, tmp_path):
        """Giant docs are split, extracted and reassembled inside the fused
        read-and-write task: one operator, and the same partition files
        as the explode-off job."""
        from exstruct_ray.datagen.corpus import build_document
        from exstruct_ray.stages.manifest import build_job_dataset, list_input_files

        inp = tmp_path / "in"
        inp.mkdir()
        for k in range(4):
            small = [build_document(10 * k + i, seed=42) for i in range(3)]
            giant = [_giant_doc(f"g{k}-{j}", 3, 40 + j) for j in range(2)]
            # Giants first: the written file is named after its first doc.
            docs = [giant[0], small[0], giant[1], *small[1:]]
            _write_docs(inp / f"part-{k}.parquet", docs)
        files = list_input_files(str(inp))
        giants = [p for f in files for d, p in zip(*_payloads(f)) if d.startswith("g")]
        threshold = min(giants)
        for f in files:
            ids, payload = _payloads(f)
            assert all((p >= threshold) == d.startswith("g") for d, p in zip(ids, payload))

        ds = build_job_dataset(
            {0: files[:2], 1: files[2:]},
            str(tmp_path / "plan"),
            explode_threshold=threshold,
        )
        written = ds.materialize()
        assert written.sum("docs") == 20
        operators = operator_lines(written)
        assert len(operators) == 1, operators
        assert "ReadParquet->MapBatches(split_or_extract)" in operators[0]

        run_extraction_job(
            str(inp), str(tmp_path / "on"), files_per_partition=2, explode_threshold=threshold
        )
        run_extraction_job(str(inp), str(tmp_path / "off"), files_per_partition=2)
        assert _output_rows(tmp_path / "on") == _output_rows(tmp_path / "off")

    def test_lone_giant_file_stays_in_its_partition(self, ray_session, tmp_path):
        """A file holding one multi-sheet giant next to files of ordinary
        docs: still one fused operator, and every row lands in its own
        partition."""
        import pyarrow.parquet as pq

        from exstruct_ray.datagen.corpus import build_document
        from exstruct_ray.stages.manifest import build_job_dataset, list_input_files

        inp = tmp_path / "in"
        inp.mkdir()
        _write_docs(inp / "part-0.parquet", [_giant_doc("giant", 4, 60)])
        for k in (1, 2):
            docs = [build_document(10 * k + i, seed=42) for i in range(5)]
            _write_docs(inp / f"part-{k}.parquet", docs)
        files = list_input_files(str(inp))
        threshold = int(_payloads(files[0])[1][0])
        assert all((_payloads(f)[1] < threshold).all() for f in files[1:])

        ds = build_job_dataset(
            {k: [f] for k, f in enumerate(files)},
            str(tmp_path / "plan"),
            explode_threshold=threshold,
        )
        written = ds.materialize()
        assert written.sum("docs") == 11
        assert len(operator_lines(written)) == 1

        out = tmp_path / "out"
        summary = run_extraction_job(
            str(inp), str(out), files_per_partition=1, explode_threshold=threshold
        )
        assert summary["executed"] == 3
        manifest = load_manifest(str(out))
        for pid, path in enumerate(files):
            want = pq.read_table(path, columns=["doc_id"]).column("doc_id").to_pylist()
            folder = out / f"partition={pid:05d}"
            got = []
            for name in sorted(os.listdir(folder)):
                got += pq.read_table(folder / name).column("doc_id").to_pylist()
            assert sorted(got) == sorted(want)
            assert manifest[pid].docs == pq.read_metadata(path).num_rows
        run_extraction_job(str(inp), str(tmp_path / "off"), files_per_partition=1)
        assert _output_rows(out) == _output_rows(tmp_path / "off")

    def test_crash_after_first_commit_resumes_the_rest(
        self, ray_session, tmp_path, monkeypatch
    ):
        from exstruct_ray.stages import manifest as mod

        input_dir = tmp_path / "input"
        write_corpus_parquet(str(input_dir), 30, seed=42, rows_per_file=10)
        _write_docs(input_dir / "part-9.parquet", [_giant_doc("giant", 3, 40)])
        job = dict(files_per_partition=1, explode_threshold=1000)
        run_extraction_job(str(input_dir), str(tmp_path / "clean"), **job)
        clean = _output_rows(tmp_path / "clean")

        out_dir = tmp_path / "out"
        real_append = mod._append_manifest
        calls = []

        def crash_after_first(output_dir, record):
            if calls:
                raise OSError("simulated crash during commit")
            calls.append(record.partition_id)
            real_append(output_dir, record)

        monkeypatch.setattr(mod, "_append_manifest", crash_after_first)
        with pytest.raises(OSError, match="simulated crash"):
            run_extraction_job(str(input_dir), str(out_dir), **job)
        monkeypatch.setattr(mod, "_append_manifest", real_append)
        assert set(load_manifest(str(out_dir))) == set(calls)

        ran = []
        real_build = mod.build_job_dataset

        def record_build(pending, *args, **kwargs):
            ran.extend(pending)
            return real_build(pending, *args, **kwargs)

        monkeypatch.setattr(mod, "build_job_dataset", record_build)
        summary = run_extraction_job(str(input_dir), str(out_dir), **job)
        assert summary["skipped"] == 1
        assert summary["executed"] == 3
        assert sorted(ran) == sorted({0, 1, 2, 3} - set(calls))
        assert summary["docs"] == 31
        assert set(load_manifest(str(out_dir))) == {0, 1, 2, 3}
        assert _output_rows(out_dir) == clean


class TestDealFiles:
    """``deal_files`` orders a job's files for Ray's contiguous read split."""

    def test_six_files_on_four_cpus(self):
        from exstruct_ray.stages.manifest import deal_files

        files = ["a", "b", "c", "d", "e", "f"]
        sizes = [10, 60, 30, 50, 20, 40]
        # largest first b d f c, then back e a; the two-file groups go first
        groups = deal_files(files, sizes, 4)
        assert groups == [["f", "a"], ["c", "e"], ["b"], ["d"]]
        totals = [sum(sizes[files.index(f)] for f in g) for g in groups]
        assert totals == [50, 50, 60, 50]

    def test_nine_files_on_four_cpus(self):
        from exstruct_ray.stages.manifest import deal_files

        files = [f"f{k}" for k in range(9)]
        sizes = [10 * (k + 1) for k in range(9)]  # f8 largest
        groups = deal_files(files, sizes, 4)
        assert groups == [["f8", "f1", "f0"], ["f7", "f2"], ["f6", "f3"], ["f5", "f4"]]

    def test_group_lengths_follow_array_split(self):
        import numpy as np

        from exstruct_ray.stages.manifest import deal_files

        for m in range(1, 21):
            files = [f"p{k:02d}" for k in range(m)]
            sizes = [(k * 7919) % 13 for k in range(m)]
            for n in range(1, 7):
                groups = deal_files(files, sizes, n)
                want = [len(c) for c in np.array_split(np.arange(m), n) if len(c)]
                assert [len(g) for g in groups] == want, (m, n)
                assert sorted(f for g in groups for f in g) == files

    def test_more_cpus_than_files_gives_one_file_per_group(self):
        from exstruct_ray.stages.manifest import deal_files

        groups = deal_files(["x", "y", "z"], [5, 9, 7], 8)
        assert groups == [["y"], ["z"], ["x"]]

    def test_equal_sizes_deal_in_path_order(self):
        """Ties keep path order, which is ``list_input_files``'s order;
        a shuffled input deals the same way."""
        from exstruct_ray.stages.manifest import deal_files

        files = [f"p{k}" for k in range(6)]
        want = [["p2", "p5"], ["p3", "p4"], ["p0"], ["p1"]]
        assert deal_files(files, [100] * 6, 4) == want
        assert deal_files(files[::-1], [100] * 6, 4) == want

    def test_ray_reads_each_group_as_one_task(self, ray_session, tmp_path):
        """Pin on Ray's parquet split: a Ray upgrade that cuts the file list
        differently fails here instead of silently unbalancing jobs."""
        from ray.data._internal.datasource.parquet_datasource import ParquetDatasource

        from exstruct_ray.stages.manifest import _footer_bytes, deal_files, list_input_files

        write_corpus_parquet(str(tmp_path), 27, seed=42, rows_per_file=3)
        files = list_input_files(str(tmp_path))
        groups = deal_files(files, [_footer_bytes(f) for f in files], 4)
        assert [len(g) for g in groups] == [3, 2, 2, 2]
        order = [f for g in groups for f in g]
        tasks = ParquetDatasource(order).get_read_tasks(len(groups))
        assert [list(t.metadata.input_files) for t in tasks] == groups


def _uneven_inputs(folder, counts) -> None:
    """One parquet file per entry of ``counts``, holding that many docs."""
    from exstruct_ray.datagen.corpus import build_document

    folder.mkdir()
    start = 0
    for k, n in enumerate(counts):
        docs = [build_document(start + i, seed=42) for i in range(n)]
        _write_docs(folder / f"part-{k:02d}.parquet", docs)
        start += n


def _task_spans(since: float, want: int) -> list[tuple[float, float]]:
    """(start, end) of the fused map tasks that started after ``since``
    (µs), once ``want`` of them are in the timeline and no more arrive."""
    import time

    import ray

    def spans():
        return sorted(
            (e["ts"], e["ts"] + e["dur"])
            for e in ray.timeline()
            if e.get("ph") == "X"
            and e.get("cat", "").startswith("task::ReadParquet->MapBatches(")
            and e["ts"] >= since
        )

    deadline = time.monotonic() + 30
    while len(spans()) < want and time.monotonic() < deadline:
        time.sleep(0.5)  # workers report task events about once a second
    time.sleep(2)  # and a late one would show by now
    return spans()


class TestOneWaveJob:
    COUNTS = [4, 1, 9, 2, 6, 3, 8, 1, 5]  # 9 files, 39 docs

    def test_nine_files_run_as_four_tasks(self, ray_session, tmp_path):
        """9 files on 4 CPUs: one wave of 4 fused tasks, partitions of 2
        files straddling them, every partition complete and every row
        equal to in-process extraction."""
        import time

        import pyarrow.parquet as pq
        import ray

        from exstruct_ray.stages.actor import ExtractActor
        from exstruct_ray.stages.manifest import list_input_files

        inp = tmp_path / "in"
        _uneven_inputs(inp, self.COUNTS)
        files = list_input_files(str(inp))
        # One live worker per CPU: this job's tasks are too short for Ray
        # to start a missing worker before the first task ends.
        hold = ray.remote(num_cpus=1)(lambda s: time.sleep(s))
        ray.get([hold.remote(0.5) for _ in range(4)])
        run_extraction_job(str(inp), str(tmp_path / "warm"), files_per_partition=2)
        since = time.time() * 1e6
        out = tmp_path / "out"
        summary = run_extraction_job(str(inp), str(out), files_per_partition=2)
        assert summary["executed"] == 5
        assert summary["docs"] == sum(self.COUNTS)

        tasks = _task_spans(since, 4)
        assert len(tasks) == 4, tasks
        first_end = min(end for _, end in tasks)
        assert all(start < first_end for start, _ in tasks), tasks

        manifest = load_manifest(str(out))
        assert set(manifest) == {0, 1, 2, 3, 4}
        for pid, rec in manifest.items():
            assert rec.input_files == files[2 * pid : 2 * pid + 2]
            assert rec.docs == sum(pq.read_metadata(f).num_rows for f in rec.input_files)

        want = {}
        for f in files:
            for r in ExtractActor()(pq.read_table(f)).to_pylist():
                want[r["doc_id"]] = (r["spans"], r["n_spans"], r["n_errors"])
        rows, _files = _output_rows(out)  # asserts no doc_id twice
        assert rows == want

    def test_crash_after_first_commit_reruns_only_the_rest(
        self, ray_session, tmp_path, monkeypatch
    ):
        """The rerun's groups differ from the first attempt's (fewer
        pending files), so its block cuts and file names may differ; its
        rows may not."""
        from exstruct_ray.stages import manifest as mod

        inp = tmp_path / "in"
        _uneven_inputs(inp, self.COUNTS)
        run_extraction_job(str(inp), str(tmp_path / "clean"), files_per_partition=2)
        clean_rows, _ = _output_rows(tmp_path / "clean")

        out = tmp_path / "out"
        real_append = mod._append_manifest
        calls = []

        def crash_after_first(output_dir, record):
            if calls:
                raise OSError("simulated crash during commit")
            calls.append(record.partition_id)
            real_append(output_dir, record)

        monkeypatch.setattr(mod, "_append_manifest", crash_after_first)
        with pytest.raises(OSError, match="simulated crash"):
            run_extraction_job(str(inp), str(out), files_per_partition=2)
        monkeypatch.setattr(mod, "_append_manifest", real_append)
        assert set(load_manifest(str(out))) == set(calls)

        ran = []
        real_build = mod.build_job_dataset

        def record_build(pending, *args, **kwargs):
            ran.extend(pending)
            return real_build(pending, *args, **kwargs)

        monkeypatch.setattr(mod, "build_job_dataset", record_build)
        summary = run_extraction_job(str(inp), str(out), files_per_partition=2)
        assert summary["skipped"] == 1
        assert sorted(ran) == sorted({0, 1, 2, 3, 4} - set(calls))
        assert summary["docs"] == sum(self.COUNTS)
        assert set(load_manifest(str(out))) == {0, 1, 2, 3, 4}
        rows, _ = _output_rows(out)
        assert rows == clean_rows
