"""Ray Data pipeline tests: actor-pool extraction, explode/reassemble, parity
across parallelism levels."""

import pyarrow as pa
import pytest

from exstruct_ray.config import ExtractOptions
from exstruct_ray.datagen.corpus import build_document, generate_corpus_table
from exstruct_ray.extract.document import extract_document_spans
from exstruct_ray.stages.pipeline import build_extraction_pipeline


@pytest.fixture(scope="module")
def corpus_table():
    return generate_corpus_table(30, seed=42)


def _spans_by_doc(rows):
    return {
        r["doc_id"]: [
            (s["kind"], s["text"], s["media_ref"], s["offset"]) for s in r["spans"]
        ]
        for r in rows
    }


class TestPipeline:
    def test_extraction_matches_local(self, ray_session, corpus_table):
        import ray.data

        ds = ray.data.from_arrow(corpus_table)
        out = build_extraction_pipeline(ds, ExtractOptions(), batch_size=8)
        rows = out.take_all()
        assert len(rows) == 30
        got = _spans_by_doc(rows)
        for i in range(30):
            doc = build_document(i, seed=42)
            expected = extract_document_spans(
                [s["kind"] for s in doc["spans"]],
                [s["text"] for s in doc["spans"]],
                [s["media_ref"] for s in doc["spans"]],
            )
            assert got[doc["doc_id"]] == [
                (s.kind, s.text, s.media_ref, s.offset) for s in expected
            ], doc["doc_id"]

    def test_metrics_columns(self, ray_session, corpus_table):
        import ray.data

        ds = ray.data.from_arrow(corpus_table)
        out = build_extraction_pipeline(ds, batch_size=16)
        schema = out.schema()
        assert set(schema.names) >= {"doc_id", "spans", "n_spans", "n_errors", "parse_ms"}
        total_errors = sum(r["n_errors"] for r in out.take_all())
        assert total_errors == 0

    def test_explode_reassemble_matches_whole_doc(self, ray_session):
        """Giant-doc explode path must produce identical span sequences."""
        import ray.data

        docs = [build_document(i, seed=42) for i in range(10)]
        table = pa.Table.from_pylist(docs)
        ds = ray.data.from_arrow(table)
        # threshold=0 forces the explode path for every document
        out = build_extraction_pipeline(ds, explode_threshold=0, batch_size=4)
        got = _spans_by_doc(out.take_all())

        plain = build_extraction_pipeline(ray.data.from_arrow(table), batch_size=4)
        expected = _spans_by_doc(plain.take_all())
        assert got.keys() == expected.keys()
        for doc_id in expected:
            assert got[doc_id] == expected[doc_id], doc_id


class TestWideDocuments:
    def test_200_sheet_document_explodes_and_reassembles(self, ray_session):
        """A pathologically wide doc (200 sheets) through the explode path."""
        import pyarrow as pa
        import ray.data

        from exstruct_ray.datagen.builder import WorkbookBuilder
        from exstruct_ray.datagen.corpus import DOC_SCHEMA

        wb = WorkbookBuilder()
        for s in range(200):
            wb.sheet(f"W{s}").set(1, 0, s).set(2, 0, f"v{s}")
        doc = {"doc_id": "wide", "spans": wb.build_parts()}
        table = pa.Table.from_pylist([doc], schema=DOC_SCHEMA)

        plain = build_extraction_pipeline(
            ray.data.from_arrow(table), batch_size=1
        ).take_all()
        exploded = build_extraction_pipeline(
            ray.data.from_arrow(table), batch_size=1, explode_threshold=0
        ).take_all()
        assert len(plain) == len(exploded) == 1
        p, e = plain[0], exploded[0]
        assert p["n_spans"] == e["n_spans"] == 400
        assert [
            (s["kind"], s["text"], s["media_ref"], s["offset"]) for s in p["spans"]
        ] == [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in e["spans"]]
        # sheet order preserved across the shuffle
        refs = [s["media_ref"] for s in e["spans"]]
        assert refs == [f"W{i}" for i in range(200) for _ in (0, 1)]

    def test_run_job_with_explode(self, ray_session, tmp_path):
        from exstruct_ray.datagen.corpus import write_corpus_parquet
        from exstruct_ray.stages.manifest import run_extraction_job

        write_corpus_parquet(str(tmp_path / "in"), 12, rows_per_file=6)
        summary = run_extraction_job(
            str(tmp_path / "in"),
            str(tmp_path / "out"),
            files_per_partition=1,
            explode_threshold=1000,  # force most docs through the explode path
        )
        assert summary["docs"] == 12
        assert summary["errors"] == 0

    def test_run_job_explode_routes_rows_to_their_partitions(
        self, ray_session, tmp_path
    ):
        """Reassembly blocks mix partitions: every row must still land in
        the directory of its own input file's partition."""
        import os

        import pyarrow.parquet as pq

        from exstruct_ray.datagen.corpus import write_corpus_parquet
        from exstruct_ray.stages.actor import OUTPUT_SCHEMA
        from exstruct_ray.stages.manifest import (
            list_input_files,
            load_manifest,
            run_extraction_job,
        )

        write_corpus_parquet(str(tmp_path / "in"), 12, rows_per_file=4)
        files = list_input_files(str(tmp_path / "in"))
        out = tmp_path / "out"
        summary = run_extraction_job(
            str(tmp_path / "in"),
            str(out),
            files_per_partition=1,
            explode_threshold=0,  # every doc through the explode exchange
        )
        assert summary["executed"] == len(files) == 3
        manifest = load_manifest(str(out))
        for pid, path in enumerate(files):
            want = pq.read_table(path, columns=["doc_id"]).column("doc_id").to_pylist()
            folder = out / f"partition={pid:05d}"
            got = []
            for name in sorted(os.listdir(folder)):
                table = pq.read_table(folder / name)
                assert table.schema.remove_metadata().equals(OUTPUT_SCHEMA)
                got += table.column("doc_id").to_pylist()
            assert sorted(got) == sorted(want)
            assert manifest[pid].docs == pq.read_metadata(path).num_rows
            assert manifest[pid].input_files == [path]

    def test_part_shared_by_two_sheets_replicates(self, ray_session):
        """A chart part referenced from two sheets' drawings must appear in
        BOTH exploded rows (first-wins ownership silently dropped it)."""
        import pyarrow as pa
        import ray.data

        from exstruct_ray.datagen.builder import WorkbookBuilder
        from exstruct_ray.datagen.corpus import DOC_SCHEMA

        wb = WorkbookBuilder()
        a = wb.sheet("Alpha")
        a.set(1, 0, "a")
        a.add_chart("CA", chart_tag="lineChart")
        b = wb.sheet("Beta")
        b.set(1, 0, "b")
        b.add_chart("CB", chart_tag="barChart", bar_dir="col")
        spans = wb.build_parts()
        # Point BOTH drawings' chart rels at the SAME chart part.
        shared_target = "../charts/chart1_1.xml"
        for s in spans:
            if s["media_ref"] == "xl/drawings/_rels/drawing2.xml.rels":
                s["text"] = s["text"].replace("../charts/chart2_1.xml", shared_target)
        doc = {"doc_id": "shared", "spans": spans}
        table = pa.Table.from_pylist([doc], schema=DOC_SCHEMA)

        plain = build_extraction_pipeline(
            ray.data.from_arrow(table), batch_size=1
        ).take_all()[0]
        exploded = build_extraction_pipeline(
            ray.data.from_arrow(table), batch_size=1, explode_threshold=0
        ).take_all()[0]
        p = [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in plain["spans"]]
        e = [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in exploded["spans"]]
        # whole-doc path: chart CA appears on BOTH sheets (same part)
        chart_sheets = [s[2] for s in p if s[0] == "chart"]
        assert chart_sheets == ["Alpha", "Beta"]
        assert e == p
