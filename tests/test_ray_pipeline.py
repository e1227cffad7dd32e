"""Ray Data pipeline tests: the one extraction UDF (task mode), in-task
explode/reassemble, parity across parallelism levels."""

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
        # sheet order preserved through the split and reassembly
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
        """Every doc exploded: every row must still land in the directory
        of its own input file's partition."""
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
            explode_threshold=0,  # every doc split and reassembled in its task
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


def _sheet_row(doc_id, sheet_idx, texts, n_errors=0, parse_ms=1.0):
    return {
        "doc_id": doc_id,
        "spans": [
            {"kind": "cell_row", "text": t, "media_ref": f"S{sheet_idx}", "offset": i}
            for i, t in enumerate(texts)
        ],
        "n_spans": len(texts),
        "n_errors": n_errors,
        "parse_ms": parse_ms,
        "sheet_idx": sheet_idx,
    }


class TestReassembly:
    def test_sliced_multichunk_out_of_order_rows(self):
        """The Arrow reassembly: a sliced, two-chunk table whose sheet rows
        arrive out of order."""
        from exstruct_ray.stages.actor import OUTPUT_SCHEMA
        from exstruct_ray.stages.pipeline import _SHEET_SCHEMA, assemble_sheet_rows

        rows = [
            _sheet_row("junk", 0, ["x", "y"]),  # sliced away below
            _sheet_row("b", 2, ["b2"], n_errors=1),
            _sheet_row("a", 1, ["a1a", "a1b"], n_errors=2, parse_ms=2.0),
            _sheet_row("b", 0, ["b0a", "b0b", "b0c"]),
            _sheet_row("a", 0, ["a0"], n_errors=3),
            _sheet_row("b", 1, []),
        ]
        first = pa.Table.from_pylist(rows[:3], schema=_SHEET_SCHEMA)
        second = pa.Table.from_pylist(rows[3:], schema=_SHEET_SCHEMA)
        table = pa.concat_tables([first, second]).slice(1)
        assert table.column("spans").num_chunks == 2
        assert table.column("spans").chunk(0).offset == 1

        out = assemble_sheet_rows(table)
        assert out.schema.equals(OUTPUT_SCHEMA)
        got = out.to_pylist()
        assert [r["doc_id"] for r in got] == ["a", "b"]
        a, b = got
        assert [s["text"] for s in a["spans"]] == ["a0", "a1a", "a1b"]
        assert [s["text"] for s in b["spans"]] == ["b0a", "b0b", "b0c", "b2"]
        assert [s["media_ref"] for s in b["spans"]] == ["S0", "S0", "S0", "S2"]
        assert [s["offset"] for s in a["spans"]] == [0, 1, 2]
        assert [s["offset"] for s in b["spans"]] == [0, 1, 2, 3]
        assert (a["n_spans"], a["n_errors"], a["parse_ms"]) == (3, 5, 3.0)
        assert (b["n_spans"], b["n_errors"], b["parse_ms"]) == (4, 1, 3.0)

    def test_no_rows(self):
        from exstruct_ray.stages.actor import OUTPUT_SCHEMA
        from exstruct_ray.stages.pipeline import _SHEET_SCHEMA, assemble_sheet_rows

        out = assemble_sheet_rows(_SHEET_SCHEMA.empty_table())
        assert out.num_rows == 0 and out.schema.equals(OUTPUT_SCHEMA)

    def test_payload_counts_characters_of_sliced_lists(self):
        from exstruct_ray.stages.pipeline import doc_payload_chars

        spans = pa.chunked_array(
            [
                pa.array(
                    [
                        [{"kind": "x", "text": "zzzz", "media_ref": "", "offset": 0}],
                        [{"kind": "x", "text": "äö", "media_ref": "", "offset": 0},
                         {"kind": "x", "text": None, "media_ref": "", "offset": 1}],
                        [],
                    ],
                    pa.list_(pa.struct([("kind", pa.string()), ("text", pa.string()),
                                        ("media_ref", pa.string()), ("offset", pa.int32())])),
                ).slice(1)
            ]
        )
        assert doc_payload_chars(spans).tolist() == [2, 0]


class TestWideDocumentInTask:
    def _wide(self, doc_id):
        from exstruct_ray.datagen.builder import WorkbookBuilder

        wb = WorkbookBuilder()
        for s in range(200):
            wb.sheet(f"W{s}").set(1, 0, s).set(2, 0, f"v{s}")
        return {"doc_id": doc_id, "spans": wb.build_parts()}

    def _run(self, docs, **kwargs):
        import ray.data

        from exstruct_ray.datagen.corpus import DOC_SCHEMA

        table = pa.Table.from_pylist(docs, schema=DOC_SCHEMA)
        out = build_extraction_pipeline(ray.data.from_arrow(table), batch_size=None, **kwargs)
        return out.materialize()

    @staticmethod
    def _rows(ds):
        import ray

        table = pa.concat_tables(ray.get(ds.to_arrow_refs()))
        return table.column("doc_id").to_pylist(), table.column("spans").combine_chunks()

    def test_explode_gives_the_plain_bytes(self, ray_session):
        """The 200-sheet doc split and reassembled in its task, alone among
        small docs and next to a twin: doc order and spans byte-identical
        to the explode-off path, and one map operator."""
        from tests.test_manifest import operator_lines

        docs = [build_document(i, seed=42) for i in range(4)]
        for batch in (
            [self._wide("wide-b"), self._wide("wide-a")],
            [docs[0], self._wide("wide"), *docs[1:]],
        ):
            plain = self._rows(self._run(batch))
            exploded = self._run(batch, explode_threshold=0)
            ids, spans = self._rows(exploded)
            assert ids == plain[0] == [d["doc_id"] for d in batch]
            assert spans.equals(plain[1])
            assert [op for op in operator_lines(exploded) if "MapBatches" in op] == [
                op for op in operator_lines(exploded) if "split_or_extract" in op
            ]

    def test_no_threshold_measures_and_splits_nothing(self, monkeypatch):
        """Without ``explode_threshold`` the UDF is one ``ExtractActor``
        call on the whole batch, even with a 200-sheet doc in it: run
        in-process with the payload measure and the splitter made to
        raise."""
        from exstruct_ray.datagen.corpus import DOC_SCHEMA
        from exstruct_ray.stages import pipeline
        from exstruct_ray.stages.actor import ExtractActor

        class Plan:  # stands in for a Dataset: hands back the mapped UDF
            def map_batches(self, fn, **_kwargs):
                return fn

        def forbidden(*_args):
            raise AssertionError("must not run without explode_threshold")

        docs = [build_document(0, seed=42), self._wide("wide"), build_document(1, seed=42)]
        batch = pa.Table.from_pylist(docs, schema=DOC_SCHEMA)
        udf = build_extraction_pipeline(Plan(), batch_size=None)
        monkeypatch.setattr(pipeline, "doc_payload_chars", forbidden)
        monkeypatch.setattr(pipeline, "_split_doc_by_sheet", forbidden)
        out = udf(batch)
        want = ExtractActor()(batch)
        assert out.schema.equals(want.schema)
        # parse_ms is a timing; every other column is byte-identical.
        for name in ("doc_id", "spans", "n_spans", "n_errors"):
            assert out.column(name).equals(want.column(name)), name
        assert out.column("n_spans").to_pylist()[1] == 400
