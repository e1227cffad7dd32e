"""Light renderer tests: hand-built PDF structure, PNG raster, Ray stage."""

import re

import numpy as np
import pytest

from exstruct_ray.edit import make_workbook
from exstruct_ray.ops.media import decode_png
from exstruct_ray.render import (
    export_pdf,
    export_sheet_images,
    workbook_to_pdf_bytes,
    workbook_to_sheet_pngs,
)


@pytest.fixture(scope="module")
def sample_xlsx(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("render") / "book.xlsx")
    result = make_workbook(
        [
            {"op": "set_range_values", "sheet": "Data", "range": "A1:B3",
             "values": [["name", "qty"], ["alpha", 1], ["beta", 2]]},
            {"op": "merge_cells", "sheet": "Data", "range": "C1:D1"},
            {"op": "add_sheet", "sheet": "Notes"},
            {"op": "set_value", "sheet": "Notes", "cell": "A1",
             "value": "hello (world) \\ test"},
        ],
        sheet="Data",
        out_path=path,
    )
    assert result.error is None
    return path


class TestPdf:
    def test_structure_and_content(self, sample_xlsx, tmp_path):
        out = str(tmp_path / "book.pdf")
        names = export_pdf(sample_xlsx, out)
        assert names == ["Data", "Notes"]
        pdf = open(out, "rb").read()
        assert pdf.startswith(b"%PDF-1.4")
        assert pdf.rstrip().endswith(b"%%EOF")
        # one page per sheet
        assert pdf.count(b"/Type /Page ") == 2
        # uncompressed streams: cell text is greppable
        for token in (b"(Data)", b"(name)", b"(qty)", b"(alpha)", b"(beta)"):
            assert token in pdf, token
        # special characters escaped, not raw
        assert rb"(hello \(world\) \\ test" in pdf

    def test_xref_offsets_are_exact(self, sample_xlsx):
        from exstruct_ray.render import _workbook_from_source

        pdf, _ = workbook_to_pdf_bytes(_workbook_from_source(sample_xlsx))
        start = int(re.search(rb"startxref\n(\d+)\n", pdf).group(1))
        assert pdf[start : start + 4] == b"xref"
        entries = re.findall(rb"(\d{10}) 00000 n", pdf[start:])
        for i, off in enumerate(entries, start=1):
            at = int(off)
            assert pdf[at : at + len(f"{i} 0 obj")] == f"{i} 0 obj".encode()

    def test_merged_and_table_boxes_drawn(self, sample_xlsx, tmp_path):
        pdf = open(export_pdf(sample_xlsx, str(tmp_path / "b.pdf")) and
                   str(tmp_path / "b.pdf"), "rb").read()
        assert b"0 0 1 RG" in pdf  # merged-range box (blue stroke)


class TestPng:
    def test_sheet_images(self, sample_xlsx, tmp_path):
        paths = export_sheet_images(sample_xlsx, str(tmp_path / "imgs"))
        assert [p.rsplit("/", 1)[-1] for p in paths] == ["Data.png", "Notes.png"]
        px = decode_png(open(paths[0], "rb").read())
        assert px.ndim == 3 and px.shape[2] == 3
        # text and grid drawn: dark pixels exist, plus pure-blue merged box
        assert (px < 100).any()
        blue = (px[:, :, 2] == 255) & (px[:, :, 0] == 0)
        assert blue.any()

    def test_named_sheet_selection(self, sample_xlsx, tmp_path):
        paths = export_sheet_images(sample_xlsx, str(tmp_path / "one"), sheet="Notes")
        assert len(paths) == 1 and paths[0].endswith("Notes.png")
        with pytest.raises(ValueError):
            export_sheet_images(sample_xlsx, str(tmp_path / "x"), sheet="Nope")

    def test_deterministic(self, sample_xlsx):
        from exstruct_ray.render import _workbook_from_source

        wb = _workbook_from_source(sample_xlsx)
        assert workbook_to_sheet_pngs(wb) == workbook_to_sheet_pngs(wb)


class TestRenderCorpus:
    def test_png_rows_per_sheet_and_pdf_rows_per_doc(self, ray_session):
        import ray.data

        from exstruct_ray.datagen.corpus import generate_corpus_table
        from exstruct_ray.render import render_corpus

        ds = ray.data.from_arrow(generate_corpus_table(6, seed=42))
        png_rows = render_corpus(ds, fmt="png", batch_size=3).to_pandas()
        assert len(png_rows) >= 6  # at least one sheet per doc
        assert set(png_rows.columns) == {"doc_id", "sheet_name", "payload"}
        px = decode_png(bytes(png_rows["payload"].iloc[0]))
        assert px.shape[2] == 3

        pdf_rows = render_corpus(ds, fmt="pdf", batch_size=3).to_pandas()
        assert len(pdf_rows) == 6
        assert all(bytes(p).startswith(b"%PDF") for p in pdf_rows["payload"])

    def test_render_feeds_media_pipeline(self, ray_session):
        """End-to-end multimodal composition: render sheets to PNG payloads,
        then run the media feature-extraction stage on the rendered images
        — the render output IS a valid media corpus."""
        import ray.data

        from exstruct_ray.datagen.corpus import generate_corpus_table
        from exstruct_ray.ops.media import extract_media_features
        from exstruct_ray.render import render_corpus

        docs = ray.data.from_arrow(generate_corpus_table(4, seed=42))
        rendered = render_corpus(docs, fmt="png", batch_size=2)
        media = rendered.map_batches(
            lambda b: b.rename(columns={"doc_id": "media_id"})[
                ["media_id", "payload"]
            ],
            batch_format="pandas",
        )
        feats = extract_media_features(media, batch_size=2).to_pandas()
        assert len(feats) >= 4
        # real decode path, not the stub: the payloads are genuine PNGs
        assert set(feats["decoder"]) <= {"png", "pil"}
        # mostly-white sheets → bright mean-channel features
        assert all(f[0] > 150 for f in feats["feature"])

    def test_poison_doc_emits_no_rows_not_failure(self, ray_session):
        import ray.data

        from exstruct_ray.render import render_corpus

        ds = ray.data.from_items(
            [{"doc_id": "bad", "spans": [
                {"kind": "part", "text": "<not-xml", "media_ref": "xl/workbook.xml",
                 "offset": 0},
            ]}]
        )
        out = render_corpus(ds, fmt="png").to_pandas()
        assert len(out) == 0

    def test_all_failed_batch_is_typed_empty_block(self, ray_session):
        import pyarrow as pa
        import ray.data

        from exstruct_ray.render import render_corpus

        ds = ray.data.from_items(
            [{"doc_id": "bad", "spans": [
                {"kind": "part", "text": "<not-xml", "media_ref": "xl/workbook.xml",
                 "offset": 0},
            ]}]
        )
        schema = render_corpus(ds, fmt="pdf").materialize().schema()
        assert schema.names == ["doc_id", "sheet_name", "payload"]
        assert schema.types == [pa.string(), pa.string(), pa.binary()]

    def test_unknown_fmt_raises_at_call_time(self, ray_session):
        import ray.data

        from exstruct_ray.render import render_corpus

        ds = ray.data.from_items([{"doc_id": "a", "spans": []}])
        with pytest.raises(ValueError, match="Unsupported render fmt"):
            render_corpus(ds, fmt="gif")
