"""Chunk/range reader tests over the extracted span table."""

import pytest

from exstruct_ray.config import ExtractOptions
from exstruct_ray.datagen.builder import WorkbookBuilder
from exstruct_ray.readers import (
    read_cells,
    read_formulas,
    read_range,
    read_span_chunk,
)


@pytest.fixture(scope="module")
def span_ds(ray_session):
    import pyarrow as pa
    import ray.data

    from exstruct_ray.datagen.corpus import DOC_SCHEMA
    from exstruct_ray.stages.pipeline import build_extraction_pipeline

    wb = WorkbookBuilder()
    sh = wb.sheet("S")
    sh.fill_block(1, 0, [["a", "b", "c"], [1, 2, 3], [4, 5, 6]])
    sh.set(5, 1, 10, formula="B2*5")
    docs = [{"doc_id": "d0", "spans": wb.build_parts()}]
    ds = ray.data.from_arrow(pa.Table.from_pylist(docs, schema=DOC_SCHEMA))
    out = build_extraction_pipeline(
        ds, ExtractOptions(mode="verbose"), batch_size=4
    )
    return out


class TestReaders:
    def test_read_range(self, span_ds):
        matrix = read_range(span_ds, "d0", "S", "A1:C3")
        assert matrix == [["a", "b", "c"], [1, 2, 3], [4, 5, 6]]
        sparse = read_range(span_ds, "d0", "S", "A4:B5")
        assert sparse == [[None, None], [None, 10]]

    def test_read_cells(self, span_ds):
        out = read_cells(span_ds, "d0", "S", ["A1", "B2", "Z9", "B5"])
        assert out == {"A1": "a", "B2": 2, "Z9": None, "B5": 10}

    def test_read_formulas(self, span_ds):
        out = read_formulas(span_ds, "d0", "S")
        assert out == {"=B2*5": [[5, 1]]}
        assert read_formulas(span_ds, "d0", "S", "A1:C3") == {}

    def test_chunk_pagination(self, span_ds):
        first = read_span_chunk(span_ds, "d0", max_bytes=40)
        assert first["spans"]
        assert not first["eof"]
        seen = [s["offset"] for s in first["spans"]]
        cursor = first["cursor"]
        while cursor:
            page = read_span_chunk(span_ds, "d0", max_bytes=40, cursor=cursor)
            seen.extend(s["offset"] for s in page["spans"])
            cursor = page["cursor"]
        full = read_span_chunk(span_ds, "d0", max_bytes=10**9)
        assert seen == [s["offset"] for s in full["spans"]]

    def test_chunk_kind_filter(self, span_ds):
        page = read_span_chunk(span_ds, "d0", kinds=["formulas_map"])
        assert [s["kind"] for s in page["spans"]] == ["formulas_map"]

    def test_missing_doc(self, span_ds):
        with pytest.raises(KeyError):
            read_range(span_ds, "nope", "S", "A1")
