"""Overlapping word-chunking tests (size 64, stride 48)."""

import duckdb
import pandas as pd
import pytest


def _chunks(texts, tmp_path):
    frame = pd.DataFrame(
        {
            "doc_id": range(len(texts)),
            "text": texts,
            "lang": "en",
            "source": "t",
            "n_chars": [len(t) for t in texts],
        }
    )
    frame.to_parquet(tmp_path / "documents.parquet")
    from exstruct_ray.queries import doc_chunks

    return doc_chunks(str(tmp_path))


class TestDocChunks:
    def test_boundaries_and_overlap(self, ray_session, tmp_path):
        words = [f"w{i}" for i in range(100)]
        out = _chunks([" ".join(words), "", "one two"], tmp_path)
        d0 = out[out["doc_id"] == 0].reset_index(drop=True)
        # 100 words -> starts 0, 48, 96 -> 3 chunks
        assert d0["chunk_id"].tolist() == [0, 1, 2]
        assert d0["n_words"].tolist() == [64, 52, 4]
        # overlap: chunk 1 starts at word 48 (inside chunk 0)
        assert d0.loc[1, "chunk_text"].split()[0] == "w48"
        assert d0.loc[0, "chunk_text"].split()[-1] == "w63"
        assert d0.loc[2, "chunk_text"] == "w96 w97 w98 w99"
        # empty doc -> no chunks; short doc -> one partial chunk
        assert (out["doc_id"] == 1).sum() == 0
        d2 = out[out["doc_id"] == 2].reset_index(drop=True)
        assert d2["n_words"].tolist() == [2]
        assert d2.loc[0, "chunk_text"] == "one two"

    def test_exact_size_doc_emits_trailing_overlap_chunk(
        self, ray_session, tmp_path
    ):
        words = [f"t{i}" for i in range(64)]
        out = _chunks([" ".join(words)], tmp_path)
        # starts 0 and 48 (48 < 64) -> trailing 16-word chunk
        assert out["n_words"].tolist() == [64, 16]

    def test_matches_sql_oracle(self, ray_session, tmp_path):
        texts = [
            " ".join(f"a{i}" for i in range(130)),
            "short doc",
            "",
            " ".join(f"b{i}" for i in range(48)),
        ]
        out = _chunks(texts, tmp_path)
        from exstruct_ray.queries import ORACLE_SQL

        con = duckdb.connect()
        con.execute(
            "CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{tmp_path}/documents.parquet')"
        )
        expected = con.execute(ORACLE_SQL["doc_chunks"]).df()
        pd.testing.assert_frame_equal(
            out[sorted(out.columns)].reset_index(drop=True),
            expected[sorted(expected.columns)].reset_index(drop=True),
            check_dtype=False,
        )

    def test_all_blank_batch_keeps_typed_columns(self, ray_session, tmp_path):
        """A batch with no chunks returns a typed empty block, so an
        all-blank corpus still yields the four columns."""
        out = _chunks(["", "   ", "\n\t"], tmp_path)
        assert len(out) == 0
        assert list(out.columns) == ["doc_id", "chunk_id", "n_words", "chunk_text"]
        assert [str(out[c].dtype) for c in ("doc_id", "chunk_id", "n_words")] == [
            "int64"
        ] * 3
