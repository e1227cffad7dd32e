"""Edit/patch subsystem tests: all 21 ops, round-trips, corpus stage."""

import pytest

from exstruct_ray.edit import (
    EditWorkbook,
    PatchOp,
    apply_ops,
    apply_patch,
    emit_spans,
    emit_xlsx_bytes,
    load_workbook,
    make_workbook,
)
from exstruct_ray.ooxml.package import VirtualPackage


def _extract(parts_or_spans):
    from exstruct_ray.config import ExtractOptions
    from exstruct_ray.extract.document import extract_workbook

    if isinstance(parts_or_spans, dict):
        package = VirtualPackage(dict(parts_or_spans))
    else:
        package = VirtualPackage.from_spans(
            [s["kind"] for s in parts_or_spans],
            [s["text"] for s in parts_or_spans],
            [s["media_ref"] for s in parts_or_spans],
        )
    return extract_workbook(package, ExtractOptions(mode="verbose").resolved())


class TestMakeWorkbook:
    def test_values_formulas_roundtrip_through_extractor(self):
        result = make_workbook(
            [
                {"op": "set_value", "sheet": "Sheet1", "cell": "A1", "value": "name"},
                {"op": "set_value", "sheet": "Sheet1", "cell": "B1", "value": 42},
                {"op": "set_value", "sheet": "Sheet1", "cell": "B2", "value": 2.5},
                {"op": "set_formula", "sheet": "Sheet1", "cell": "B3",
                 "formula": "=B1*B2"},
            ]
        )
        assert result.error is None
        wb = _extract(result.parts)
        rows = {r.r: r.c for r in wb.sheets["Sheet1"].rows}
        assert rows[1] == {"0": "name", "1": 42}
        assert rows[2] == {"1": 2.5}
        assert wb.sheets["Sheet1"].formulas_map == {"=B1*B2": [(3, 1)]}

    def test_add_sheet_and_duplicate_error(self):
        result = make_workbook(
            [{"op": "add_sheet", "sheet": "Extra"}], sheet="Main"
        )
        assert result.error is None
        assert list(_extract(result.parts).sheets) == ["Main", "Extra"]

        dup = make_workbook(
            [{"op": "add_sheet", "sheet": "Main"}], sheet="Main"
        )
        assert dup.error is not None
        assert "already exists" in dup.error.message

    def test_set_range_values_shape_checked(self):
        ok = make_workbook(
            [
                {"op": "set_range_values", "sheet": "Sheet1", "range": "A1:B2",
                 "values": [[1, 2], [3, 4]]},
            ]
        )
        assert ok.error is None
        rows = {r.r: r.c for r in _extract(ok.parts).sheets["Sheet1"].rows}
        assert rows == {1: {"0": 1, "1": 2}, 2: {"0": 3, "1": 4}}

        bad = make_workbook(
            [
                {"op": "set_range_values", "sheet": "Sheet1", "range": "A1:B2",
                 "values": [[1, 2]]},
            ]
        )
        assert bad.error is not None
        assert "does not match" in bad.error.message

    def test_fill_formula_translates_from_base(self):
        result = make_workbook(
            [
                {"op": "fill_formula", "sheet": "Sheet1", "range": "C2:C4",
                 "base_cell": "C2", "formula": "=A2*B2"},
            ]
        )
        assert result.error is None
        formulas = _extract(result.parts).sheets["Sheet1"].formulas_map
        assert formulas == {
            "=A2*B2": [(2, 2)],
            "=A3*B3": [(3, 2)],
            "=A4*B4": [(4, 2)],
        }

    def test_fill_formula_rejects_rectangles(self):
        result = make_workbook(
            [
                {"op": "fill_formula", "sheet": "Sheet1", "range": "A1:B2",
                 "base_cell": "A1", "formula": "=1"},
            ]
        )
        assert result.error is not None
        assert "single row or a single column" in result.error.message

    def test_conditional_ops_skip_on_mismatch(self):
        result = make_workbook(
            [
                {"op": "set_value", "sheet": "Sheet1", "cell": "A1", "value": "x"},
                # expected mismatch -> skipped
                {"op": "set_value_if", "sheet": "Sheet1", "cell": "A1",
                 "expected": "y", "value": "z"},
                # expected None matches empty cell -> applied
                {"op": "set_value_if", "sheet": "Sheet1", "cell": "A2",
                 "expected": None, "value": "filled"},
                # matching expected -> applied
                {"op": "set_formula_if", "sheet": "Sheet1", "cell": "A1",
                 "expected": "x", "formula": "=1+1"},
            ]
        )
        assert result.error is None
        statuses = [d.status for d in result.patch_diff]
        assert statuses == ["applied", "skipped", "applied", "applied"]
        wb = _extract(result.parts)
        rows = {r.r: r.c for r in wb.sheets["Sheet1"].rows}
        assert rows[2] == {"0": "filled"}
        assert "=1+1" in wb.sheets["Sheet1"].formulas_map

    def test_set_value_rejects_formula_without_auto(self):
        result = make_workbook(
            [{"op": "set_value", "sheet": "Sheet1", "cell": "A1", "value": "=SUM(B:B)"}]
        )
        assert result.error is not None
        assert "rejects values starting with '='" in result.error.message

        ok = make_workbook(
            [{"op": "set_value", "sheet": "Sheet1", "cell": "A1",
              "value": "=SUM(B1:B2)"}],
            auto_formula=True,
        )
        assert ok.error is None
        assert "=SUM(B1:B2)" in _extract(ok.parts).sheets["Sheet1"].formulas_map


class TestStyleOps:
    def test_fill_color_visible_to_extractor(self):
        result = make_workbook(
            [
                {"op": "set_value", "sheet": "Sheet1", "cell": "B2", "value": 1},
                {"op": "set_fill_color", "sheet": "Sheet1", "cell": "B2",
                 "color": "ff0000"},  # alias color -> fill_color
            ]
        )
        assert result.error is None
        wb = _extract(result.parts)
        assert wb.sheets["Sheet1"].colors_map == {"FF0000": [(2, 1)]}

    def test_grid_border_detected_as_table(self):
        ops = [
            {"op": "set_range_values", "sheet": "Sheet1", "range": "A1:C3",
             "values": [["h1", "h2", "h3"], [1, 2, 3], [4, 5, 6]]},
            {"op": "draw_grid_border", "sheet": "Sheet1", "cell": "A1",
             "row_count": 3, "col_count": 3},
        ]
        result = make_workbook(ops)
        assert result.error is None
        wb = _extract(result.parts)
        assert wb.sheets["Sheet1"].table_candidates == ["A1:C3"]

    def test_merge_and_unmerge(self):
        result = make_workbook(
            [
                {"op": "set_value", "sheet": "Sheet1", "cell": "A1", "value": "top"},
                {"op": "set_value", "sheet": "Sheet1", "cell": "B1", "value": "gone"},
                {"op": "merge_cells", "sheet": "Sheet1", "range": "A1:B2"},
            ]
        )
        assert result.error is None
        assert any("may clear" in w or "cleared" in w for w in result.warnings)
        wb = _extract(result.parts)
        merged = wb.sheets["Sheet1"].merged_cells
        assert merged is not None
        assert [(m.r1, m.c1, m.r2, m.c2, m.v) for m in merged] == [
            (1, 0, 2, 1, "top")
        ]

        overlap = make_workbook(
            [
                {"op": "merge_cells", "sheet": "Sheet1", "range": "A1:B2"},
                {"op": "merge_cells", "sheet": "Sheet1", "range": "B2:C3"},
            ]
        )
        assert overlap.error is not None
        assert "overlaps" in overlap.error.message

        unmerge = make_workbook(
            [
                {"op": "merge_cells", "sheet": "Sheet1", "range": "A1:B2"},
                {"op": "merge_cells", "sheet": "Sheet1", "range": "D1:E1"},
                {"op": "unmerge_cells", "sheet": "Sheet1", "range": "A1:D1"},
            ]
        )
        assert unmerge.error is None
        wb2 = _extract(unmerge.parts)
        assert not wb2.sheets["Sheet1"].merged_cells

    def test_dimensions_and_autofit(self):
        result = make_workbook(
            [
                {"op": "set_value", "sheet": "Sheet1", "cell": "A1",
                 "value": "a long content string"},
                {"op": "set_dimensions", "sheet": "Sheet1", "rows": [2],
                 "row_height": 30.0, "columns": ["B"], "column_width": 20.0},
                {"op": "auto_fit_columns", "sheet": "Sheet1", "columns": ["A"],
                 "max_width": 18.0},
            ]
        )
        assert result.error is None
        sheet_xml = next(
            xml for path, xml in result.parts.items()
            if path.endswith("sheet1.xml")
        )
        assert 'ht="30"' in sheet_xml
        assert 'width="20"' in sheet_xml
        # len("a long content string") == 21 -> 23, clamped to 18
        assert 'width="18"' in sheet_xml

    def test_apply_table_style(self):
        result = make_workbook(
            [
                {"op": "set_range_values", "sheet": "Sheet1", "range": "A1:B2",
                 "values": [["h1", "h2"], [1, 2]]},
                {"op": "apply_table_style", "sheet": "Sheet1", "range": "A1:B2",
                 "style": "TableStyleMedium2", "table_name": "T1"},
            ]
        )
        assert result.error is None
        wb = _extract(result.parts)
        # declared table ref takes detection priority
        assert wb.sheets["Sheet1"].table_candidates == ["A1:B2"]

    def test_apply_table_style_inverse_removes_table(self):
        base = make_workbook(
            [{"op": "set_range_values", "sheet": "Sheet1", "range": "A1:B2",
              "values": [["h1", "h2"], [1, 2]]}]
        )
        assert base.error is None
        patched = apply_patch(
            parts_spans(base.parts),
            [{"op": "apply_table_style", "sheet": "Sheet1", "range": "A1:B2",
              "style": "TableStyleMedium2", "table_name": "T1"}],
            return_inverse_ops=True,
        )
        assert patched.error is None
        assert len(patched.inverse_ops) == 1
        assert _extract(patched.parts).sheets["Sheet1"].table_candidates == ["A1:B2"]
        # replaying the inverse fully undoes the patch: the table is gone
        restored = apply_patch(parts_spans(patched.parts), patched.inverse_ops)
        assert restored.error is None
        wb = _extract(restored.parts)
        assert wb.sheets["Sheet1"].table_candidates != ["A1:B2"]

    def test_create_chart_rejected_without_com(self):
        result = make_workbook(
            [{"op": "create_chart", "sheet": "Sheet1", "chart_type": "line"}]
        )
        assert result.error is not None
        assert "COM" in result.error.message


class TestPatchExisting:
    def _base_spans(self):
        result = make_workbook(
            [
                {"op": "set_value", "sheet": "Sheet1", "cell": "A1", "value": "v1"},
                {"op": "set_value", "sheet": "Sheet1", "cell": "A2", "value": 10},
                {"op": "set_fill_color", "sheet": "Sheet1", "cell": "A1",
                 "fill_color": "00FF00"},
                {"op": "merge_cells", "sheet": "Sheet1", "range": "C1:D1"},
            ]
        )
        assert result.error is None
        return emit_spans_from(result.parts)

    def test_patch_preserves_unrelated_state(self):
        spans = self._base_spans()
        patched = apply_patch(
            spans,
            [{"op": "set_value", "sheet": "Sheet1", "cell": "A2", "value": 11}],
        )
        assert patched.error is None
        wb = _extract(patched.parts)
        rows = {r.r: r.c for r in wb.sheets["Sheet1"].rows}
        assert rows[1] == {"0": "v1"}
        assert rows[2] == {"0": 11}
        # fill + merge survived the load -> patch -> emit round trip
        assert wb.sheets["Sheet1"].colors_map == {"00FF00": [(1, 0)]}
        merged = wb.sheets["Sheet1"].merged_cells
        assert merged is not None
        assert [(m.r1, m.c1, m.r2, m.c2, m.v) for m in merged] == [
            (1, 2, 1, 3, " ")
        ]

    def test_dry_run_produces_diff_only(self):
        spans = self._base_spans()
        result = apply_patch(
            spans,
            [{"op": "set_value", "sheet": "Sheet1", "cell": "A2", "value": 99}],
            dry_run=True,
        )
        assert result.error is None
        assert result.parts is None
        assert result.patch_diff[0].before.value == 10
        assert result.patch_diff[0].after.value == 99

    def test_inverse_ops_restore_values(self):
        spans = self._base_spans()
        patched = apply_patch(
            spans,
            [
                {"op": "set_value", "sheet": "Sheet1", "cell": "A2", "value": 77},
                {"op": "set_value", "sheet": "Sheet1", "cell": "B5", "value": "new"},
            ],
            return_inverse_ops=True,
        )
        assert patched.error is None
        assert len(patched.inverse_ops) == 2
        restored = apply_patch(
            parts_spans(patched.parts), patched.inverse_ops
        )
        assert restored.error is None
        wb = _extract(restored.parts)
        rows = {r.r: r.c for r in wb.sheets["Sheet1"].rows}
        assert rows[2] == {"0": 10}
        assert 5 not in rows  # B5 cleared back to empty

    def test_error_aborts_without_output(self):
        spans = self._base_spans()
        result = apply_patch(
            spans,
            [
                {"op": "set_value", "sheet": "Sheet1", "cell": "A2", "value": 1},
                {"op": "set_value", "sheet": "Nope", "cell": "A1", "value": 2},
            ],
        )
        assert result.error is not None
        assert result.error.op_index == 1
        assert result.parts is None

    def test_xlsx_bytes_roundtrip(self, tmp_path):
        result = make_workbook(
            [{"op": "set_value", "sheet": "S", "cell": "A1", "value": "x"}],
            sheet="S",
            out_path=str(tmp_path / "out.xlsx"),
        )
        assert result.out_path is not None
        data = (tmp_path / "out.xlsx").read_bytes()
        package = VirtualPackage.from_xlsx_bytes(data)
        wb = load_workbook(package)
        assert wb.sheets["S"].cells[(1, 1)].value == "x"


class TestPatchCorpus:
    def test_corpus_patch_stage(self, ray_session):
        import ray.data

        spans = make_workbook(
            [{"op": "set_value", "sheet": "Sheet1", "cell": "A1", "value": "orig"}]
        )
        doc_spans = emit_spans_from(spans.parts)
        docs = [{"doc_id": f"d{i}", "spans": doc_spans} for i in range(6)]
        # one poison doc with unparseable spans
        docs.append({"doc_id": "poison", "spans": [
            {"kind": "workbook", "text": "<broken", "media_ref": "xl/workbook.xml",
             "offset": 0},
        ]})
        ds = ray.data.from_items(docs)

        from exstruct_ray.edit import patch_corpus

        out = patch_corpus(
            ds,
            [
                {"op": "set_value", "sheet": "Sheet1", "cell": "A1",
                 "value": "patched"},
                {"op": "set_value_if", "sheet": "Sheet1", "cell": "B1",
                 "expected": "nope", "value": "x"},
            ],
            batch_size=4,
        ).to_pandas()
        good = out[out["doc_id"] != "poison"]
        assert (good["n_applied"] == 1).all()
        assert (good["n_skipped"] == 1).all()
        assert (good["patch_error"] == "").all()
        poison = out[out["doc_id"] == "poison"].iloc[0]
        assert poison["patch_error"] != ""
        # patched docs re-extract with the new value
        wb = _extract([dict(s) for s in good.iloc[0]["spans"]])
        assert wb.sheets["Sheet1"].rows[0].c == {"0": "patched"}


def emit_spans_from(parts: dict) -> list[dict]:
    from exstruct_ray.edit import parts_to_spans

    return parts_to_spans(parts)


def parts_spans(parts: dict) -> list[dict]:
    return emit_spans_from(parts)


class TestExternalValidity:
    def test_xlsx_opens_in_openpyxl_if_available(self, tmp_path):
        openpyxl = pytest.importorskip("openpyxl")
        result = make_workbook(
            [
                {"op": "set_value", "sheet": "S", "cell": "A1", "value": "hi"},
                {"op": "set_value", "sheet": "S", "cell": "B1", "value": 7},
                {"op": "set_bold", "sheet": "S", "cell": "A1"},
                {"op": "merge_cells", "sheet": "S", "range": "A3:B3"},
            ],
            sheet="S",
            out_path=str(tmp_path / "v.xlsx"),
        )
        assert result.error is None
        wb = openpyxl.load_workbook(str(tmp_path / "v.xlsx"))
        ws = wb["S"]
        assert ws["A1"].value == "hi" and ws["B1"].value == 7
        assert ws["A1"].font.bold
        assert [str(r) for r in ws.merged_cells.ranges] == ["A3:B3"]


class TestOpValidation:
    def test_unknown_op_and_fields(self):
        with pytest.raises(ValueError, match="Unknown patch op"):
            PatchOp.from_dict({"op": "explode", "sheet": "S"})
        with pytest.raises(ValueError, match="Unknown fields"):
            PatchOp.from_dict({"op": "set_value", "sheet": "S", "zap": 1})

    def test_alias_normalization(self):
        op = PatchOp.from_dict({"op": "add_sheet", "name": "New"})
        assert op.sheet == "New"
        op2 = PatchOp.from_dict(
            {"op": "set_dimensions", "sheet": "S", "row": [1], "height": 10.0}
        )
        assert op2.rows == [1] and op2.row_height == 10.0

    def test_style_target_cap(self):
        workbook = EditWorkbook()
        workbook.add_sheet("S")
        result = apply_ops(
            workbook,
            [{"op": "set_bold", "sheet": "S", "range": "A1:Z600"}],
        )
        assert result.error is not None
        assert "max 10000" in result.error.message


class TestReviewFixes:
    def test_inverse_ops_roundtrip_through_json(self):
        """Inverse ops must survive JSON serialization (the CLI output) and
        re-apply: styles restore to default on previously-empty cells."""
        import dataclasses
        import json as _json

        result = make_workbook(
            [
                {"op": "set_bold", "sheet": "Sheet1", "cell": "A1"},
                {"op": "set_fill_color", "sheet": "Sheet1", "cell": "B2",
                 "fill_color": "FF0000"},
            ],
            return_inverse_ops=True,
        )
        assert result.error is None
        encoded = _json.dumps(
            [dataclasses.asdict(op) for op in result.inverse_ops]
        )
        decoded = [
            {k: v for k, v in op.items() if v is not None}
            for op in _json.loads(encoded)
        ]
        restored = apply_patch(emit_spans_from(result.parts), decoded)
        assert restored.error is None
        styles_xml = restored.parts["xl/styles.xml"]
        assert "<b/>" not in styles_xml
        assert "FF0000" not in styles_xml

    def test_set_range_values_and_fill_formula_inverses(self):
        base = make_workbook(
            [{"op": "set_range_values", "sheet": "Sheet1", "range": "A1:B1",
              "values": [["keep1", "keep2"]]}]
        )
        patched = apply_patch(
            emit_spans_from(base.parts),
            [
                {"op": "set_range_values", "sheet": "Sheet1", "range": "A1:B1",
                 "values": [["new1", "new2"]]},
                {"op": "fill_formula", "sheet": "Sheet1", "range": "C1:C2",
                 "base_cell": "C1", "formula": "=A1"},
            ],
            return_inverse_ops=True,
        )
        assert patched.error is None
        assert len(patched.inverse_ops) == 4  # 2 range cells + 2 fill cells
        restored = apply_patch(
            emit_spans_from(patched.parts), patched.inverse_ops
        )
        wb = _extract(restored.parts)
        rows = {r.r: r.c for r in wb.sheets["Sheet1"].rows}
        assert rows[1] == {"0": "keep1", "1": "keep2"}
        assert not wb.sheets["Sheet1"].formulas_map

    def test_set_style_rejects_invalid_alignment(self):
        result = make_workbook(
            [{"op": "set_style", "sheet": "Sheet1", "cell": "A1",
              "horizontal_align": "middle"}]
        )
        assert result.error is not None
        assert "Invalid horizontal_align" in result.error.message
