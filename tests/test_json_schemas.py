"""Published JSON Schemas (schemas/*.json) validate real payloads.

Parity artifact with the reference's schemas/ directory (VERDICT r4
item 7): 12 draft-2020-12 files, deterministic generator output, and
every golden extraction payload validates against the workbook schema.

Payloads of a generated workbook (``datagen.builder``) are validated
always; the reference's sample workbooks and schema inventory only when
its checkout is present.
"""

import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

REPO = Path(__file__).resolve().parent.parent
REF = Path("/root/reference")

needs_reference = pytest.mark.skipif(
    not REF.exists(), reason="reference checkout not available"
)

EXPECTED_FILES = {
    "arrow", "cell_row", "chart", "chart_series", "merged_cells",
    "print_area", "print_area_view", "shape", "sheet", "smartart",
    "smartart_node", "workbook",
}


def _validator(name: str):
    schema = json.loads((REPO / "schemas" / f"{name}.json").read_text())
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)


class TestSchemaFiles:
    def test_inventory_matches_reference(self):
        ours = {p.stem for p in (REPO / "schemas").glob("*.json")}
        assert ours == EXPECTED_FILES

    @needs_reference
    def test_inventory_matches_reference_checkout(self):
        ours = {p.stem for p in (REPO / "schemas").glob("*.json")}
        ref = {p.stem for p in (REF / "schemas").glob("*.json")}
        assert ours == ref  # same public-model inventory

    def test_generator_is_deterministic(self, tmp_path):
        from exstruct_ray.schemas import model_schemas

        for name, schema in model_schemas().items():
            on_disk = json.loads(
                (REPO / "schemas" / f"{name}.json").read_text()
            )
            assert on_disk == schema, f"{name}.json stale — rerun generator"

    def test_all_schemas_are_valid_draft2020(self):
        for name in EXPECTED_FILES:
            _validator(name)


class TestPayloadValidation:
    @needs_reference
    @pytest.mark.parametrize(
        "xlsx,opts",
        [
            ("sample/basic/sample.xlsx", {}),
            ("sample/flowchart/sample-shape-connector.xlsx", {}),
            ("sample/smartart/sample_smartart.xlsx", {}),
            ("sample/gantt_chart/en/sample.xlsx", {}),
            ("sample/formula/formula.xlsx", {"include_formulas_map": True}),
        ],
    )
    def test_workbook_payloads_validate(self, xlsx, opts):
        from exstruct_ray.api import extract
        from exstruct_ray.config import ExtractOptions
        from exstruct_ray.extract.serialize import workbook_payload

        payload = workbook_payload(
            extract(str(REF / xlsx), ExtractOptions(mode="light", **opts))
        )
        _validator("workbook").validate(payload)
        for sheet in payload["sheets"].values():
            _validator("sheet").validate(sheet)

    @needs_reference
    def test_verbose_mode_validates(self):
        from exstruct_ray.api import extract
        from exstruct_ray.config import ExtractOptions
        from exstruct_ray.extract.serialize import workbook_payload

        payload = workbook_payload(
            extract(
                str(REF / "sample/basic/sample.xlsx"),
                ExtractOptions(mode="verbose"),
            )
        )
        _validator("workbook").validate(payload)

    @needs_reference
    def test_backend_metadata_mode_validates(self):
        from exstruct_ray.api import extract
        from exstruct_ray.config import ExtractOptions
        from exstruct_ray.extract.serialize import workbook_payload

        payload = workbook_payload(
            extract(
                str(REF / "sample/flowchart/sample-shape-connector.xlsx"),
                ExtractOptions(mode="light"),
            ),
            include_backend_metadata=True,
        )
        _validator("workbook").validate(payload)

    @needs_reference
    def test_print_area_view_validates(self):
        from exstruct_ray.api import extract
        from exstruct_ray.config import ExtractOptions
        from exstruct_ray.extract.views import build_print_area_views
        from exstruct_ray.models import PrintArea

        workbook = extract(
            str(REF / "sample/basic/sample.xlsx"),
            ExtractOptions(mode="light"),
        )
        v = _validator("print_area_view")
        n_views = 0
        for sheet_name, sheet in workbook.sheets.items():
            # the samples declare no print areas; slice a synthetic one
            # so the view payload exercises rows/shapes/charts clipping
            sheet.print_areas = [PrintArea(r1=1, c1=0, r2=20, c2=10)]
            for view in build_print_area_views(
                workbook.book_name, sheet_name, sheet
            ):
                v.validate(view.to_payload())
                n_views += 1
        assert n_views > 0

    def test_schema_rejects_malformed_payload(self):
        v = _validator("workbook")
        with pytest.raises(jsonschema.ValidationError):
            v.validate({"sheets": {}})  # book_name missing
        with pytest.raises(jsonschema.ValidationError):
            v.validate(
                {
                    "book_name": "b",
                    "sheets": {"s": {"rows": [{"c": {}}]}},  # r missing
                }
            )


def _generated_workbook(**opts):
    """A generated workbook covering what the reference samples cover:
    bordered cells and a table, a shape plus a connector, a chart, a
    formula, a hyperlink and a merged cell, and a print area on each
    sheet. SmartArt stays covered by the reference samples only:
    ``WorkbookBuilder`` cannot emit it."""
    from exstruct_ray.api import extract
    from exstruct_ray.config import ExtractOptions
    from exstruct_ray.datagen.builder import BOX, WorkbookBuilder

    wb = WorkbookBuilder()
    table = wb.sheet("Table")
    table.fill_block(
        1, 0, [["item", "qty", "price"], ["a", 1, 2.5], ["b", 3, 4.0]], style=BOX
    )
    table.set(4, 1, 4, formula="SUM(B2:B3)")
    table.link(2, 0, "https://example.com/a")
    table.set(1, 5, "merged").merge("F1:G1")
    flow = wb.sheet("Flow")
    start = flow.add_shape("start", prst="flowChartTerminator", x_pt=20, y_pt=20)
    end = flow.add_shape("end", x_pt=20, y_pt=120)
    flow.add_connector(60, 60, 0, 60, start_id=start, end_id=end)
    chart = wb.sheet("Chart")
    chart.fill_block(1, 0, [["m", 1], ["n", 2]])
    chart.add_chart(
        "Sales",
        chart_tag="barChart",
        bar_dir="col",
        title="Sales",
        series=[
            {
                "name": "qty",
                "cat_range": "Chart!$A$1:$A$2",
                "val_range": "Chart!$B$1:$B$2",
            }
        ],
    )
    for name in ("Table", "Flow", "Chart"):
        wb.print_area(name, "$A$1:$N$30")
    workbook = extract(wb.build_parts(), ExtractOptions(**opts))
    workbook.book_name = "generated.xlsx"  # spans carry no file name
    return workbook


class TestGeneratedPayloadValidation:
    @pytest.mark.parametrize(
        "opts, backend_metadata",
        [
            ({}, False),
            ({"include_formulas_map": True}, False),
            ({"mode": "verbose"}, False),
            ({}, True),
        ],
    )
    def test_workbook_payloads_validate(self, opts, backend_metadata):
        from exstruct_ray.extract.serialize import workbook_payload

        payload = workbook_payload(
            _generated_workbook(**opts), include_backend_metadata=backend_metadata
        )
        _validator("workbook").validate(payload)
        for sheet in payload["sheets"].values():
            _validator("sheet").validate(sheet)
        # The features are really in what was validated.
        table, flow, chart = (payload["sheets"][n] for n in ("Table", "Flow", "Chart"))
        assert table["table_candidates"] == ["A1:C3"]
        assert [s["kind"] for s in flow["shapes"]] == ["shape", "shape", "arrow"]
        assert chart["charts"][0]["series"][0]["name"] == "qty"
        formulas = opts.get("include_formulas_map") or opts.get("mode") == "verbose"
        assert ("formulas_map" in table) == bool(formulas)
        assert ("links" in table["rows"][1]) == (opts.get("mode") == "verbose")
        assert ("merged_cells" in table) == (opts.get("mode") == "verbose")
        assert ("provenance" in flow["shapes"][0]) == backend_metadata

    def test_print_area_view_validates(self):
        from exstruct_ray.extract.views import build_print_area_views

        workbook = _generated_workbook(mode="verbose")
        v = _validator("print_area_view")
        views = [
            view.to_payload()
            for sheet_name, sheet in workbook.sheets.items()
            for view in build_print_area_views(workbook.book_name, sheet_name, sheet)
        ]
        for view in views:
            v.validate(view)
        table_view, flow_view, chart_view = views
        assert table_view["rows"] and flow_view["shapes"] and chart_view["charts"]
