"""The benchmark's tracer wraps engine attributes by name; renaming one
would silently drop a layer from ``perfbench/run.py --trace 1``. No Ray."""

import inspect

from exstruct_ray.extract import document
from exstruct_ray.ooxml import sheet_parser
from exstruct_ray.ooxml.package import VirtualPackage
from exstruct_ray.ooxml.styles import Stylesheet
from perfbench import tracing


def test_every_traced_attribute_exists():
    tracer = tracing.Tracer()
    wrapped: list[tuple[str, bool]] = []
    install = tracer._install

    def recording_install(owner, attr, make):
        found = install(owner, attr, make)
        wrapped.append((f"{owner.__name__}.{attr}", found))
        return found

    tracer._install = recording_install
    try:
        tracing.instrument(tracer)
    finally:
        tracer.restore()
    assert len(wrapped) >= 18
    assert [name for name, found in wrapped if not found] == []


def test_serialize_hook_reads_out_texts_at_args_3():
    params = list(inspect.signature(document._workbook_spans_into).parameters)
    assert params[3] == "out_texts"


def test_parse_sheet_result_has_cheap_cell_count():
    main = "http://schemas.openxmlformats.org/spreadsheetml/2006/main"
    rows = "".join(f'<row r="{r}"><c r="A{r}"><v>{r}</v></c></row>' for r in range(1, 400))
    pkg = VirtualPackage(
        {"xl/worksheets/sheet1.xml": f'<worksheet xmlns="{main}"><sheetData>{rows}'
         "</sheetData></worksheet>"}
    )
    for fast in (True, False):
        grid = document.parse_sheet(
            pkg, "xl/worksheets/sheet1.xml", "S", [], Stylesheet(), allow_fast_path=fast
        )
        assert len(grid.cells) == 399
        assert grid.cells._cells is None  # counted without building the dict
    assert sheet_parser._parse_sheet_fast(
        pkg, "xl/worksheets/sheet1.xml", "S", pkg.read_text("xl/worksheets/sheet1.xml"),
        [], Stylesheet(),
    ) is not None
