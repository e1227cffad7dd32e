"""Work a small document skips when no span needs it, and the string-level
helpers that replaced library calls on the per-document path.

Each skip must leave the spans exactly as a full pass would give them:
the stylesheet is parsed only for styled cells, table detection scans
borders only when a cell draws one, and relationship paths and drawing
lookups equal the ``posixpath``/ElementPath results they replace.
"""

from __future__ import annotations

import datetime as dt
import posixpath
import xml.etree.ElementTree as ET

import pytest

from exstruct_ray.config import ExtractOptions
from exstruct_ray.datagen.builder import BOX, WorkbookBuilder
from exstruct_ray.extract.document import extract_document_spans, extract_workbook
from exstruct_ray.ooxml import drawing
from exstruct_ray.ooxml.package import VirtualPackage, normalize_zip_path, rels_path
from exstruct_ray.ooxml.sheet_parser import parse_sheet
from exstruct_ray.ooxml.styles import Stylesheet
from exstruct_ray.tables.detect import detect_tables

OPTS = ExtractOptions().resolved()


class SpyPackage(VirtualPackage):
    """A package that records every part a parser reads."""

    def __init__(self, parts: dict[str, str]):
        super().__init__(parts)
        self.read: list[str] = []

    def read_text(self, path: str) -> str:
        self.read.append(path)
        return super().read_text(path)

    def read_xml(self, path: str) -> ET.Element:
        self.read.append(path)
        return super().read_xml(path)


def _parts(wb: WorkbookBuilder) -> dict[str, str]:
    return {p["media_ref"]: p["text"] for p in wb.build_parts()}


def _spans(parts: dict[str, str]) -> list[tuple[str, str, str]]:
    names = list(parts)
    spans = extract_document_spans(
        ["xml"] * len(names), [parts[n] for n in names], names, OPTS
    )
    return [(s.kind, s.text, s.media_ref) for s in spans]


def _unstyled() -> WorkbookBuilder:
    wb = WorkbookBuilder()
    sh = wb.sheet("Plain")
    sh.fill_block(1, 0, [["name", "qty"], ["a", 1], ["b", 2.5]])
    sh.add_shape("hi", "rect", 10, 10, 50, 20)
    return wb


def _dated(rows: int) -> WorkbookBuilder:
    wb = WorkbookBuilder()
    sh = wb.sheet("Dates")
    sh.set(1, 0, "when")
    for r in range(rows):
        sh.set(2 + r, 0, dt.datetime(2024, 1, 2, 3, 4, 5) + dt.timedelta(days=r))
        sh.set(2 + r, 1, r)
    return wb


class TestStylesOnFirstUse:
    def test_unstyled_workbook_never_reads_styles(self):
        parts = _parts(_unstyled())
        assert "xl/styles.xml" in parts
        pkg = SpyPackage(parts)
        extract_workbook(pkg, OPTS)
        assert "xl/worksheets/sheet1.xml" in pkg.read
        assert "xl/styles.xml" not in pkg.read

    def test_styled_workbook_reads_styles_once(self):
        pkg = SpyPackage(_parts(_dated(2)))
        extract_workbook(pkg, OPTS)
        assert pkg.read.count("xl/styles.xml") == 1

    @pytest.mark.parametrize("rows", [2, 400])  # ElementTree path, scanner path
    def test_date_styled_numbers_render_as_dates(self, rows):
        parts = _parts(_dated(rows))
        if rows > 2:
            assert len(parts["xl/worksheets/sheet1.xml"]) >= 8192
        rows_out = [t for k, t, _ in _spans(parts) if k == "cell_row"]
        assert rows_out[1] == '{"r":2,"c":{"0":"2024-01-02 03:04:05","1":0}}'
        assert rows_out[-1].startswith(f'{{"r":{rows + 1},"c":{{"0":"')

    @pytest.mark.parametrize("build", [_unstyled, lambda: _dated(3)])
    def test_corrupt_styles_degrade_to_defaults(self, build):
        parts = _parts(build())
        missing = {k: v for k, v in parts.items() if k != "xl/styles.xml"}
        corrupt = dict(parts, **{"xl/styles.xml": "<styleSheet><broken"})
        spans = _spans(corrupt)
        assert spans == _spans(missing)
        assert not any(k == "error" for k, _, _ in spans)

    def test_corrupt_styles_render_serials_as_numbers(self):
        parts = _parts(_dated(1))
        parts["xl/styles.xml"] = "<styleSheet><broken"
        rows_out = [t for k, t, _ in _spans(parts) if k == "cell_row"]
        assert rows_out[1] == '{"r":2,"c":{"0":45293.12783564815,"1":0}}'


class TestTablesWithoutBorders:
    def _grid(self, wb: WorkbookBuilder):
        pkg = VirtualPackage(_parts(wb))
        loads: list[int] = []

        def load():
            loads.append(1)
            return []

        styles = Stylesheet(load=load)
        path = "xl/worksheets/sheet1.xml"
        return pkg, path, parse_sheet(pkg, path, "S", [], styles), styles, loads

    def test_unbordered_sheet_keeps_declared_table(self):
        wb = WorkbookBuilder()
        sh = wb.sheet("T")
        sh.fill_block(1, 0, [["k", "v"], ["a", 1], ["b", 2]])
        sh.declare_table("A1:B3")
        pkg, path, grid, styles, loads = self._grid(wb)
        found = detect_tables(pkg, path, grid, styles, OPTS.table_params, OPTS.scan_limits)
        assert found == ["A1:B3"]
        assert loads == []  # no styled cell: the stylesheet is never built

    def test_bordered_sheet_still_scans(self):
        wb = WorkbookBuilder()
        sh = wb.sheet("B")
        sh.fill_block(1, 0, [["k", "v"], ["a", 1], ["b", 2], ["c", 3]], style=BOX)
        spans = _spans(_parts(wb))
        assert ("table", "A1:B4", "B") in spans


class TestPathHelpers:
    SOURCES = [
        "xl/workbook.xml", "xl/worksheets/sheet1.xml", "sheet.xml", "/x",
        "//x", "a//b", "a/", "", "/", "xl/../a.xml",
    ]
    TARGETS = [
        "../x", "/xl/x", "./a", "a//b", "..", "", ".", "../../a/./b/",
        "worksheets/sheet1.xml", "../drawings/drawing1.xml", ".rels", "a/.b",
    ]
    BASES = ["", "xl", "xl/worksheets", "/", "a//", "a/b/", "/xl"]

    @staticmethod
    def _normalize_posix(base_dir: str, target: str) -> str:
        raw = target if target.startswith("/") else posixpath.join(base_dir, target)
        parts: list[str] = []
        for part in raw.split("/"):
            if part in {"", "."}:
                continue
            if part == "..":
                if parts:
                    parts.pop()
                continue
            parts.append(part)
        return "/".join(parts)

    @pytest.mark.parametrize("source", SOURCES)
    def test_rels_path_matches_posixpath(self, source):
        head, tail = posixpath.split(source)
        assert rels_path(source) == posixpath.join(head, "_rels", f"{tail}.rels")

    @pytest.mark.parametrize("base", BASES)
    def test_normalize_matches_posixpath(self, base):
        for target in self.TARGETS:
            assert normalize_zip_path(base, target) == self._normalize_posix(
                base, target
            ), (base, target)

    def test_relationship_targets_resolve_against_source_dir(self):
        rel = "http://schemas.openxmlformats.org/package/2006/relationships"
        pkg = VirtualPackage({
            "xl/worksheets/_rels/sheet1.xml.rels": (
                f'<Relationships xmlns="{rel}">'
                '<Relationship Id="rId1" Type="t" Target="../drawings/d1.xml"/>'
                '<Relationship Id="rId2" Type="t" Target="/xl/media/i.png"/>'
                '<Relationship Id="rId3" Type="t" Target="http://e/x" '
                'TargetMode="External"/></Relationships>'
            ),
        })
        rels = pkg.relationships("xl/worksheets/sheet1.xml")
        assert [r.target for r in rels.values()] == [
            "xl/drawings/d1.xml", "xl/media/i.png", "http://e/x",
        ]


class TestDrawingPathWalker:
    # <b> repeats: the first <b> has no <c>, the second holds two.
    XML = (
        "<r><a><b><x/></b><b><c>one</c><c>two</c></b></a>"
        "<a><b><c/></b></a><d>text</d></r>"
    )
    PATHS = ["a/b/c", "a/b/x", "a/b", "a/c", "d", "q", "a/b/c/z", "b/c"]

    @pytest.mark.parametrize("path", PATHS)
    def test_find_matches_elementpath(self, path):
        root = ET.fromstring(self.XML)
        steps = tuple(path.split("/"))
        assert drawing._find(root, steps) is root.find(path)
        assert drawing._findtext(root, steps) == root.findtext(path, default=None)

    def test_first_match_skips_parent_without_child(self):
        root = ET.fromstring(self.XML)
        assert drawing._findtext(root, ("a", "b", "c")) == "one"
        assert drawing._findtext(root, ("a", "b", "q")) is None

    def test_prefixed_paths_expand_to_clark_names(self):
        assert drawing._path("xdr:spPr/a:xfrm") == (
            "{http://schemas.openxmlformats.org/drawingml/2006/spreadsheetDrawing}spPr",
            "{http://schemas.openxmlformats.org/drawingml/2006/main}xfrm",
        )

    def test_first_text_takes_first_present_path(self):
        root = ET.fromstring("<s><cat><f>A1</f></cat><val><f>B1</f></val></s>")
        paths = (("xVal", "f"), ("cat", "f"), ("val", "f"))
        assert drawing._first_text(root, paths) == "A1"
        assert drawing._first_text(root, (("q", "f"),)) is None
