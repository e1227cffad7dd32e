"""Fast sheet scanner vs the ElementTree path: the same cell table.

Every sheet here is 8 KB or more, the size from which ``parse_sheet``
takes the scanner; ``_parse_sheet_fast`` is also called directly so a
silent fallback to ElementTree cannot hide a divergence.
"""

import xml.etree.ElementTree as ET

import pytest

from exstruct_ray.config import ExtractOptions
from exstruct_ray.extract.document import extract_workbook, workbook_to_spans
from exstruct_ray.ooxml import sheet_parser as sp
from exstruct_ray.ooxml.package import VirtualPackage
from exstruct_ray.ooxml.styles import parse_styles

MAIN = "http://schemas.openxmlformats.org/spreadsheetml/2006/main"
R = "http://schemas.openxmlformats.org/officeDocument/2006/relationships"
REL = "http://schemas.openxmlformats.org/package/2006/relationships"
SHEET = "xl/worksheets/sheet1.xml"

# Styled, empty cells far right: they make the part big enough for the
# scanner and add no span (no value, no border, no fill).
FILLER = "".join(f'<row r="{r}"><c r="Z{r}" s="0"/></row>' for r in range(100, 400))

STYLES = (
    f'<styleSheet xmlns="{MAIN}">'
    '<fills count="3"><fill><patternFill patternType="none"/></fill>'
    '<fill><patternFill patternType="gray125"/></fill>'
    '<fill><patternFill patternType="solid"><fgColor rgb="FFFFFF00"/>'
    "</patternFill></fill></fills>"
    '<borders count="1"><border/></borders>'
    '<cellXfs count="3"><xf numFmtId="0" fillId="0" borderId="0"/>'
    '<xf numFmtId="0" fillId="2" borderId="0"/>'
    '<xf numFmtId="14" fillId="0" borderId="0"/></cellXfs></styleSheet>'
)


def _package(sheet_data: str, shared: list[str] = (), date1904: bool = False):
    sst = "".join(f"<si><t>{s}</t></si>" for s in shared)
    pr = '<workbookPr date1904="1"/>' if date1904 else ""
    return VirtualPackage(
        {
            "xl/workbook.xml": (
                f'<workbook xmlns="{MAIN}" xmlns:r="{R}">{pr}'
                '<sheets><sheet name="S" sheetId="1" r:id="rId1"/></sheets></workbook>'
            ),
            "xl/_rels/workbook.xml.rels": (
                f'<Relationships xmlns="{REL}"><Relationship Id="rId1" '
                f'Type="{R}/worksheet" Target="worksheets/sheet1.xml"/></Relationships>'
            ),
            "xl/sharedStrings.xml": f'<sst xmlns="{MAIN}">{sst}</sst>',
            "xl/styles.xml": STYLES,
            SHEET: f'<worksheet xmlns="{MAIN}"><sheetData>{sheet_data}{FILLER}'
            "</sheetData></worksheet>",
        }
    )


def _both(pkg: VirtualPackage, date1904: bool = False):
    shared = sp.parse_shared_strings(pkg)
    styles = parse_styles(pkg.read_xml("xl/styles.xml"))
    raw = pkg.read_text(SHEET)
    assert len(raw) >= 8192
    fast = sp._parse_sheet_fast(pkg, SHEET, "S", raw, shared, styles, date1904=date1904)
    et = sp.parse_sheet(
        pkg, SHEET, "S", shared, styles, allow_fast_path=False, date1904=date1904
    )
    return fast, et


def _assert_same(fast, et):
    assert fast is not None, "scanner fell back to ElementTree"
    assert fast.table == et.table
    assert (fast.min_row, fast.min_col, fast.max_row, fast.max_col) == (
        et.min_row, et.min_col, et.max_row, et.max_col,
    )
    assert dict(fast.cells) == dict(et.cells)


def _spans(pkg: VirtualPackage, mode: str = "verbose"):
    wb = extract_workbook(pkg, ExtractOptions(mode=mode).resolved())
    return [(s.kind, s.text) for s in workbook_to_spans(wb, ExtractOptions(mode=mode).resolved())]


class TestCanonicalOrder:
    # Rows and cells out of order; A2 given twice (the later, styled one
    # wins); A1 given again empty and unstyled (it must not erase A1);
    # shared-string index 7 is out of range (an empty value: kept when
    # styled, dropped when not); booleans, an error and a date serial read
    # in the 1904 system.
    SHEET_DATA = (
        '<row r="3"><c r="C3" t="s"><v>1</v></c><c r="A3" t="b"><v>1</v></c>'
        '<c r="B3" t="e"><v>#DIV/0!</v></c></row>'
        '<row r="2"><c r="B2" s="2"><v>45000.5</v></c><c r="A2"><v>5</v></c>'
        '<c r="D2" t="s" s="1"><v>7</v></c><c r="E2" t="s"><v>7</v></c></row>'
        '<row r="1"><c r="B1"><v>1.50</v></c><c r="A1" t="s"><v>0</v></c></row>'
        '<row r="2"><c r="A2" s="1"><v>42</v></c></row>'
        '<row r="1"><c r="A1"/></row>'
        '<row r="3"><c r="E3" t="b"><v>0</v></c></row>'
    )
    # Spans of this sheet, verbose mode, as computed before the cell table.
    EXPECTED_SPANS = [
        ("cell_row", '{"r":1,"c":{"0":"alpha","1":1.5}}'),
        ("cell_row", '{"r":2,"c":{"0":42,"1":"2027-03-16 12:00:00"}}'),
        ("cell_row", '{"r":3,"c":{"0":"True","1":"#DIV/0!","2":"beta","4":"False"}}'),
        ("colors_map", '{"FFFF00":[[2,0],[2,3]]}'),
    ]

    def test_columns_and_bounds_match(self):
        fast, et = _both(_package(self.SHEET_DATA, ["alpha", "beta"]), date1904=True)
        _assert_same(fast, et)
        t = fast.table
        assert list(zip(t.rows, t.cols))[:9] == [
            (1, 0), (1, 1), (2, 0), (2, 1), (2, 3), (3, 0), (3, 1), (3, 2), (3, 4),
        ]
        assert t.values[:9] == [
            "alpha", "1.5", "42", "2027-03-16 12:00:00", "", "True", "#DIV/0!",
            "beta", "False",
        ]
        assert t.styles[:9] == [None, None, 1, 2, 1, None, None, None, None]
        assert (fast.min_row, fast.min_col, fast.max_row, fast.max_col) == (1, 1, 399, 26)

    def test_spans_pinned(self):
        pkg = _package(self.SHEET_DATA, ["alpha", "beta"], date1904=True)
        assert _spans(pkg) == self.EXPECTED_SPANS


class TestSharedStringIndex:
    # Styled t="s" cells, so an empty value is kept: -1 and len(sst) are
    # out of range (the sst index is unsigned, -1 must not wrap to the
    # last entry); 1 is the last entry; "+0" is index 0.
    SHEET_DATA = (
        '<row r="1"><c r="A1" t="s" s="1"><v>-1</v></c>'
        '<c r="B1" t="s" s="1"><v>2</v></c>'
        '<c r="C1" t="s" s="1"><v>1</v></c>'
        '<c r="D1" t="s" s="1"><v>+0</v></c></row>'
    )

    def test_out_of_range_is_empty_on_both_paths(self):
        fast, et = _both(_package(self.SHEET_DATA, ["alpha", "beta"]))
        _assert_same(fast, et)
        for parsed in (fast, et):
            assert parsed.table.values[:4] == ["", "", "beta", "alpha"]


class TestSharedFormulaQuotes:
    def test_single_quoted_shared_formula(self):
        data = (
            '<row r="1"><c r="A1"><v>1</v></c>'
            "<c r=\"B1\"><f t='shared' ref='B1:B3' si='0'>A1*2</f><v>2</v></c></row>"
            '<row r="2"><c r="A2"><v>2</v></c>'
            "<c r=\"B2\"><f t='shared' si='0'/><v>4</v></c></row>"
            '<row r="3"><c r="A3"><v>3</v></c>'
            '<c r="B3"><f t="shared" si="0"/><v>6</v></c></row>'
        )
        fast, et = _both(_package(data))
        _assert_same(fast, et)
        assert [fast.cells[(r, 1)].formula for r in (1, 2, 3)] == [
            "A1*2", "A2*2", "A3*2",
        ]
        spans = dict(_spans(_package(data)))
        assert spans["formulas_map"] == (
            '{"=A1*2":[[1,1]],"=A2*2":[[2,1]],"=A3*2":[[3,1]]}'
        )


class TestEntityDecoding:
    def test_character_references_follow_xml(self):
        data = (
            '<row r="1"><c r="A1" t="str"><v>a&#150;b&#x80;c</v></c>'
            '<c r="B1" t="str"><v>&lt;&amp;&gt;&quot;&apos;&#x1F600;</v></c>'
            '<c r="C1"><f>"&amp;"&amp;A1</f><v>x</v></c></row>'
        )
        fast, et = _both(_package(data))
        _assert_same(fast, et)
        assert fast.value_at(1, 0) == "a\x96b\x80c"
        assert fast.value_at(1, 1) == "<&>\"'\U0001F600"
        assert fast.cells[(1, 2)].formula == '"&"&A1'

    @pytest.mark.parametrize("text", ["a&nbsp;b", "a&#1;b", "a & b"])
    def test_non_xml_references_fall_back(self, text):
        pkg = _package(f'<row r="1"><c r="A1" t="str"><v>{text}</v></c></row>')
        shared = sp.parse_shared_strings(pkg)
        styles = parse_styles(pkg.read_xml("xl/styles.xml"))
        raw = pkg.read_text(SHEET)
        assert sp._parse_sheet_fast(pkg, SHEET, "S", raw, shared, styles) is None
        # ElementTree rejects the part, on either path.
        for fast_path in (True, False):
            with pytest.raises(ET.ParseError):
                sp.parse_sheet(
                    pkg, SHEET, "S", shared, styles, allow_fast_path=fast_path
                )

    def test_carriage_returns_normalized(self):
        data = '<row r="1"><c r="A1" t="str"><v>a\r\nb\rc</v></c></row>'
        fast, et = _both(_package(data))
        _assert_same(fast, et)
        assert fast.value_at(1, 0) == "a\nb\nc"


class TestCellMap:
    def test_len_reads_the_table(self):
        fast, _ = _both(_package('<row r="1"><c r="A1"><v>1</v></c></row>'))
        view = fast.cells
        assert len(view) == len(fast.table) == 301
        assert view._cells is None  # len() built no dict
        assert view[(1, 0)] == sp.Cell(value="1")
        assert (1, 0) in view and (1, 1) not in view
        with pytest.raises(TypeError):
            view[(1, 1)] = sp.Cell(value="x")
